"""Independent brute-force reference implementations.

Everything here avoids the library's dynamic programs: paths are
enumerated explicitly (recursively or as dense index arrays) and scored
one by one, so a DP bug cannot hide in its own oracle.  The beam
search's reference, ``reference_decode``, builds its hypotheses one
object at a time where the decoder works on arrays, over a trie of its
own made from the lexicon's spellings.  ``reference_load_arpa`` and
``reference_load_lexicon`` are the loaders that read a whole file into
memory and split it into lines; the streaming loaders must build the
same models or raise the same messages.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from convasr.alphabet import Alphabet
from convasr.criterion import logadd
from convasr.decoder import DecodeError, DecodeResult, _checked_scores
from convasr.lm import (
    EOS,
    LN10,
    ArpaParseError,
    LexiconTrie,
    LMError,
    NGramLM,
    _checked_spelling,
    score_word,
)


def path_score(path, f, trans, start):
    """Score one frame labeling: start + emissions + transitions."""
    s = start[path[0]] + f[0, path[0]]
    for t in range(1, len(path)):
        s += trans[path[t - 1], path[t]] + f[t, path[t]]
    return s


def logadd_ref(values):
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return -np.inf
    m = values.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(values - m).sum()))


def enumerate_graph_paths(graph):
    """All frame labelings accepted by a Lattice: every walk of
    ``num_frames`` states along its links from an initial state to an
    accepting one."""
    paths = []

    def extend(state, acc):
        acc = acc + [state]
        if len(acc) == graph.num_frames:
            if graph.accepting[state]:
                paths.append(acc)
            return
        for q in graph.dst[graph.src == state]:
            extend(int(q), acc)

    for s in np.flatnonzero(graph.initial):
        extend(int(s), [])
    return [[int(graph.labels[s]) for s in p] for p in paths]


def enumerate_asg_paths(labels, num_frames):
    """Monotone alignments of a label sequence over T frames.

    Independent of any graph code: choose the advance positions among
    the T-1 frame gaps (stars and bars), then repeat each label.
    """
    n = len(labels)
    if n == 0 or num_frames < n:
        return []
    paths = []
    for cuts in itertools.combinations(range(1, num_frames), n - 1):
        bounds = (0,) + cuts + (num_frames,)
        path = []
        for i in range(n):
            path.extend([labels[i]] * (bounds[i + 1] - bounds[i]))
        paths.append(path)
    return paths


def enumerate_chain_paths(units, optional, num_frames):
    """Frame labelings of a chain, from its definition alone: keep every
    mandatory unit and any subset of the optional ones, then give each
    kept unit one or more consecutive frames, in order.  Each (kept set,
    durations) pair is one walk of the chain's lattice, so a labeling
    that two walks spell appears twice."""
    paths = []
    for keep in itertools.product(*[(True, False) if o else (True,) for o in optional]):
        kept = [u for u, k in zip(units, keep) if k]
        paths += enumerate_asg_paths(kept, num_frames)
    return paths


def enumerate_ctc_paths(labels, blank, num_frames):
    """Valid blank-interleaved frame labelings, textbook recursion."""
    if num_frames < 1:  # every path visits a state at frame 0
        return []
    ext = [blank]
    for lab in labels:
        ext += [lab, blank]
    S = len(ext)
    out = []

    def rec(t, s, acc):
        acc = acc + [ext[s]]
        if t == num_frames - 1:
            if s >= S - 2:
                out.append(acc)
            return
        nxt = [s, s + 1]
        if s + 2 < S and ext[s] != blank and ext[s + 2] != ext[s]:
            nxt.append(s + 2)
        for q in nxt:
            if q < S:
                rec(t + 1, q, acc)

    for s0 in (0, 1):
        if s0 < S:
            rec(0, s0, [])
    return out


def full_scores_bruteforce(f, trans, start):
    """Scores of every one of the L^T frame labelings, enumerated densely."""
    T, L = f.shape
    paths = np.indices((L,) * T).reshape(T, -1)
    scores = start[paths[0]] + f[0, paths[0]]
    for t in range(1, T):
        scores = scores + trans[paths[t - 1], paths[t]] + f[t, paths[t]]
    return scores


def asg_loss_bruteforce(f, trans, start, labels):
    num = [path_score(p, f, trans, start) for p in enumerate_asg_paths(labels, f.shape[0])]
    den = full_scores_bruteforce(f, trans, start)
    return -logadd_ref(num) + logadd_ref(den)


def ctc_loss_bruteforce(f, labels, blank):
    L = f.shape[1]
    zeros_t = np.zeros((L, L))
    zeros_s = np.zeros(L)
    paths = enumerate_ctc_paths(labels, blank, f.shape[0])
    return -logadd_ref([path_score(p, f, zeros_t, zeros_s) for p in paths])


def central_difference(fn, array, i, step=1e-4):
    """Central finite difference of fn() wrt array.flat[i] (in place)."""
    flat = array.reshape(-1)
    orig = flat[i]
    flat[i] = orig + step
    hi = fn()
    flat[i] = orig - step
    lo = fn()
    flat[i] = orig
    return (hi - lo) / (2.0 * step)


def levenshtein_full_matrix(ref, hyp):
    """Quadratic DP with the full matrix kept (reference for the two-row one)."""
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]),
            )
    return int(d[n, m])


def prefix_best_unigram(spellings, prefix, word_scores):
    """Brute-force max unigram score over the words whose spelling starts
    with ``prefix`` (a tuple of grapheme ids)."""
    return max(
        (s for spelling, s in zip(spellings, word_scores) if tuple(spelling[: len(prefix)]) == prefix),
        default=-np.inf,
    )


def node_prefixes(trie):
    """The spelling prefix of each node of a ``LexiconTrie``, read off its
    arrays: node c is a child of node n when first[n] <= c < first[n + 1]."""
    prefixes = [()] + [None] * (trie.label.size - 1)
    for n in range(trie.label.size):
        for c in range(trie.first[n], trie.first[n + 1]):
            prefixes[c] = prefixes[n] + (int(trie.label[c]),)
    return prefixes


def sort_based_prune(hypotheses, scores, beam_size, beam_threshold):
    """Reference selection: threshold then stable top-k by score."""
    best = max(scores)
    kept = [i for i, s in enumerate(scores) if s >= best - beam_threshold]
    kept.sort(key=lambda i: (-scores[i], i))
    kept = sorted(kept[:beam_size])
    return [hypotheses[i] for i in kept]


def relative_close(analytic, numeric, rtol=1e-5, atol=1e-7):
    return abs(analytic - numeric) <= atol + rtol * max(abs(analytic), abs(numeric))


@dataclass
class _Hypothesis:
    """One search hypothesis of ``reference_decode``."""

    node: tuple  # spelling prefix (the root, (), between words)
    lm_state: tuple
    last_label: int
    acoustic: float
    lm10: float  # committed n-gram mass, log10
    words: tuple  # committed word ids
    total: float


def _reference_prune(frontier, cfg, root):
    """Threshold, then a stable top-``beam_size`` cap over hypotheses off
    ``root``; ties keep input order."""
    if not frontier:
        return []
    cut = max(h.total for h in frontier) - cfg.beam_threshold
    kept = [h for h in frontier if h.total >= cut]
    capped = sorted((-h.total, i) for i, h in enumerate(kept) if h.node != root)
    if len(capped) > cfg.beam_size:
        top = {i for _, i in capped[: cfg.beam_size]}
        kept = [h for i, h in enumerate(kept) if h.node == root or i in top]
    return kept


def reference_decode(emissions, transitions, lm, lexicon, cfg, nbest=10):
    """The beam search that builds every candidate, one hypothesis object
    at a time: each frame, every hypothesis offers its stay, its silence
    and its advances (with the word commits they complete) to one table
    keyed on (trie node, LM state, last label), in that order, and the
    table is pruned.  Its trie is built here from ``lexicon.spellings``,
    a node being a spelling prefix, and smeared with ``lm`` by brute force.
    ``convasr.decoder.decode``, given the lexicon smeared with ``lm``,
    must return the same n-best lists bit for bit, or raise the same
    ``DecodeError``."""
    if nbest < 1:
        raise ValueError("nbest must be >= 1")
    f = _checked_scores(emissions, transitions, lexicon)
    sil = lexicon.alphabet.silence_id
    spellings = [tuple(s) for s in lexicon.spellings]
    root = ()
    nodes = {s[:k] for s in spellings for k in range(len(s) + 1)}
    children = {p: sorted(q[-1] for q in nodes if q[:-1] == p and q != root) for p in nodes}
    word_ids = {p: [w for w, s in enumerate(spellings) if s == p] for p in nodes}
    unigram = [score_word(lm, (), w)[0] for w in lexicon.words]
    smeared = {p: prefix_best_unigram(spellings, p, unigram) for p in nodes}
    begin = f.shape[1]  # virtual start label: its transition row is the start score
    trans = np.vstack([transitions.trans, transitions.start]).tolist()
    frontier = [_Hypothesis(root, lm.start_state(), begin, 0.0, 0.0, (), 0.0)]
    lm_weight = cfg.alpha * LN10

    def score(acoustic, lm10, node, words):
        smear10 = 0.0 if node == root else smeared[node]
        lm_term = lm_weight * (lm10 + smear10) if lm_weight else 0.0
        return acoustic + lm_term + cfg.beta * len(words)

    def admit(node, lm_state, label, acoustic, lm10, words):
        key = (node, lm_state, label)
        total = score(acoustic, lm10, node, words)
        old = merged.get(key)
        if old is None or total > old.total:
            # the winner keeps its history; logadd mode adds the loser's mass
            if old is not None and cfg.mode == "logadd":
                acoustic = float(np.logaddexp(acoustic, old.acoustic))
                total = score(acoustic, lm10, node, words)
            merged[key] = _Hypothesis(node, lm_state, label, acoustic, lm10, words, total)
        elif cfg.mode == "logadd":
            old.acoustic = float(np.logaddexp(old.acoustic, acoustic))
            old.total = score(old.acoustic, old.lm10, node, old.words)

    def extend(hyp, node, label):
        acoustic = hyp.acoustic + trans[hyp.last_label][label] + frame[label]
        admit(node, hyp.lm_state, label, acoustic, hyp.lm10, hyp.words)
        return acoustic

    for frame in f.tolist():
        merged = {}
        for hyp in frontier:
            last = hyp.last_label
            if last != begin:
                extend(hyp, hyp.node, last)
            at_root = hyp.node == root
            if at_root and cfg.silence != "none" and last != sil:
                extend(hyp, root, sil)
            if at_root and cfg.silence == "mandatory" and last not in (sil, begin):
                continue
            for gid in children[hyp.node]:
                if gid == last:
                    continue
                acoustic = extend(hyp, hyp.node + (gid,), gid)
                for wid in word_ids[hyp.node + (gid,)]:
                    s, state = score_word(lm, hyp.lm_state, lexicon.words[wid])
                    admit(root, state, gid, acoustic, hyp.lm10 + s, hyp.words + (wid,))
        frontier = _reference_prune(list(merged.values()), cfg, root)

    complete = {}
    for hyp in frontier:
        if hyp.node == root:
            complete.setdefault(hyp.words, []).append(hyp)
    if not complete:
        raise DecodeError(
            "no complete hypothesis survived decoding "
            "(beam too narrow, threshold too tight, or utterance too short)"
        )
    results = []
    for words, hyps in complete.items():
        scores = [h.acoustic for h in hyps]
        acoustic = max(scores) if cfg.mode == "max" else logadd(scores)
        lm10 = hyps[0].lm10
        if EOS in lm.vocab:
            lm10 += score_word(lm, hyps[0].lm_state, EOS)[0]
        total = score(acoustic, lm10, root, words)
        results.append(DecodeResult([lexicon.words[w] for w in words], total, acoustic, LN10 * lm10))
    results.sort(key=lambda r: -r.score)
    return results[:nbest]


def _reference_read_text(path, error: type) -> str:
    """The file decoded as UTF-8; an undecodable byte raises ``error``
    naming its line (counted as ``str.splitlines`` counts)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line breaks before the bad byte, plus one
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise error(f"line {line}: byte {data[exc.start]:#04x} is not valid UTF-8") from None


def reference_load_arpa(path) -> NGramLM:
    """Parse an ARPA model; malformed input raises with a line number."""
    lines = _reference_read_text(path, ArpaParseError).splitlines()

    def fail(lineno, msg):
        raise ArpaParseError(f"line {lineno}: {msg}")

    counts: dict[int, int] = {}
    i = 0
    n_lines = len(lines)
    while i < n_lines and lines[i].strip() != "\\data\\":
        if lines[i].strip():
            fail(i + 1, f"expected \\data\\ header, got {lines[i].strip()!r}")
        i += 1
    if i == n_lines:
        fail(n_lines, "missing \\data\\ header")
    i += 1
    while i < n_lines:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("\\"):
            break
        if not line.startswith("ngram "):
            fail(i + 1, f"expected 'ngram N=count', got {line!r}")
        try:
            order_part, count_part = line[len("ngram ") :].split("=")
            order, count = int(order_part), int(count_part)
        except ValueError:
            fail(i + 1, f"cannot parse count line {line!r}")
        if order < 1 or count < 0:
            fail(i + 1, f"invalid ngram count {line!r}")
        if order in counts:
            fail(i + 1, f"duplicate count for order {order}")
        counts[order] = count
        i += 1
    if not counts:
        fail(i, "no ngram counts declared")
    max_order = max(counts)
    if sorted(counts) != list(range(1, max_order + 1)):
        fail(i, f"non-contiguous ngram orders {sorted(counts)}")

    vocab: dict[str, int] = {}
    words: list[str] = []
    tables: list[dict] = [dict() for _ in range(max_order + 1)]
    seen_sections: set[int] = set()
    order = None
    while i < n_lines:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line == "\\end\\":
            for n in range(1, max_order + 1):
                if n not in seen_sections:
                    fail(i + 1, f"missing \\{n}-grams: section")
                if len(tables[n]) != counts[n]:
                    fail(
                        i + 1,
                        f"{n}-gram section has {len(tables[n])} entries, "
                        f"header declared {counts[n]}",
                    )
            return NGramLM(max_order, vocab, words, tables)
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                order = int(line[1 : -len("-grams:")])
            except ValueError:
                fail(i + 1, f"bad section header {line!r}")
            if order not in counts:
                fail(i + 1, f"section \\{order}-grams: not declared in \\data\\")
            if order in seen_sections:
                fail(i + 1, f"duplicate \\{order}-grams: section")
            seen_sections.add(order)
            i += 1
            continue
        if order is None:
            fail(i + 1, f"entry before any section: {line!r}")
        parts = line.split()
        has_backoff = len(parts) == order + 2
        if not has_backoff and len(parts) != order + 1:
            fail(i + 1, f"expected {order + 1} or {order + 2} fields, got {len(parts)}")
        if has_backoff and order == max_order:
            fail(i + 1, "backoff weight on highest-order entry")
        try:
            prob = float(parts[0])
            backoff = float(parts[-1]) if has_backoff else 0.0
        except ValueError:
            fail(i + 1, f"bad float in entry {line!r}")
        if not prob <= 0.0:
            fail(i + 1, f"positive or NaN log10 probability {prob}")
        if not backoff < math.inf:
            fail(i + 1, f"infinite or NaN log10 backoff {backoff}")
        gram_words = parts[1 : order + 1]
        ids = []
        for w in gram_words:
            if order == 1:
                if w in vocab:
                    fail(i + 1, f"duplicate unigram {w!r}")
                vocab[w] = len(words)
                words.append(w)
            elif w not in vocab:
                fail(i + 1, f"word {w!r} not in unigram vocabulary")
            ids.append(vocab[w])
        key = tuple(ids)
        if key in tables[order]:
            fail(i + 1, f"duplicate {order}-gram {' '.join(gram_words)!r}")
        tables[order][key] = (prob, backoff)
        i += 1
    fail(n_lines, "missing \\end\\ marker")


def reference_load_lexicon(path, alphabet: Alphabet) -> LexiconTrie:
    """Read a ``save_lexicon`` file; malformed input raises with a line number."""
    words, spellings = [], []
    for lineno, line in enumerate(_reference_read_text(path, LMError).splitlines(), 1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise LMError(f"line {lineno}: expected 'word<TAB>spelling'")
        word, spelling = line.split("\t", 1)
        ids = []
        for sym in spelling.split():
            if sym not in alphabet.index:
                raise LMError(f"line {lineno}: unknown grapheme {sym!r}")
            ids.append(alphabet.index[sym])
        try:
            spellings.append(_checked_spelling(word, ids, alphabet))
        except LMError as exc:
            raise LMError(f"line {lineno}: {exc}") from None
        words.append(word)
    return LexiconTrie(words, spellings, alphabet)
