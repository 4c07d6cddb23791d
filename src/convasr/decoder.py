"""One-pass beam-search decoder over the lexicon trie.

Hypotheses walk the trie frame by frame: stay on the current grapheme,
advance to a child, or (between words, at the trie root) emit silence.
Arriving at a node that ends a word spawns a committed copy back at the
root, swapping the provisional smeared language-model estimate for the
true n-gram score and paying the word insertion bonus/penalty.  Scores
combine the lattice acoustic score (emissions plus transitions, across
word boundaries too), the weighted language model, and a per-word term:

    total = acoustic + alpha * ln P_lm(words) + beta * |words|

Each hypothesis carries its total, computed once when it is made (and
again only when a "logadd" merge changes its acoustic score).  Each
frame the frontier is merged as it is built: every new hypothesis goes
straight into one table keyed on (trie node, LM state, last label).
The table is then pruned by beam threshold (drop anything below frame
best minus the threshold) and beam size (a stable top-k selection over
in-word hypotheses; word-boundary hypotheses survive the cap since
they are the decodable outputs and their count is bounded).  In
"max" mode merging keeps the best hypothesis, which makes an exhaustive
beam an exact maximizer; "logadd" mode combines the acoustic mass of
merged hypotheses, a lower bound on the all-paths objective unless the
beam holds every hypothesis.

In "max" mode a candidate that prune would drop is not built.  Its
total is checked against lim = max(best - beam_threshold, floor): best
is the best total offered so far in the frame, and floor the
``beam_size``-th largest of lower bounds on the totals of distinct
in-word keys (the first total each key got, and the best offer of the
word starts to each key).  Merging keeps the maximum, so a key's total
only grows: neither part of lim exceeds its value in prune, and a
candidate strictly below it could never be kept.  The bound is exact;
the n-best lists are those of building every candidate.  Word-boundary
candidates face the threshold part only, as in prune.  In "logadd" mode
even a candidate far below lim adds its mass to its key, which may be
kept, so lim is -inf there and every candidate is built.

Prune breaks exact ties at the cap by a key's first-arrival position in
the merge table.  A rejected candidate that a later candidate of the
frame may beat on its key therefore leaves a placeholder (None) there,
so that the key keeps the position it has when every candidate is built.

Word starts, every word-boundary hypothesis times every first letter of
the trie, are scored as one array per frame in the addition order of the
scalar path.  Their best and their per-key best offers bound the frame
before the first admit, and only the starts that may be kept, or that
hold a placeholder or complete a one-letter word, are visited.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import (
    InfeasibleError,
    TransitionTable,
    _as_scores,
    build_linear_graph,
    forward_score,
    logadd,
)
from .lm import EOS, LN10, LexiconTrie, NGramLM, score_word, sentence_logprob


class DecodeError(RuntimeError):
    """Raised when decoding cannot produce any complete hypothesis."""


@dataclass
class DecoderConfig:
    alpha: float = 1.0  # language model weight
    beta: float = 0.0  # word insertion score (negative penalizes)
    beam_size: int = 100
    beam_threshold: float = math.inf  # max gap to the frame-best hypothesis
    mode: str = "max"  # "max" or "logadd" path accumulation
    silence: str = "optional"  # between words: "none", "optional", "mandatory"

    def __post_init__(self):
        # a NaN or infinite weight, or a negative alpha on a -inf LM
        # score, makes totals NaN or +inf, and pruning then drops them all
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not self.beam_threshold > 0:
            raise ValueError("beam_threshold must be > 0")
        if self.mode not in ("max", "logadd"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.silence not in ("none", "optional", "mandatory"):
            raise ValueError(f"unknown silence policy {self.silence!r}")


@dataclass
class Hypothesis:
    node: object  # current trie node (root when between words)
    lm_state: tuple
    last_label: int
    acoustic: float
    lm10: float  # committed n-gram mass, log10
    words: tuple  # committed word ids
    total: float  # the search objective (see ``decode``)


@dataclass
class DecodeResult:
    words: list  # word strings
    score: float  # total per the decomposition below
    acoustic: float
    lm: float  # natural-log language model score (with sentence sentinels)

    @property
    def num_words(self) -> int:
        return len(self.words)


def prune(frontier, cfg: DecoderConfig, root):
    """Beam thresholding then a stable top-``beam_size`` count cap.

    Drops hypotheses below (frame best - beam_threshold), then keeps the
    top ``beam_size`` of the rest by ``total``; ties resolve in stable
    input order.  Hypotheses on the trie node ``root`` (word boundaries)
    escape the cap: they are the decodable outputs, their count is bounded
    by LM states x labels, and discarding one can make a wider beam fail
    where a narrower one succeeded.  The threshold still applies to them.
    """
    if not frontier:
        return []
    cut = max(h.total for h in frontier) - cfg.beam_threshold
    kept = [h for h in frontier if h.total >= cut]
    capped = [(-h.total, i) for i, h in enumerate(kept) if h.node is not root]
    if len(capped) > cfg.beam_size:
        top = {i for _, i in heapq.nsmallest(cfg.beam_size, capped)}
        kept = [h for i, h in enumerate(kept) if h.node is root or i in top]
    return kept


def _checked_scores(emissions, transitions: TransitionTable, lexicon: LexiconTrie) -> np.ndarray:
    """The (T, L) emission scores, checked finite and against the model."""
    f = _as_scores(emissions)
    if f.shape[0] < 1:
        raise DecodeError("empty emission table")
    if lexicon.num_words == 0:
        raise DecodeError("empty lexicon")
    if f.shape[1] != len(lexicon.alphabet):
        raise DecodeError(
            f"emissions cover {f.shape[1]} labels but the lexicon alphabet "
            f"has {len(lexicon.alphabet)}"
        )
    if transitions.num_labels != f.shape[1]:
        raise DecodeError("transition table does not match the emission labels")
    return f


def decode(
    emissions,
    transitions: TransitionTable,
    lm: NGramLM,
    lexicon: LexiconTrie,
    cfg: DecoderConfig,
    nbest: int = 10,
) -> list:
    """Beam search for the best word sequences given emission scores.

    Returns up to ``nbest`` results sorted by descending total score.
    Raises CriterionError on non-finite emissions and DecodeError when
    no complete hypothesis survives (beam or threshold too tight, or the
    utterance cannot fit any word).
    """
    if nbest < 1:
        raise ValueError("nbest must be >= 1")
    f = _checked_scores(emissions, transitions, lexicon)
    sil = lexicon.alphabet.silence_id
    root = lexicon.root
    # the search starts from one root hypothesis on a virtual label whose
    # transition row is the start score, so frame 0 expands like the rest
    begin = f.shape[1]
    trans_table = np.vstack([transitions.trans, transitions.start])
    trans = trans_table.tolist()
    frontier = [Hypothesis(root, lm.start_state(), begin, 0.0, 0.0, (), 0.0)]

    # alpha * ln(10), so that the LM term is lm_weight * log10 mass; a
    # zero weight counts 0, also for an impossible (-inf) word sequence
    lm_weight = cfg.alpha * LN10
    beam_size, threshold = cfg.beam_size, cfg.beam_threshold
    bounded = cfg.mode == "max"

    def score(acoustic: float, lm10: float, node, words: tuple) -> float:
        # off the root the partial word adds its smeared LM estimate
        smear10 = 0.0 if node is root else node.smeared
        lm_term = lm_weight * (lm10 + smear10) if lm_weight else 0.0
        return acoustic + lm_term + cfg.beta * len(words)

    # each node's children in grapheme order, the order candidates arrive
    # in, sorted once per decode
    sorted_children: dict = {}

    def children(node) -> list:
        kids = sorted_children.get(id(node))
        if kids is None:
            kids = sorted_children[id(node)] = sorted(node.children.items())
        return kids

    # word starts: every root hypothesis times every child of the root
    starts = children(root)
    start_gids = np.array([gid for gid, _ in starts], dtype=np.intp)
    start_smeared = np.array([child.smeared for _, child in starts])
    start_trans = trans_table[:, start_gids]
    start_emissions = f[:, start_gids]
    start_col = {gid: col for col, (gid, _) in enumerate(starts)}
    start_ends_word = np.array([bool(child.word_ids) for _, child in starts])
    first_letters = {id(child) for _, child in starts}

    def word_starts(t: int):
        """Score the word starts of frame ``t`` as one (rows, starts) array,
        a row per root hypothesis in frontier order, in the addition order
        of ``extend`` and ``score``.  Returns each row's acoustic scores and
        totals, the columns each row must offer, in grapheme order, and the
        bound they give before the first admit: the best start, the top
        ``beam_size`` per-key best starts and lim (logadd mode: no bound)."""
        rows = [(at, hyp) for at, hyp in enumerate(frontier) if hyp.node is root]
        if not rows:
            return [], [], [], -math.inf, [], -math.inf
        hyps = [hyp for _, hyp in rows]
        last = np.array([hyp.last_label for hyp in hyps])
        acoustic = (np.array([hyp.acoustic for hyp in hyps])[:, None] + start_trans[last]) + start_emissions[t]
        lm_term = lm_weight * (np.array([hyp.lm10 for hyp in hyps])[:, None] + start_smeared) if lm_weight else 0.0
        total = (acoustic + lm_term) + cfg.beta * np.array([len(hyp.words) for hyp in hyps])[:, None]
        # a row starts every word but the one that repeats its last letter
        # (identical letters need silence or another word in between), and
        # none after a word when silence is mandatory
        allowed = start_gids != last[:, None]
        if cfg.silence == "mandatory":
            allowed[(last != sil) & (last != begin)] = False
        best, top, lim, visit = -math.inf, [], -math.inf, allowed
        if bounded:
            offered = np.where(allowed, total, -np.inf)
            best = float(offered.max())
            # rows sharing an LM state offer to the same keys: the best
            # offer per key bounds that key's total
            states: dict = {}
            groups = [states.setdefault(hyp.lm_state, len(states)) for hyp in hyps]
            per_key = np.full((len(states), len(starts)), -np.inf)
            np.maximum.at(per_key, groups, offered)
            per_key = per_key[per_key > -np.inf]
            if per_key.size > beam_size:
                per_key = np.partition(per_key, -beam_size)[-beam_size:]
            top = sorted(per_key.tolist())
            lim = best - threshold
            if len(top) == beam_size:
                lim = max(lim, top[0])
            # A start below lim is dropped, and holds its key's place in the
            # merge table only if a later candidate may still win that key:
            # a later row of the same LM state offering at least lim, or the
            # stay of the frontier's hypothesis on that key.
            above = offered >= lim
            later = np.zeros_like(above)
            group_rows: list = [[] for _ in states]
            for r in range(len(rows) - 1, -1, -1):
                same = group_rows[groups[r]]
                if same:
                    later[r] = above[same[-1]] | later[same[-1]]
                same.append(r)
            for at, hyp in enumerate(frontier):
                g = states.get(hyp.lm_state) if id(hyp.node) in first_letters else None
                if g is not None:
                    col = start_col[hyp.last_label]
                    for r in group_rows[g]:
                        if rows[r][0] < at:
                            later[r, col] = True
            # word-ending starts also commit, whatever their own total
            visit = allowed & (above | later | start_ends_word)
        visits: list = [[] for _ in rows]
        r_idx, c_idx = np.nonzero(visit)
        for r, col in zip(r_idx.tolist(), c_idx.tolist()):
            visits[r].append(col)
        return acoustic.tolist(), total.tolist(), visits, best, top, lim

    # admit works on the current frame's merge table and bound
    def admit(node, lm_state: tuple, label: int, acoustic: float, lm10: float, words: tuple, total: float):
        # merge on (trie node, LM state, last label); the table keeps
        # first-arrival order, which breaks ties in prune
        nonlocal best, cut, lim
        key = (id(node), lm_state, label)
        if total < (cut if node is root else lim):
            # prune would drop it; a later candidate may still win this
            # key, and it must arrive where this one did
            merged.setdefault(key, None)
            return
        old = merged.get(key)
        if old is None:
            merged[key] = Hypothesis(node, lm_state, label, acoustic, lm10, words, total)
            if bounded and node is not root and key[0] not in first_letters:
                # a lower bound on this key's final total: count it once
                if len(floor) < beam_size:
                    heapq.heappush(floor, total)
                elif total > floor[0]:
                    heapq.heapreplace(floor, total)
                if len(floor) == beam_size and floor[0] > lim:
                    lim = floor[0]
        elif total > old.total:
            # the winner keeps its history; logadd mode adds the loser's mass
            if cfg.mode == "logadd":
                acoustic = float(np.logaddexp(acoustic, old.acoustic))
                total = score(acoustic, lm10, node, words)
            merged[key] = Hypothesis(node, lm_state, label, acoustic, lm10, words, total)
        elif cfg.mode == "logadd":
            old.acoustic = float(np.logaddexp(old.acoustic, acoustic))
            old.total = score(old.acoustic, old.lm10, node, old.words)
        if bounded and total > best:
            best = total
            cut = best - threshold
            lim = max(lim, cut)

    def extend(hyp: Hypothesis, node, label: int) -> float:
        """Offer ``hyp`` moved onto (node, label); returns its own acoustic
        score, before any merge."""
        acoustic = hyp.acoustic + trans[hyp.last_label][label] + frame[label]
        admit(node, hyp.lm_state, label, acoustic, hyp.lm10, hyp.words, score(acoustic, hyp.lm10, node, hyp.words))
        return acoustic

    def commit(hyp: Hypothesis, child, gid: int, acoustic: float):
        # a word ends at ``child``: a committed copy goes back to the root
        for wid in child.word_ids:
            s, state = score_word(lm, hyp.lm_state, lexicon.words[wid])
            lm10, words = hyp.lm10 + s, hyp.words + (wid,)
            admit(root, state, gid, acoustic, lm10, words, score(acoustic, lm10, root, words))

    for t, frame in enumerate(f.tolist()):
        merged: dict = {}
        # best: the best total offered so far; floor: a min-heap of lower
        # bounds on the totals of distinct in-word keys, its top
        # ``beam_size``.  A candidate below cut (word boundaries) or lim
        # (in-word) would be pruned.
        start_acoustic, start_total, visits, best, floor, lim = word_starts(t)
        cut = best - threshold
        row = 0
        for hyp in frontier:
            last = hyp.last_label
            node = hyp.node
            # stay on the current grapheme (the virtual start label has none)
            if last != begin:
                extend(hyp, node, last)
            if node is not root:
                # advance deeper into the word
                for gid, child in children(node):
                    if gid == last:
                        # indistinguishable from staying (spellings from
                        # ``lm`` never repeat a label adjacently)
                        continue
                    acoustic = extend(hyp, child, gid)
                    if child.word_ids:
                        commit(hyp, child, gid, acoustic)
                continue
            # silence between words
            if cfg.silence != "none" and last != sil:
                extend(hyp, root, sil)
            # start a new word: admit the visited starts in grapheme order
            acoustics, totals = start_acoustic[row], start_total[row]
            for col in visits[row]:
                gid, child = starts[col]
                admit(child, hyp.lm_state, gid, acoustics[col], hyp.lm10, hyp.words, totals[col])
                if child.word_ids:
                    commit(hyp, child, gid, acoustics[col])
            row += 1
        frontier = prune([hyp for hyp in merged.values() if hyp is not None], cfg, root)

    # the words of a complete hypothesis fix its LM state and score, so
    # hypotheses sharing words differ only in acoustic score
    complete: dict[tuple, list] = {}
    for hyp in frontier:
        if hyp.node is root:
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
        results.append(
            DecodeResult([lexicon.words[w] for w in words], total, acoustic, LN10 * lm10)
        )
    results.sort(key=lambda r: -r.score)
    return results[:nbest]


def _spelling_units(seq_spellings, sil: int, policy: str):
    """Chain units for a word sequence: (labels, optional flags).

    Silence units sit between words and at the ends (one for no words,
    so each labeling is one path); an inter-word silence is mandatory
    between identical juncture letters (the lattice cannot repeat a
    label directly) or by policy.  Returns None when unrepresentable.
    """
    labels: list[int] = []
    optional: list[bool] = []
    if policy != "none":
        labels.append(sil)
        optional.append(True)
    for k, spelling in enumerate(seq_spellings):
        if k > 0:
            same = seq_spellings[k - 1][-1] == spelling[0]
            if policy == "none":
                if same:
                    return None
            else:
                labels.append(sil)
                optional.append(not (same or policy == "mandatory"))
        labels.extend(spelling)
        optional.extend([False] * len(spelling))
    if policy != "none" and seq_spellings:
        labels.append(sil)
        optional.append(True)
    if not labels:
        return None
    return labels, optional


def exhaustive_decode(
    emissions,
    transitions: TransitionTable,
    lm: NGramLM,
    lexicon: LexiconTrie,
    cfg: DecoderConfig,
    max_words: int,
) -> DecodeResult:
    """Score every word sequence up to ``max_words`` and return the best.

    Test oracle: each sequence is scored by running the Forward (or
    Viterbi, per cfg.mode) algorithm on its concatenated spelling chain,
    plus the weighted language model and per-word terms.  Refuses
    instances beyond vocabulary 5 / 8 frames / 5 words.
    """
    f = _checked_scores(emissions, transitions, lexicon)
    if lexicon.num_words > 5 or f.shape[0] > 8 or max_words > 5:
        raise ValueError(
            "exhaustive decoding is a tiny-instance oracle "
            "(vocabulary <= 5, frames <= 8, max_words <= 5)"
        )
    sil = lexicon.alphabet.silence_id
    best: DecodeResult | None = None
    for k in range(0, max_words + 1):
        for seq in itertools.product(range(lexicon.num_words), repeat=k):
            units = _spelling_units([lexicon.spellings[w] for w in seq], sil, cfg.silence)
            if units is None:
                continue
            try:
                graph = build_linear_graph(units[0], units[1], f.shape[0])
            except InfeasibleError:
                continue
            acoustic, _ = forward_score(graph, f, transitions, cfg.mode)
            lm10 = sentence_logprob(lm, [lexicon.words[w] for w in seq])
            # a zero LM weight counts 0, as in ``decode``
            lm_term = cfg.alpha * LN10 * lm10 if cfg.alpha else 0.0
            total = acoustic + lm_term + cfg.beta * k
            if best is None or total > best.score:
                best = DecodeResult(
                    [lexicon.words[w] for w in seq], total, acoustic, LN10 * lm10
                )
    if best is None:
        raise DecodeError("no word sequence is feasible for this utterance")
    return best
