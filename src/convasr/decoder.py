"""One-pass beam-search decoder over the lexicon trie.

Hypotheses walk the trie frame by frame: stay on the current grapheme,
advance to a child, or (between words, at the trie root) emit silence.
Arriving at a node that ends a word spawns a committed copy back at the
root, swapping the provisional smeared language-model estimate for the
true n-gram score and paying the word insertion bonus/penalty.  Scores
combine the lattice acoustic score (emissions plus transitions, across
word boundaries too), the weighted language model, and a per-word term:

    total = acoustic + alpha * ln P_lm(words) + beta * |words|

The frontier is a set of parallel arrays of trie node ids and search
state, a word history being an index into two append-only lists (last
word, earlier entry).  Each frame builds its candidates in arrival order:
per hypothesis its stay, its silence (at the root) and its advances in
grapheme order, each advance followed by the word commits it completes.
One sort of packed integers (key, then arrival index) gathers the
candidates of each key (trie node, LM state, last label), and a mask
over the candidates ranks the keys by first arrival.  "max" mode folds
every key in one pass: a segmented maximum of its totals, won by the
first arrival at it, which makes an exhaustive beam an exact maximizer;
"logadd" mode folds a key's candidates in arrival order, the winner
taking the combined acoustic mass, a lower bound on the all-paths
objective unless the beam holds every hypothesis.
Prune keeps the keys within the beam threshold of the frame best, then
caps the in-word keys at the beam size with one partition at the k-th
best total, exact ties going to the key that arrived first; word-boundary
keys escape the cap, being the decodable outputs and bounded in number.

Most candidates are word starts (root hypothesis x root child) and few
survive, so in "max" mode a frame first scores every start as one block,
keyed by child and LM state rank (a mask over the interned states).
A start's key is in-word and totals at least its best start; with kappa
the beam_size-th best of those per-key bests, at least beam_size keys
reach kappa, and prune cuts every key whose members all fall below it.
Only these starts are built: all of a key's that reaches kappa (so its
first arrival and tie order stand), those onto a word end (their commits
escape the cap) and those whose key a depth-1 stay shares (they may
arrive first).  "logadd" mode, where all members' mass counts, builds all.

The test oracle ``exhaustive_decode`` scores each word sequence on one
chain, its silences placed by CTC's blank rule (``criterion._separated_units``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import (
    CriterionError,
    InfeasibleError,
    TransitionTable,
    _check_count,
    _checked_model,
    _separated_units,
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
        _check_count("beam_size", self.beam_size)
        if not self.beam_threshold > 0:
            raise ValueError("beam_threshold must be > 0")
        if self.mode not in ("max", "logadd"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.silence not in ("none", "optional", "mandatory"):
            raise ValueError(f"unknown silence policy {self.silence!r}")


@dataclass
class DecodeResult:
    words: list  # word strings
    score: float  # total per the decomposition below
    acoustic: float
    lm: float  # natural-log language model score (with sentence sentinels)

    @property
    def num_words(self) -> int:
        return len(self.words)


def prune(total: np.ndarray, at_root: np.ndarray, cfg: DecoderConfig) -> np.ndarray:
    """Beam thresholding then a stable top-``beam_size`` count cap.

    ``total`` holds one hypothesis per entry, in first-arrival order, and
    ``at_root`` marks those on the trie root (word boundaries).  Returns
    the indices kept, ascending: those within ``beam_threshold`` of the
    best, of which at most ``beam_size`` in-word ones, the best by
    (-total, index).  Root hypotheses escape the cap: they are the
    decodable outputs, their count is bounded by LM states x labels, and
    discarding one can make a wider beam fail where a narrower one
    succeeded.  The threshold still applies to them.
    """
    kept = np.flatnonzero(total >= total.max(initial=-np.inf) - cfg.beam_threshold)
    keep = at_root[kept]  # root keys, whatever the cap
    score = total[kept[~keep]]
    if score.size > cfg.beam_size:
        # every in-word total above the k-th best, then those equal to it
        # in index order until the cap is full
        kth = np.partition(score, -cfg.beam_size)[-cfg.beam_size]
        top = score > kth
        top[np.flatnonzero(score == kth)[: cfg.beam_size - np.count_nonzero(top)]] = True
        keep[~keep] = top
        kept = kept[keep]
    return kept


def _checked_scores(emissions, transitions: TransitionTable, lexicon: LexiconTrie) -> np.ndarray:
    """The (T, L) emission scores, checked once: finite and against the model."""
    f = _checked_model(emissions, transitions)[0].scores
    if f.shape[0] < 1:
        raise DecodeError("empty emission table")
    if lexicon.num_words == 0:
        raise DecodeError("empty lexicon")
    if f.shape[1] != len(lexicon.alphabet):
        raise CriterionError(
            f"emissions cover {f.shape[1]} labels but the lexicon alphabet "
            f"has {len(lexicon.alphabet)}"
        )
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
    Raises CriterionError on non-finite emissions or a model that does not
    match their labels, and DecodeError when no complete hypothesis can come
    out (no frames, no words, all pruned, or too short for any word).
    """
    _check_count("nbest", nbest)
    f = _checked_scores(emissions, transitions, lexicon)
    sil = lexicon.alphabet.silence_id
    # the search starts from one root hypothesis on a virtual label whose
    # transition row is the start score, so frame 0 expands like the rest
    begin = f.shape[1]
    trans = np.vstack([transitions.trans, transitions.start])
    first, label, ends, num_ends = lexicon.first, lexicon.label, lexicon.ends, lexicon.num_ends
    smeared = np.concatenate([[0.0], lexicon.smeared[1:]])  # the root holds no partial word
    kids = np.arange(first[0], first[1])  # the root's children, depth 1
    kid_label, kid_ends = label[kids], num_ends[kids] > 0
    kid_trans = trans[:, kid_label]  # into each root child
    # LM states are interned to ints, in order of first use
    states = [lm.start_state()]
    state_ids = {states[0]: 0}
    vocab = lexicon.num_words
    memo: dict[int, tuple] = {}  # state id x vocab + word id -> (log10 score, next state id)

    # alpha * ln(10), so that the LM term is lm_weight * log10 mass; a
    # zero weight counts 0, also for an impossible (-inf) word sequence
    lm_weight = cfg.alpha * LN10

    def totals(acoustic, lm10, smear10, num_words):
        # off the root the partial word adds its smeared LM estimate
        lm_term = lm_weight * (lm10 + smear10) if lm_weight else 0.0
        return (acoustic + lm_term) + cfg.beta * num_words

    # the frontier: node, LM state, last label, acoustic score, committed n-gram
    # mass (log10), word count, and word history: an entry of the append-only
    # lists word (its last word id) and prev (the entry before it), or -1
    node, state, num_words = (np.zeros(1, dtype=np.intp) for _ in range(3))
    last, acoustic, lm10, hist = np.full(1, begin), np.zeros(1), np.zeros(1), np.full(1, -1)
    word, prev = [], []

    for frame in f:
        # the word starts to build (module docstring), root hypotheses x
        # root children; their totals add up as the candidates' do below
        r = np.flatnonzero(node == 0)
        build = kid_label != last[r, None]
        if cfg.silence == "mandatory":  # after a word, a new word needs silence first
            build &= ((last[r] == sil) | (last[r] == begin))[:, None]
        if cfg.mode == "max":
            start_acoustic = (acoustic[r, None] + kid_trans[last[r]]) + frame[kid_label]
            start = totals(start_acoustic, lm10[r, None], smeared[kids], num_words[r, None])
            # rank the root rows' LM states in id order, O(states interned) a frame
            present = np.zeros(len(states), dtype=bool)
            present[state[r]] = True
            lm_rank = np.cumsum(present) - 1
            cell = lm_rank[state[r], None] * kids.size + np.arange(kids.size)  # (LM state, child)
            best = np.full((lm_rank[-1] + 1) * kids.size, -np.inf)
            np.maximum.at(best, cell.ravel(), np.where(build, start, -np.inf).ravel())
            if best.size >= cfg.beam_size:
                keep = best >= np.partition(best, -cfg.beam_size)[-cfg.beam_size]
                # a depth-1 hypothesis's stay has its node and LM state's key
                d1 = np.flatnonzero((node >= first[0]) & (node < first[1]))
                d1 = d1[present[state[d1]]]
                keep[lm_rank[state[d1]] * kids.size + node[d1] - first[0]] = True
                build &= keep[cell] | kid_ends
        # every hypothesis owns slots 0 (stay), 1 (silence) and 2 on (one per
        # child in grapheme order, or per start built); a slot that cannot move is masked
        count = 2 + first[node + 1] - first[node]
        count[r] = 2 + build.sum(axis=1)
        src = np.repeat(np.arange(node.size), count)
        slot = np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
        stay, silence = slot == 0, slot == 1
        from_node, from_last = node[src], last[src]
        at_root = from_node == 0
        to = np.where(stay, from_node, np.where(silence, 0, first[from_node] + slot - 2))
        to[at_root & (slot >= 2)] = np.repeat(kids[None], r.size, axis=0)[build]
        lab = np.where(stay, from_last, np.where(silence, sil, label[to]))
        # the virtual start label cannot stay; advancing onto the last
        # label is indistinguishable from staying (identical letters need
        # silence or another word in between)
        ok = np.where(stay, from_last != begin, lab != from_last)
        ok &= ~silence | (at_root & (cfg.silence != "none"))
        pos = np.flatnonzero(ok)
        src, to, lab = src[pos], to[pos], lab[pos]
        moved = (acoustic[src] + trans[last[src], lab]) + frame[lab]

        # an advance (not a stay) onto a word end is followed by its committed
        # copies at the root: the array order is the candidates' arrival order
        commits = np.where(slot[pos] >= 2, num_ends[to], 0)
        at = np.repeat(np.arange(pos.size), 1 + commits)  # each one's advance
        is_commit = np.concatenate([[False], at[1:] == at[:-1]])  # all but an advance's first
        c_src, row = src[at], src[at[is_commit]]  # each candidate's hypothesis, each commit's
        wid = np.array([w for n in to[commits > 0].tolist() for w in ends[n]], dtype=np.intp)
        scored = []  # per commit (log10 score, next state id): one score_word per new pair
        for pair in (state[row] * vocab + wid).tolist():
            if pair not in memo:
                s, new = score_word(lm, states[pair // vocab], lexicon.words[pair % vocab])
                if new not in state_ids:
                    state_ids[new] = len(states)
                    states.append(new)
                memo[pair] = s, state_ids[new]
            scored.append(memo[pair])
        mass, goes = np.array(scored, dtype=float).reshape(-1, 2).T  # state ids exact as floats
        c_label, c_acoustic = lab[at], moved[at]
        c_node, c_words = np.where(is_commit, 0, to[at]), num_words[c_src] + is_commit
        c_state, c_lm10, c_hist = state[c_src], lm10[c_src], hist[c_src]
        c_state[is_commit] = goes
        c_lm10[is_commit] += mass
        c_hist[is_commit] = np.arange(len(word), len(word) + wid.size)
        word += wid.tolist()
        prev += hist[row].tolist()
        c_total = totals(c_acoustic, c_lm10, smeared[c_node], c_words)

        # merge: one sort of key << bits | index (index < 2 ** bits) orders by
        # key, then arrival; int64 holds it while key < 2 ** (63 - bits), and
        # key < nodes x LM states x labels, under 2 ** 29 for 7512 x 2003 x 30
        key = (c_node * len(states) + c_state) * begin + c_label
        bits = key.size.bit_length()
        packed = np.sort(key << bits | np.arange(key.size))
        order, key = packed & ((1 << bits) - 1), packed >> bits
        head = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        size = np.diff(np.concatenate([head, [order.size]]))
        win = order[head]
        # the keys in first-arrival order: mark each key at its first member
        group = np.full(order.size, -1)
        group[win] = np.arange(head.size)
        rank = group[group >= 0]
        if cfg.mode == "max":
            # the first arrival at the key's best total wins
            sorted_total = c_total[order]
            win_total = np.maximum.reduceat(sorted_total, head)
            best_at = np.flatnonzero(sorted_total == np.repeat(win_total, size))
            if best_at.size > head.size:  # some key has tied members: take the first
                best_at = best_at[np.searchsorted(best_at, head)]
            win = order[best_at]
            win_acoustic = c_acoustic[win]
        else:
            # fold each key's candidates in arrival order, one member per round
            win_acoustic, win_total = c_acoustic[win], c_total[win]
            for k in range(1, size.max()):
                g = np.flatnonzero(size > k)
                m = order[head[g] + k]
                # a candidate whose own total beats the running one takes over
                win[g] = np.where(c_total[m] > win_total[g], m, win[g])
                # the winner's acoustic score adds every candidate's mass
                win_acoustic[g] = np.logaddexp(win_acoustic[g], c_acoustic[m])
                h = win[g]
                win_total[g] = totals(win_acoustic[g], c_lm10[h], smeared[c_node[h]], c_words[h])
        kept = prune(win_total[rank], c_node[win[rank]] == 0, cfg)
        h = win[rank[kept]]
        node, state, last, lm10, num_words = c_node[h], c_state[h], c_label[h], c_lm10[h], c_words[h]
        acoustic, hist = win_acoustic[rank[kept]], c_hist[h]

    # the words of a complete hypothesis fix its LM state and score, so
    # hypotheses sharing words differ only in acoustic score
    complete: dict[tuple, list] = {}
    for row in np.flatnonzero(node == 0).tolist():
        seq, h = [], int(hist[row])
        while h >= 0:  # walk the history back to its first word
            seq.append(word[h])
            h = prev[h]
        complete.setdefault(tuple(seq[::-1]), []).append(row)
    if not complete:
        raise DecodeError(
            "no complete hypothesis survived decoding "
            "(beam too narrow, threshold too tight, or utterance too short)"
        )
    results = []
    for seq, rows in complete.items():
        scores = acoustic[rows].tolist()
        total_acoustic = max(scores) if cfg.mode == "max" else logadd(scores)
        mass = float(lm10[rows[0]])
        if EOS in lm.vocab:
            mass += score_word(lm, states[state[rows[0]]], EOS)[0]
        total = totals(total_acoustic, mass, 0.0, len(seq))
        results.append(
            DecodeResult([lexicon.words[w] for w in seq], total, total_acoustic, LN10 * mass)
        )
    results.sort(key=lambda r: -r.score)
    return results[:nbest]


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
            units = _separated_units([lexicon.spellings[w] for w in seq], sil, cfg.silence)
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
