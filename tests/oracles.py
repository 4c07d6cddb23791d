"""Independent brute-force reference implementations.

Everything here avoids the library's dynamic programs: paths are
enumerated explicitly (recursively or as dense index arrays) and scored
one by one, so a DP bug cannot hide in its own oracle.
"""

import itertools

import numpy as np


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
    ``num_frames`` states along successor links from an initial state to
    an accepting one."""
    paths = []

    def extend(state, acc):
        acc = acc + [state]
        if len(acc) == graph.num_frames:
            if graph.accepting[state]:
                paths.append(acc)
            return
        for q in graph.succs[:, state]:
            if q >= 0:
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


def enumerate_ctc_paths(labels, blank, num_frames):
    """Valid blank-interleaved frame labelings, textbook recursion."""
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


def subtree_best_unigram(node, word_scores):
    """Brute-force max unigram score over all words below a trie node."""
    best = max((word_scores[w] for w in node.word_ids), default=-np.inf)
    for child in node.children.values():
        best = max(best, subtree_best_unigram(child, word_scores))
    return best


def sort_based_prune(hypotheses, scores, beam_size, beam_threshold):
    """Reference selection: threshold then stable top-k by score."""
    best = max(scores)
    kept = [i for i, s in enumerate(scores) if s >= best - beam_threshold]
    kept.sort(key=lambda i: (-scores[i], i))
    kept = sorted(kept[:beam_size])
    return [hypotheses[i] for i in kept]


def relative_close(analytic, numeric, rtol=1e-5, atol=1e-7):
    return abs(analytic - numeric) <= atol + rtol * max(abs(analytic), abs(numeric))
