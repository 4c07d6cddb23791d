"""Lattice sequence criteria: graph construction, Forward/Viterbi, losses.

Every criterion runs over one time-invariant lattice: a fixed set of
labeled states whose links are the same at every frame.  A path visits
one state per frame, starts in an initial state, follows a link at each
step and ends in an accepting state.  Three lattices share this form:

* the blank-interleaved chain used by the per-frame-normalized
  criterion (blanks optional, mandatory between identical neighbors;
  one unit builder places them and the decoder oracle's word silences);
* the plain transcription chain (each label a state, stay-or-advance
  moves, no blanks) used by the globally normalized criterion;
* the fully connected lattice over all labels, used as the global
  normalizer.

Frame limits need no per-frame bookkeeping: a state that no path can
reach by frame t holds a -inf forward score there, and one that cannot
reach an accepting state in the frames left holds a -inf backward score.

One log-domain recursion serves the Forward score and Viterbi.  It
reduces the run of links into each state with log-add-exp for the
Forward score and with max for Viterbi (whose backtrace recomputes each
argmax from the stored table).

The posteriors run on probabilities instead (Rabiner's scaled
forward-backward): scores are shifted by their maximum, exponentiated
and renormalized every few frames, as their spread allows.  A frame
costs one matmul on a lattice no wider than the label set and a few
shifted vector products on a longer chain.  The backward pass runs
forward over reversed time.  Where float64 cannot carry the scaled
values, the posteriors fall back to the log-domain recursion, whose
backward pass reverses the lattice the same way.

Scores accumulate as emission f[t, label] plus transition
trans[prev_label, label] per step (a per-label start score replaces the
transition at the first frame).  Losses return exact gradients computed
from forward-backward posterior marginals.  Each public call checks its
inputs once and hands the checked ``EmissionTable`` on unchecked; each
pass gathers the per-state emissions f[:, labels] it reads itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

NEG_INF = -np.inf
_FLOAT_MIN = np.finfo(np.float64).min
_TINY = np.finfo(np.float64).tiny  # the smallest normal float


class CriterionError(ValueError):
    """Raised for inconsistent shapes or invalid criterion inputs."""


class InfeasibleError(CriterionError):
    """Raised when a transcription cannot fit in the given frame count."""


def _check_count(name: str, value, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer >= 1 (bool and numpy integers pass)."""
    if not (hasattr(type(value), "__index__") and operator.index(value) >= 1):
        raise error(f"{name} must be >= 1 and an integer, got {value!r}")


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the maximum so that no
    term overflows.  A slice of all -inf gives -inf."""
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    # an all -inf slice has m = -inf and -inf - -inf is nan, so shift by
    # at least the lowest float: its terms become exp(-inf) = 0.  Every
    # other slice sums to at least 1 (the maximum's exp(0)), so the clamp
    # at 1 touches only the all -inf sum, whose result stays m = -inf
    s = np.add.reduce(np.exp(x - np.maximum(m, _FLOAT_MIN)), axis=axis)
    return m.squeeze(axis) + np.log(np.maximum(s, 1.0))


def logadd(values) -> float:
    """Numerically stable log(sum(exp(values))); empty input gives -inf."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return NEG_INF
    return float(_lse(values.reshape(-1), 0))


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax (rows then logadd to 0)."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores - _lse(scores, -1)[..., None]


@dataclass
class EmissionTable:
    """Per-frame label scores f[t, i] in the log domain."""

    scores: np.ndarray  # (T, L)
    normalized: bool = False  # True when each row logadds to 0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise CriterionError("emission scores must be a (T, L) matrix")
        if self.scores.shape[1] == 0:
            raise CriterionError("emission scores need at least one label column")
        if not np.all(np.isfinite(self.scores)):
            raise CriterionError("emission scores must be finite")
        if self.normalized and np.any(np.abs(_lse(self.scores, 1)) > 1e-5):
            raise CriterionError("rows marked normalized do not logadd to 0")


@dataclass
class TransitionTable:
    """Transition scores: trans[i, j] moves from label i to j between
    consecutive frames; start[j] replaces the transition at frame 1.
    Un-normalized by design."""

    trans: np.ndarray  # (L, L)
    start: np.ndarray  # (L,)

    def __post_init__(self):
        self.trans = np.asarray(self.trans, dtype=np.float64)
        self.start = np.asarray(self.start, dtype=np.float64)
        if self.trans.ndim != 2 or self.trans.shape[0] != self.trans.shape[1]:
            raise CriterionError("transition matrix must be square")
        if self.start.shape != (self.trans.shape[0],):
            raise CriterionError("start scores must have one entry per label")
        if not (np.all(np.isfinite(self.trans)) and np.all(np.isfinite(self.start))):
            raise CriterionError("transition scores must be finite")

    @classmethod
    def zeros(cls, num_labels: int) -> "TransitionTable":
        return cls(np.zeros((num_labels, num_labels)), np.zeros(num_labels))

    @property
    def num_labels(self) -> int:
        return self.start.shape[0]


@dataclass
class CriterionResult:
    loss: float
    d_emissions: np.ndarray  # (T, L)
    d_transitions: np.ndarray  # (L, L)
    d_start: np.ndarray  # (L,)


@dataclass(frozen=True)
class Lattice:
    """States and links shared by every one of ``num_frames`` frames.

    State s carries label ``labels[s]``; link i lets state ``src[i]``
    precede ``dst[i]``.  Links are unique and sorted by (dst, src), and
    every state has its stay link s -> s, so the links into each state
    form one nonempty run.  Paths start in a state flagged in ``initial``
    and end in one flagged in ``accepting``.
    """

    num_frames: int
    labels: np.ndarray  # (S,) int
    src: np.ndarray  # (K,) int
    dst: np.ndarray  # (K,) int
    initial: np.ndarray  # (S,) bool
    accepting: np.ndarray  # (S,) bool


def build_linear_graph(unit_labels, optional, num_frames: int) -> Lattice:
    """Left-to-right chain of states over ``num_frames``.

    Each unit occupies one or more consecutive frames; units flagged
    optional may be skipped entirely.  Moves go from a unit to itself or
    to the next unit, hopping over any run of skipped optional units.
    This one chain shape covers the plain transcription lattice and,
    with units from ``_separated_units``, the blank-interleaved lattice
    and the decoder oracle's silence-separated spelling lattices.
    """
    unit_labels = [int(u) for u in unit_labels]
    optional = [bool(o) for o in optional]
    n_units = len(unit_labels)
    if n_units == 0:
        raise InfeasibleError("cannot unfold an empty chain")
    if len(optional) != n_units:
        raise CriterionError("unit/optional flag lengths differ")

    mandatory = [not o for o in optional]
    before = np.concatenate([[0], np.cumsum(mandatory)])  # mandatory units before u
    total_mandatory = int(before[-1])
    min_frames = max(total_mandatory, 1)
    if num_frames < min_frames:
        raise InfeasibleError(
            f"chain needs at least {min_frames} frames, got {num_frames}"
        )

    # unit u is entered from every unit back to the nearest mandatory one
    src, dst = [], []
    first = 0
    for u in range(n_units):
        src += range(first, u + 1)
        dst += [u] * (u + 1 - first)
        if mandatory[u]:
            first = u
    return Lattice(
        num_frames,
        np.asarray(unit_labels, dtype=np.int64),
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        initial=before[:-1] == 0,
        accepting=before[1:] == total_mandatory,
    )


def _separated_units(groups, separator: int, policy: str):
    """Chain units (labels, optional flags) for a sequence of label groups.

    A separator sits between groups and at both ends (one alone for no
    groups, so each labeling is one path).  Between groups it is mandatory
    where the juncture labels are identical (a chain cannot repeat a label)
    or under policy "mandatory", else optional; policy "none" puts none.
    Returns None when unrepresentable.
    """
    separated = policy != "none"
    labels = [separator] if separated else []
    optional = [True] if separated else []
    for k, group in enumerate(groups):
        same = k > 0 and groups[k - 1][-1] == group[0]
        if k > 0 and separated:
            labels.append(separator)
            optional.append(not (same or policy == "mandatory"))
        elif same:
            return None
        labels += group
        optional += [False] * len(group)
    if separated and groups:
        labels.append(separator)
        optional.append(True)
    return (labels, optional) if labels else None


def build_ctc_graph(labels, num_frames: int, blank_id: int) -> Lattice:
    """Blank-interleaved lattice: blanks optional between letters and at
    the ends, mandatory between identical consecutive labels."""
    labels = [int(x) for x in labels]
    if any(x == blank_id for x in labels):
        raise CriterionError("transcription must not contain the blank label")
    units, optional = _separated_units([[label] for label in labels], blank_id, "optional")
    try:
        return build_linear_graph(units, optional, num_frames)
    except InfeasibleError:
        need = max(optional.count(False), 1)  # a chain fills at least one frame
        raise InfeasibleError(
            f"transcription of {len(labels)} labels needs at least {need} "
            f"frames with mandatory blanks, got {num_frames}"
        ) from None


def build_asg_graph(labels, num_frames: int) -> Lattice:
    """Plain transcription lattice: one state per label, stay or advance."""
    labels = [int(x) for x in labels]
    if not labels:
        raise InfeasibleError("empty transcription")
    if num_frames < len(labels):
        raise InfeasibleError(
            f"transcription of {len(labels)} labels does not fit in "
            f"{num_frames} frames"
        )
    return build_linear_graph(labels, [False] * len(labels), num_frames)


def build_full_graph(num_labels: int, num_frames: int) -> Lattice:
    """Fully connected lattice accepting every frame labeling."""
    if num_labels < 1 or num_frames < 1:
        raise CriterionError("need at least one label and one frame")
    lab = np.arange(num_labels, dtype=np.int64)
    every = np.ones(num_labels, dtype=bool)
    src, dst = np.tile(lab, num_labels), np.repeat(lab, num_labels)
    return Lattice(num_frames, lab, src, dst, every, every)


def _checked_model(emissions, transitions: TransitionTable | None) -> tuple[EmissionTable, TransitionTable]:
    """A criterion call's one input check: a raw array is wrapped in a checked
    ``EmissionTable`` (a table passes as it is) and None transitions become
    the zero table.  Returns both, their label counts matched."""
    table = emissions if isinstance(emissions, EmissionTable) else EmissionTable(emissions)
    num_labels = table.scores.shape[1]
    tr = TransitionTable.zeros(num_labels) if transitions is None else transitions
    if tr.num_labels != num_labels:
        raise CriterionError(f"transition table covers {tr.num_labels} labels, emissions {num_labels}")
    return table, tr


def _state_scores(graph: Lattice, f: np.ndarray, tr: TransitionTable):
    """Link scores trans[labels[src], labels[dst]] (K,) and start scores (S,),
    -inf outside the initial states, once the lattice fits the checked (T, L)
    emissions ``f``; the passes gather the emissions f[:, labels] they read."""
    if f.shape[0] != graph.num_frames:
        raise CriterionError(f"graph spans {graph.num_frames} frames but emissions have {f.shape[0]}")
    if graph.labels.min() < 0 or graph.labels.max() >= f.shape[1]:
        raise CriterionError("graph refers to labels outside the emission table")
    lab = graph.labels
    start = np.where(graph.initial, tr.start[lab], NEG_INF)
    return tr.trans[lab[graph.src], lab[graph.dst]], start


def _forward(graph: Lattice, f, edge, start, ufunc) -> np.ndarray:
    """Table (T, S) of ``ufunc`` (np.maximum or np.logaddexp) reduced over
    the paths into each state, along links scored ``edge``."""
    emit = f[:, graph.labels]
    T, S = emit.shape
    runs = np.searchsorted(graph.dst, np.arange(S))  # each state's first link
    alpha = np.empty((T, S))
    alpha[0] = start + emit[0]
    for t in range(1, T):
        alpha[t] = emit[t] + ufunc.reduceat(alpha[t - 1, graph.src] + edge, runs)
    return alpha


def forward_score(
    graph: Lattice, emissions, transitions: TransitionTable, mode: str = "logadd"
) -> tuple[float, np.ndarray]:
    """Accumulate path scores over the graph.

    mode="logadd" gives the Forward score (log-sum-exp over all accepted
    paths); mode="max" gives the best-path (Viterbi) score.  Returns the
    score and the (T, S) forward table.
    """
    if mode not in ("logadd", "max"):
        raise CriterionError(f"unknown mode {mode!r}")
    table, tr = _checked_model(emissions, transitions)
    edge, start = _state_scores(graph, table.scores, tr)
    ufunc = np.logaddexp if mode == "logadd" else np.maximum
    alpha = _forward(graph, table.scores, edge, start, ufunc)
    final = alpha[-1, graph.accepting]
    score = logadd(final) if mode == "logadd" else float(np.max(final))
    return score, alpha


def viterbi(graph: Lattice, emissions, transitions: TransitionTable):
    """Best accepted frame labeling and its score.

    Ties break toward the lowest state index, both among predecessors
    and among accepting states.
    """
    table, tr = _checked_model(emissions, transitions)
    edge, start = _state_scores(graph, table.scores, tr)
    alpha = _forward(graph, table.scores, edge, start, np.maximum)
    runs = np.searchsorted(graph.dst, np.arange(graph.labels.size + 1))
    final = np.where(graph.accepting, alpha[-1], NEG_INF)
    s = int(np.argmax(final))
    score = float(final[s])
    states = [s]
    for t in range(graph.num_frames - 1, 0, -1):
        # sources ascend within a run: the first maximum is the lowest state
        lo, hi = runs[s], runs[s + 1]
        s = int(graph.src[lo + np.argmax(alpha[t - 1, graph.src[lo:hi]] + edge[lo:hi])])
        states.append(s)
    states.reverse()
    return [int(x) for x in graph.labels[states]], score


@dataclass
class _FBResult:
    log_z: float
    label_marginals: np.ndarray  # (T, L)
    trans_marginals: np.ndarray | None  # (L, L)


def _scaled_forward_backward(graph: Lattice, f, score, start, links: bool):
    """Forward score, state posteriors (T, S) and, when ``links``, the
    posterior mass of every link (log weight score[i]) summed over
    frames, computed on probabilities instead of logs.  None
    when float64 cannot carry the result to full precision.

    Every factor is shifted by its maximum, exp(f[t] - max f[t]),
    exp(score - max score) and exp(start - max start), so it lies in
    [exp(lowest), 1].  The backward pass is the forward pass over reversed
    time and states along the reversed links; both run as one recursion.
    A lattice of at most L states (L labels) steps a frame with one
    batched matmul, a longer chain (links stay or move forward, by at most
    D states) with D + 1 shifted vector products.  Each pass renormalizes
    by its own sum every K = max(1, 600 // (1 - 2 lowest + ln S)) frames
    (Rabiner, Proc. IEEE 1989).  The largest entry, at least 1/S after a
    renormalization, keeps exp(2 lowest) of itself or more each step along
    its stay link, so the mass stays normal.  The forward sums give the score.

    A factor below the smallest normal float would drop or blur its paths
    in both passes alike, where no later test could see it, so such
    inputs are refused up front.  Mass that underflows during the
    recursion shows as disagreement between frames: each frame's two
    tables yield the score once more, and each of those T estimates must
    be a normal float and match the forward pass's own to 1e-12 * T,
    relative.  Every renormalizing sum must be a normal float too, and
    every link mass finite.
    """
    T, S = graph.num_frames, graph.labels.size
    lab, initial, src, dst = graph.labels, graph.initial, graph.src, graph.dst
    top = f.max(axis=1)
    score_max = score.max()
    start_max = start[initial].max()
    shifted = f - top[:, None]
    lowest = min(
        shifted.min(),
        (score - score_max).min(initial=0.0),
        (start[initial] - start_max).min(),
    )
    if lowest < np.log(_TINY):
        return None
    K = max(1, int(600 // (1.0 - 2.0 * lowest + np.log(S))))
    label_w = np.exp(shifted, out=shifted)
    # pass 0 runs forward; pass 1 backward over reversed time and states,
    # where link p -> s becomes S-1-s -> S-1-p and the accepting states start
    emits = np.empty((T, 2, S))
    emits[:, 0] = label_w[:, lab]
    emits[:, 1] = label_w[::-1, lab[::-1]]
    link_w = np.exp(score - score_max)
    back_src, back_dst = S - 1 - dst, S - 1 - src
    shift = dst - src
    chain = S > f.shape[1] and shift.min() >= 0
    D = int(shift.max()) if chain else 0
    table = np.zeros((T, 2, D + S))  # D zero columns pad the shifted reads
    state = table[:, :, D:]
    if chain:
        weights = np.zeros((2, D + 1, S))
        weights[0, D - shift, dst] = link_w
        weights[1, D - shift, back_dst] = link_w
        # reads[t][k, r, s] = table[t, k, r + s], pass k's state s - (D - r)
        reads = list(np.lib.stride_tricks.sliding_window_view(table, S, axis=2))
        work = np.empty((2, D + 1, S))
    else:
        dense = np.zeros((2, S, S))
        dense[0, src, dst] = link_w
        dense[1, back_src, back_dst] = link_w
    rows, factors = list(state[:, :, None, :]), list(emits[:, :, None, :])  # (2, 1, S) each
    scale = np.ones((T, 2))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        state[0, 0] = np.exp(start - start_max)
        state[0, 1] = graph.accepting[::-1]
        for t, row in enumerate(rows):  # row 0 already holds the start
            if t and chain:
                np.multiply(weights, reads[t - 1], out=work)
                np.add.reduce(work, axis=1, keepdims=True, out=row)
            elif t:
                np.matmul(rows[t - 1], dense, out=row)
            np.multiply(row, factors[t], out=row)
            if t % K == 0:
                np.add.reduce(row, axis=2, out=scale[t, :, None])
                np.divide(row, scale[t, :, None, None], out=row)

        alpha = state[:, 0]
        ahead = state[::-1, 1, ::-1]  # emission plus backward, per frame
        gamma = alpha * ahead
        gamma /= emits[:, 0]
        # per[t]: the score from frame t's two tables, in units of the
        # forward sums up to t and the backward sums from t on; per[T]:
        # the forward pass's own closing sum
        per = np.empty(T + 1)
        np.add.reduce(gamma, axis=1, out=per[:T])
        per[T] = alpha[-1, graph.accepting].sum()
        # estimate t over estimate t + 1, where the forward sum c[T] is 1
        ratio = per[:-1] * scale[::-1, 1] / (per[1:] * np.append(scale[1:, 0], 1.0))
        drift = np.cumprod(ratio[::-1])
        mass = None
        if links:
            # link p -> s into frame t: alpha[t-1, p] * w * ahead[t, s]
            # over the forward sum c[t] and the estimate per[t], one divisor
            # on each side so that neither side overflows
            before = table[:-1, 0] / scale[1:, 0, None]
            nxt = ahead[1:] / per[1:T, None]
            if chain:
                before = np.lib.stride_tricks.sliding_window_view(before, S, axis=1)
                mass = np.einsum("trs,ts->rs", before, nxt)[D - shift, dst]
            else:
                mass = (before.T @ nxt)[src, dst]
            mass *= link_w
        if not (
            scale.min() >= _TINY
            and per.min() >= _TINY
            and np.all(np.abs(drift - 1.0) <= 1e-12 * T)
            and (mass is None or np.all(np.isfinite(mass)))
        ):
            return None
        gamma /= per[:T, None]
    log_z = float(
        np.log(scale[:, 0]).sum()
        + np.log(per[T])
        + top.sum()
        + (T - 1) * score_max
        + start_max
    )
    return log_z, gamma, mass


def _log_forward_backward(graph: Lattice, f, edge, start, links: bool):
    """The log-domain counterpart of ``_scaled_forward_backward``, exact
    at every score scale."""
    T, S = f.shape[0], graph.labels.size
    alpha = _forward(graph, f, edge, start, np.logaddexp)
    log_z = logadd(alpha[-1, graph.accepting])
    if not np.isfinite(log_z):
        raise CriterionError("no accepted path has finite score")
    # emission plus backward score: the forward pass over reversed time
    # on the reversed lattice, where link p -> s becomes S-1-s -> S-1-p
    back_src, back_dst = S - 1 - graph.dst, S - 1 - graph.src
    order = np.lexsort((back_src, back_dst))
    back = Lattice(
        T, graph.labels[::-1], back_src[order], back_dst[order],
        graph.accepting[::-1], graph.initial[::-1],
    )
    end = np.where(back.initial, 0.0, NEG_INF)
    ahead = _forward(back, f[::-1], edge[order], end, np.logaddexp)[::-1, ::-1]
    gamma = np.exp(alpha + ahead - f[:, graph.labels] - log_z)
    if not links:
        return log_z, gamma, None
    mass = np.exp(alpha[:-1, graph.src] + edge + ahead[1:, graph.dst] - log_z).sum(axis=0)
    return log_z, gamma, mass


def forward_backward(graph: Lattice, emissions, transitions: TransitionTable | None) -> _FBResult:
    """Forward score plus label and transition posterior marginals (the
    exact gradient ingredients).  With ``transitions`` None, links and
    starts score 0 and the transition marginals are None.

    Runs on scaled probabilities, and in the log domain whenever those
    cannot reach full precision (see ``_scaled_forward_backward``).  Inputs
    are checked once, an ``EmissionTable`` not at all.  Each link's
    posterior mass adds to the marginal of its label pair."""
    table, tr = _checked_model(emissions, transitions)
    f, num_labels = table.scores, tr.num_labels
    edge, start = _state_scores(graph, f, tr)
    links = transitions is not None
    fb = _scaled_forward_backward(graph, f, edge, start, links)
    if fb is None:
        fb = _log_forward_backward(graph, f, edge, start, links)
    log_z, gamma, mass = fb
    lab = graph.labels
    label_marg = gamma @ (lab[:, None] == np.arange(num_labels)).astype(np.float64)
    if mass is None:
        return _FBResult(log_z, label_marg, None)
    pair = lab[graph.src] * num_labels + lab[graph.dst]
    trans_marg = np.bincount(pair, mass, num_labels * num_labels)
    return _FBResult(log_z, label_marg, trans_marg.reshape(num_labels, num_labels))


def ctc_loss(emissions, labels, blank_id: int, strict: bool = False) -> CriterionResult:
    """Negative Forward score of the blank-interleaved lattice.

    Assumes per-frame normalized emission rows (checked when ``strict``).
    Transitions play no role, so their gradients are zero.
    """
    table, _ = _checked_model(emissions, None)
    if strict:
        EmissionTable(table.scores, normalized=True)
    T, num_labels = table.scores.shape
    fb = forward_backward(build_ctc_graph(labels, T, blank_id), table, None)
    return CriterionResult(
        loss=-fb.log_z,
        d_emissions=-fb.label_marginals,
        d_transitions=np.zeros((num_labels, num_labels)),
        d_start=np.zeros(num_labels),
    )


def asg_loss(emissions, transitions: TransitionTable, labels) -> CriterionResult:
    """Globally normalized sequence loss.

    Negative Forward score of the transcription lattice plus the Forward
    score of the fully connected lattice; both use emission and
    transition scores, which may be un-normalized.  Gradients are the
    difference of posterior marginals (full minus constrained); a path
    pays its start score with its first emission, so the start gradient
    is the first frame's emission gradient.
    """
    table, tr = _checked_model(emissions, transitions)
    T, num_labels = table.scores.shape
    num = forward_backward(build_asg_graph(labels, T), table, tr)
    den = forward_backward(build_full_graph(num_labels, T), table, tr)
    return CriterionResult(
        loss=-num.log_z + den.log_z,
        d_emissions=den.label_marginals - num.label_marginals,
        d_transitions=den.trans_marginals - num.trans_marginals,
        d_start=den.label_marginals[0] - num.label_marginals[0],
    )
