import itertools
import math

import numpy as np
import pytest

from convasr import criterion
from convasr.alphabet import collapse_path, default_alphabet, encode_transcription, make_alphabet
from convasr.criterion import (
    CriterionError,
    EmissionTable,
    InfeasibleError,
    TransitionTable,
    asg_loss,
    build_asg_graph,
    build_ctc_graph,
    build_full_graph,
    build_linear_graph,
    ctc_loss,
    forward_backward,
    forward_score,
    log_softmax,
    logadd,
    viterbi,
)
from convasr.training import greedy_transcribe

import oracles
from conftest import random_label_sequence, random_transitions

# (emission, transition) score multipliers: unit scale, and scales at
# which exp() of an unshifted path score would overflow; loss checks
# scale their tolerance with the emissions (1e-10 relative)
SCORE_SCALES = [(1.0, 1.0), (1e3, 1e2)]


class TestLogadd:
    def test_single_value(self):
        assert logadd([3.25]) == 3.25

    def test_two_zeros(self):
        assert abs(logadd([0.0, 0.0]) - math.log(2.0)) < 1e-12

    def test_large_values_dont_overflow(self):
        assert abs(logadd([1000.0, 1000.0]) - (1000.0 + math.log(2.0))) < 1e-9
        assert np.isfinite(logadd([1e30, 1e30]))

    def test_empty_is_neg_inf(self):
        assert logadd([]) == -math.inf

    def test_all_neg_inf(self):
        assert logadd([-math.inf, -math.inf]) == -math.inf

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vals = rng.normal(scale=10.0, size=rng.integers(1, 20))
            assert abs(logadd(vals) - oracles.logadd_ref(vals)) < 1e-12


class TestGraphConstruction:
    def test_ctc_a_two_frames_accepts_exactly_three_paths(self):
        g = build_ctc_graph([0], 2, blank_id=3)
        got = sorted(oracles.enumerate_graph_paths(g))
        assert got == sorted([[0, 0], [3, 0], [0, 3]])

    def test_ctc_cat_three_frames_single_path(self):
        g = build_ctc_graph([0, 1, 2], 3, blank_id=9)
        assert oracles.enumerate_graph_paths(g) == [[0, 1, 2]]

    def test_ctc_double_letter_needs_separator(self):
        with pytest.raises(InfeasibleError):
            build_ctc_graph([0, 0], 2, blank_id=3)
        g = build_ctc_graph([0, 0], 3, blank_id=3)
        assert oracles.enumerate_graph_paths(g) == [[0, 3, 0]]

    def test_ctc_rejects_blank_in_transcription(self):
        with pytest.raises(CriterionError):
            build_ctc_graph([0, 3], 4, blank_id=3)

    def test_ctc_paths_match_textbook_recursion(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            T = int(rng.integers(1, 8))
            labels = [int(rng.integers(0, 3)) for _ in range(rng.integers(1, 4))]
            need = len(labels) + sum(
                1 for i in range(len(labels) - 1) if labels[i] == labels[i + 1]
            )
            if need > T:
                continue
            g = build_ctc_graph(labels, T, blank_id=3)
            got = sorted(oracles.enumerate_graph_paths(g))
            want = sorted(oracles.enumerate_ctc_paths(labels, 3, T))
            assert got == want

    def test_asg_cat_five_frames_has_six_paths(self):
        g = build_asg_graph([0, 1, 2], 5)
        assert len(oracles.enumerate_graph_paths(g)) == math.comb(4, 2)

    def test_asg_single_label(self):
        g = build_asg_graph([2], 1)
        assert oracles.enumerate_graph_paths(g) == [[2]]

    def test_asg_exact_fit_single_path(self):
        g = build_asg_graph([0, 1, 2], 3)
        assert oracles.enumerate_graph_paths(g) == [[0, 1, 2]]

    def test_asg_paths_match_stars_and_bars(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            T = int(rng.integers(1, 8))
            n = int(rng.integers(1, min(4, T) + 1))
            labels = random_label_sequence(rng, n, 4)
            g = build_asg_graph(labels, T)
            got = sorted(oracles.enumerate_graph_paths(g))
            want = sorted(oracles.enumerate_asg_paths(labels, T))
            assert got == want

    def test_asg_infeasible(self):
        with pytest.raises(InfeasibleError):
            build_asg_graph([0, 1, 2], 2)

    def test_full_graph_path_counts(self):
        assert len(oracles.enumerate_graph_paths(build_full_graph(3, 2))) == 9
        assert len(oracles.enumerate_graph_paths(build_full_graph(5, 1))) == 5

    def test_asg_paths_collapse_to_transcription(self):
        # every accepted path stands for exactly the encoded transcription
        ab = default_alphabet()
        rng = np.random.default_rng(3)
        for word in ("cat", "hello", "aaa", "ball"):
            labels = encode_transcription(word, ab)
            T = len(labels) + int(rng.integers(0, 4))
            g = build_asg_graph(labels, T)
            for path in oracles.enumerate_graph_paths(g):
                assert collapse_path(path, ab) == labels

    def test_links_are_sorted_unique_with_stay_links(self):
        # the recursions reduce each state's run of links with reduceat, and
        # viterbi's tie-break reads "first maximum" as "lowest state", so
        # links must be unique, sorted by (dst, src), with no empty run
        chains = [
            build_ctc_graph([0, 0, 1], 6, blank_id=3),
            build_asg_graph([0, 1, 2], 5),
            build_linear_graph([0, 1, 2, 3], [True, False, True, True], 4),
        ]
        for g in chains + [build_full_graph(4, 2)]:
            S = len(g.labels)
            assert g.src.shape == g.dst.shape
            assert np.all(np.diff(g.dst * S + g.src) > 0)
            assert {(s, s) for s in range(S)} <= set(zip(g.src.tolist(), g.dst.tolist()))
        for g in chains:
            # the scaled kernel's band step needs every chain link to stay
            # or move forward
            assert np.all(g.dst >= g.src)

    def test_linear_graph_empty_chain(self):
        with pytest.raises(InfeasibleError):
            build_linear_graph([], [], 3)


class TestForwardScore:
    def test_single_path_graph_both_modes_agree(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(3, 4))
        tr = random_transitions(rng, 4)
        g = build_asg_graph([0, 1, 2], 3)
        want = oracles.path_score([0, 1, 2], f, tr.trans, tr.start)
        la, _ = forward_score(g, f, tr, "logadd")
        mx, _ = forward_score(g, f, tr, "max")
        assert abs(la - want) < 1e-12
        assert abs(mx - want) < 1e-12

    def test_uniform_full_graph_closed_form(self):
        c = -1.37
        f = np.full((3, 4), c)
        score, _ = forward_score(build_full_graph(4, 3), f, TransitionTable.zeros(4))
        assert abs(score - (3 * c + 3 * math.log(4))) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(2, 5))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L, scale=1.0)
            g = build_full_graph(L, T)
            scores = [
                oracles.path_score(p, f, tr.trans, tr.start)
                for p in oracles.enumerate_graph_paths(g)
            ]
            la, _ = forward_score(g, f, tr, "logadd")
            mx, _ = forward_score(g, f, tr, "max")
            assert abs(la - oracles.logadd_ref(scores)) < 1e-10
            assert abs(mx - max(scores)) < 1e-10

    def test_logadd_at_least_max_and_bounded_by_path_count(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            T = int(rng.integers(1, 6))
            L = int(rng.integers(2, 5))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            g = build_full_graph(L, T)
            la, _ = forward_score(g, f, tr, "logadd")
            mx, _ = forward_score(g, f, tr, "max")
            assert la >= mx - 1e-12
            assert la <= mx + T * math.log(L) + 1e-12

    def test_shape_mismatch_raises(self):
        g = build_full_graph(4, 3)
        with pytest.raises(CriterionError):
            forward_score(g, np.zeros((2, 4)), TransitionTable.zeros(4))
        with pytest.raises(CriterionError):
            forward_score(g, np.zeros((3, 4)), TransitionTable.zeros(5))

    def test_unknown_mode(self):
        with pytest.raises(CriterionError):
            forward_score(build_full_graph(2, 2), np.zeros((2, 2)), TransitionTable.zeros(2), "avg")

    def test_negative_labels_rejected(self):
        # a negative id would otherwise index the last emission columns
        f = np.zeros((6, 4))
        tr = TransitionTable.zeros(4)
        with pytest.raises(CriterionError, match="outside the emission table"):
            asg_loss(f, tr, [0, -1])
        with pytest.raises(CriterionError, match="outside the emission table"):
            ctc_loss(f, [2, 1], blank_id=-2)
        with pytest.raises(CriterionError, match="outside the emission table"):
            viterbi(build_asg_graph([-1, 0], 6), f, tr)


class TestViterbi:
    def test_forced_single_path(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(3, 4))
        tr = random_transitions(rng, 4)
        path, score = viterbi(build_asg_graph([0, 1, 2], 3), f, tr)
        assert path == [0, 1, 2]
        assert abs(score - oracles.path_score(path, f, tr.trans, tr.start)) < 1e-12

    def test_full_graph_zero_transitions_is_framewise_argmax(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(6, 5))
        path, _ = viterbi(build_full_graph(5, 6), f, TransitionTable.zeros(5))
        assert path == list(np.argmax(f, axis=1))

    def test_matches_enumerated_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(2, 5))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L, scale=1.0)
            n = int(rng.integers(1, min(4, T) + 1))
            labels = random_label_sequence(rng, n, L)
            graphs = [build_asg_graph(labels, T)]
            # the blank-interleaved lattice, blank L - 1, when it fits
            ctc_labels = [x % (L - 1) for x in labels]
            if T >= n + sum(a == b for a, b in zip(ctc_labels, ctc_labels[1:])):
                graphs.append(build_ctc_graph(ctc_labels, T, blank_id=L - 1))
            for g in graphs:
                paths = oracles.enumerate_graph_paths(g)
                scores = [oracles.path_score(p, f, tr.trans, tr.start) for p in paths]
                path, score = viterbi(g, f, tr)
                assert abs(score - max(scores)) < 1e-10
                assert path in paths
                assert abs(oracles.path_score(path, f, tr.trans, tr.start) - score) < 1e-10

    def test_tie_breaks_toward_lowest_state(self):
        # all-equal scores: the lowest-index accepted path must win
        cases = [
            (build_full_graph(3, 3), [0, 0, 0]),
            (build_asg_graph([0, 1], 3), [0, 0, 1]),
            (build_ctc_graph([0], 2, blank_id=2), [2, 0]),
        ]
        for graph, want in cases:
            f = np.zeros((graph.num_frames, 3))
            path, _ = viterbi(graph, f, TransitionTable.zeros(3))
            assert path == want


class TestCtcLoss:
    def test_single_frame_uniform(self):
        f = log_softmax(np.zeros((1, 2)))
        result = ctc_loss(f, [0], blank_id=1)
        assert abs(result.loss - math.log(2.0)) < 1e-12

    def test_three_path_example(self):
        rng = np.random.default_rng(10)
        f = log_softmax(rng.normal(size=(2, 4)))
        result = ctc_loss(f, [0], blank_id=3)
        zeros = np.zeros((4, 4)), np.zeros(4)
        want = -oracles.logadd_ref(
            [oracles.path_score(p, f, *zeros) for p in ([0, 0], [3, 0], [0, 3])]
        )
        assert abs(result.loss - want) < 1e-12

    def test_matches_bruteforce(self):
        for emission_scale, _ in SCORE_SCALES:
            rng = np.random.default_rng(11)
            for _ in range(50):
                T = int(rng.integers(1, 8))
                L = int(rng.integers(2, 6))
                labels = [int(rng.integers(0, L - 1)) for _ in range(rng.integers(1, 5))]
                need = len(labels) + sum(
                    1 for i in range(len(labels) - 1) if labels[i] == labels[i + 1]
                )
                if need > T:
                    continue
                f = log_softmax(emission_scale * rng.normal(size=(T, L)))
                with np.errstate(over="raise", invalid="raise"):
                    result = ctc_loss(f, labels, blank_id=L - 1)
                    want = oracles.ctc_loss_bruteforce(f, labels, L - 1)
                assert abs(result.loss - want) < 1e-10 * emission_scale

    def test_nonnegative_for_normalized_rows(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            T = int(rng.integers(2, 7))
            f = log_softmax(rng.normal(size=(T, 4)))
            labels = random_label_sequence(rng, int(rng.integers(1, min(3, T) + 1)), 3)
            assert ctc_loss(f, labels, blank_id=3).loss >= -1e-10

    def test_without_transitions_links_score_zero(self):
        # forward_backward(..., None) is the zero transition table, minus
        # the link and start marginals nothing reads
        rng = np.random.default_rng(14)
        for _ in range(20):
            T, L = int(rng.integers(1, 12)), int(rng.integers(2, 6))
            f = rng.normal(size=(T, L))
            for graph in (build_full_graph(L, T), build_asg_graph(random_label_sequence(rng, 1, L), T)):
                got = forward_backward(graph, f, None)
                want = forward_backward(graph, f, TransitionTable.zeros(L))
                assert got.log_z == want.log_z
                assert np.array_equal(got.label_marginals, want.label_marginals)
                assert got.trans_marginals is None

    def test_strict_mode_rejects_unnormalized(self):
        with pytest.raises(CriterionError):
            ctc_loss(np.ones((3, 4)), [0], blank_id=3, strict=True)
        ctc_loss(log_softmax(np.ones((3, 4))), [0], blank_id=3, strict=True)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            T = int(rng.integers(2, 6))
            L = int(rng.integers(3, 5))
            labels = random_label_sequence(rng, int(rng.integers(1, min(3, T) + 1)), L - 1)
            f = log_softmax(rng.normal(size=(T, L)))
            result = ctc_loss(f, labels, blank_id=L - 1)
            for _ in range(8):
                i = int(rng.integers(0, T * L))
                fd = oracles.central_difference(lambda: ctc_loss(f, labels, L - 1).loss, f, i)
                assert oracles.relative_close(result.d_emissions.reshape(-1)[i], fd)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            ctc_loss(log_softmax(np.zeros((1, 3))), [0, 1], blank_id=2)


class TestAsgLoss:
    def test_uniform_example(self):
        result = asg_loss(np.zeros((2, 4)), TransitionTable.zeros(4), [0])
        assert abs(result.loss - 2 * math.log(4.0)) < 1e-12

    def test_matches_bruteforce(self):
        for emission_scale, transition_scale in SCORE_SCALES:
            rng = np.random.default_rng(14)
            for _ in range(50):
                T = int(rng.integers(1, 7))
                L = int(rng.integers(2, 5))
                f = emission_scale * rng.normal(size=(T, L))
                tr = random_transitions(rng, L, scale=0.5 * transition_scale)
                labels = random_label_sequence(rng, int(rng.integers(1, min(4, T) + 1)), L)
                with np.errstate(over="raise", invalid="raise"):
                    result = asg_loss(f, tr, labels)
                    want = oracles.asg_loss_bruteforce(f, tr.trans, tr.start, labels)
                assert abs(result.loss - want) < 1e-10 * emission_scale

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            T = int(rng.integers(2, 6))
            L = int(rng.integers(2, 5))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            labels = random_label_sequence(rng, int(rng.integers(1, min(4, T) + 1)), L)
            result = asg_loss(f, tr, labels)
            for _ in range(6):
                i = int(rng.integers(0, T * L))
                fd = oracles.central_difference(lambda: asg_loss(f, tr, labels).loss, f, i)
                assert oracles.relative_close(result.d_emissions.reshape(-1)[i], fd)
            for _ in range(6):
                i = int(rng.integers(0, L * L))
                fd = oracles.central_difference(
                    lambda: asg_loss(f, tr, labels).loss, tr.trans, i
                )
                assert oracles.relative_close(result.d_transitions.reshape(-1)[i], fd)
            for _ in range(3):
                i = int(rng.integers(0, L))
                fd = oracles.central_difference(
                    lambda: asg_loss(f, tr, labels).loss, tr.start, i
                )
                assert oracles.relative_close(result.d_start.reshape(-1)[i], fd)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(2, 6))
            f = 3.0 * rng.normal(size=(T, L))
            tr = random_transitions(rng, L, scale=1.0)
            labels = random_label_sequence(rng, int(rng.integers(1, min(4, T) + 1)), L)
            assert asg_loss(f, tr, labels).loss >= -1e-10

    def test_emission_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(2, 6))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            labels = random_label_sequence(rng, int(rng.integers(1, min(4, T) + 1)), L)
            rows = asg_loss(f, tr, labels).d_emissions.sum(axis=1)
            np.testing.assert_allclose(rows, 0.0, atol=1e-8)

    def test_framewise_constant_shift_invariance(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            T = int(rng.integers(1, 6))
            L = int(rng.integers(2, 5))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            labels = random_label_sequence(rng, int(rng.integers(1, min(3, T) + 1)), L)
            base = asg_loss(f, tr, labels).loss
            shifted = f.copy()
            t = int(rng.integers(0, T))
            shifted[t] += rng.normal(scale=5.0)
            assert abs(asg_loss(shifted, tr, labels).loss - base) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        f = rng.normal(size=(5, 4))
        tr = random_transitions(rng, 4)
        a = asg_loss(f, tr, [0, 1])
        b = asg_loss(f, tr, [0, 1])
        assert a.loss == b.loss
        assert np.array_equal(a.d_emissions, b.d_emissions)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            asg_loss(np.zeros((2, 4)), TransitionTable.zeros(4), [0, 1, 2])


def _kernel_instance(rng, family: str, scale: float):
    """One seeded (graph, emissions, transitions) of ``family`` with
    emission scores drawn at ``scale`` and transition scores at half of
    it, capped at 50."""
    T, L = int(rng.integers(1, 40)), int(rng.integers(2, 8))
    f = scale * rng.normal(size=(T, L))
    tr = random_transitions(rng, L, scale=0.5 * min(scale, 100.0))
    n = int(rng.integers(1, min(T, 12) + 1))
    if family == "asg":
        return build_asg_graph(random_label_sequence(rng, n, L), T), f, tr
    if family == "long asg":  # slack enough for mass to underflow mid-utterance
        T = int(rng.integers(20, 60))
        f = scale * rng.normal(size=(T, L))
        n = int(rng.integers(2, 12))
        return build_asg_graph([int(x) for x in rng.integers(0, L, n)], T), f, tr
    if family == "full":
        return build_full_graph(L, T), f, tr
    if family == "train_asg shape":  # 29 labels over 75-300 frames: many renormalization blocks
        T, L = int(rng.integers(75, 301)), 29
        f = scale * rng.normal(size=(T, L))
        tr = random_transitions(rng, L, scale=0.5 * min(scale, 100.0))
        if rng.random() < 0.5:
            return build_full_graph(L, T), f, tr
        return build_asg_graph(random_label_sequence(rng, int(rng.integers(8, 25)), L), T), f, tr
    if family == "ctc":  # one label per frame leaves room for any separators
        labels = random_label_sequence(rng, (n + 1) // 2, L - 1)
        return build_ctc_graph(labels, T, blank_id=L - 1), log_softmax(f), None
    optional = [bool(x) for x in rng.integers(0, 2, n)]  # optional silences
    return build_linear_graph(random_label_sequence(rng, n, L), optional, T), f, tr


KERNEL_FAMILIES = ["asg", "long asg", "full", "ctc", "optional silence", "train_asg shape"]
KERNEL_SCALES = [1.0, 30.0, 100.0, 1e3]


def _fallback_spy(monkeypatch) -> list:
    """Counts the calls that reach the log-domain recursion."""
    calls = []
    log_domain = criterion._log_forward_backward

    def spy(*args):
        calls.append(args)
        return log_domain(*args)

    monkeypatch.setattr(criterion, "_log_forward_backward", spy)
    return calls


def _log_domain_reference(monkeypatch, graph, f, tr):
    with monkeypatch.context() as m:
        m.setattr(criterion, "_scaled_forward_backward", lambda *args: None)
        return forward_backward(graph, f, tr)


def _scale_only_log_z(graph, f, tr) -> tuple[float, float]:
    """Rabiner's scaled Forward score vouched for by nothing but its own
    per-frame sums: returns the score and the smallest sum."""
    lab, S = graph.labels, len(graph.labels)
    step = np.zeros((S, S))
    for p, s in zip(graph.src, graph.dst):
        step[p, s] = np.exp(tr.trans[lab[p], lab[s]] - tr.trans.max())
    top = f.max(axis=1)
    emit = np.exp(f[:, lab] - top[:, None])
    start = np.where(graph.initial, np.exp(tr.start[lab] - tr.start.max()), 0.0)
    alpha, sums = start * emit[0], []
    for t in range(len(f)):
        if t:
            alpha = (alpha @ step) * emit[t]
        sums.append(alpha.sum())
        alpha = alpha / sums[-1]
    log_z = (
        np.log(sums).sum() + np.log(alpha[graph.accepting].sum())
        + top.sum() + (len(f) - 1) * tr.trans.max() + tr.start.max()
    )
    return float(log_z), min(sums)


class TestScaledKernel:
    """``forward_backward`` runs on scaled probabilities and falls back to
    the log-domain recursion wherever float64 cannot carry them.  The
    log-domain recursion is the reference for both paths."""

    def test_scaled_path_and_log_domain_fallback_match_the_log_domain(self, monkeypatch):
        calls = _fallback_spy(monkeypatch)
        fallbacks = {}
        for family in KERNEL_FAMILIES:
            for scale in KERNEL_SCALES:
                rng = np.random.default_rng([KERNEL_FAMILIES.index(family), int(scale)])
                for _ in range(16):
                    graph, f, tr = _kernel_instance(rng, family, scale)
                    before = len(calls)
                    got = forward_backward(graph, f, tr)
                    fell_back = len(calls) > before
                    want = _log_domain_reference(monkeypatch, graph, f, tr)
                    fallbacks.setdefault((family, scale), []).append(fell_back)
                    pairs = [(got.log_z, want.log_z), (got.label_marginals, want.label_marginals)]
                    if tr is not None:
                        pairs.append((got.trans_marginals, want.trans_marginals))
                    for a, b in pairs:
                        if fell_back:  # the fallback is the reference itself
                            assert np.array_equal(a, b)
                        else:
                            gate = 1e-9 if scale == 1.0 else 1e-10 * scale
                            assert np.max(np.abs(np.subtract(a, b))) <= gate
        assert sum(map(len, fallbacks.values())) >= 300
        # unit and moderate scales never need the fallback; at scale 1e3 a
        # frame's scores often spread past what exp() keeps normal
        for family in KERNEL_FAMILIES:
            assert not any(fallbacks[family, 1.0] + fallbacks[family, 30.0])
            assert any(fallbacks[family, 1e3])
        # long chains at scale 100 take both paths
        assert 0 < sum(fallbacks["long asg", 100.0]) < len(fallbacks["long asg", 100.0])

    def test_log_domain_fallback_catches_mass_that_underflowed_early(self, monkeypatch):
        # every frame sum is a normal float, yet the scaled score is off by
        # hundreds: a path whose mass underflowed mid-utterance would have
        # dominated it.  The frames' forward and backward tables disagree.
        rng = np.random.default_rng(2)
        T, L = 54, 6
        f = 100.0 * rng.normal(size=(T, L))
        tr = random_transitions(rng, L, scale=1.0)
        graph = build_asg_graph([int(x) for x in rng.integers(0, L, 7)], T)
        # every factor exp(f[t] - max f[t]) is a normal float
        assert np.ptp(f, axis=1).max() < -np.log(np.finfo(np.float64).tiny)
        exact, _ = forward_score(graph, f, tr)
        scale_only, smallest_sum = _scale_only_log_z(graph, f, tr)
        assert smallest_sum >= np.finfo(np.float64).tiny
        assert abs(scale_only - exact) > 100.0
        calls = _fallback_spy(monkeypatch)
        got = forward_backward(graph, f, tr)
        assert len(calls) == 1
        assert abs(got.log_z - exact) < 1e-8

    def test_log_domain_fallback_takes_factors_below_the_normal_range(self, monkeypatch):
        # exp(-740) is subnormal, good to about 1%, and both passes round it
        # alike, so they agree while the best path, b b b (score -740),
        # carries that error; b a b pays two -700 links instead.  Such a
        # frame must be refused outright.
        f = np.array([[-600.0, 0.0], [0.0, -740.0], [-600.0, 0.0]])
        tr = TransitionTable(np.array([[-700.0, -700.0], [-700.0, 0.0]]), np.zeros(2))
        assert abs(forward_score(build_full_graph(2, 3), f, tr)[0] + 740.0) < 1e-9
        calls = _fallback_spy(monkeypatch)
        for graph in (build_full_graph(2, 3), build_linear_graph([1, 0, 1], [True] * 3, 3)):
            exact, _ = forward_score(graph, f, tr)
            assert abs(forward_backward(graph, f, tr).log_z - exact) < 1e-9
        assert len(calls) == 2

    def test_link_posteriors_stay_finite_where_a_frame_estimate_is_tiny(self, monkeypatch):
        # dividing the next frame's backward table by the product of its
        # score estimate and forward sum overflowed here (inf marginals)
        rng = np.random.default_rng(352)
        T, L = 60, 4
        f = 100.0 * rng.normal(size=(T, L))
        tr = random_transitions(rng, L, scale=50.0)
        graph = build_asg_graph([int(x) for x in rng.integers(0, L, 3)], T)
        got = forward_backward(graph, f, tr)
        want = _log_domain_reference(monkeypatch, graph, f, tr)
        assert abs(got.log_z - want.log_z) <= 1e-8
        np.testing.assert_allclose(got.label_marginals, want.label_marginals, rtol=0, atol=1e-8)
        np.testing.assert_allclose(got.trans_marginals, want.trans_marginals, rtol=0, atol=1e-8)

    def test_scaled_path_serves_the_benchmark_shapes(self, monkeypatch):
        # the bench instances: 700 frames, 200 labels, unit-scale scores
        calls = _fallback_spy(monkeypatch)
        rng = np.random.default_rng(20)
        f = rng.standard_normal((700, 28))
        tr = random_transitions(rng, 28, scale=0.1)
        labels = random_label_sequence(rng, 200, 27)
        asg_loss(f, tr, labels)
        ctc_loss(log_softmax(f), labels, blank_id=27)
        assert calls == []


# every entry point that takes emissions, on 6 frames of 5 labels ("ab" has 5)
CHECKED_CALLS = {
    "asg_loss": lambda f, tr: asg_loss(f, tr, [0, 1, 0]),
    "ctc_loss": lambda f, tr: ctc_loss(f, [0, 1], blank_id=4),
    "forward_backward": lambda f, tr: forward_backward(build_full_graph(5, 6), f, tr),
    "forward_score": lambda f, tr: forward_score(build_asg_graph([0, 1], 6), f, tr),
    "viterbi": lambda f, tr: viterbi(build_full_graph(5, 6), f, tr),
    "greedy_transcribe": lambda f, tr: greedy_transcribe(f, tr, make_alphabet("ab")),
}


class TestEmissionTable:
    @pytest.mark.parametrize("wrapped", [False, True], ids=["array", "table"])
    @pytest.mark.parametrize("call", list(CHECKED_CALLS))
    def test_each_call_checks_its_emissions_once(self, monkeypatch, call, wrapped):
        # a raw array is checked once however many passes read it, and a
        # table, checked when it was built, is not checked again
        rng = np.random.default_rng(0)
        f = log_softmax(rng.standard_normal((6, 5)))
        emissions = EmissionTable(f) if wrapped else f
        checks, post_init = [], EmissionTable.__post_init__

        def counting_post_init(table):
            checks.append(table)
            post_init(table)

        monkeypatch.setattr(EmissionTable, "__post_init__", counting_post_init)
        CHECKED_CALLS[call](emissions, random_transitions(rng, 5))
        assert len(checks) == (0 if wrapped else 1)

    def test_nonfinite_rejected(self):
        with pytest.raises(CriterionError):
            EmissionTable(np.array([[0.0, np.inf]]))

    def test_normalized_flag_validated(self):
        with pytest.raises(CriterionError, match="normalized"):
            EmissionTable(np.ones((2, 3)), normalized=True)
        EmissionTable(log_softmax(np.ones((2, 3))), normalized=True)
