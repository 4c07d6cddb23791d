"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import make_bigram_arpa, random_label_sequence, random_transitions

from convasr.acoustic import (
    ConvLayerSpec,
    LayerParams,
    conv1d_backward,
    conv1d_forward,
    load_reference_config,
    receptive_field,
)
from convasr.alphabet import decode_labels, default_alphabet, encode_transcription, make_alphabet
from convasr.criterion import (
    TransitionTable,
    asg_loss,
    build_full_graph,
    ctc_loss,
    forward_score,
    log_softmax,
)
from convasr.decoder import DecodeError, DecoderConfig, decode, exhaustive_decode
from convasr.fileio import read_matrix, write_matrix
from convasr.lm import build_lexicon, load_arpa, save_arpa, score_word, smear

GOLDEN = pathlib.Path(__file__).parent / "golden"


@contextmanager
def criterion_report(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_loss_exactness_vs_bruteforce():
    """Both losses match explicit path enumeration on 1000 random instances."""
    with criterion_report(1, "criterion exactness vs brute force (1000 instances, 1e-8)"):
        rng = np.random.default_rng(100)
        start = time.perf_counter()
        asg_checked = ctc_checked = 0
        for _ in range(1000):
            T = int(rng.integers(1, 9))
            L = int(rng.integers(2, 6))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L, scale=0.5)
            labels = random_label_sequence(rng, int(rng.integers(1, min(4, T) + 1)), L)
            got = asg_loss(f, tr, labels).loss
            want = oracles.asg_loss_bruteforce(f, tr.trans, tr.start, labels)
            assert abs(got - want) < 1e-8
            asg_checked += 1

            blank = L - 1
            ctc_labels = [x for x in labels if x != blank]
            need = len(ctc_labels) + sum(
                1 for i in range(len(ctc_labels) - 1) if ctc_labels[i] == ctc_labels[i + 1]
            )
            if ctc_labels and need <= T:
                fn = log_softmax(f)
                got = ctc_loss(fn, ctc_labels, blank).loss
                want = oracles.ctc_loss_bruteforce(fn, ctc_labels, blank)
                assert abs(got - want) < 1e-8
                ctc_checked += 1
        elapsed = time.perf_counter() - start
        assert asg_checked == 1000 and ctc_checked > 500
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_exactness():
    """Finite differences (step 1e-4) within 1e-5 relative, 100 instances each."""
    with criterion_report(2, "gradient exactness vs finite differences (1e-5 relative)"):
        rng = np.random.default_rng(200)
        step = 1e-4
        for _ in range(100):
            T = int(rng.integers(2, 6))
            L = int(rng.integers(3, 5))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            labels = random_label_sequence(rng, int(rng.integers(1, min(4, T) + 1)), L)
            result = asg_loss(f, tr, labels)
            for arr, grad in (
                (f, result.d_emissions),
                (tr.trans, result.d_transitions),
                (tr.start, result.d_start),
            ):
                for i in range(arr.size):
                    fd = oracles.central_difference(
                        lambda: asg_loss(f, tr, labels).loss, arr, i, step
                    )
                    assert oracles.relative_close(grad.reshape(-1)[i], fd)

            blank = L - 1
            ctc_labels = random_label_sequence(rng, int(rng.integers(1, min(3, T) + 1)), L - 1)
            fn = log_softmax(rng.normal(size=(T, L)))
            ctc_result = ctc_loss(fn, ctc_labels, blank)
            for i in range(fn.size):
                fd = oracles.central_difference(
                    lambda: ctc_loss(fn, ctc_labels, blank).loss, fn, i, step
                )
                assert oracles.relative_close(ctc_result.d_emissions.reshape(-1)[i], fd)

        # convolution parameter gradients
        for _ in range(100):
            layer = ConvLayerSpec(
                int(rng.integers(1, 3)),
                int(rng.integers(1, 3)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 3)),
            )
            t_in = layer.kw + int(rng.integers(0, 5))
            x = rng.normal(size=(t_in, layer.d_in))
            params = LayerParams(
                rng.normal(size=(layer.d_out, layer.d_in, layer.kw)),
                rng.normal(size=layer.d_out),
            )
            probe = rng.normal(size=((t_in - layer.kw) // layer.dw + 1, layer.d_out))

            def loss():
                return float((conv1d_forward(x, layer, params) * probe).sum())

            d_x, d_w, d_b = conv1d_backward(x, layer, params, probe)
            for arr, grad in ((x, d_x), (params.w, d_w), (params.b, d_b)):
                for i in range(arr.size):
                    fd = oracles.central_difference(loss, arr, i, step)
                    assert oracles.relative_close(grad.reshape(-1)[i], fd)


def test_criterion_3_invariant_suite():
    """Loss nonnegativity, zero-sum gradient rows, shift invariance, logadd >= max."""
    with criterion_report(3, "invariant suite (nonnegativity, row sums, shifts, logadd/max)"):
        rng = np.random.default_rng(300)
        for _ in range(200):
            T = int(rng.integers(1, 8))
            L = int(rng.integers(2, 6))
            f = 2.0 * rng.normal(size=(T, L))
            tr = random_transitions(rng, L, scale=0.5)
            labels = random_label_sequence(rng, int(rng.integers(1, min(4, T) + 1)), L)
            result = asg_loss(f, tr, labels)
            assert result.loss >= -1e-10
            np.testing.assert_allclose(result.d_emissions.sum(axis=1), 0.0, atol=1e-8)

            t = int(rng.integers(0, T))
            shifted = f.copy()
            shifted[t] += float(rng.normal(scale=4.0))
            assert abs(asg_loss(shifted, tr, labels).loss - result.loss) < 1e-8

            full = build_full_graph(L, T)
            la, _ = forward_score(full, f, tr, "logadd")
            mx, _ = forward_score(full, f, tr, "max")
            assert la >= mx - 1e-12


def test_criterion_4_decoder_oracle(tmp_path):
    """Exhaustive-beam decoding equals the brute-force oracle on 50 fixtures."""
    with criterion_report(4, "decoder equals exhaustive oracle (50 fixtures) + beam monotonicity"):
        rng = np.random.default_rng(400)
        letters = "abcd"
        alphabet = make_alphabet(letters)
        L = len(alphabet)
        policies = ("optional", "none", "mandatory")
        compared = 0
        fixtures = 0
        while fixtures < 50:
            n_words = int(rng.integers(1, 5))
            words = []
            while len(words) < n_words:
                wl = int(rng.integers(2, 4))
                w = "".join(letters[rng.integers(0, len(letters))] for _ in range(wl))
                if w not in words:
                    words.append(w)
            lm = load_arpa(make_bigram_arpa(tmp_path / f"lm{fixtures}.arpa", words, rng))
            lexicon = smear(build_lexicon(words, alphabet), lm)
            T = int(rng.integers(2, 9))
            f = rng.normal(size=(T, L))
            tr = random_transitions(rng, L)
            cfg = DecoderConfig(
                alpha=float(rng.uniform(0.2, 2.0)),
                beta=float(rng.uniform(-1.0, 1.0)),
                beam_size=10**6,
                beam_threshold=math.inf,
                mode="max",
                silence=policies[fixtures % 3],
            )
            fixtures += 1
            try:
                want = exhaustive_decode(f, tr, lm, lexicon, cfg, max_words=4)
            except DecodeError:
                want = None
            try:
                got = decode(f, tr, lm, lexicon, cfg, nbest=1)[0]
            except DecodeError:
                got = None
            assert (want is None) == (got is None)
            if want is None:
                continue
            assert got.words == want.words
            assert abs(got.score - want.score) < 1e-9
            compared += 1

            # beam monotonicity across {1, 2, 4, inf}
            prev = -math.inf
            for beam in (1, 2, 4, 10**6):
                bcfg = DecoderConfig(
                    alpha=cfg.alpha, beta=cfg.beta, beam_size=beam,
                    beam_threshold=math.inf, mode="max", silence=cfg.silence,
                )
                try:
                    score = decode(f, tr, lm, lexicon, bcfg, nbest=1)[0].score
                except DecodeError:
                    score = -math.inf
                assert score >= prev - 1e-12
                prev = score
        assert compared >= 40  # nearly all fixtures decode successfully


def test_criterion_5_toy_training(criterion_5_run):
    """Seeded toy task reaches held-out LER < 10% and matches the golden curve."""
    with criterion_report(5, "end-to-end toy training (LER < 10%, golden curve, < 5 min)"):
        result, elapsed = criterion_5_run.result, criterion_5_run.elapsed
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
        assert len(result.curve) <= 50
        assert min(s.ler for s in result.curve) < 0.10
        assert result.curve[-1].ler < 0.10
        rows = ["epoch,edits,ref_length,ler"]
        for s in result.curve:
            rows.append(f"{s.epoch},{s.edit_count},{s.ref_length},{s.ler:.6f}")
        got = "\n".join(rows) + "\n"
        assert got == (GOLDEN / "toy_curve_acceptance.csv").read_text()


def test_criterion_6_benchmark_shape():
    """Reference small/long timing shapes; ASG long/small per-item ratio <= 8."""
    with criterion_report(6, "benchmark harness shapes and ASG scaling ratio <= 8"):
        from convasr.bench import BenchConfig, run_bench

        small = run_bench(
            BenchConfig(frames=150, vocab=28, transcription=40,
                        batch_sizes=(1, 4, 8), repetitions=3, seed=0)
        )
        long = run_bench(
            BenchConfig(frames=700, vocab=28, transcription=200,
                        batch_sizes=(1, 4, 8), repetitions=3, seed=0)
        )
        assert {(r.criterion, r.batch) for r in small} == {
            (c, b) for c in ("asg", "ctc") for b in (1, 4, 8)
        }
        for r in small + long:
            assert r.median_ms > 0.0 and r.p10_ms <= r.median_ms <= r.p90_ms

        # wall-clock speed drifts: time the two ASG batch-1 shapes in
        # alternation, so that a slow stretch lands on both
        shapes = {
            "small": BenchConfig(frames=150, vocab=28, transcription=40, batch_sizes=(1,),
                                 repetitions=3, criteria=("asg",), seed=0),
            "long": BenchConfig(frames=700, vocab=28, transcription=200, batch_sizes=(1,),
                                repetitions=3, criteria=("asg",), seed=0),
        }
        times = {name: [] for name in shapes}
        for _ in range(7):
            for name, cfg in shapes.items():
                times[name].append(run_bench(cfg)[0].per_item_ms)
        ratio = float(np.median(times["long"]) / np.median(times["small"]))
        assert ratio <= 8.0, f"asg per-item ratio {ratio:.2f}"


def test_criterion_7_receptive_field_arithmetic():
    """Reference raw-wave config composes to exactly (31280, 320)."""
    with criterion_report(7, "receptive field (31280, 320) = 1955 ms / 20 ms at 16 kHz"):
        kw, dw = receptive_field(load_reference_config())
        assert (kw, dw) == (31280, 320)
        assert kw / 16.0 == 1955.0  # ms at 16 kHz
        assert dw / 16.0 == 20.0


def test_criterion_8_lm_correctness(tmp_path, hand_arpa):
    """Hand-computed backoff queries (1e-9, log10) and smearing vs subtree max."""
    with criterion_report(8, "LM backoff fixtures (1e-9 log10) and smearing maxima"):
        lm = load_arpa(hand_arpa)
        a, b, c = (lm.vocab[w] for w in "abc")
        bos = lm.vocab["<s>"]
        queries = [
            ((a,), "b", -0.30103),
            ((a,), "c", -0.6),
            ((bos,), "a", -0.15),
            ((bos,), "b", -0.91103),
            ((), "a", -0.52),
            ((b,), "</s>", -0.9),
            ((a,), "</s>", -0.79897),
            ((b,), "c", -0.4),
            ((b,), "a", -0.72),
            ((c,), "c", -0.5),
        ]
        for state, word, want in queries:
            got, _ = score_word(lm, state, word)
            assert abs(got - want) < 1e-9

        rng = np.random.default_rng(800)
        alphabet = default_alphabet()
        for trial in range(5):
            words = ["cat", "cab", "ca", "dog", "do", "ball", "bat"][: rng.integers(2, 8)]
            rlm = load_arpa(make_bigram_arpa(tmp_path / f"s{trial}.arpa", words, rng))
            trie = smear(build_lexicon(words, alphabet), rlm)
            scores = [score_word(rlm, (), w)[0] for w in words]
            for node, prefix in enumerate(oracles.node_prefixes(trie)):
                assert trie.smeared[node] == oracles.prefix_best_unigram(trie.spellings, prefix, scores)


BASE_WORDS = """the of and to in is you that it he was for on are as with his they at be
this have from or one had by word but not what all were we when your can said there use
an each which she do how their if will up other about out many then them these so some
her would make like him into time has look two more write go see number no way could
people my than first water been call who oil its now find long down day did get come
made may part over new sound take only little work know place year live me back give
most very after thing our just name good sentence man think say great where help through
much before line right too mean old any same tell boy follow came want show also around
form three small set put end does another well large must big even such because turn
here why ask went men read need land different home us move try kind hand picture again
change off play spell air away animal house point page letter mother answer found study
still learn should america world high every near add food between own below country plant
last school father keep tree never start city earth eye light thought head under story
saw left don't few while along might close something seem next hard open example begin
life always those both paper together got group often run important until children side
feet car mile night walk white sea began grow took river four carry state once book hear
stop without second later miss idea enough eat face watch far really almost let above girl
sometimes mountain cut young talk soon list song being leave family it's""".split()


def test_criterion_9_round_trips(tmp_path):
    """Transcription coding over 10k words, ARPA save/load, matrix files: exact."""
    with criterion_report(9, "round trips: 10k-word coding, ARPA, matrix files"):
        alphabet = default_alphabet()

        def runs_ok(word, cap=3):
            run = 1
            for x, y in zip(word, word[1:]):
                run = run + 1 if x == y else 1
                if run > cap:
                    return False
            return True

        words = [w for w in BASE_WORDS if runs_ok(w)]
        for a in BASE_WORDS:
            for b in BASE_WORDS:
                if len(words) >= 10000:
                    break
                combo = a + b
                if runs_ok(combo):
                    words.append(combo)
            if len(words) >= 10000:
                break
        assert len(words) == 10000
        for w in words:
            assert decode_labels(encode_transcription(w, alphabet), alphabet) == w

        rng = np.random.default_rng(900)
        lm = load_arpa(make_bigram_arpa(tmp_path / "rt.arpa", ["alpha", "beta", "gamma"], rng))
        save_arpa(lm, tmp_path / "rt2.arpa")
        lm2 = load_arpa(tmp_path / "rt2.arpa")
        state1, state2 = lm.start_state(), lm2.start_state()
        for w in ("alpha", "beta", "gamma", "</s>"):
            s1, state1 = score_word(lm, state1, w)
            s2, state2 = score_word(lm2, state2, w)
            assert s1 == s2
        save_arpa(lm2, tmp_path / "rt3.arpa")
        assert (tmp_path / "rt2.arpa").read_bytes() == (tmp_path / "rt3.arpa").read_bytes()

        arr = rng.standard_normal((37, 13)).astype(np.float32)
        write_matrix(tmp_path / "m.bin", arr, stride_ms=10.0, window_ms=25.0)
        back, stride, window = read_matrix(tmp_path / "m.bin")
        assert np.array_equal(back, arr) and (stride, window) == (10.0, 25.0)
        write_matrix(tmp_path / "m2.bin", back, stride_ms=stride, window_ms=window)
        assert (tmp_path / "m.bin").read_bytes() == (tmp_path / "m2.bin").read_bytes()
