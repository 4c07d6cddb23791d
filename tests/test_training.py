import numpy as np
import pytest

from convasr import criterion
from convasr.acoustic import ConvLayerSpec, NetworkSpec
from convasr.criterion import asg_loss
from convasr.alphabet import encode_transcription
from convasr.features import FeatureSequence
from convasr.training import (
    ToyTaskConfig,
    TrainConfig,
    _clip_gradients,
    default_toy_network,
    greedy_transcribe,
    make_toy_dataset,
    train_toy,
)


@pytest.fixture(scope="module")
def small_task():
    task = ToyTaskConfig(num_samples=60, seed=7)
    alphabet, data = make_toy_dataset(task)
    return alphabet, data


class TestToyDataset:
    def test_deterministic(self):
        a1, d1 = make_toy_dataset(ToyTaskConfig(num_samples=10, seed=3))
        a2, d2 = make_toy_dataset(ToyTaskConfig(num_samples=10, seed=3))
        assert [t for _, t in d1] == [t for _, t in d2]
        for (f1, _), (f2, _) in zip(d1, d2):
            assert np.array_equal(f1.frames, f2.frames)

    def test_shapes_and_texts(self, small_task):
        alphabet, data = small_task
        assert len(data) == 60
        for feats, text in data:
            assert feats.dim == 39
            assert 2 <= len(text) <= 5
            assert set(text) <= set("abcde")
            assert all(a != b for a, b in zip(text, text[1:]))

    def test_needs_enough_tones(self):
        with pytest.raises(ValueError):
            make_toy_dataset(ToyTaskConfig(letters="abcdef", tone_hz=(100.0,)))

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"tone_hz": (300.0, 700.0, 0.0, 2200.0, 3500.0)}, "'tone_hz'"),
            ({"tone_hz": (300.0, 700.0, np.nan, 2200.0, 3500.0)}, "'tone_hz'"),
            ({"tone_hz": (300.0, 700.0, np.inf, 2200.0, 3500.0)}, "'tone_hz'"),
            ({"min_tone_ms": 200.0, "max_tone_ms": 10.0}, "'min_tone_ms'"),
            ({"min_tone_ms": 0.0, "max_tone_ms": 0.0}, "'min_tone_ms'"),
            ({"min_tone_ms": np.nan}, "'min_tone_ms'"),
            ({"max_tone_ms": np.inf}, "'max_tone_ms'"),
            ({"min_tone_ms": 20.0, "max_tone_ms": 30.0}, "'min_tone_ms'"),  # 320 samples, window 400
            ({"noise_std": -0.1}, "'noise_std'"),
            ({"noise_std": np.nan}, "'noise_std'"),
        ],
    )
    def test_tone_fields_checked(self, fields, named):
        with pytest.raises(ValueError, match=named):
            ToyTaskConfig(**fields)

    def test_shortest_tone_fills_one_window(self):
        # 25 ms is exactly one 400-sample analysis window at 16 kHz
        _, data = make_toy_dataset(ToyTaskConfig(num_samples=2, min_word_len=1, min_tone_ms=25.0, max_tone_ms=25.0))
        assert all(feats.num_frames >= 1 for feats, _ in data)


class TestClipGradients:
    def _arrays(self, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(4, 3, 2)), rng.normal(size=4), rng.normal(size=(5, 5))]

    def test_above_the_bound_the_global_norm_becomes_the_bound(self):
        for seed in range(5):
            arrays = self._arrays(seed)
            norm = np.sqrt(sum(np.sum(a**2) for a in arrays))
            _clip_gradients(arrays, norm / 3.0)
            clipped = np.sqrt(sum(np.sum(a**2) for a in arrays))
            assert abs(clipped - norm / 3.0) <= 1e-12 * norm / 3.0

    def test_at_or_below_the_bound_nothing_changes(self):
        arrays = self._arrays(7)
        norm = np.sqrt(sum(float(np.vdot(a, a)) for a in arrays))  # the norm as the clip sums it
        for bound in (norm, 2.0 * norm, np.inf):
            copies = [a.copy() for a in arrays]
            _clip_gradients(copies, bound)
            assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))

    def test_zero_gradients_stay_zero(self):
        arrays = [np.zeros((3, 2)), np.zeros(4)]
        _clip_gradients(arrays, 1.0)
        assert not any(a.any() for a in arrays)


class TestTrainToy:
    def test_learns_small_task(self, small_task):
        alphabet, data = small_task
        spec = default_toy_network(39, len(alphabet))
        res = train_toy(data, alphabet, spec, TrainConfig(epochs=6, learning_rate=0.02, seed=1))
        assert res.curve[-1].ler < 0.10
        # monotone trend: last epoch at least as good as the first
        assert res.curve[-1].ler <= res.curve[0].ler

    def test_zero_learning_rate_changes_nothing(self, small_task):
        alphabet, data = small_task
        spec = default_toy_network(39, len(alphabet))
        res = train_toy(data, alphabet, spec, TrainConfig(epochs=3, learning_rate=0.0, seed=2))
        from convasr.acoustic import init_params

        fresh = init_params(spec, np.random.default_rng(2))
        for trained, init in zip(res.params.layers, fresh.layers):
            np.testing.assert_array_equal(trained.w, init.w)
            np.testing.assert_array_equal(trained.b, init.b)
        lers = [s.ler for s in res.curve]
        assert len(set(lers)) == 1  # flat curve
        assert not res.transitions.trans.any()

    def test_single_sample_overfits(self, small_task):
        alphabet, data = small_task
        spec = default_toy_network(39, len(alphabet))
        sample = [data[0]]
        res = train_toy(sample, alphabet, spec, TrainConfig(epochs=60, learning_rate=0.05, seed=3, holdout_fraction=0.0))
        feats, text = sample[0]
        from convasr.acoustic import network_forward

        out = network_forward(feats.frames, spec, res.params)
        labels = encode_transcription(text, alphabet)
        assert asg_loss(out, res.transitions, labels).loss < 0.1

    def test_infeasible_sample_reported_with_index(self, small_task):
        alphabet, data = small_task
        spec = default_toy_network(39, len(alphabet))
        bad = FeatureSequence(np.zeros((8, 39)), 10.0, 25.0)  # 1 output frame
        dataset = [data[0], (bad, "abcde")]
        with pytest.raises(ValueError, match="sample 1"):
            train_toy(dataset, alphabet, spec, TrainConfig(epochs=1, seed=0))

    def test_empty_dataset(self, small_task):
        alphabet, _ = small_task
        with pytest.raises(ValueError, match="empty"):
            train_toy([], alphabet, default_toy_network(39, len(alphabet)), TrainConfig())

    def test_output_width_must_match_alphabet(self, small_task):
        alphabet, data = small_task
        spec = NetworkSpec([ConvLayerSpec(39, 5, 3, 1, "none")])
        with pytest.raises(Exception, match="alphabet"):
            train_toy(data, alphabet, spec, TrainConfig(epochs=1))

    def test_every_step_takes_the_scaled_path(self, monkeypatch):
        # the training benchmark's tone words (16-24 of its 8-24 letters over
        # a-z, 180-250 ms each) and network: numerator chains of 16-24 states
        # under 29 labels over about 140-300 frames.  Renormalizing only at the
        # first frame makes this run fall back.
        letters = "abcdefghijklmnopqrstuvwxyz"
        task = ToyTaskConfig(
            letters=letters, num_samples=6, min_word_len=16, max_word_len=24, seed=4,
            tone_hz=tuple(np.geomspace(250.0, 5000.0, len(letters))), min_tone_ms=180.0, max_tone_ms=250.0,
        )
        alphabet, data = make_toy_dataset(task)
        spec = NetworkSpec(
            [
                ConvLayerSpec(39, 250, 7, 2, "hardtanh"),
                ConvLayerSpec(250, 250, 5, 1, "hardtanh"),
                ConvLayerSpec(250, len(alphabet), 1, 1, "none"),
            ]
        )
        fallbacks, widths = [], []
        log_domain, forward_backward = criterion._log_forward_backward, criterion.forward_backward

        def log_domain_spy(*args):
            fallbacks.append(args)
            return log_domain(*args)

        def forward_backward_spy(graph, *args):
            widths.append(graph.labels.size)
            return forward_backward(graph, *args)

        monkeypatch.setattr(criterion, "_log_forward_backward", log_domain_spy)
        monkeypatch.setattr(criterion, "forward_backward", forward_backward_spy)
        train_toy(data, alphabet, spec, TrainConfig(epochs=2, seed=4))
        # 5 training utterances an epoch, each a numerator chain then the full lattice
        texts = [text for _, text in data[:5]]
        assert fallbacks == []
        assert len(widths) == 2 * 2 * len(texts)
        assert sorted(widths[0::2]) == sorted(2 * [len(t) for t in texts])
        assert widths[1::2] == [len(alphabet)] * len(widths[1::2])

    def test_early_stop(self, small_task):
        alphabet, data = small_task
        spec = default_toy_network(39, len(alphabet))
        res = train_toy(
            data, alphabet, spec, TrainConfig(epochs=50, learning_rate=0.02, seed=1, stop_ler=0.10)
        )
        assert res.curve[-1].ler < 0.10
        assert len(res.curve) < 50


class TestGreedyTranscribe:
    def test_peaked_emissions_decode_to_text(self, small_task):
        alphabet, _ = small_task
        from convasr.criterion import TransitionTable

        L = len(alphabet)
        ids = [alphabet.index[c] for c in "abc"]
        f = np.full((6, L), -5.0)
        for t, i in enumerate([ids[0], ids[0], ids[1], ids[1], ids[2], ids[2]]):
            f[t, i] = 3.0
        assert greedy_transcribe(f, TransitionTable.zeros(L), alphabet) == "abc"
