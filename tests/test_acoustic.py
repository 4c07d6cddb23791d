import numpy as np
import pytest

from convasr.acoustic import (
    AcousticError,
    ConvLayerSpec,
    LayerParams,
    ModelParams,
    NetworkSpec,
    conv1d_backward,
    conv1d_forward,
    init_params,
    load_reference_config,
    network_backward,
    network_forward,
    network_forward_cached,
    receptive_field,
)

import oracles


def naive_conv(x, layer, params):
    """Direct triple-loop evaluation of the convolution definition."""
    t_out = (x.shape[0] - layer.kw) // layer.dw + 1
    y = np.zeros((t_out, layer.d_out))
    for t in range(t_out):
        for i in range(layer.d_out):
            acc = params.b[i]
            for j in range(layer.d_in):
                for k in range(layer.kw):
                    acc += params.w[i, j, k] * x[layer.dw * t + k, j]
            y[t, i] = acc
    return y


class TestConvForward:
    def test_identity_layer(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 4))
        layer = ConvLayerSpec(4, 4, 1, 1, "none")
        params = LayerParams(np.eye(4)[:, :, None], np.zeros(4))
        np.testing.assert_allclose(conv1d_forward(x, layer, params), x)

    def test_output_length(self):
        layer = ConvLayerSpec(1, 1, 5, 2)
        params = LayerParams(np.zeros((1, 1, 5)), np.zeros(1))
        y = conv1d_forward(np.zeros((100, 1)), layer, params)
        assert y.shape[0] == 48

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            layer = ConvLayerSpec(
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 5)),
                int(rng.integers(1, 3)),
            )
            t_in = layer.kw + int(rng.integers(0, 10))
            x = rng.normal(size=(t_in, layer.d_in))
            params = LayerParams(
                rng.normal(size=(layer.d_out, layer.d_in, layer.kw)),
                rng.normal(size=layer.d_out),
            )
            np.testing.assert_allclose(
                conv1d_forward(x, layer, params), naive_conv(x, layer, params), atol=1e-12
            )

    def test_too_short_input(self):
        layer = ConvLayerSpec(1, 1, 5, 1)
        params = LayerParams(np.zeros((1, 1, 5)), np.zeros(1))
        with pytest.raises(AcousticError):
            conv1d_forward(np.zeros((4, 1)), layer, params)


class TestConvBackward:
    def test_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(2)
        layer = ConvLayerSpec(2, 3, 3, 2)
        x = rng.normal(size=(9, 2))
        params = LayerParams(rng.normal(size=(3, 2, 3)), rng.normal(size=3))
        d_y = rng.normal(size=(4, 3))
        _, _, d_b = conv1d_backward(x, layer, params, d_y)
        np.testing.assert_allclose(d_b, d_y.sum(axis=0))

    def test_zero_upstream_zero_grads(self):
        layer = ConvLayerSpec(2, 2, 2, 1)
        x = np.ones((5, 2))
        params = LayerParams(np.ones((2, 2, 2)), np.ones(2))
        d_x, d_w, d_b = conv1d_backward(x, layer, params, np.zeros((4, 2)))
        assert not d_x.any() and not d_w.any() and not d_b.any()

    def test_input_gradient_skipped_on_request(self):
        rng = np.random.default_rng(3)
        layer = ConvLayerSpec(2, 3, 3, 2)
        x = rng.normal(size=(9, 2))
        params = LayerParams(rng.normal(size=(3, 2, 3)), rng.normal(size=3))
        d_y = rng.normal(size=(4, 3))
        _, d_w, d_b = conv1d_backward(x, layer, params, d_y)
        d_x, d_w_only, d_b_only = conv1d_backward(x, layer, params, d_y, input_grad=False)
        assert d_x is None
        assert np.array_equal(d_w_only, d_w) and np.array_equal(d_b_only, d_b)

    def test_input_gradient_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        # fixed: strides past the kernel (gap rows) and trailing rows that
        # no window covers; then random shapes
        shapes = [(ConvLayerSpec(2, 3, 2, 5), 13), (ConvLayerSpec(1, 2, 1, 3), 8)]
        for _ in range(20):
            layer = ConvLayerSpec(
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 5)),
                int(rng.integers(1, 6)),
            )
            shapes.append((layer, layer.kw + int(rng.integers(0, 12))))
        for layer, t_in in shapes:
            t_out = (t_in - layer.kw) // layer.dw + 1
            x = rng.normal(size=(t_in, layer.d_in))
            params = LayerParams(
                rng.normal(size=(layer.d_out, layer.d_in, layer.kw)),
                rng.normal(size=layer.d_out),
            )
            d_y = rng.normal(size=(t_out, layer.d_out))
            want = np.zeros_like(x)
            covered = np.zeros(t_in, dtype=bool)
            for t in range(t_out):
                for k in range(layer.kw):
                    want[layer.dw * t + k] += params.w[:, :, k].T @ d_y[t]
                    covered[layer.dw * t + k] = True
            d_x, _, _ = conv1d_backward(x, layer, params, d_y)
            np.testing.assert_allclose(d_x, want, atol=1e-12)
            assert not d_x[~covered].any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            layer = ConvLayerSpec(
                int(rng.integers(1, 3)),
                int(rng.integers(1, 3)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 3)),
            )
            t_in = layer.kw + int(rng.integers(0, 6))
            x = rng.normal(size=(t_in, layer.d_in))
            params = LayerParams(
                rng.normal(size=(layer.d_out, layer.d_in, layer.kw)),
                rng.normal(size=layer.d_out),
            )
            # scalar objective: weighted sum of outputs
            probe = rng.normal(size=((t_in - layer.kw) // layer.dw + 1, layer.d_out))

            def loss():
                return float((conv1d_forward(x, layer, params) * probe).sum())

            d_x, d_w, d_b = conv1d_backward(x, layer, params, probe)
            for arr, grad in ((x, d_x), (params.w, d_w), (params.b, d_b)):
                for _ in range(5):
                    i = int(rng.integers(0, arr.size))
                    fd = oracles.central_difference(loss, arr, i)
                    assert oracles.relative_close(grad.reshape(-1)[i], fd)


class TestReceptiveField:
    def test_single_layer(self):
        spec = NetworkSpec([ConvLayerSpec(1, 1, 7, 3)])
        assert receptive_field(spec) == (7, 3)

    def test_two_layer_composition(self):
        spec = NetworkSpec([ConvLayerSpec(1, 1, 3, 2), ConvLayerSpec(1, 1, 3, 2)])
        assert receptive_field(spec) == (7, 4)

    def test_composition_matches_influence_probe(self):
        # which input frames influence output frame 0 of the composed net
        rng = np.random.default_rng(4)
        spec = NetworkSpec(
            [ConvLayerSpec(1, 2, 3, 2, "none"), ConvLayerSpec(2, 1, 3, 2, "none")]
        )
        params = init_params(spec, rng)
        kw, dw = receptive_field(spec)
        t_in = kw + 2 * dw
        x = np.zeros((t_in, 1))
        base = network_forward(x, spec, params).scores
        influencing = []
        for t in range(t_in):
            probe = x.copy()
            probe[t, 0] = 1.0
            if not np.allclose(network_forward(probe, spec, params).scores[0], base[0]):
                influencing.append(t)
        assert influencing == list(range(kw))

    def test_output_length_matches_virtual_layer(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layers = []
            d = 1
            for _ in range(int(rng.integers(1, 4))):
                d_out = int(rng.integers(1, 3))
                layers.append(
                    ConvLayerSpec(d, d_out, int(rng.integers(1, 4)), int(rng.integers(1, 3)), "none")
                )
                d = d_out
            spec = NetworkSpec(layers)
            kw, dw = receptive_field(spec)
            t_in = kw + int(rng.integers(0, 12))
            assert spec.out_frames(t_in) == (t_in - kw) // dw + 1

    def test_reference_raw_config(self):
        spec = load_reference_config()
        assert receptive_field(spec) == (31280, 320)
        # 16 kHz: 1955 ms window, 20 ms steps
        assert 31280 / 16 == 1955.0
        assert 320 / 16 == 20.0
        assert spec.layers[-1].kw == 1 and spec.layers[-2].kw == 1

    def test_raw_wave_net_runs_on_synthetic_signal(self):
        # structural check on actual samples: 2.5 s of noise at 16 kHz
        # yields one 30-label score row every 320 samples past the first
        # 31280-sample window
        rng = np.random.default_rng(11)
        spec = load_reference_config()
        params = init_params(spec, rng)
        samples = 40000
        out = network_forward(0.1 * rng.standard_normal((samples, 1)), spec, params)
        kw, dw = receptive_field(spec)
        assert out.scores.shape == ((samples - kw) // dw + 1, 30)
        assert np.all(np.isfinite(out.scores))

    def test_raw_wave_net_too_short_input(self):
        rng = np.random.default_rng(12)
        spec = load_reference_config()
        params = init_params(spec, rng)
        with pytest.raises(AcousticError, match="31280"):
            network_forward(np.zeros((31279, 1)), spec, params)


class TestNetwork:
    def test_identity_network(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 3))
        spec = NetworkSpec([ConvLayerSpec(3, 3, 1, 1, "none")])
        params = ModelParams([LayerParams(np.eye(3)[:, :, None], np.zeros(3))])
        np.testing.assert_allclose(network_forward(x, spec, params).scores, x)

    def test_two_layers_equal_manual_composition(self):
        rng = np.random.default_rng(7)
        spec = NetworkSpec([ConvLayerSpec(3, 4, 3, 2), ConvLayerSpec(4, 2, 2, 1, "none")])
        params = init_params(spec, rng)
        x = rng.normal(size=(11, 3))
        manual = np.clip(conv1d_forward(x, spec.layers[0], params.layers[0]), -1, 1)
        manual = conv1d_forward(manual, spec.layers[1], params.layers[1])
        np.testing.assert_allclose(network_forward(x, spec, params).scores, manual)

    def test_too_short_names_minimum(self):
        spec = NetworkSpec([ConvLayerSpec(1, 1, 3, 2), ConvLayerSpec(1, 1, 3, 2)])
        with pytest.raises(AcousticError, match=str(receptive_field(spec)[0])):
            network_forward(np.zeros((4, 1)), spec, init_params(spec, np.random.default_rng(0)))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        spec = NetworkSpec([ConvLayerSpec(2, 3, 3, 1)])
        params = init_params(spec, rng)
        x = rng.normal(size=(8, 2))
        a = network_forward(x, spec, params).scores
        b = network_forward(x, spec, params).scores
        assert np.array_equal(a, b)

    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        spec = NetworkSpec(
            [ConvLayerSpec(2, 3, 3, 2, "hardtanh"), ConvLayerSpec(3, 2, 2, 1, "tanh")]
        )
        params = init_params(spec, rng)
        x = rng.normal(size=(9, 2))
        probe = rng.normal(size=(int(spec.out_frames(9)), 2))

        def loss():
            out, _ = network_forward_cached(x, spec, params)
            return float((out * probe).sum())

        out, cache = network_forward_cached(x, spec, params)
        grads = network_backward(spec, params, cache, probe)
        for lp, g in zip(params.layers, grads):
            for arr, grad in ((lp.w, g.w), (lp.b, g.b)):
                for _ in range(6):
                    i = int(rng.integers(0, arr.size))
                    fd = oracles.central_difference(loss, arr, i)
                    assert oracles.relative_close(grad.reshape(-1)[i], fd)

    def test_hardtanh_subgradient_definition(self):
        from convasr.acoustic import _NONLIN

        forward, grad = _NONLIN["hardtanh"]
        z = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        np.testing.assert_allclose(forward(z), np.clip(z, -1, 1))
        np.testing.assert_allclose(grad(z), [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])


class TestSpecParsing:
    def test_channel_chain_validated(self):
        with pytest.raises(AcousticError):
            NetworkSpec([ConvLayerSpec(1, 2, 3, 1), ConvLayerSpec(3, 2, 1, 1)])


def test_layer_sizes_must_be_integers():
    # a float kernel width used to build, then fail in init_params and conv1d_forward
    with pytest.raises(AcousticError, match="kernel width"):
        ConvLayerSpec(3, 2, 2.5, 1)
