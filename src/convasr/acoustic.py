"""Strided 1D convolutional acoustic model.

A network is a chain of convolution layers, each computing

    y[t, i] = b[i] + sum_j sum_k w[i, j, k] * x[dw*(t-1) + k, j]

(1-indexed t and k), followed by a pointwise nonlinearity.  Striding
replaces pooling; the composition of all layers acts like one big
convolution whose kernel width and stride are given by
``receptive_field``.  The last layer emits one score per label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import EmissionTable, _check_count

# name -> (forward, derivative at the pre-activation); a checkpoint stores
# a nonlinearity as its index in this table: append, never reorder
_NONLIN = {
    # the hardtanh subgradient is 0 at the kinks (|z| = 1)
    "hardtanh": (lambda z: np.clip(z, -1.0, 1.0), lambda z: ((z > -1.0) & (z < 1.0)).astype(np.float64)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "none": (lambda z: z, np.ones_like),
}
NONLINEARITIES = tuple(_NONLIN)


class AcousticError(ValueError):
    """Raised for invalid layer specs or too-short inputs."""


@dataclass(frozen=True)
class ConvLayerSpec:
    d_in: int
    d_out: int
    kw: int  # kernel width in frames
    dw: int  # stride in frames
    nonlinearity: str = "hardtanh"

    def __post_init__(self):
        for name, size in (("layer input size", self.d_in), ("layer output size", self.d_out),
                           ("kernel width", self.kw), ("stride", self.dw)):
            _check_count(name, size, AcousticError)
        if self.nonlinearity not in NONLINEARITIES:
            raise AcousticError(f"unknown nonlinearity {self.nonlinearity!r}")

    def out_frames(self, in_frames: int) -> int:
        if in_frames < self.kw:
            raise AcousticError(
                f"layer needs at least kw={self.kw} input frames, got {in_frames}"
            )
        return (in_frames - self.kw) // self.dw + 1


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple

    def __init__(self, layers):
        object.__setattr__(self, "layers", tuple(layers))
        if not self.layers:
            raise AcousticError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.d_out != b.d_in:
                raise AcousticError(
                    f"channel mismatch: layer outputs {a.d_out}, next expects {b.d_in}"
                )

    @property
    def d_out(self) -> int:
        return self.layers[-1].d_out

    def out_frames(self, in_frames: int) -> int:
        t = in_frames
        for layer in self.layers:
            t = layer.out_frames(t)
        return t


@dataclass
class LayerParams:
    w: np.ndarray  # (d_out, d_in, kw)
    b: np.ndarray  # (d_out,)


@dataclass
class ModelParams:
    layers: list


def receptive_field(spec: NetworkSpec) -> tuple[int, int]:
    """Composed (kernel width, stride) of the whole network in input frames."""
    total_kw, total_dw = 1, 1
    for layer in spec.layers:
        total_kw += (layer.kw - 1) * total_dw
        total_dw *= layer.dw
    return total_kw, total_dw


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> ModelParams:
    """Uniform fan-in initialization in +/- 1/sqrt(d_in * kw)."""
    layers = []
    for layer in spec.layers:
        bound = 1.0 / np.sqrt(layer.d_in * layer.kw)
        w = rng.uniform(-bound, bound, size=(layer.d_out, layer.d_in, layer.kw))
        b = rng.uniform(-bound, bound, size=layer.d_out)
        layers.append(LayerParams(w, b))
    return ModelParams(layers)


def conv1d_forward(x: np.ndarray, layer: ConvLayerSpec, params: LayerParams) -> np.ndarray:
    """Strided convolution of an (T_x, d_in) input; returns (T_y, d_out)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.d_in:
        raise AcousticError(f"expected (T, {layer.d_in}) input, got {x.shape}")
    layer.out_frames(x.shape[0])  # raises on too-short input
    windows = np.lib.stride_tricks.sliding_window_view(x, layer.kw, axis=0)[:: layer.dw]
    return np.tensordot(windows, params.w, axes=([1, 2], [1, 2])) + params.b


def conv1d_backward(
    x: np.ndarray, layer: ConvLayerSpec, params: LayerParams, d_y: np.ndarray, input_grad: bool = True
):
    """Exact gradients of the convolution: (d_x, d_w, d_b), d_x None unless ``input_grad``."""
    x = np.asarray(x, dtype=np.float64)
    d_y = np.asarray(d_y, dtype=np.float64)
    t_out = layer.out_frames(x.shape[0])
    if d_y.shape != (t_out, layer.d_out):
        raise AcousticError(f"expected ({t_out}, {layer.d_out}) upstream gradient, got {d_y.shape}")
    windows = np.lib.stride_tricks.sliding_window_view(x, layer.kw, axis=0)[:: layer.dw]
    d_w = np.tensordot(d_y, windows, axes=([0], [0]))  # (d_out, d_in, kw)
    d_b = d_y.sum(axis=0)
    if not input_grad:
        return None, d_w, d_b
    d_x = np.zeros_like(x)
    contrib = np.tensordot(d_y, params.w, axes=([1], [0]))  # (T_y, d_in, kw)
    # high offsets first: each input row then sums its terms in output order
    for k in reversed(range(layer.kw)):
        d_x[k : k + layer.dw * t_out : layer.dw] += contrib[:, :, k]
    return d_x, d_w, d_b


def network_forward(features, spec: NetworkSpec, params: ModelParams) -> EmissionTable:
    """Run the network over a feature sequence; returns raw emission scores.

    The globally normalized criterion takes them as they are; for
    per-frame normalized rows wrap ``log_softmax`` of the scores in an
    ``EmissionTable(..., normalized=True)``.
    """
    x = features.frames if hasattr(features, "frames") else np.asarray(features, np.float64)
    need = receptive_field(spec)[0]
    if x.shape[0] < need:
        raise AcousticError(
            f"network needs at least {need} input frames, got {x.shape[0]}"
        )
    x, _ = network_forward_cached(x, spec, params)
    return EmissionTable(x)


def network_forward_cached(x: np.ndarray, spec: NetworkSpec, params: ModelParams):
    """Forward pass keeping per-layer inputs and pre-activations for backprop."""
    x = np.asarray(x, dtype=np.float64)
    inputs, preacts = [], []
    for layer, lp in zip(spec.layers, params.layers):
        inputs.append(x)
        z = conv1d_forward(x, layer, lp)
        preacts.append(z)
        x = _NONLIN[layer.nonlinearity][0](z)
    return x, (inputs, preacts)


def network_backward(spec: NetworkSpec, params: ModelParams, cache, d_out: np.ndarray):
    """Backprop through the cached forward pass; returns the per-layer grads
    as ``LayerParams`` (d_w, d_b).  The network input's gradient is not formed."""
    inputs, preacts = cache
    grads = [None] * len(spec.layers)
    d = np.asarray(d_out, dtype=np.float64)
    for i in range(len(spec.layers) - 1, -1, -1):
        layer, lp = spec.layers[i], params.layers[i]
        d = d * _NONLIN[layer.nonlinearity][1](preacts[i])
        d, d_w, d_b = conv1d_backward(inputs[i], layer, lp, d, input_grad=i > 0)
        grads[i] = LayerParams(d_w, d_b)
    return grads


# the reference raw-waveform network's (d_in, d_out, kw, dw, nonlinearity) rows
_REFERENCE_ROWS = (
    (1, 250, 240, 160, "hardtanh"),
    (250, 250, 49, 2, "hardtanh"),
    *[(250, 250, 8, 1, "hardtanh")] * 7,  # the narrow context layers
    (250, 2000, 25, 1, "hardtanh"),
    (2000, 2000, 1, 1, "hardtanh"),
    (2000, 30, 1, 1, "none"),
)


def load_reference_config() -> NetworkSpec:
    """Reference raw-waveform architecture, built from ``_REFERENCE_ROWS``.

    Two strided front layers eat the 16 kHz sample stream, a stack of
    narrow layers widens the context, and the last two kw=1 layers act
    as fully connected classifiers over 30 labels.  The composition has
    kernel width 31280 and stride 320: a 1955 ms window stepping every
    20 ms.
    """
    return NetworkSpec([ConvLayerSpec(*row) for row in _REFERENCE_ROWS])
