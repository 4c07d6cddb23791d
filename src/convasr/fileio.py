"""Binary interchange formats shared across the pipeline.

Matrix container (features, emissions, transitions): a fixed header
followed by row-major float32 data, all little-endian:

    bytes 0..3    magic b"FSQ1"
    bytes 4..7    uint32 rows
    bytes 8..11   uint32 cols
    bytes 12..15  float32 frame stride in ms (0 when not applicable)
    bytes 16..19  float32 window size in ms (0 when not applicable)
    bytes 20..    rows*cols float32 values

A transition table is stored as an (L+1) x L matrix: row 0 holds the
per-label start scores, rows 1..L the transition matrix.

Model checkpoints use magic b"CKP1": uint32 layer count, then per layer
five uint32 fields (d_in, d_out, kw, dw, nonlinearity code) followed by
the float32 weight and bias blobs, then an (L+1) x L float32 transition
block.  A nonlinearity code is its index in ``acoustic.NONLINEARITIES``.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .acoustic import NONLINEARITIES, AcousticError, ConvLayerSpec, LayerParams, ModelParams, NetworkSpec
from .criterion import TransitionTable
from .features import FeatureSequence

MATRIX_MAGIC = b"FSQ1"
CHECKPOINT_MAGIC = b"CKP1"

_HEADER = struct.Struct("<4sIIff")


class FormatError(ValueError):
    """Raised when a binary file does not match its declared format."""


def write_matrix(path, array, stride_ms: float = 0.0, window_ms: float = 0.0) -> None:
    array = np.ascontiguousarray(array, dtype="<f4")
    if array.ndim != 2:
        raise FormatError("matrix files store 2-D arrays")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MATRIX_MAGIC, array.shape[0], array.shape[1], stride_ms, window_ms))
        f.write(array.tobytes())


def _read_exact(f, n: int, error: str) -> bytes:
    """Read exactly ``n`` bytes or raise FormatError(error).

    A size declared by a header is checked against what is left of a
    regular file before anything is allocated for it.
    """
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode) and n > st.st_size - f.tell():
        raise FormatError(error)
    data = f.read(n)
    if len(data) != n:
        raise FormatError(error)
    return data


def read_matrix(path) -> tuple[np.ndarray, float, float]:
    """Returns (float32 array, stride_ms, window_ms); a NaN or infinite
    value raises FormatError naming the file."""
    with open(path, "rb") as f:
        header = _read_exact(f, _HEADER.size, f"{path}: truncated header")
        magic, rows, cols, stride_ms, window_ms = _HEADER.unpack(header)
        if magic != MATRIX_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        data = _read_exact(f, 4 * rows * cols, f"{path}: expected {rows}x{cols} float32 payload")
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    array = np.frombuffer(data, dtype="<f4").reshape(rows, cols)
    if not np.isfinite(array).all():
        raise FormatError(f"{path}: non-finite value in the payload")
    return array.copy(), stride_ms, window_ms


def write_features(path, feats) -> None:
    write_matrix(path, feats.frames, feats.frame_stride_ms, feats.window_ms)


def read_features(path):
    frames, stride_ms, window_ms = read_matrix(path)
    return FeatureSequence(frames.astype(np.float64), stride_ms, window_ms)


def _transition_block(table) -> np.ndarray:
    return np.vstack([table.start[None, :], table.trans])


def _transition_table(block):
    return TransitionTable(
        trans=block[1:].astype(np.float64), start=block[0].astype(np.float64)
    )


def write_transitions(path, table) -> None:
    write_matrix(path, _transition_block(table))


def read_transitions(path):
    block, _, _ = read_matrix(path)
    if block.shape[0] != block.shape[1] + 1:
        raise FormatError(f"{path}: transition block must be (L+1) x L")
    return _transition_table(block)


def save_checkpoint(path, spec, params, transitions) -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(spec.layers)))
        for layer, lp in zip(spec.layers, params.layers):
            f.write(
                struct.pack(
                    "<5I",
                    layer.d_in,
                    layer.d_out,
                    layer.kw,
                    layer.dw,
                    NONLINEARITIES.index(layer.nonlinearity),
                )
            )
            f.write(np.ascontiguousarray(lp.w, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(lp.b, dtype="<f4").tobytes())
        block = _transition_block(transitions)
        f.write(struct.pack("<I", block.shape[1]))
        f.write(np.ascontiguousarray(block, dtype="<f4").tobytes())


def load_checkpoint(path):
    """Read a ``save_checkpoint`` file; a malformed one raises FormatError naming it."""

    def read_exact(f, n, what):
        return _read_exact(f, n, f"{path}: truncated {what}")

    def read_finite(f, n, what):
        values = np.frombuffer(read_exact(f, 4 * n, what), dtype="<f4")
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: non-finite {what}")
        return values.astype(np.float64)

    with open(path, "rb") as f:
        if read_exact(f, 4, "magic") != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        (n_layers,) = struct.unpack("<I", read_exact(f, 4, "layer count"))
        layers, lparams = [], []
        for _ in range(n_layers):
            d_in, d_out, kw, dw, code = struct.unpack("<5I", read_exact(f, 20, "layer header"))
            if code >= len(NONLINEARITIES):
                raise FormatError(f"{path}: unknown nonlinearity code {code}")
            w = read_finite(f, d_out * d_in * kw, "weights").reshape(d_out, d_in, kw)
            lparams.append(LayerParams(w, read_finite(f, d_out, "bias")))
            layers.append((d_in, d_out, kw, dw, NONLINEARITIES[code]))
        (n_labels,) = struct.unpack("<I", read_exact(f, 4, "transition header"))
        block = read_finite(f, (n_labels + 1) * n_labels, "transitions").reshape(n_labels + 1, n_labels)
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    try:
        spec = NetworkSpec([ConvLayerSpec(*layer) for layer in layers])
    except AcousticError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return spec, ModelParams(lparams), _transition_table(block)
