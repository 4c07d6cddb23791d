import math
import os
import re
import struct
import threading

import numpy as np
import pytest

from convasr.acoustic import ConvLayerSpec, NetworkSpec, init_params
from convasr.criterion import TransitionTable
from convasr.features import FeatureSequence
from convasr.fileio import (
    FormatError,
    load_checkpoint,
    read_features,
    read_matrix,
    read_transitions,
    save_checkpoint,
    write_features,
    write_matrix,
    write_transitions,
)


class TestMatrixFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((17, 5)).astype(np.float32)
        path = tmp_path / "m.bin"
        write_matrix(path, arr, stride_ms=10.0, window_ms=25.0)
        back, stride, window = read_matrix(path)
        assert np.array_equal(back, arr)  # bit-exact at float32
        assert (stride, window) == (10.0, 25.0)

    def test_write_read_write_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((8, 3))
        write_matrix(tmp_path / "a.bin", arr)
        back, _, _ = read_matrix(tmp_path / "a.bin")
        write_matrix(tmp_path / "b.bin", back)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_matrix(tmp_path / "x.bin")

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((4, 4), dtype=np.float32)
        write_matrix(tmp_path / "x.bin", arr)
        data = (tmp_path / "x.bin").read_bytes()
        (tmp_path / "y.bin").write_bytes(data[:-8])
        with pytest.raises(FormatError, match="payload"):
            read_matrix(tmp_path / "y.bin")

    def test_trailing_bytes(self, tmp_path):
        write_matrix(tmp_path / "x.bin", np.zeros((2, 2), dtype=np.float32))
        with open(tmp_path / "x.bin", "ab") as f:
            f.write(b"junk")
        with pytest.raises(FormatError, match="trailing"):
            read_matrix(tmp_path / "x.bin")

    @pytest.mark.parametrize("rows, cols", [(2**32 - 1, 2**32 - 1), (200_000, 200_000)])
    def test_oversized_header_rejected_before_reading(self, tmp_path, rows, cols):
        header = struct.pack("<4sIIff", b"FSQ1", rows, cols, 0.0, 0.0)
        (tmp_path / "x.bin").write_bytes(header + b"\0" * 16)
        with pytest.raises(FormatError, match="payload"):
            read_matrix(tmp_path / "x.bin")

    def test_reads_from_a_pipe(self, tmp_path):
        # a pipe has no size to check the header against; it is read as is
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_matrix(tmp_path / "x.bin", arr)
        os.mkfifo(tmp_path / "pipe")
        writer = threading.Thread(
            target=lambda: (tmp_path / "pipe").write_bytes((tmp_path / "x.bin").read_bytes())
        )
        writer.start()
        back, _, _ = read_matrix(tmp_path / "pipe")
        writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(back, arr)

    def test_only_2d(self, tmp_path):
        with pytest.raises(FormatError):
            write_matrix(tmp_path / "x.bin", np.zeros(5))


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        feats = FeatureSequence(rng.standard_normal((30, 39)), 10.0, 25.0)
        write_features(tmp_path / "f.bin", feats)
        back = read_features(tmp_path / "f.bin")
        assert back.frame_stride_ms == 10.0 and back.window_ms == 25.0
        np.testing.assert_array_equal(
            back.frames.astype(np.float32), feats.frames.astype(np.float32)
        )


class TestTransitionFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        tr = TransitionTable(
            rng.standard_normal((6, 6)).astype(np.float32).astype(np.float64),
            rng.standard_normal(6).astype(np.float32).astype(np.float64),
        )
        write_transitions(tmp_path / "t.bin", tr)
        back = read_transitions(tmp_path / "t.bin")
        np.testing.assert_array_equal(back.trans, tr.trans)
        np.testing.assert_array_equal(back.start, tr.start)

    def test_shape_validated(self, tmp_path):
        write_matrix(tmp_path / "bad.bin", np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(FormatError, match=r"\(L\+1\) x L"):
            read_transitions(tmp_path / "bad.bin")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        spec = NetworkSpec(
            [ConvLayerSpec(3, 5, 4, 2, "hardtanh"), ConvLayerSpec(5, 4, 1, 1, "none")]
        )
        params = init_params(spec, rng)
        tr = TransitionTable(
            rng.standard_normal((4, 4)).astype(np.float32).astype(np.float64),
            rng.standard_normal(4).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, params, tr)
        spec2, params2, tr2 = load_checkpoint(path)
        assert spec2 == spec
        for a, b in zip(params.layers, params2.layers):
            np.testing.assert_array_equal(a.w.astype(np.float32), b.w.astype(np.float32))
            np.testing.assert_array_equal(a.b.astype(np.float32), b.b.astype(np.float32))
        np.testing.assert_array_equal(tr2.trans, tr.trans)
        np.testing.assert_array_equal(tr2.start, tr.start)

    def test_every_nonlinearity_round_trips_with_its_code(self, tmp_path):
        spec = NetworkSpec(
            [
                ConvLayerSpec(2, 3, 2, 1, "hardtanh"),
                ConvLayerSpec(3, 3, 1, 1, "tanh"),
                ConvLayerSpec(3, 2, 2, 2, "relu"),
                ConvLayerSpec(2, 4, 1, 1, "none"),
            ]
        )
        params = init_params(spec, np.random.default_rng(6))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, spec, params, TransitionTable.zeros(4))
        spec2, _, _ = load_checkpoint(path)
        assert spec2 == spec
        # the codes on disk: hardtanh 0, tanh 1, relu 2, none 3
        data = path.read_bytes()
        offset, codes = 8, []
        for layer in spec.layers:
            codes.append(struct.unpack_from("<5I", data, offset)[4])
            offset += 20 + 4 * (layer.d_out * layer.d_in * layer.kw + layer.d_out)
        assert codes == [0, 1, 2, 3]

    @pytest.mark.parametrize("code", [4, 2**32 - 1])
    def test_unknown_nonlinearity_code(self, tmp_path, code):
        spec = NetworkSpec([ConvLayerSpec(2, 2, 2, 1)])
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(7)), TransitionTable.zeros(2))
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 24, code)  # magic, layer count, d_in d_out kw dw
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"unknown nonlinearity code {code}"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.ckpt").write_bytes(b"WHAT\0\0\0\0")
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(tmp_path / "x.ckpt")

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(5)
        spec = NetworkSpec([ConvLayerSpec(2, 2, 2, 1)])
        save_checkpoint(tmp_path / "x.ckpt", spec, init_params(spec, rng), TransitionTable.zeros(2))
        data = (tmp_path / "x.ckpt").read_bytes()
        (tmp_path / "y.ckpt").write_bytes(data[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(tmp_path / "y.ckpt")

    def test_oversized_layer_header_rejected_before_reading(self, tmp_path):
        header = struct.pack("<4sI5I", b"CKP1", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 1, 0)
        (tmp_path / "x.ckpt").write_bytes(header + b"\0" * 64)
        with pytest.raises(FormatError, match="truncated weights"):
            load_checkpoint(tmp_path / "x.ckpt")

    # offsets into the checkpoint of one 2-in, 2-out, kw 2 layer and 2 labels:
    # magic and layer count (8), layer header (20), 8 weights, 2 biases
    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (28, math.nan, "non-finite weights"),
            (28 + 4 * 8, math.inf, "non-finite bias"),
            (28 + 4 * 10 + 4, -math.inf, "non-finite transitions"),
            (20, 0, "stride must be >= 1"),  # the layer's dw field
        ],
    )
    def test_malformed_values_name_the_file(self, tmp_path, offset, value, message):
        spec = NetworkSpec([ConvLayerSpec(2, 2, 2, 1)])
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(8)), TransitionTable.zeros(2))
        data = bytearray(path.read_bytes())
        struct.pack_into("<f" if isinstance(value, float) else "<I", data, offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_checkpoint(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("read", [read_matrix, read_features, read_transitions])
def test_a_non_finite_matrix_value_names_the_file(tmp_path, read, value):
    path = tmp_path / "t.bin"
    write_transitions(path, TransitionTable.zeros(3))
    data = bytearray(path.read_bytes())
    struct.pack_into("<f", data, 20 + 4 * 5, value)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: non-finite"):
        read(path)
