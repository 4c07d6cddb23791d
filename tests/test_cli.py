import csv
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from convasr import fileio
from convasr.alphabet import default_alphabet, make_alphabet
from convasr.cli import main
from convasr.criterion import TransitionTable
from convasr.features import Waveform

from conftest import make_bigram_arpa
from writers import save_wav

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFeaturesCommand:
    def test_wav_to_mfcc(self, tmp_path, capsys):
        t = np.arange(16000) / 16000.0
        save_wav(tmp_path / "x.wav", Waveform(0.4 * np.sin(2 * np.pi * 440 * t)))
        code, out, _ = run(
            capsys, "features", "--input", tmp_path / "x.wav", "--output", tmp_path / "f.bin"
        )
        assert code == 0 and "98 x 39" in out
        feats = fileio.read_features(tmp_path / "f.bin")
        assert feats.frames.shape == (98, 39)

    def test_power_unnormalized(self, tmp_path, capsys):
        save_wav(tmp_path / "x.wav", Waveform(np.zeros(8000)))
        code, out, _ = run(
            capsys, "features", "--input", tmp_path / "x.wav", "--output", tmp_path / "f.bin",
            "--type", "power", "--no-normalize",
        )
        assert code == 0
        feats = fileio.read_features(tmp_path / "f.bin")
        assert feats.frames.shape[1] == 257
        assert not feats.frames.any()

    def test_raw_pcm_input(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        pcm = (rng.standard_normal(8000) * 3000).astype("<i2")
        pcm.tofile(tmp_path / "x.pcm")
        code, out, _ = run(
            capsys, "features", "--input", tmp_path / "x.pcm", "--output", tmp_path / "f.bin",
            "--pcm-rate", "16000", "--type", "power", "--no-normalize",
        )
        assert code == 0 and "48 x 257" in out  # (8000-400)//160 + 1

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "features", "--input", tmp_path / "nope.wav", "--output", tmp_path / "f.bin"
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("rate", ["-1", "1", "49", "50", "wav"])
    def test_rate_under_one_sample_per_stride_is_an_input_error(self, tmp_path, capsys, rate):
        # at 50 Hz and below the 10 ms frame stride rounds to 0 samples
        if rate == "wav":
            save_wav(tmp_path / "x.wav", Waveform(np.zeros(800), sample_rate=50))
            extra = []
        else:
            np.zeros(800, dtype="<i2").tofile(tmp_path / "x.wav")
            extra = ["--pcm-rate", rate]
        code, _, err = run(
            capsys, "features", "--input", tmp_path / "x.wav", "--output", tmp_path / "f.bin", *extra
        )
        assert code == 1 and err.startswith("error:") and "stride" in err
        assert "Traceback" not in err


def malformed_wav(tmp_path, case: str) -> bytes:
    save_wav(tmp_path / "ok.wav", Waveform(np.zeros(800)))
    good = (tmp_path / "ok.wav").read_bytes()
    return {
        "not_riff": b"not a RIFF/WAVE file at all",
        "empty": b"",
        "truncated_header": good[:30],
        "zero_channels": good[:22] + struct.pack("<H", 0) + good[24:],  # the fmt chunk's channel count
    }[case]


def run_subprocess(*args):
    """``python -m convasr.cli args``: (exit code, stderr)."""
    root = pathlib.Path(__file__).parent.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-m", "convasr.cli", *map(str, args)], capture_output=True, text=True, timeout=120, env=env
    )
    return result.returncode, result.stderr


class TestMalformedInputExits:
    """Each malformed file is an input error (exit 1) with one ``error:``
    line naming the file, and no traceback."""

    def check(self, code, err, *names):
        assert code == 1 and err.startswith("error:") and "Traceback" not in err, err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("case", ["not_riff", "empty", "truncated_header", "zero_channels"])
    def test_unreadable_wav(self, tmp_path, case):
        (tmp_path / "bad.wav").write_bytes(malformed_wav(tmp_path, case))
        code, err = run_subprocess("features", "--input", tmp_path / "bad.wav", "--output", tmp_path / "f.bin")
        self.check(code, err, "bad.wav")

    def test_odd_length_pcm(self, tmp_path):
        # 8001 bytes: 4000 whole samples, enough for frames, and one byte
        (tmp_path / "x.pcm").write_bytes(b"\1" * 8001)
        code, err = run_subprocess(
            "features", "--input", tmp_path / "x.pcm", "--output", tmp_path / "f.bin", "--pcm-rate", "16000"
        )
        self.check(code, err, "x.pcm", "8001 bytes")

    def test_alphabet_byte_not_utf8(self, tmp_path):
        fileio.write_matrix(tmp_path / "e.bin", np.zeros((4, 30), dtype=np.float32))
        (tmp_path / "abc.txt").write_bytes(b"a\nb\n\xff\n")
        code, err = run_subprocess(
            "loss", "--emissions", tmp_path / "e.bin", "--transcription", "a", "--alphabet", tmp_path / "abc.txt"
        )
        self.check(code, err, "abc.txt", "line 3", "0xff")

    @pytest.mark.parametrize(
        "bad, data, where",
        [
            ("lm.arpa", b"\\data\\\nngram 1=x\n", "line 2: cannot parse count line 'ngram 1=x'"),
            ("lex.txt", b"cat\tc a t\ndog d o g\n", "line 2: expected 'word<TAB>spelling'"),
            ("lex.txt", b"cat\tc a t\nemu\te m u\n", "out-of-vocabulary word: 'emu'"),
        ],
    )
    def test_decode_names_the_model_file_that_fails(self, tmp_path, bad, data, where):
        fileio.write_matrix(tmp_path / "e.bin", np.zeros((4, 30), dtype=np.float32))
        make_bigram_arpa(tmp_path / "lm.arpa", ["cat", "dog"], np.random.default_rng(0))
        (tmp_path / "lex.txt").write_text("cat\tc a t\ndog\td o g\n")
        (tmp_path / bad).write_bytes(data)
        code, err = run_subprocess(
            "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "lm.arpa", "--lexicon", tmp_path / "lex.txt"
        )
        self.check(code, err, f"{tmp_path / bad}: {where}")

    def test_config_syntax_error_names_the_file(self, tmp_path):
        (tmp_path / "cfg.json").write_text('{"epochs": 1,\n "seed": }')
        code, err = run_subprocess("train-toy", "--config", tmp_path / "cfg.json")
        self.check(code, err, f"{tmp_path / 'cfg.json'}: Expecting value: line 2 column 10")


    @pytest.mark.parametrize(
        "command", ["features", "loss", "viterbi", "train-toy", "decode", "ler", "wer", "bench"]
    )
    def test_every_subcommand_names_its_malformed_input(self, tmp_path, command):
        args, names = malformed_inputs(tmp_path)[command]
        code, err = run_subprocess(command, *args)
        self.check(code, err, *names)


def malformed_inputs(tmp_path) -> dict:
    """Per subcommand: arguments that run it on one malformed input, and
    what its error line must name (the input, and the line of a byte that
    is not UTF-8)."""
    save_wav(tmp_path / "ok.wav", Waveform(np.zeros(800)))
    wav = (tmp_path / "ok.wav").read_bytes()
    # a 1 MiB chunk before the data chunk runs past the RIFF chunk
    (tmp_path / "bad.wav").write_bytes(wav[:36] + b"LIST" + struct.pack("<I", 1 << 20) + wav[36:])
    nan = struct.pack("<f", math.nan)
    fileio.write_matrix(tmp_path / "e.bin", np.zeros((4, 30), dtype=np.float32))
    (tmp_path / "nan.bin").write_bytes((tmp_path / "e.bin").read_bytes()[:-4] + nan)
    fileio.write_transitions(tmp_path / "nan.tr", TransitionTable.zeros(30))
    (tmp_path / "nan.tr").write_bytes((tmp_path / "nan.tr").read_bytes()[:-4] + nan)
    make_bigram_arpa(tmp_path / "lm.arpa", ["a"], np.random.default_rng(0))
    (tmp_path / "ok.txt").write_text("a b\n")  # as an alphabet, it lacks the silence symbol
    (tmp_path / "bad.txt").write_bytes(b"a\nb\xff\n")
    e, ref = ["--emissions", tmp_path / "e.bin"], ["--ref", tmp_path / "ok.txt"]
    not_utf8 = ["bad.txt", "line 2", "0xff"]
    return {
        "features": (["--input", tmp_path / "bad.wav", "--output", tmp_path / "f.bin"], ["bad.wav"]),
        "loss": (["--emissions", tmp_path / "nan.bin", "--transcription", "a"], ["nan.bin"]),
        "viterbi": ([*e, "--transitions", tmp_path / "nan.tr"], ["nan.tr"]),
        "train-toy": (["--config", tmp_path / "bad.txt"], not_utf8),
        "decode": ([*e, "--arpa", tmp_path / "lm.arpa", "--alphabet", tmp_path / "ok.txt"], ["ok.txt", "'|'"]),
        "ler": ([*ref, "--hyp", tmp_path / "bad.txt"], not_utf8),
        "wer": ([*ref, "--hyp", tmp_path / "bad.txt"], not_utf8),
        "bench": (["--batch-sizes", "1,x"], ["--batch-sizes", "'1,x'"]),
    }


class TestLossCommand:
    def test_uniform_asg_fixture(self, tmp_path, capsys):
        fileio.write_matrix(tmp_path / "e.bin", np.zeros((2, 30), dtype=np.float32))
        code, out, _ = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", "a"
        )
        assert code == 0
        assert abs(float(out) - 2 * math.log(30)) < 1e-7

    def test_grad_dump_matches_library(self, tmp_path, capsys):
        from convasr.alphabet import encode_transcription
        from convasr.criterion import asg_loss

        rng = np.random.default_rng(0)
        f32 = rng.standard_normal((5, 30)).astype(np.float32)
        fileio.write_matrix(tmp_path / "e.bin", f32)
        code, out, _ = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", "cab",
            "--grad-prefix", tmp_path / "g",
        )
        assert code == 0
        ab = default_alphabet()
        want = asg_loss(
            f32.astype(np.float64), TransitionTable.zeros(30), encode_transcription("cab", ab)
        )
        got_d, _, _ = fileio.read_matrix(str(tmp_path / "g") + ".demissions")
        np.testing.assert_array_equal(got_d, want.d_emissions.astype(np.float32))
        got_tr = fileio.read_transitions(str(tmp_path / "g") + ".dtransitions")
        np.testing.assert_array_equal(got_tr.trans, want.d_transitions.astype(np.float32))
        np.testing.assert_array_equal(got_tr.start, want.d_start.astype(np.float32))
        assert f"{want.loss:.9g}" == out.strip()

    def test_ctc_mode(self, tmp_path, capsys):
        from convasr.criterion import log_softmax

        f = log_softmax(np.zeros((1, 2)))
        fileio.write_matrix(tmp_path / "e.bin", f)
        small = tmp_path / "ab.txt"
        small.write_text("a\n|\n2\n3\n")  # 4-symbol alphabet won't fit 2 cols; use blank trick
        code, out, _ = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", "a",
            "--criterion", "ctc", "--alphabet", small, "--blank-id", "1",
        )
        assert code == 0
        assert abs(float(out) - math.log(2.0)) < 1e-7

    def test_random_fixture_matches_committed_oracle_value(self, tmp_path, capsys):
        # expected value computed once by explicit path enumeration
        # (stars-and-bars numerator, dense full-lattice normalizer) on the
        # float32 fixture below and frozen here
        rng = np.random.default_rng(1234)
        fileio.write_matrix(tmp_path / "e.bin", rng.standard_normal((4, 30)).astype(np.float32))
        block = (0.1 * rng.standard_normal((31, 30))).astype(np.float32)
        fileio.write_matrix(tmp_path / "t.bin", block)
        code, out, _ = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin",
            "--transitions", tmp_path / "t.bin", "--transcription", "ab",
        )
        assert code == 0
        assert out.strip() == "13.9884674"

    def test_oversized_header_is_error_exit(self, tmp_path, capsys):
        header = struct.pack("<4sIIff", b"FSQ1", 2**32 - 1, 2**32 - 1, 0.0, 0.0)
        (tmp_path / "e.bin").write_bytes(header + b"\0" * 16)
        code, _, err = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", "a"
        )
        assert code == 1 and err.startswith("error:") and "payload" in err
        assert "Traceback" not in err

    def test_negative_blank_id_is_an_input_error(self, tmp_path, capsys):
        fileio.write_matrix(tmp_path / "e.bin", np.zeros((4, 30), dtype=np.float32))
        code, _, err = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", "ab",
            "--criterion", "ctc", "--blank-id", "-2",
        )
        assert code == 1 and err.startswith("error:") and "outside the emission table" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("transcription, flags, need", [("ab", ["--strict"], 2), ("", [], 1)])
    def test_zero_frames_get_the_chain_message(self, tmp_path, capsys, transcription, flags, need):
        # a 0-row file reaches the chain builder's message, and a chain
        # fills at least one frame even with no labels
        fileio.write_matrix(tmp_path / "e.bin", np.zeros((0, 30), dtype=np.float32))
        code, _, err = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", transcription,
            "--criterion", "ctc", *flags,
        )
        assert code == 1
        assert err == (
            f"error: transcription of {len(transcription)} labels needs at least "
            f"{need} frames with mandatory blanks, got 0\n"
        )

    @pytest.mark.parametrize(
        "flags", [["--criterion", "ctc", "--strict"], ["--criterion", "ctc"], ["--criterion", "asg"]]
    )
    def test_zero_label_columns_are_an_input_error(self, tmp_path, capsys, flags):
        fileio.write_matrix(tmp_path / "e.bin", np.zeros((3, 0), dtype=np.float32))
        code, out, err = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", "a", *flags
        )
        assert (code, out) == (1, "")
        assert err == "error: emission scores need at least one label column\n"

    def test_infeasible_is_error_exit(self, tmp_path, capsys):
        fileio.write_matrix(tmp_path / "e.bin", np.zeros((1, 30), dtype=np.float32))
        code, _, err = run(
            capsys, "loss", "--emissions", tmp_path / "e.bin", "--transcription", "abc"
        )
        assert code == 1 and "error" in err


class TestViterbiCommand:
    def test_forced_alignment(self, tmp_path, capsys):
        ab = default_alphabet()
        f = np.full((4, 30), -4.0, dtype=np.float32)
        for t, ch in enumerate("ccat"):
            f[t, ab.index[ch]] = 2.0
        fileio.write_matrix(tmp_path / "e.bin", f)
        code, out, _ = run(
            capsys, "viterbi", "--emissions", tmp_path / "e.bin",
            "--transcription", "cat", "--show-path",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["c", "c", "a", "t"]
        assert lines[-1] == "cat"

    def test_free_decoding(self, tmp_path, capsys):
        ab = default_alphabet()
        f = np.full((3, 30), -4.0, dtype=np.float32)
        for t, ch in enumerate("hup"):
            f[t, ab.index[ch]] = 2.0
        fileio.write_matrix(tmp_path / "e.bin", f)
        code, out, _ = run(capsys, "viterbi", "--emissions", tmp_path / "e.bin")
        assert code == 0 and out.strip().splitlines()[-1] == "hup"


class TestTrainToyCommand:
    def test_golden_curve(self, tmp_path, capsys):
        cfg = dict(
            num_samples=80, epochs=5, learning_rate=0.02, seed=5,
            checkpoint=str(tmp_path / "toy.ckpt"), curve=str(tmp_path / "curve.csv"),
        )
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "train-toy", "--config", tmp_path / "cfg.json")
        assert code == 0
        assert (tmp_path / "curve.csv").read_text() == (GOLDEN / "toy_curve_cli.csv").read_text()
        # checkpoint loads back
        spec, params, transitions = fileio.load_checkpoint(tmp_path / "toy.ckpt")
        assert spec.d_out == 8

    def test_missing_key_named(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"num_samples": 5}))
        code, _, err = run(capsys, "train-toy", "--config", tmp_path / "cfg.json")
        assert code == 1 and "'epochs'" in err

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"layers": [[39, 8, 1, 1]]}, "[39, 8, 1, 1]"),
            ({"layers": [[39, 8, 1.5, 1, "none"]]}, "1.5"),
            ({"epochs": "2"}, "'epochs'"),
            ({"letters": 5}, "'letters'"),
            ({"stop_ler": True}, "'stop_ler'"),
            ({"layers": 5}, "'layers'"),
            ({"epochs": 0}, "'epochs'"),
            ({"min_word_len": 4, "max_word_len": 2}, "'min_word_len'"),
            ({"seed": -1}, "'seed'"),
            ({"letters": ""}, "'letters'"),
            ({"letters": "ABC"}, "'letters'"),
            ({"letters": "aab"}, "'letters'"),
            ({"letters": "ab|"}, "'letters'"),
            ({"num_samples": 0}, "'num_samples'"),
            ({"learning_rate": -0.5}, "'learning_rate'"),
            ({"learning_rate": math.nan}, "'learning_rate'"),
            ({"clip_norm": -1}, "'clip_norm'"),
            ({"clip_norm": 0}, "'clip_norm'"),
            ({"holdout_fraction": 1.5}, "'holdout_fraction'"),
            ({"holdout_fraction": -1}, "'holdout_fraction'"),
            ({"min_word_len": 0, "max_word_len": 0}, "'min_word_len'"),
        ],
    )
    def test_mistyped_key_or_layer_row_named(self, tmp_path, capsys, extra, named):
        cfg = dict(
            num_samples=4, epochs=1, learning_rate=0.02, seed=1,
            checkpoint=str(tmp_path / "t.ckpt"), curve=str(tmp_path / "c.csv"),
        )
        (tmp_path / "cfg.json").write_text(json.dumps({**cfg, **extra}))
        code, _, err = run(capsys, "train-toy", "--config", tmp_path / "cfg.json")
        assert code == 1 and err.startswith("error:") and named in err
        assert "Traceback" not in err

    def test_one_letter_for_longer_words_named(self, tmp_path):
        # a word of two letters or more alternates two: one letter used to loop forever
        cfg = dict(
            num_samples=4, epochs=1, learning_rate=0.02, seed=1, letters="a",
            checkpoint=str(tmp_path / "t.ckpt"), curve=str(tmp_path / "c.csv"),
        )
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, err = run_subprocess("train-toy", "--config", tmp_path / "cfg.json")
        assert code == 1 and err.startswith("error: toy task 'letters'") and "Traceback" not in err

    @pytest.mark.parametrize("top", [5, [], "cfg", None])
    def test_top_level_not_an_object(self, tmp_path, capsys, top):
        (tmp_path / "cfg.json").write_text(json.dumps(top))
        code, _, err = run(capsys, "train-toy", "--config", tmp_path / "cfg.json")
        assert code == 1 and err.startswith("error: config must be a JSON object")
        assert "Traceback" not in err

    def test_lr_zero_flat_curve(self, tmp_path, capsys):
        cfg = dict(
            num_samples=20, epochs=3, learning_rate=0.0, seed=1,
            checkpoint=str(tmp_path / "t.ckpt"), curve=str(tmp_path / "c.csv"),
        )
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, _ = run(capsys, "train-toy", "--config", tmp_path / "cfg.json")
        assert code == 0
        with open(tmp_path / "c.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["ler"] for r in rows}) == 1


class TestDecodeCommand:
    def setup_fixture(self, tmp_path):
        rng = np.random.default_rng(1)
        alphabet = make_alphabet("abcd")
        save_path = tmp_path / "ab.txt"
        save_path.write_text("\n".join(alphabet.symbols) + "\n")
        words = ["cab", "ad"]
        make_bigram_arpa(tmp_path / "lm.arpa", words, rng)
        (tmp_path / "lex.txt").write_text("cab\tc a b\nad\ta d\n")
        f = np.full((5, len(alphabet)), -4.0, dtype=np.float32)
        for t, ch in enumerate("ccabb"):
            f[t, alphabet.index[ch]] = 2.0
        fileio.write_matrix(tmp_path / "e.bin", f)
        return alphabet

    def test_nbest_output(self, tmp_path, capsys):
        self.setup_fixture(tmp_path)
        code, out, _ = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
            "--alpha", "0.5", "--beta", "-0.3", "--nbest", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        first = lines[0].split("\t")
        assert first[0] == "1" and first[4] == "cab"
        # decomposition holds on the printed numbers
        total, acoustic, lm_score = float(first[1]), float(first[2]), float(first[3])
        assert abs(total - (acoustic + 0.5 * lm_score + -0.3 * 1)) < 1e-6

    def test_matches_exhaustive_oracle(self, tmp_path, capsys):
        import math

        from convasr.decoder import DecoderConfig, exhaustive_decode
        from convasr.lm import load_arpa, load_lexicon, smear

        alphabet = self.setup_fixture(tmp_path)
        code, out, _ = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
            "--alpha", "0.7", "--beta", "-0.2", "--beam-size", "100000",
        )
        assert code == 0
        rank, total, acoustic, lm_part, words = out.strip().splitlines()[0].split("\t")

        lm = load_arpa(tmp_path / "lm.arpa")
        lexicon = smear(load_lexicon(tmp_path / "lex.txt", alphabet), lm)
        f, _, _ = fileio.read_matrix(tmp_path / "e.bin")
        cfg = DecoderConfig(alpha=0.7, beta=-0.2, beam_size=10**6, beam_threshold=math.inf)
        want = exhaustive_decode(
            f.astype(np.float64), TransitionTable.zeros(len(alphabet)), lm, lexicon, cfg, 3
        )
        assert words == " ".join(want.words)
        assert abs(float(total) - want.score) < 1e-6  # printed at 9 decimals

    def test_greedy_leq_wide_beam(self, tmp_path, capsys):
        self.setup_fixture(tmp_path)
        args = [
            "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
        ]
        code1, out1, _ = run(capsys, *args, "--beam-size", "1")
        code2, out2, _ = run(capsys, *args, "--beam-size", "500")
        assert code2 == 0
        if code1 == 0:
            assert float(out1.split("\t")[1]) <= float(out2.split("\t")[1]) + 1e-12

    def test_missing_arpa_is_io_error(self, tmp_path, capsys):
        self.setup_fixture(tmp_path)
        code, _, err = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "nope.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_emissions_are_input_errors(self, tmp_path, capsys, bad):
        alphabet = self.setup_fixture(tmp_path)
        f, _, _ = fileio.read_matrix(tmp_path / "e.bin")
        f[2, alphabet.index["a"]] = bad
        fileio.write_matrix(tmp_path / "bad.bin", f)
        code, out, err = run(
            capsys, "decode", "--emissions", tmp_path / "bad.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
        )
        assert code == 1 and out == "" and err.startswith("error:") and "finite" in err
        assert "Traceback" not in err

    def test_nan_lm_probability_is_an_input_error(self, tmp_path, capsys):
        # a NaN total loses every comparison, so "cab" could never win
        self.setup_fixture(tmp_path)
        arpa = tmp_path / "lm.arpa"
        arpa.write_text(re.sub(r"^\S+\tcab\t", "nan\tcab\t", arpa.read_text(), flags=re.M))
        code, out, err = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--arpa", arpa,
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
        )
        assert code == 1 and out == "" and err.startswith("error:") and "NaN" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "nan"), ("--alpha", "-1"), ("--beta", "nan"), ("--beta", "inf")]
    )
    def test_non_finite_or_negative_weight_is_an_input_error(self, tmp_path, capsys, flag, value):
        self.setup_fixture(tmp_path)
        code, out, err = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt", flag, value,
        )
        assert code == 1 and out == "" and err.startswith("error:") and flag[2:] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("nbest", ["0", "-1"])
    def test_nbest_below_one_is_an_input_error(self, tmp_path, capsys, nbest):
        self.setup_fixture(tmp_path)
        code, out, err = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt", "--nbest", nbest,
        )
        assert code == 1 and out == "" and err.startswith("error:") and "nbest" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["arpa", "lexicon-file"])
    def test_empty_lexicon_exit_code(self, tmp_path, capsys, source):
        self.setup_fixture(tmp_path)
        if source == "arpa":
            # the sentence sentinels alone spell no word
            args = ["--arpa", make_bigram_arpa(tmp_path / "sentinels.arpa", [], np.random.default_rng(0))]
        else:
            (tmp_path / "empty.txt").write_text("")
            args = ["--arpa", tmp_path / "lm.arpa", "--lexicon", tmp_path / "empty.txt"]
        code, out, err = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--alphabet", tmp_path / "ab.txt", *args
        )
        assert code == 3 and out == "" and err == "error: empty lexicon\n"

    def test_empty_emission_file_exit_code(self, tmp_path):
        alphabet = self.setup_fixture(tmp_path)
        fileio.write_matrix(tmp_path / "none.bin", np.zeros((0, len(alphabet)), dtype=np.float32))
        code, err = run_subprocess(
            "decode", "--emissions", tmp_path / "none.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
        )
        assert code == 3 and err == "error: empty emission table\n"

    def test_alphabet_not_matching_the_emission_labels_is_an_input_error(self, tmp_path):
        self.setup_fixture(tmp_path)  # a 7-symbol alphabet
        fileio.write_matrix(tmp_path / "e30.bin", np.zeros((5, 30), dtype=np.float32))
        code, err = run_subprocess(
            "decode", "--emissions", tmp_path / "e30.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
        )
        assert code == 1 and err == "error: emissions cover 30 labels but the lexicon alphabet has 7\n"

    def test_transitions_not_matching_the_emission_labels_fail_as_in_loss_and_viterbi(self, tmp_path):
        self.setup_fixture(tmp_path)
        fileio.write_matrix(tmp_path / "e30.bin", np.zeros((5, 30), dtype=np.float32))
        fileio.write_transitions(tmp_path / "t5.tr", TransitionTable.zeros(5))
        model = ["--emissions", tmp_path / "e30.bin", "--transitions", tmp_path / "t5.tr"]
        for args in (
            ["decode", *model, "--arpa", tmp_path / "lm.arpa"],
            ["loss", *model, "--transcription", "cab"],
            ["viterbi", *model],
        ):
            code, err = run_subprocess(*args)
            assert (code, err) == (1, "error: transition table covers 5 labels, emissions 30\n"), args

    def test_word_deeper_than_the_recursion_limit_decodes(self, tmp_path, capsys):
        self.setup_fixture(tmp_path)
        make_bigram_arpa(tmp_path / "deep.arpa", ["cab", "ad", "ab" * 600], np.random.default_rng(2))
        code, out, err = run(
            capsys, "decode", "--emissions", tmp_path / "e.bin", "--arpa", tmp_path / "deep.arpa",
            "--alphabet", tmp_path / "ab.txt",
        )
        assert code == 0 and out.split("\t")[4].startswith("cab\n")
        assert "Traceback" not in err

    def test_pruning_failure_exit_code(self, tmp_path, capsys):
        alphabet = self.setup_fixture(tmp_path)
        # all mass on silence and a 1-hypothesis beam: nothing completes
        f = np.full((5, len(alphabet)), -4.0, dtype=np.float32)
        f[:, alphabet.silence_id] = 5.0
        fileio.write_matrix(tmp_path / "sil.bin", f)
        code, _, err = run(
            capsys, "decode", "--emissions", tmp_path / "sil.bin", "--arpa", tmp_path / "lm.arpa",
            "--lexicon", tmp_path / "lex.txt", "--alphabet", tmp_path / "ab.txt",
            "--beam-size", "1", "--silence", "none",
        )
        assert code == 3 and "error" in err


class TestMetricsCommands:
    def test_ler(self, tmp_path, capsys):
        (tmp_path / "ref.txt").write_text("kitten\ncat\n")
        (tmp_path / "hyp.txt").write_text("sitting\ncat\n")
        code, out, _ = run(capsys, "ler", "--ref", tmp_path / "ref.txt", "--hyp", tmp_path / "hyp.txt")
        assert code == 0
        assert "LER 0.333333" in out and "edits 3" in out and "ref_length 9" in out

    def test_wer(self, tmp_path, capsys):
        (tmp_path / "ref.txt").write_text("the cat sat\n")
        (tmp_path / "hyp.txt").write_text("the hat sat\n")
        code, out, _ = run(capsys, "wer", "--ref", tmp_path / "ref.txt", "--hyp", tmp_path / "hyp.txt")
        assert code == 0 and "WER 0.333333" in out

    def test_count_mismatch(self, tmp_path, capsys):
        (tmp_path / "ref.txt").write_text("a\nb\n")
        (tmp_path / "hyp.txt").write_text("a\n")
        code, _, err = run(capsys, "ler", "--ref", tmp_path / "ref.txt", "--hyp", tmp_path / "hyp.txt")
        assert code == 1 and "mismatch" in err


class TestBenchCommand:
    def test_table_and_csv_round_trip(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "bench", "--frames", "20", "--transcription-size", "5",
            "--batch-sizes", "1,2", "--repetitions", "3", "--criterion", "asg",
            "--seed", "7", "--csv", tmp_path / "bench.csv",
        )
        assert code == 0 and "criterion" in out
        with open(tmp_path / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["criterion"] == "asg"
        assert int(rows[0]["batch"]) == 1 and int(rows[1]["batch"]) == 2
        for r in rows:
            assert float(r["median_ms"]) > 0.0
            assert abs(float(r["per_item_ms"]) - float(r["median_ms"]) / int(r["batch"])) < 1e-6

    def test_invalid_config(self, capsys):
        code, _, err = run(
            capsys, "bench", "--frames", "5", "--transcription-size", "10",
            "--batch-sizes", "1", "--repetitions", "3",
        )
        assert code == 1 and "error" in err

    def test_zero_batch_size_is_an_input_error(self, capsys):
        code, _, err = run(
            capsys, "bench", "--frames", "20", "--transcription-size", "5",
            "--batch-sizes", "0", "--repetitions", "3",
        )
        assert code == 1 and err.startswith("error:")
        assert "Traceback" not in err


class TestEnvOverride:
    def test_env_prefix_sets_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONVASR_FRAMES", "9")
        code, out, _ = run(
            capsys, "bench", "--transcription-size", "3", "--batch-sizes", "1",
            "--repetitions", "3", "--criterion", "asg",
        )
        assert code == 0
        assert any(line.split()[2] == "9" for line in out.splitlines()[2:] if line.strip())

    def test_malformed_value_is_usage_error_naming_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CONVASR_BEAM_SIZE", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--emissions", "e.bin", "--arpa", "lm.arpa"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "CONVASR_BEAM_SIZE" in err and "Traceback" not in err

    def test_malformed_value_ignored_by_subcommands_without_the_flag(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("CONVASR_BEAM_SIZE", "abc")
        (tmp_path / "ref.txt").write_text("cat\n")
        code, out, _ = run(capsys, "ler", "--ref", tmp_path / "ref.txt", "--hyp", tmp_path / "ref.txt")
        assert code == 0 and "LER 0.000000" in out

    @pytest.mark.parametrize(
        "name, raw, command",
        [
            ("CONVASR_MODE", "bogus", ["decode", "--emissions", "e.bin", "--arpa", "lm.arpa"]),
            ("CONVASR_STRICT", "ture", ["loss", "--emissions", "e.bin", "--transcription", "a"]),
        ],
    )
    def test_value_outside_accepted_set_is_usage_error(self, capsys, monkeypatch, name, raw, command):
        # a choice flag or an on/off switch takes only the values it knows
        monkeypatch.setenv(name, raw)
        with pytest.raises(SystemExit) as exc:
            main(command)
        assert exc.value.code == 2 and name in capsys.readouterr().err
