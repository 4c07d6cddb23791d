import csv

import numpy as np
import pytest

from convasr.bench import BenchConfig, BenchRow, _random_instances, format_table, run_bench, write_csv


class TestConfig:
    def test_transcription_longer_than_frames(self):
        with pytest.raises(ValueError):
            BenchConfig(frames=5, transcription=10)

    def test_minimum_repetitions(self):
        with pytest.raises(ValueError):
            BenchConfig(repetitions=2)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            BenchConfig(criteria=("asg", "viterbi"))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(vocab=2, transcription=2),  # one letter cannot avoid repeats
            dict(batch_sizes=(1, 0)),
            dict(transcription=0),
            dict(transcription=-1),
        ],
        ids=["one-letter", "zero-batch", "empty-transcription", "negative-transcription"],
    )
    def test_degenerate_inputs_rejected(self, kw):
        with pytest.raises(ValueError):
            BenchConfig(**kw)

    def test_smallest_valid_vocabularies(self):
        BenchConfig(vocab=2, transcription=1)
        BenchConfig(vocab=3, transcription=2)


class TestInstances:
    def test_seeded_inputs_reproduce(self):
        cfg = BenchConfig(frames=20, transcription=6, seed=3)
        a = _random_instances(cfg, 4, "asg", np.random.default_rng(cfg.seed))
        b = _random_instances(cfg, 4, "asg", np.random.default_rng(cfg.seed))
        for x, y in zip(a[0], b[0]):
            assert np.array_equal(x, y)
        assert a[1] == b[1]
        assert np.array_equal(a[2].trans, b[2].trans)

    def test_ctc_inputs_are_row_normalized(self):
        cfg = BenchConfig(frames=12, transcription=4, seed=0)
        emissions, labels, _ = _random_instances(cfg, 2, "ctc", np.random.default_rng(0))
        for f in emissions:
            np.testing.assert_allclose(np.log(np.exp(f).sum(axis=1)), 0.0, atol=1e-10)
        for seq in labels:
            assert all(x != cfg.vocab - 1 for x in seq)  # blank never in targets
            assert all(a != b for a, b in zip(seq, seq[1:]))


class TestRun:
    def test_rows_and_percentiles(self):
        rows = run_bench(
            BenchConfig(frames=25, transcription=6, batch_sizes=(1, 2),
                        repetitions=3, criteria=("asg",), seed=1)
        )
        assert [(r.criterion, r.batch) for r in rows] == [("asg", 1), ("asg", 2)]
        for r in rows:
            assert 0.0 < r.p10_ms <= r.median_ms <= r.p90_ms
            assert r.per_item_ms == r.median_ms / r.batch

    def test_rerun_with_doubled_repetitions_agrees(self):
        # medians are stable: doubling the repetition count moves the
        # reported median by less than 20%.  Wall-clock speed drifts, so
        # the two counts run in adjacent pairs, each going first in turn,
        # and the typical pair is judged
        base = BenchConfig(frames=150, transcription=40, batch_sizes=(1,),
                           repetitions=5, criteria=("asg",), seed=2)
        doubled = BenchConfig(frames=150, transcription=40, batch_sizes=(1,),
                              repetitions=10, criteria=("asg",), seed=2)
        gaps = []
        for turn in range(8):
            pair = (base, doubled) if turn % 2 == 0 else (doubled, base)
            m = {cfg.repetitions: run_bench(cfg)[0].median_ms for cfg in pair}
            gaps.append(abs(m[5] - m[10]) / max(m[5], m[10]))
        assert np.median(gaps) < 0.20, gaps

    def test_table_lists_every_row(self):
        rows = [
            BenchRow("asg", 1, 150, 28, 40, 2.5, 2.4, 2.6),
            BenchRow("ctc", 8, 700, 28, 200, 100.0, 99.0, 101.0),
        ]
        table = format_table(rows)
        assert "asg" in table and "ctc" in table and "ms/item" in table
        assert f"{100.0 / 8:.3f}" in table

    def test_csv_round_trip(self, tmp_path):
        rows = run_bench(
            BenchConfig(frames=20, transcription=5, batch_sizes=(2,),
                        repetitions=3, criteria=("ctc",), seed=4)
        )
        write_csv(rows, tmp_path / "b.csv")
        with open(tmp_path / "b.csv") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 1
        assert back[0]["criterion"] == "ctc"
        assert float(back[0]["median_ms"]) == pytest.approx(rows[0].median_ms, abs=1e-6)
        assert int(back[0]["frames"]) == 20
