"""Timing harness for the two sequence criteria.

Measures wall time of loss plus gradients over a batch of random
instances, per criterion and batch size.  One warmup run is excluded;
the report carries median, p10 and p90 of the remaining repetitions.
Reference shapes: "small" is 150 frames with 40 target labels, "long"
700 frames with 200, both over a 28-label vocabulary.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .criterion import TransitionTable, _check_count, asg_loss, ctc_loss, log_softmax


@dataclass
class BenchConfig:
    frames: int = 150
    vocab: int = 28
    transcription: int = 40
    batch_sizes: tuple = (1, 4, 8)
    repetitions: int = 5
    criteria: tuple = ("asg", "ctc")
    seed: int = 0

    def __post_init__(self):
        for key in ("frames", "vocab", "transcription", "repetitions"):
            _check_count(key, getattr(self, key))
        for b in self.batch_sizes:
            _check_count("batch sizes", b)
        # labels avoid the last id (the ctc blank) and never repeat
        # adjacently, so a transcription longer than one needs two letters
        if self.vocab - 1 < min(self.transcription, 2):
            raise ValueError(
                f"vocab {self.vocab} leaves too few letters for a "
                f"{self.transcription}-label transcription without repeats"
            )
        if self.transcription > self.frames:
            raise ValueError("transcription cannot be longer than the frame count")
        if self.repetitions < 3:
            raise ValueError("need at least 3 repetitions (warmup excluded)")
        for c in self.criteria:
            if c not in ("asg", "ctc"):
                raise ValueError(f"unknown criterion {c!r}")


@dataclass
class BenchRow:
    criterion: str
    batch: int
    frames: int
    vocab: int
    transcription: int
    median_ms: float
    p10_ms: float
    p90_ms: float

    @property
    def per_item_ms(self) -> float:
        return self.median_ms / self.batch


def _random_instances(cfg: BenchConfig, batch: int, criterion: str, rng):
    emissions, labels = [], []
    for _ in range(batch):
        f = rng.standard_normal((cfg.frames, cfg.vocab))
        if criterion == "ctc":
            f = log_softmax(f)
        # letter labels avoid the last id, reserved as blank for ctc;
        # no adjacent repeats so both criteria accept the same targets
        seq = [int(rng.integers(0, cfg.vocab - 1))]
        while len(seq) < cfg.transcription:
            nxt = int(rng.integers(0, cfg.vocab - 1))
            if nxt != seq[-1]:
                seq.append(nxt)
        emissions.append(f)
        labels.append(seq)
    transitions = TransitionTable(
        0.1 * rng.standard_normal((cfg.vocab, cfg.vocab)),
        0.1 * rng.standard_normal(cfg.vocab),
    )
    return emissions, labels, transitions


def run_bench(cfg: BenchConfig) -> list:
    """Returns one BenchRow per (criterion, batch size)."""
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for criterion in cfg.criteria:
        for batch in cfg.batch_sizes:
            emissions, labels, transitions = _random_instances(cfg, batch, criterion, rng)
            times = []
            for rep in range(cfg.repetitions + 1):  # first run is warmup
                t0 = time.perf_counter()
                for f, y in zip(emissions, labels):
                    if criterion == "asg":
                        asg_loss(f, transitions, y)
                    else:
                        ctc_loss(f, y, cfg.vocab - 1)
                elapsed = (time.perf_counter() - t0) * 1000.0
                if rep > 0:
                    times.append(elapsed)
            rows.append(
                BenchRow(
                    criterion,
                    batch,
                    cfg.frames,
                    cfg.vocab,
                    cfg.transcription,
                    float(np.median(times)),
                    float(np.percentile(times, 10)),
                    float(np.percentile(times, 90)),
                )
            )
    return rows


def format_table(rows) -> str:
    header = f"{'criterion':<10}{'batch':>6}{'frames':>8}{'median ms':>12}{'p10 ms':>10}{'p90 ms':>10}{'ms/item':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.criterion:<10}{r.batch:>6}{r.frames:>8}"
            f"{r.median_ms:>12.3f}{r.p10_ms:>10.3f}{r.p90_ms:>10.3f}{r.per_item_ms:>10.3f}"
        )
    return "\n".join(lines)


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["criterion", "batch", "frames", "vocab", "transcription",
             "median_ms", "p10_ms", "p90_ms", "per_item_ms"]
        )
        for r in rows:
            writer.writerow(
                [r.criterion, r.batch, r.frames, r.vocab, r.transcription,
                 f"{r.median_ms:.6f}", f"{r.p10_ms:.6f}", f"{r.p90_ms:.6f}",
                 f"{r.per_item_ms:.6f}"]
            )
