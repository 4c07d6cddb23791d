"""End-to-end training of the acoustic model on a synthetic toy task.

The toy task generates "audio" from letter-specific frequency
templates: each letter of a small alphabet is a fixed sine frequency,
a sample is a random letter string rendered as concatenated tone
segments with additive noise, and the features are the standard MFCC
pipeline.  Plain SGD on the globally normalized sequence loss learns
both the network and the transition scores; progress is tracked as
letter error rate on a held-out split (Viterbi best path over the
fully connected lattice, collapsed and decoded back to text).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import REP2, REP3, SILENCE, Alphabet, AlphabetError, collapse_path, decode_labels
from .alphabet import encode_transcription, make_alphabet
from .acoustic import (
    AcousticError,
    ConvLayerSpec,
    ModelParams,
    NetworkSpec,
    init_params,
    network_backward,
    network_forward_cached,
)
from .criterion import TransitionTable, _check_count, _checked_model, asg_loss, build_full_graph, viterbi
from .features import SAMPLE_RATE, WINDOW_MS, Waveform, mfcc, normalize
from .metrics import error_rate


@dataclass
class ToyTaskConfig:
    letters: str = "abcde"
    num_samples: int = 500
    min_word_len: int = 2
    max_word_len: int = 5
    tone_hz: tuple = (300.0, 700.0, 1300.0, 2200.0, 3500.0)
    min_tone_ms: float = 80.0
    max_tone_ms: float = 140.0
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if len(self.tone_hz) < len(self.letters):
            raise ValueError("toy task 'tone_hz' needs one tone frequency per letter")
        for key in ("num_samples", "min_word_len", "max_word_len"):
            _check_count(f"toy task {key!r}", getattr(self, key))
        if not self.min_word_len <= self.max_word_len:
            raise ValueError(
                f"toy task 'min_word_len' {self.min_word_len} is not from 1 to 'max_word_len' {self.max_word_len}"
            )
        window = int(round(SAMPLE_RATE * WINDOW_MS / 1000.0))  # a tone lasts int(ms / 1000 * rate) samples
        tone_ms = 0.0 < self.min_tone_ms <= self.max_tone_ms < np.inf
        for key, ok, want in (
            ("seed", self.seed >= 0, "non-negative"),
            ("tone_hz", all(0.0 < hz < np.inf for hz in self.tone_hz), "finite and > 0"),
            ("min_tone_ms", tone_ms and int(self.min_tone_ms / 1000.0 * SAMPLE_RATE) >= window,
             f"> 0 and <= a finite 'max_tone_ms', and fill one {window}-sample analysis window"),
            ("noise_std", 0.0 <= self.noise_std < np.inf, "finite and >= 0"),
        ):
            if not ok:
                raise ValueError(f"toy task {key!r} must be {want}, got {getattr(self, key)!r}")
        need = 2 if self.max_word_len > 1 else 1  # no adjacent repeats: longer words alternate letters
        try:  # the transcriptions are read back through the alphabet: each letter must spell itself
            alphabet = make_alphabet(self.letters)
            spelled = encode_transcription(self.letters, alphabet) == list(range(len(self.letters)))
        except AlphabetError:
            spelled = False
        if not spelled or len(self.letters) < need:
            raise ValueError(
                f"toy task 'letters' must be {need} or more distinct lowercase symbols, none of them "
                f"whitespace, {SILENCE!r}, {REP2!r} or {REP3!r}; got {self.letters!r}"
            )


def make_toy_dataset(cfg: ToyTaskConfig):
    """Renders a task, checked when built, as (alphabet, list of (FeatureSequence, transcription))."""
    alphabet = make_alphabet(cfg.letters)
    rng = np.random.default_rng(cfg.seed)
    samples = []
    for _ in range(cfg.num_samples):
        length = int(rng.integers(cfg.min_word_len, cfg.max_word_len + 1))
        # no adjacent repeats: repeated letters are acoustically
        # indistinguishable from a longer tone at toy scale
        word = [int(rng.integers(len(cfg.letters)))]
        while len(word) < length:
            nxt = int(rng.integers(len(cfg.letters)))
            if nxt != word[-1]:
                word.append(nxt)
        chunks = []
        for li in word:
            dur = rng.uniform(cfg.min_tone_ms, cfg.max_tone_ms) / 1000.0
            t = np.arange(int(dur * SAMPLE_RATE)) / SAMPLE_RATE
            phase = rng.uniform(0.0, 2 * np.pi)
            chunks.append(0.5 * np.sin(2 * np.pi * cfg.tone_hz[li] * t + phase))
        wave = np.concatenate(chunks)
        wave += cfg.noise_std * rng.standard_normal(len(wave))
        feats = normalize(mfcc(Waveform(wave, SAMPLE_RATE)))
        samples.append((feats, "".join(cfg.letters[i] for i in word)))
    return alphabet, samples


@dataclass
class TrainConfig:
    """SGD settings; ``__post_init__`` checks each field against its range."""
    epochs: int = 50
    learning_rate: float = 0.02
    clip_norm: float = 1.0  # global L2 clip over all gradients
    holdout_fraction: float = 0.2
    seed: int = 0
    stop_ler: float | None = None  # stop early once held-out LER drops below

    def __post_init__(self):
        _check_count("training 'epochs'", self.epochs)
        for key, ok, want in (
            ("learning_rate", 0.0 <= self.learning_rate < np.inf, "finite and >= 0"),
            ("clip_norm", self.clip_norm > 0, "> 0"),
            ("holdout_fraction", 0.0 <= self.holdout_fraction < 1.0, "in [0, 1)"),
            ("seed", self.seed >= 0, "non-negative"),
            ("stop_ler", self.stop_ler is None or self.stop_ler > 0, "None or > 0"),
        ):
            if not ok:
                raise ValueError(f"training {key!r} must be {want}, got {getattr(self, key)!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    edit_count: int
    ref_length: int

    @property
    def ler(self) -> float:
        return self.edit_count / self.ref_length if self.ref_length else 0.0


@dataclass
class ToyTrainResult:
    params: ModelParams
    transitions: TransitionTable
    curve: list  # of EpochStats


def _clip_gradients(arrays, clip_norm: float) -> None:
    """Scales the arrays in place so that their global L2 norm is at most ``clip_norm``."""
    total = np.sqrt(sum(float(np.vdot(a, a)) for a in arrays))
    if total > clip_norm:
        scale = clip_norm / total
        for a in arrays:
            a *= scale


def greedy_transcribe(emissions, transitions: TransitionTable, alphabet: Alphabet) -> str:
    """Best unconstrained path, collapsed and decoded leniently."""
    table, tr = _checked_model(emissions, transitions)
    path, _ = viterbi(build_full_graph(table.scores.shape[1], table.scores.shape[0]), table, tr)
    return decode_labels(collapse_path(path, alphabet), alphabet, strict=False)


def holdout_ler(dataset, spec, params, transitions, alphabet) -> tuple[int, int]:
    """Letter edits and reference letters of the greedy transcripts of ``dataset``."""
    hyps = [
        greedy_transcribe(network_forward_cached(feats.frames, spec, params)[0], transitions, alphabet)
        for feats, _ in dataset
    ]
    report = error_rate([text for _, text in dataset], hyps)
    return report.total_edits, report.total_ref_length


def train_toy(
    dataset,
    alphabet: Alphabet,
    spec: NetworkSpec,
    cfg: TrainConfig,
) -> ToyTrainResult:
    """SGD on the globally normalized loss over (features, text) pairs.

    The dataset splits deterministically: the trailing
    ``holdout_fraction`` of samples is held out for the LER curve.
    Infeasible samples (network output shorter than the encoded
    transcription) are reported with their index.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if spec.d_out != len(alphabet):
        raise AcousticError(
            f"network emits {spec.d_out} labels but alphabet has {len(alphabet)}"
        )
    encoded = []
    for idx, (feats, text) in enumerate(dataset):
        labels = encode_transcription(text, alphabet)
        t_out = spec.out_frames(feats.num_frames)
        if t_out < len(labels):
            raise ValueError(
                f"sample {idx} is infeasible: {t_out} output frames for "
                f"{len(labels)} labels"
            )
        encoded.append(labels)

    n_hold = max(1, int(round(len(dataset) * cfg.holdout_fraction)))
    n_hold = min(n_hold, len(dataset) - 1) if len(dataset) > 1 else 0
    train_idx = list(range(len(dataset) - n_hold))
    hold = dataset[len(dataset) - n_hold :] if n_hold else dataset

    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    transitions = TransitionTable.zeros(len(alphabet))
    curve: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(train_idx) if len(train_idx) > 1 else train_idx
        total_loss = 0.0
        for i in order:
            feats, _ = dataset[i]
            out, cache = network_forward_cached(feats.frames, spec, params)
            result = asg_loss(out, transitions, encoded[i])
            total_loss += result.loss
            grads = network_backward(spec, params, cache, result.d_emissions)
            flat = [g.w for g in grads] + [g.b for g in grads]
            flat += [result.d_transitions, result.d_start]
            _clip_gradients(flat, cfg.clip_norm)
            weights = [lp.w for lp in params.layers] + [lp.b for lp in params.layers]
            for w, g in zip(weights + [transitions.trans, transitions.start], flat):
                g *= cfg.learning_rate
                w -= g
        edits, ref_len = holdout_ler(hold, spec, params, transitions, alphabet)
        stats = EpochStats(epoch, total_loss / max(1, len(train_idx)), edits, ref_len)
        curve.append(stats)
        if cfg.stop_ler is not None and stats.ler < cfg.stop_ler:
            break
    return ToyTrainResult(params, transitions, curve)


def default_toy_network(d_in: int = 39, num_labels: int = 8) -> NetworkSpec:
    return NetworkSpec(
        [
            ConvLayerSpec(d_in, 40, 7, 3, "hardtanh"),
            ConvLayerSpec(40, num_labels, 1, 1, "none"),
        ]
    )
