"""Waveform-to-feature pipeline: framing, power spectrum, MFCC, normalization.

Reference configuration: 16 kHz input, 25 ms Hamming window, 10 ms
stride, 512-point FFT (257 spectrum bins), 40 mel filters, log floor
1e-10, orthonormal DCT-II, 13 cepstra plus first and second order
derivatives over a +/-2 frame regression window, no pre-emphasis.
These values are fixed (the module constants below).  Features are
normalized to mean 0 / std 1 per dimension over the whole sequence;
zero-variance dimensions map to 0.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000  # Hz
WINDOW_MS = 25.0
STRIDE_MS = 10.0
N_FFT = 512
N_FILTERS = 40
N_CEPS = 13
LOG_FLOOR = 1e-10
DELTA_WINDOW = 2


class FeatureError(ValueError):
    """Raised for inputs the pipeline cannot process (e.g. too short)."""


@dataclass
class Waveform:
    samples: np.ndarray  # mono, float64, nominally in [-1, 1]
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise FeatureError("waveform must be mono (1-D)")
        if not np.all(np.isfinite(self.samples)):
            raise FeatureError("waveform contains non-finite samples")


@dataclass
class FeatureSequence:
    frames: np.ndarray  # (T, d)
    frame_stride_ms: float
    window_ms: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise FeatureError("feature frames must be a (T, d) matrix")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def load_wav(path) -> Waveform:
    """Read a 16-bit mono WAV file, scaling samples to [-1, 1).  A file
    that is empty, not RIFF/WAVE, not 16-bit mono, cut inside its header
    or a chunk, or short of its samples raises FeatureError naming it."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise FeatureError(f"{path}: expected mono WAV, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise FeatureError(f"{path}: expected 16-bit WAV, got {8 * w.getsampwidth()}-bit")
            rate, size = w.getframerate(), 2 * w.getnframes()
            raw = w.readframes(w.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:
        # bare EOFError: the header ends early; RuntimeError: a chunk overruns the RIFF chunk
        raise FeatureError(f"{path}: not a readable WAV file ({str(exc) or 'truncated chunk'})") from None
    if len(raw) < size:
        raise FeatureError(f"{path}: holds {len(raw)} of the {size} sample bytes its header declares")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def load_pcm(path, sample_rate: int) -> Waveform:
    """Read raw little-endian 16-bit PCM with a declared sample rate; an
    odd byte count raises FeatureError naming the file."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % 2:
        raise FeatureError(f"{path}: {len(raw)} bytes is not a whole number of 16-bit samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, sample_rate)


def frame_count(num_samples: int, window: int, hop: int) -> int:
    """Complete windows only: T = floor((S - W) / H) + 1."""
    if num_samples < window:
        return 0
    return (num_samples - window) // hop + 1


def _frame_signal(samples: np.ndarray, window: int, hop: int) -> np.ndarray:
    n = frame_count(len(samples), window, hop)
    if n == 0:
        raise FeatureError(
            f"input of {len(samples)} samples is shorter than one "
            f"{window}-sample analysis window"
        )
    return np.lib.stride_tricks.sliding_window_view(samples, window)[::hop]


def power_spectrum(w: Waveform) -> FeatureSequence:
    """Per-frame squared-magnitude real FFT (Hamming window), 257 components.

    Output scales with the square of the input amplitude.
    """
    window = int(round(w.sample_rate * WINDOW_MS / 1000.0))
    hop = int(round(w.sample_rate * STRIDE_MS / 1000.0))
    if hop < 1:
        raise FeatureError(f"sample rate {w.sample_rate} Hz gives a frame stride under one sample")
    frames = _frame_signal(w.samples, window, hop) * np.hamming(window)
    spec = np.abs(np.fft.rfft(frames, N_FFT, axis=1)) ** 2
    return FeatureSequence(spec, STRIDE_MS, WINDOW_MS)


@functools.cache
def mel_filterbank(n_filters: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters from 0 Hz to Nyquist, evaluated on FFT bin
    centers, (n_filters, n_fft//2+1); built once per arguments, read-only."""
    nyquist_mel = 2595.0 * np.log10(1.0 + sample_rate / 2.0 / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, nyquist_mel, n_filters + 2) / 2595.0) - 1.0)
    bin_hz = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((n_filters, n_fft // 2 + 1))
    for m in range(n_filters):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    fb.flags.writeable = False
    return fb


@functools.cache
def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II basis, (n_out, n_in); built once per arguments, read-only."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_in)) * np.sqrt(2.0 / n_in)
    mat[0] /= np.sqrt(2.0)
    mat.flags.writeable = False
    return mat


def delta(features: np.ndarray) -> np.ndarray:
    """Regression-based derivatives over +/-2 frames, edges replicated."""
    t = features.shape[0]
    w = DELTA_WINDOW
    padded = np.pad(features, ((w, w), (0, 0)), mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, w + 1))
    out = np.zeros_like(features)
    for n in range(1, w + 1):
        out += n * (padded[w + n : w + n + t] - padded[w - n : w - n + t])
    return out / denom


def mfcc(w: Waveform) -> FeatureSequence:
    """13 cepstra with first and second order derivatives (d = 39)."""
    spec = power_spectrum(w)
    fb = mel_filterbank(N_FILTERS, N_FFT, w.sample_rate)
    logmel = np.log(np.maximum(spec.frames @ fb.T, LOG_FLOOR))
    ceps = logmel @ dct_matrix(N_CEPS, N_FILTERS).T
    d1 = delta(ceps)
    d2 = delta(d1)
    return FeatureSequence(np.hstack([ceps, d1, d2]), STRIDE_MS, WINDOW_MS)


def normalize(f: FeatureSequence) -> FeatureSequence:
    """Mean 0 / std 1 per dimension over the sequence.

    Dimensions with zero variance (e.g. silence input) map to 0 instead
    of dividing by zero.
    """
    if f.num_frames < 1:
        raise FeatureError("cannot normalize an empty feature sequence")
    mean = f.frames.mean(axis=0)
    std = f.frames.std(axis=0)
    centered = f.frames - mean
    out = np.where(std > 0.0, centered / np.where(std > 0.0, std, 1.0), 0.0)
    return FeatureSequence(out, f.frame_stride_ms, f.window_ms)
