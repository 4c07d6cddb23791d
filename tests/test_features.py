import wave

import numpy as np
import pytest

from convasr.features import (
    FeatureError,
    FeatureSequence,
    Waveform,
    dct_matrix,
    delta,
    frame_count,
    load_pcm,
    load_wav,
    mel_filterbank,
    mfcc,
    normalize,
    power_spectrum,
)

from writers import save_wav

RATE = 16000


def tone(freq, seconds=1.0, rate=RATE, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


class TestFraming:
    def test_one_second_gives_98_frames(self):
        spec = power_spectrum(tone(440.0))
        assert spec.num_frames == 98  # floor((16000-400)/160)+1
        assert spec.dim == 257

    def test_frame_count_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = int(rng.integers(400, 20000))
            assert frame_count(s, 400, 160) == (s - 400) // 160 + 1

    def test_too_short_input_is_an_error(self):
        with pytest.raises(FeatureError):
            power_spectrum(Waveform(np.zeros(399), RATE))
        with pytest.raises(FeatureError):
            mfcc(Waveform(np.zeros(100), RATE))


class TestPowerSpectrum:
    def test_zero_input_zero_output(self):
        spec = power_spectrum(Waveform(np.zeros(RATE), RATE))
        assert spec.frames.shape == (98, 257)
        assert np.all(spec.frames == 0.0)

    def test_bin_centered_sinusoid_peaks_at_bin(self):
        # 1031.25 Hz sits exactly on bin 33 of a 512-point FFT at 16 kHz
        spec = power_spectrum(tone(1031.25))
        assert np.all(np.argmax(spec.frames, axis=1) == 33)

    def test_matches_direct_dft(self):
        # oracle: evaluate the windowed DFT directly at each bin
        rng = np.random.default_rng(1)
        w = Waveform(rng.standard_normal(800), RATE)
        spec = power_spectrum(w)
        ham = np.hamming(400)
        for t in range(spec.num_frames):
            frame = w.samples[t * 160 : t * 160 + 400] * ham
            k = np.arange(257)[:, None]
            n = np.arange(400)[None, :]
            dft = (frame[None, :] * np.exp(-2j * np.pi * k * n / 512)).sum(axis=1)
            np.testing.assert_allclose(spec.frames[t], np.abs(dft) ** 2, rtol=1e-9, atol=1e-9)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(1200)
        base = power_spectrum(Waveform(samples, RATE)).frames
        scaled = power_spectrum(Waveform(3.0 * samples, RATE)).frames
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)


class TestMfcc:
    def test_shape(self):
        feats = mfcc(tone(440.0))
        assert feats.frames.shape == (98, 39)

    def test_silence_constant_with_zero_deltas(self):
        feats = mfcc(Waveform(np.zeros(RATE), RATE))
        assert np.allclose(feats.frames[:, 13:], 0.0)
        np.testing.assert_allclose(feats.frames - feats.frames[0], 0.0, atol=1e-12)

    def test_white_noise_c0_dominates(self):
        # oracle: independent reference pipeline built from scipy primitives
        scipy_fft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(3)
        w = Waveform(rng.standard_normal(RATE), RATE)
        feats = mfcc(w)
        mags = np.abs(feats.frames[:, :13]).mean(axis=0)
        assert np.argmax(mags) == 0

        spec = power_spectrum(w).frames
        fb = mel_filterbank(40, 512, RATE)
        ref = scipy_fft.dct(np.log(np.maximum(spec @ fb.T, 1e-10)), type=2, norm="ortho", axis=1)
        np.testing.assert_allclose(feats.frames[:, :13], ref[:, :13], rtol=1e-8, atol=1e-10)

    def test_dct_matrix_is_orthonormal(self):
        m = dct_matrix(40, 40)
        np.testing.assert_allclose(m @ m.T, np.eye(40), atol=1e-12)

    def test_deltas_of_linear_ramp(self):
        # the +/-2 regression window recovers a constant slope exactly
        ramp = np.arange(20, dtype=float)[:, None] * np.ones((1, 3))
        d = delta(ramp)
        np.testing.assert_allclose(d[2:-2], 1.0)

    def test_mel_filters_cover_spectrum(self):
        fb = mel_filterbank(40, 512, RATE)
        assert fb.shape == (40, 257)
        assert np.all(fb.sum(axis=1) > 0)


class TestNormalize:
    def test_two_point_example(self):
        f = FeatureSequence(np.array([[1.0], [3.0]]), 10.0, 25.0)
        np.testing.assert_allclose(normalize(f).frames, [[-1.0], [1.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        f = FeatureSequence(rng.standard_normal((50, 7)), 10.0, 25.0)
        once = normalize(f)
        twice = normalize(once)
        np.testing.assert_allclose(once.frames, twice.frames, atol=1e-6)

    def test_constant_dimension_maps_to_zero(self):
        f = FeatureSequence(np.array([[5.0, 1.0], [5.0, 3.0]]), 10.0, 25.0)
        out = normalize(f).frames
        np.testing.assert_allclose(out[:, 0], 0.0)
        np.testing.assert_allclose(out[:, 1], [-1.0, 1.0])

    def test_moments(self):
        rng = np.random.default_rng(5)
        f = FeatureSequence(5.0 + 3.0 * rng.standard_normal((200, 13)), 10.0, 25.0)
        out = normalize(f).frames
        assert np.max(np.abs(out.mean(axis=0))) < 1e-6
        assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-5


class TestAudioIO:
    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        w = Waveform(np.clip(rng.standard_normal(5000) * 0.1, -1, 0.99), RATE)
        path = tmp_path / "x.wav"
        save_wav(path, w)
        back = load_wav(path)
        assert back.sample_rate == RATE
        np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32768)

    def test_raw_pcm(self, tmp_path):
        pcm = np.array([0, 16384, -16384, 32767], dtype="<i2")
        path = tmp_path / "x.pcm"
        pcm.tofile(path)
        w = load_pcm(path, RATE)
        np.testing.assert_allclose(w.samples, pcm.astype(float) / 32768.0)

    @pytest.mark.parametrize("size", [1, 3, 8001])
    def test_odd_length_pcm_rejected(self, tmp_path, size):
        # a byte count that is not a whole number of samples used to drop
        # its last byte silently
        path = tmp_path / "x.pcm"
        path.write_bytes(b"\1" * size)
        with pytest.raises(FeatureError, match=f"x.pcm: {size} bytes"):
            load_pcm(path, RATE)

    @pytest.mark.parametrize("channels, width, want", [(2, 2, "got 2 channels"), (1, 1, "got 8-bit")])
    def test_wav_not_16_bit_mono_rejected(self, tmp_path, channels, width, want):
        path = tmp_path / "x.wav"
        with wave.open(str(path), "wb") as out:
            out.setnchannels(channels)
            out.setsampwidth(width)
            out.setframerate(RATE)
            out.writeframes(b"\0" * 40)
        with pytest.raises(FeatureError, match=f"x.wav: expected .*{want}"):
            load_wav(path)

    @pytest.mark.parametrize("size", [3, 100])
    def test_wav_holding_fewer_samples_than_declared_rejected(self, tmp_path, size):
        # a cut ending mid-sample used to fail in numpy, and an even one
        # loaded the samples that were left
        path = tmp_path / "x.wav"
        save_wav(path, Waveform(np.zeros(100), RATE))
        path.write_bytes(path.read_bytes()[: 44 + size])  # 44-byte header
        with pytest.raises(FeatureError, match=f"x.wav: holds {size} of the 200 sample bytes"):
            load_wav(path)

    def test_nonfinite_rejected(self):
        with pytest.raises(FeatureError):
            Waveform(np.array([0.0, np.nan]), RATE)
