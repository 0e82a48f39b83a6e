import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_fresh
from sarlab.dsp import (
    AudioClip,
    ComplexSpectrogram,
    MEL_FLOOR,
    MelSpectrogram,
    StftConfig,
    atomic_write,
    feature_hop,
    griffin_lim,
    hz_to_mel,
    istft,
    load_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    mel_to_linear,
    overlap_add,
    read_wav,
    resample,
    save_mel,
    stft,
    wav_duration,
    write_wav,
)
from sarlab.nn import make_rng
from sarlab.speechlike import speechlike_utterance


def tone(freq, sr=16000, dur=1.0, amp=0.5):
    t = np.arange(int(dur * sr)) / sr
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), sr)


def noise_clip(seed=0, sr=16000, n=16000, amp=0.3):
    rng = np.random.default_rng(seed)
    return AudioClip(amp * rng.uniform(-1, 1, n), sr)


def slaney_points(sample_rate, n_mels):
    """Closed-form Slaney mel-scale points, 0 Hz to Nyquist: filter k rises
    from point k, peaks at point k + 1 (its centre) and falls to point k + 2."""
    def mel(f):
        return f / (200 / 3) if f < 1000 else 15 + np.log(f / 1000) / (np.log(6.4) / 27)

    def hz(m):
        return m * 200 / 3 if m < 15 else 1000 * np.exp((np.log(6.4) / 27) * (m - 15))

    top = mel(sample_rate / 2)
    return np.array([hz(top * k / (n_mels + 1)) for k in range(n_mels + 2)])


# ---------------------------------------------------------------------------
# WAV I/O

class TestWavIO:
    def test_fixed_point_scaling(self, tmp_path):
        from scipy.io import wavfile
        data = np.array([32767, -32768, 0], dtype=np.int16)
        wavfile.write(tmp_path / "a.wav", 16000, data)
        clip = read_wav(tmp_path / "a.wav")
        assert clip.samples[0] == pytest.approx(32767 / 32768)
        assert clip.samples[1] == -1.0
        assert clip.sample_rate == 16000

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile
        wavfile.write(tmp_path / "s.wav", 16000,
                      np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValueError, match="channel count"):
            read_wav(tmp_path / "s.wav")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_float32_read(self, tmp_path):
        from scipy.io import wavfile
        wavfile.write(tmp_path / "f.wav", 16000,
                      np.array([0.25, -0.5, 2.0], dtype=np.float32))
        clip = read_wav(tmp_path / "f.wav")
        assert clip.samples[0] == pytest.approx(0.25)
        assert clip.samples[2] == 1.0  # clipped on load

    def test_data_chunk_size(self, tmp_path):
        clip = AudioClip(np.zeros(16000), 16000)
        clip.samples[0] = 0.5
        write_wav(clip, tmp_path / "w.wav")
        raw = (tmp_path / "w.wav").read_bytes()
        i = raw.index(b"data")
        import struct
        (size,) = struct.unpack("<I", raw[i + 4:i + 8])
        assert size == 32000  # 2 bytes/sample

    def test_clipping_on_write(self, tmp_path):
        clip = AudioClip(np.array([2.0, -3.0, 0.0]), 8000)
        write_wav(clip, tmp_path / "c.wav")
        from scipy.io import wavfile
        _, data = wavfile.read(tmp_path / "c.wav")
        assert data[0] == 32767
        assert data[1] == -32768

    def test_round_trip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(10):
            clip = AudioClip(rng.uniform(-0.99, 0.99, 2000), 16000)
            write_wav(clip, tmp_path / "r.wav")
            back = read_wav(tmp_path / "r.wav")
            assert np.max(np.abs(back.samples - clip.samples)) <= 1 / 32768

    def test_write_read_write_identical(self, tmp_path):
        clip = noise_clip()
        write_wav(clip, tmp_path / "a.wav")
        a = read_wav(tmp_path / "a.wav")
        write_wav(a, tmp_path / "b.wav")
        b = read_wav(tmp_path / "b.wav")
        assert np.array_equal(a.samples, b.samples)

    def test_empty_clip_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(AudioClip(np.zeros(0), 16000), tmp_path / "e.wav")

    def test_wav_duration(self, tmp_path):
        write_wav(AudioClip(np.zeros(32000) + 0.1, 16000), tmp_path / "d.wav")
        assert wav_duration(tmp_path / "d.wav") == pytest.approx(2.0)

    def test_wav_duration_skips_pad_after_odd_fmt_chunk(self, tmp_path):
        # RIFF pads every odd-sized chunk to an even length, fmt included
        samples = (np.arange(8000) % 100 - 50).astype("<i2")
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16) + b"\0"
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"\0"
                + b"data" + struct.pack("<I", samples.nbytes)
                + samples.tobytes())
        path = tmp_path / "odd_fmt.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        assert len(read_wav(path)) == 8000
        assert wav_duration(path) == 0.5


# ---------------------------------------------------------------------------
# Resampling

class TestResample:
    def test_identity(self):
        clip = noise_clip()
        out = resample(clip, 16000)
        assert np.array_equal(out.samples, clip.samples)

    def test_tone_preserved(self):
        out = resample(tone(440), 8000)
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * 8000 / len(out.samples)
        bin_hz = 8000 / len(out.samples)
        assert abs(peak_hz - 440) <= bin_hz

    def test_duration_preserved(self):
        clip = noise_clip(n=12345)
        out = resample(clip, 10000)
        assert abs(out.duration - clip.duration) <= 1 / 10000

    def test_nyquist_violating_tone_removed(self):
        def round_trip_energy(f):
            c = tone(f)
            down = resample(c, 8000)
            up = resample(down, 16000)
            return np.sum(up.samples ** 2)
        atten = 10 * np.log10(round_trip_energy(6000) / round_trip_energy(1000))
        assert atten <= -20

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            resample(noise_clip(), 0)

    @pytest.mark.parametrize("freq", [200, 500, 1000, 2000, 3500])
    def test_peak_within_one_bin(self, freq):
        # f < 0.45 * min(rates)
        out = resample(tone(freq), 8000)
        spec = np.abs(np.fft.rfft(out.samples))
        bin_hz = 8000 / len(out.samples)
        assert abs(np.argmax(spec) * bin_hz - freq) <= bin_hz


# ---------------------------------------------------------------------------
# STFT / ISTFT

class TestStft:
    cfg = StftConfig(1024, 256)

    def test_zero_in_zero_out(self):
        spec = stft(AudioClip(np.zeros(4000), 16000), self.cfg)
        assert np.all(spec.frames == 0)

    def test_frame_count(self):
        spec = stft(noise_clip(n=16000), self.cfg)
        # padded length 16000 + 1024 -> 1 + (17024 - 1024) // 256 = 63
        assert spec.frames.shape == (63, 513)

    def test_linearity(self):
        clip = noise_clip()
        a = stft(clip, self.cfg).frames
        b = stft(AudioClip(clip.samples * 2.5, 16000), self.cfg).frames
        assert np.allclose(b, 2.5 * a)

    def test_windowed_parseval(self):
        # sum |STFT|^2 over bins equals windowed-frame energy (rFFT folding)
        clip = noise_clip(n=5000)
        cfg = self.cfg
        spec = stft(clip, cfg).frames
        from scipy.signal import get_window
        win = get_window("hann", 1024, fftbins=True)
        xp = np.pad(clip.samples, 512, mode="reflect")
        for t in range(spec.shape[0]):
            frame = xp[t * 256:t * 256 + 1024] * win
            lhs = (np.sum(np.abs(spec[t]) ** 2) * 2
                   - np.abs(spec[t, 0]) ** 2 - np.abs(spec[t, -1]) ** 2)
            rhs = 1024 * np.sum(frame ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stft(AudioClip(np.zeros(0), 16000), self.cfg)

    def test_round_trip(self):
        cfg = StftConfig(1024, 256)  # hop = fft/4
        clip = noise_clip(seed=3, n=9000)
        out = istft(stft(clip, cfg)).samples
        n = min(len(out), len(clip))
        assert np.max(np.abs(out[:n] - clip.samples[:n])) < 1e-6

    def test_round_trip_many(self):
        cfg = StftConfig(512, 128)
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(600, 3000))
            x = rng.uniform(-1, 1, n)
            out = istft(stft(AudioClip(x, 16000), cfg)).samples
            m = min(len(out), n)
            assert np.max(np.abs(out[:m] - x[:m])) < 1e-6

    def test_istft_zero(self):
        spec = stft(AudioClip(np.zeros(3000), 16000), self.cfg)
        out = istft(spec)
        assert np.all(out.samples == 0)

    def test_istft_single_frame_shape(self):
        frames = np.zeros((1, 513), dtype=complex)
        out = istft(ComplexSpectrogram(frames, self.cfg))
        # (T-1)*hop = 0 pre-trim collapses; output is well-defined and finite
        assert np.all(np.isfinite(out.samples))

    def test_istft_empty_rejected(self):
        with pytest.raises(ValueError):
            istft(ComplexSpectrogram(np.zeros((0, 513), dtype=complex), self.cfg))


# ---------------------------------------------------------------------------
# Mel filterbank and extraction

class TestMel:
    def test_shape(self):
        bank = mel_filterbank(16000, 1024, 80)
        assert bank.weights.shape == (80, 513)
        assert np.all(bank.weights >= 0)
        assert np.all(bank.weights.max(axis=1) > 0)

    def test_peaks_monotone(self):
        bank = mel_filterbank(16000, 1024, 80)
        peaks = np.argmax(bank.weights, axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_centers_match_closed_form(self):
        # each filter is nonzero exactly between its closed-form neighbours'
        # centres and peaks at the bin nearest its own
        bank = mel_filterbank(16000, 1024, 80)
        pts = slaney_points(16000, 80)
        bins = np.arange(513) * 16000 / 1024
        for k, row in enumerate(bank.weights):
            inside = (bins > pts[k] + 1e-6) & (bins < pts[k + 2] - 1e-6)
            outside = (bins < pts[k] - 1e-6) | (bins > pts[k + 2] + 1e-6)
            assert np.all(row[inside] > 0) and np.all(row[outside] == 0)
            assert abs(bins[np.argmax(row)] - pts[k + 1]) <= 16000 / 1024

    def test_mel_hz_inverse(self):
        f = np.linspace(10, 7900, 50)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_silence_hits_floor(self):
        bank = mel_filterbank(16000, 1024, 80)
        cfg = StftConfig.for_rate(16000)
        mel = mel_spectrogram(AudioClip(np.zeros(8000), 16000), cfg, bank)
        assert np.all(mel.frames == np.log(MEL_FLOOR))

    def test_tone_argmax_bin(self):
        bank = mel_filterbank(16000, 1024, 80)
        cfg = StftConfig.for_rate(16000)
        mel = mel_spectrogram(tone(1000), cfg, bank)
        centers = slaney_points(16000, 80)[1:-1]
        expect = int(np.argmin(np.abs(centers - 1000)))
        inner = mel.frames[2:-2]
        peaks = np.argmax(inner, axis=1)
        assert np.all(peaks == expect)

    def test_log_linearity(self):
        bank = mel_filterbank(16000, 1024, 80)
        cfg = StftConfig.for_rate(16000)
        a = mel_spectrogram(tone(500, amp=0.2), cfg, bank).frames
        b = mel_spectrogram(tone(500, amp=0.4), cfg, bank).frames
        unfloored = a > np.log(MEL_FLOOR) + 1e-9
        np.testing.assert_allclose((b - a)[unfloored], np.log(2), atol=1e-9)

    def test_bank_config_mismatch(self):
        bank = mel_filterbank(16000, 512, 80)
        with pytest.raises(ValueError, match="fft_size"):
            mel_spectrogram(tone(440), StftConfig.for_rate(16000), bank)

    def test_feature_hop(self):
        assert feature_hop(16000) == 256
        assert feature_hop(8000) == 128

    def test_fft_size_derived_from_rate(self):
        # 1024 points up to 64 kHz, where the 16 ms hop reaches 1024 samples
        for rate in (8000, 16000, 22050, 44100, 48000, 64000):
            assert StftConfig.for_rate(rate) == StftConfig(1024, feature_hop(rate))
        assert StftConfig.for_rate(96000) == StftConfig(2048, 1536)
        assert StftConfig.for_rate(384000) == StftConfig(8192, 6144)
        with pytest.raises(ValueError, match="feature limit"):
            StftConfig.for_rate(384001)

    def test_bank_rate_mismatch(self):
        bank = mel_filterbank(22050, 1024, 80)
        with pytest.raises(ValueError, match="sample_rate"):
            mel_spectrogram(tone(440), StftConfig.for_rate(16000), bank)

    def test_mel_file_round_trip(self, tmp_path):
        bank = mel_filterbank(16000, 1024, 80)
        cfg = StftConfig.for_rate(16000)
        mel = mel_spectrogram(noise_clip(), cfg, bank)
        save_mel(mel, tmp_path / "m.mel")
        back = load_mel(tmp_path / "m.mel")
        assert back.sample_rate == 16000 and back.hop == 256
        np.testing.assert_allclose(back.frames, mel.frames, atol=1e-6)

    def test_mel_file_truncated(self, tmp_path):
        bank = mel_filterbank(16000, 1024, 80)
        cfg = StftConfig.for_rate(16000)
        mel = mel_spectrogram(noise_clip(), cfg, bank)
        save_mel(mel, tmp_path / "m.mel")
        raw = (tmp_path / "m.mel").read_bytes()
        (tmp_path / "t.mel").write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_mel(tmp_path / "t.mel")

    def test_bits_do_not_depend_on_blas_thread_variables(self, tmp_path):
        # threaded BLAS gives this clip's mel other last bits than a pinned
        # one; importing sarlab.dsp alone must already pin it
        path = tmp_path / "clip.wav"
        write_wav(speechlike_utterance(make_rng(0)), path)
        script = """
import hashlib, sys
from sarlab.dsp import StftConfig, mel_filterbank, mel_spectrogram, read_wav
clip = read_wav(sys.argv[1])
cfg = StftConfig.for_rate(clip.sample_rate)
bank = mel_filterbank(clip.sample_rate, cfg.fft_size, 80)
print(hashlib.sha256(mel_spectrogram(clip, cfg, bank).frames).hexdigest())
"""
        assert (run_fresh(script, path)
                == run_fresh(script, path, OPENBLAS_NUM_THREADS="1"))


def load_mel_bytes(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.mel"
        path.write_bytes(raw)
        return load_mel(path)


def mel_bytes(frames, sample_rate=16000, hop=256):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.mel"
        save_mel(MelSpectrogram(frames, sample_rate, hop), path)
        return path.read_bytes()


@pytest.fixture(scope="module")
def tiny_mel():
    return mel_bytes(np.arange(6, dtype=np.float64).reshape(3, 2) - 2.5)


class TestMelFileStrictness:
    def test_intact_file_loads(self, tiny_mel):
        mel = load_mel_bytes(tiny_mel)
        assert mel.frames.shape == (3, 2) and mel.hop == 256

    def test_every_truncation_rejected(self, tiny_mel):
        for cut in range(len(tiny_mel)):
            with pytest.raises(ValueError):
                load_mel_bytes(tiny_mel[:cut])

    @given(extra=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_appended_bytes_rejected(self, tiny_mel, extra):
        with pytest.raises(ValueError, match="trailing bytes"):
            load_mel_bytes(tiny_mel + extra)

    @given(t=st.integers(1, 6), d=st.integers(1, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_exact_in_float32(self, t, d, data):
        values = data.draw(st.lists(
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            min_size=t * d, max_size=t * d))
        frames = np.array(values, dtype=np.float64).reshape(t, d)
        back = load_mel_bytes(mel_bytes(frames, 8000, 128))
        assert (back.sample_rate, back.hop) == (8000, 128)
        assert np.array_equal(back.frames, frames)

    sizes = st.one_of(st.integers(-3, 12), st.integers(-2 ** 70, 2 ** 70))

    @given(t=sizes, d=sizes, rate=sizes, hop=sizes, n_values=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    @example(t=10 ** 12, d=80, rate=16000, hop=256, n_values=4)
    @example(t=3, d=0, rate=16000, hop=256, n_values=0)
    @example(t=0, d=80, rate=16000, hop=256, n_values=0)
    def test_header_read_strictly(self, t, d, rate, hop, n_values):
        # a header either describes exactly the payload that follows, with
        # every value >= 1, or the file is refused before anything is read
        values = np.arange(n_values, dtype="<f4") - 7.5
        raw = b"SARMEL1 %d %d %d %d\n" % (t, d, rate, hop) + values.tobytes()
        if min(t, d, rate, hop) >= 1 and t * d == n_values:
            mel = load_mel_bytes(raw)
            assert (mel.sample_rate, mel.hop) == (rate, hop)
            assert np.array_equal(mel.frames, values.reshape(t, d))
        else:
            with pytest.raises(ValueError):
                load_mel_bytes(raw)

    @pytest.mark.parametrize("shape, rate, hop", [
        ((0, 80), 16000, 256), ((3, 0), 16000, 256), ((3, 2), 0, 256),
        ((3, 2), 16000, 0)])
    def test_unreadable_mel_not_written(self, tmp_path, shape, rate, hop):
        with pytest.raises(ValueError):
            save_mel(MelSpectrogram(np.zeros(shape), rate, hop), tmp_path / "x.mel")
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Griffin-Lim

class TestGriffinLim:
    bank = mel_filterbank(16000, 1024, 80)
    cfg = StftConfig.for_rate(16000)

    def test_tone_peak_recovered(self):
        mel = mel_spectrogram(tone(440), self.cfg, self.bank)
        out = griffin_lim(mel, self.cfg, self.bank, iterations=60)
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * 16000 / len(out.samples)
        # tolerance in analysis-FFT bins: mel quantization bounds the accuracy
        assert abs(peak_hz - 440) <= 2 * (16000 / 1024)

    def test_all_floor_is_near_silence(self):
        frames = np.full((40, 80), np.log(MEL_FLOOR))
        from sarlab.dsp import MelSpectrogram
        mel = MelSpectrogram(frames, 16000, 256)
        out = griffin_lim(mel, self.cfg, self.bank, iterations=5)
        assert np.sqrt(np.mean(out.samples ** 2)) < 1e-3

    def test_convergence_non_increasing(self):
        # the spectral error after k iterations, measured from outside: at
        # 16 kHz the feature hop is the synthesis hop, so |stft(output)| is
        # the magnitude the (k+1)-th iteration starts from
        mel = mel_spectrogram(noise_clip(n=6000), self.cfg, self.bank)
        target = mel_to_linear(mel, self.bank)
        x0 = istft(ComplexSpectrogram(target.astype(complex), self.cfg))
        errs = []
        for k in range(31):
            x = x0 if k == 0 else griffin_lim(mel, self.cfg, self.bank,
                                              iterations=k)
            est_mag = np.abs(stft(x, self.cfg).frames)
            errs.append(np.linalg.norm(est_mag - target) / np.linalg.norm(target))
        diffs = np.diff(errs)
        assert np.all(diffs <= 1e-7)

    def test_single_frame_rejected(self):
        mel = MelSpectrogram(np.zeros((1, 80)), 16000, 256)
        with pytest.raises(ValueError, match="at least 2"):
            griffin_lim(mel, self.cfg, self.bank)

    def test_deterministic(self):
        mel = mel_spectrogram(tone(700), self.cfg, self.bank)
        a = griffin_lim(mel, self.cfg, self.bank, iterations=10)
        b = griffin_lim(mel, self.cfg, self.bank, iterations=10)
        assert np.array_equal(a.samples, b.samples)

    def test_empty_rejected(self):
        from sarlab.dsp import MelSpectrogram
        mel = MelSpectrogram(np.zeros((0, 80)), 16000, 256)
        with pytest.raises(ValueError):
            griffin_lim(mel, self.cfg, self.bank)

    def test_output_spans_the_clip_at_other_rates(self):
        # the synthesis hop is fft/4 = 256 samples; where the 16 ms feature
        # hop differs, the output must still be within one feature hop of
        # the analysed clip, or ESTOI rejects the pair
        for rate in (8000, 22050):
            cfg = StftConfig.for_rate(rate)
            bank = mel_filterbank(rate, cfg.fft_size, 80)
            for n in range(7200, 7200 + 2 * cfg.hop, 17):
                mel = mel_spectrogram(noise_clip(sr=rate, n=n), cfg, bank)
                out = griffin_lim(mel, cfg, bank, iterations=1)
                assert len(out) == (mel.n_frames - 1) * cfg.hop
                assert 0 <= n - len(out) < feature_hop(rate), (rate, n)


# ---------------------------------------------------------------------------
# Reference implementations: the frame-by-frame loops the framing replaced.
# The shared framing must reproduce them bit for bit.

def ref_stft(x, config):
    x = np.asarray(x, dtype=np.float64)
    n_fft, hop = config.fft_size, config.hop
    pad = n_fft // 2
    xp = np.pad(x, pad, mode="reflect") if x.size > 1 else np.pad(x, pad)
    n_frames = 1 + (len(xp) - n_fft) // hop
    from scipy.signal import get_window
    win = get_window("hann", n_fft, fftbins=True)
    idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.fft.rfft(xp[idx] * win, n=n_fft, axis=1)


def ref_istft(frames, config):
    n_fft, hop = config.fft_size, config.hop
    from scipy.signal import get_window
    win = get_window("hann", n_fft, fftbins=True)
    n_frames = frames.shape[0]
    total = (n_frames - 1) * hop + n_fft
    y = np.zeros(total)
    wsum = np.zeros(total)
    chunks = np.fft.irfft(frames, n=n_fft, axis=1) * win
    for t in range(n_frames):
        s = t * hop
        y[s:s + n_fft] += chunks[t]
        wsum[s:s + n_fft] += win * win
    good = wsum > 1e-10
    y[good] /= wsum[good]
    pad = n_fft // 2
    return y[pad:total - pad] if total > 2 * pad else y


def ref_griffin_lim(mel, config, bank, iterations):
    amp = np.exp(mel.frames)
    mag = np.maximum(amp @ np.linalg.pinv(bank.weights).T, 0.0)
    synth_hop = config.fft_size // 4
    t_feat = mag.shape[0]
    span = (t_feat - 1) * mel.hop
    if mel.hop != synth_hop:
        t_synth = 1 + int(np.ceil(span / synth_hop))
        idx = np.clip(np.round(np.arange(t_synth) * synth_hop / mel.hop).astype(int),
                      0, t_feat - 1)
        mag = mag[idx]
    synth_cfg = StftConfig(config.fft_size, synth_hop)
    spec = mag.astype(np.complex128)
    for _ in range(iterations):
        x = ref_istft(spec, synth_cfg)
        est = ref_stft(x, synth_cfg)
        spec = mag * est / np.maximum(np.abs(est), 1e-12)
    return ref_istft(spec, synth_cfg)[:span]


def ref_overlap_add(chunks, hop):
    n_rows, n = chunks.shape
    y = np.zeros((n_rows - 1) * hop + n)
    for t in range(n_rows):
        y[t * hop:t * hop + n] += chunks[t]
    return y


def assert_same_as_reference(x, cfg):
    spec = stft(AudioClip(x, 16000), cfg)
    assert np.array_equal(spec.frames, ref_stft(x, cfg))
    assert np.array_equal(istft(spec).samples, ref_istft(spec.frames, cfg))


class TestFramingMatchesReference:
    @pytest.mark.parametrize("rate", [8000, 16000, 22050])
    def test_feature_rates(self, rate):
        # 22.05 kHz has a 353-sample hop, which does not divide 1024
        cfg = StftConfig.for_rate(rate)
        bank = mel_filterbank(rate, cfg.fft_size, 80)
        for n in (4000, rate + 7):
            clip = noise_clip(seed=n, sr=rate, n=n)
            assert_same_as_reference(clip.samples, cfg)
            mel = mel_spectrogram(clip, cfg, bank)
            expect = np.log(np.maximum(np.abs(ref_stft(clip.samples, cfg))
                                       @ bank.weights.T, MEL_FLOOR))
            assert np.array_equal(mel.frames, expect)
            out = griffin_lim(mel, cfg, bank, iterations=4)
            assert np.array_equal(out.samples, ref_griffin_lim(mel, cfg, bank, 4))

    def test_hop_equals_fft_size(self):
        assert_same_as_reference(noise_clip(n=5000).samples, StftConfig(512, 512))

    def test_single_frame_istft(self):
        cfg = StftConfig(1024, 256)
        frames = np.fft.rfft(noise_clip(n=1024).samples)[None, :]
        out = istft(ComplexSpectrogram(frames, cfg)).samples
        assert np.array_equal(out, ref_istft(frames, cfg))
        assert len(out) == 1024
        assert_same_as_reference(np.array([0.25]), cfg)

    @given(n=st.integers(1, 6000), hop=st.integers(16, 1024),
           log_fft=st.integers(6, 10))
    @settings(max_examples=60, deadline=None)
    def test_any_length_and_hop(self, n, hop, log_fft):
        fft_size = 2 ** log_fft
        cfg = StftConfig(fft_size, min(hop, fft_size))
        x = np.random.default_rng(n).uniform(-1, 1, n)
        assert_same_as_reference(x, cfg)

    @given(n=st.integers(3000, 12000), rate=st.sampled_from([8000, 16000, 22050]),
           iterations=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_griffin_lim_any_length(self, n, rate, iterations):
        cfg = StftConfig.for_rate(rate)
        bank = mel_filterbank(rate, cfg.fft_size, 40)
        mel = mel_spectrogram(noise_clip(seed=n, sr=rate, n=n), cfg, bank)
        out = griffin_lim(mel, cfg, bank, iterations=iterations)
        assert np.array_equal(out.samples,
                              ref_griffin_lim(mel, cfg, bank, iterations))

    @given(rows=st.integers(1, 40), n=st.integers(1, 300), hop=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_overlap_add_keeps_loop_order(self, rows, n, hop):
        chunks = np.random.default_rng(rows * n).standard_normal((rows, n)) * 1e3
        chunks[:, ::7] = -0.0  # signed zeros must come out as the loop's
        assert np.array_equal(overlap_add(chunks, hop), ref_overlap_add(chunks, hop))
        assert np.array_equal(np.signbit(overlap_add(chunks, hop)),
                              np.signbit(ref_overlap_add(chunks, hop)))

    @given(rate=st.sampled_from([8000, 16000, 22050, 44100]),
           t=st.integers(2, 40), iterations=st.integers(1, 4),
           n_mels=st.sampled_from([40, 80]), sparse=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(rate=16000, t=2, iterations=2, n_mels=80, sparse=False, seed=0)
    @example(rate=44100, t=2, iterations=3, n_mels=80, sparse=True, seed=1)
    @example(rate=8000, t=3, iterations=4, n_mels=40, sparse=False, seed=2)
    @example(rate=22050, t=3, iterations=1, n_mels=80, sparse=True, seed=3)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_griffin_lim_reuses_buffers_with_the_same_bits(
            self, rate, t, iterations, n_mels, sparse, seed):
        # T <= 3 gives a synthesis signal shorter than the reflect padding
        cfg = StftConfig.for_rate(rate)
        bank = mel_filterbank(rate, cfg.fft_size, n_mels)
        frames = make_rng(seed).uniform(np.log(MEL_FLOOR), 1.0, (t, n_mels))
        if sparse:  # every other band at the floor: the pinv goes negative
            frames[:, 1::2] = np.log(MEL_FLOOR)
        mel = MelSpectrogram(frames, rate, cfg.hop)
        if sparse:
            assert np.any(mel_to_linear(mel, bank) == 0.0)
        out = griffin_lim(mel, cfg, bank, iterations=iterations)
        expect = ref_griffin_lim(mel, cfg, bank, iterations)
        assert out.samples.tobytes() == expect.tobytes()

    def test_bank_pinv_cached(self):
        bank = mel_filterbank(16000, 1024, 80)
        assert np.array_equal(bank.pinv, np.linalg.pinv(bank.weights))
        assert bank.pinv is bank.pinv
        assert not bank.pinv.flags.writeable

    def test_read_only_harness_bank_synthesizes(self):
        from sarlab.harness import front_end
        cfg, bank = front_end(16000, 80)
        assert not bank.weights.flags.writeable
        mel = mel_spectrogram(noise_clip(n=6000), cfg, bank)
        out = griffin_lim(mel, cfg, bank, iterations=3)
        assert np.array_equal(out.samples, ref_griffin_lim(mel, cfg, bank, 3))


# ---------------------------------------------------------------------------
# Atomic writes

class TestAtomicWrite:
    @pytest.mark.parametrize("mode, first, partial", [
        ("w", "old text\n", "new "), ("wb", b"old bytes", b"new ")])
    def test_failed_write_keeps_old_file(self, tmp_path, mode, first, partial):
        path = tmp_path / "out"
        with atomic_write(path, mode) as f:
            f.write(first)
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(path, mode) as f:
                f.write(partial)
                f.flush()
                raise RuntimeError("mid-write")
        assert path.read_bytes() == (first if mode == "wb" else first.encode())
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_text("a much longer old file\n")
        with atomic_write(path) as f:
            f.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
