import numpy as np
import pytest

from sarlab.dsp import AudioClip
from sarlab import metrics
from sarlab.metrics import estoi
from sarlab.nn import make_rng
from sarlab.speechlike import speechlike_utterance


def am_tones(seed, sr=16000, dur=2.0):
    """Sum of 5 random tones with amplitude modulation (speech-like oracle)."""
    rng = make_rng(seed)
    t = np.arange(int(dur * sr)) / sr
    x = np.zeros_like(t)
    for _ in range(5):
        f = rng.uniform(200, 3000)
        x += np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    am = 0.3 + 0.7 * np.abs(np.sin(2 * np.pi * rng.uniform(2, 5) * t))
    x = x * am
    x *= 0.5 / np.max(np.abs(x))
    return AudioClip(x, sr)


def with_noise(clip, snr_db, seed):
    rng = make_rng(seed)
    p = np.mean(clip.samples ** 2)
    sigma = np.sqrt(p / 10 ** (snr_db / 10))
    return AudioClip(np.clip(clip.samples + sigma * rng.standard_normal(len(clip)), -1, 1),
                     clip.sample_rate)


class TestEstoi:
    def test_self_similarity(self):
        clip = am_tones(0)
        assert estoi(clip, clip) >= 0.999

    def test_self_similarity_speechlike(self):
        clip = speechlike_utterance(make_rng(1), duration=1.5)
        assert estoi(clip, clip) >= 0.999

    def test_upper_bound(self):
        clip = am_tones(2)
        for seed in range(5):
            score = estoi(clip, with_noise(clip, 20, seed))
            assert score <= 1 + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_decrease_with_noise(self, seed):
        # broadband speech-like input: pure-tone signals leave most
        # third-octave bands empty and floor the score
        clip = speechlike_utterance(make_rng(100 + seed), duration=1.5)
        scores = [estoi(clip, with_noise(clip, snr, seed)) for snr in (30, 20, 10, 0)]
        for a, b in zip(scores, scores[1:]):
            assert a - b >= 0.01

    def test_tones_decrease_with_noise(self):
        # sparse tonal input: direction still holds end to end
        clip = am_tones(42)
        hi = estoi(clip, with_noise(clip, 30, 0))
        lo = estoi(clip, with_noise(clip, 0, 0))
        assert hi - lo >= 0.01

    def test_silence_prefix_insensitive(self):
        clip = am_tones(3)
        deg = with_noise(clip, 15, 0)
        base = estoi(clip, deg)
        pad = np.zeros(16000)
        ref2 = AudioClip(np.concatenate([pad, clip.samples]), 16000)
        deg2 = AudioClip(np.concatenate([pad, deg.samples]), 16000)
        assert abs(estoi(ref2, deg2) - base) < 1e-6

    def test_too_short(self):
        clip = am_tones(4, dur=0.2)
        with pytest.raises(ValueError, match="too short"):
            estoi(clip, clip)

    def test_rate_mismatch(self):
        a = am_tones(5)
        b = AudioClip(a.samples.copy(), 8000)
        with pytest.raises(ValueError, match="sample-rate"):
            estoi(a, b)

    def test_all_silent_reference(self):
        z = AudioClip(np.zeros(16000), 16000)
        with pytest.raises(ValueError, match="all-silent"):
            estoi(z, z)

    def test_length_tolerance(self):
        clip = am_tones(6)
        shorter = AudioClip(clip.samples[:-100], 16000)
        score = estoi(clip, shorter)  # within one hop: trimmed, no error
        assert score >= 0.99
        way_off = AudioClip(clip.samples[:-4000], 16000)
        with pytest.raises(ValueError, match="length"):
            estoi(clip, way_off)


def ref_remove_silent_frames(ref, deg):
    """The frame-by-frame overlap-add that silence removal used to run."""
    from scipy.signal import get_window
    win = get_window("hann", metrics.FRAME_LEN, fftbins=True)
    def frame(x):
        n = 1 + (len(x) - metrics.FRAME_LEN) // metrics.FRAME_HOP
        idx = (np.arange(metrics.FRAME_LEN)[None, :]
               + metrics.FRAME_HOP * np.arange(n)[:, None])
        return x[idx] * win
    rf, df = frame(ref), frame(deg)
    energy_db = 20 * np.log10(np.linalg.norm(rf, axis=1) + metrics.NORM_EPS)
    keep = energy_db > energy_db.max() - metrics.DYN_RANGE_DB
    rf, df = rf[keep], df[keep]
    out_len = (rf.shape[0] - 1) * metrics.FRAME_HOP + metrics.FRAME_LEN
    r, d = np.zeros(out_len), np.zeros(out_len)
    for i in range(rf.shape[0]):
        s = i * metrics.FRAME_HOP
        r[s:s + metrics.FRAME_LEN] += rf[i]
        d[s:s + metrics.FRAME_LEN] += df[i]
    return r, d


class TestEstoiInternals:
    def test_silence_removal_matches_frame_loop(self):
        clip = am_tones(7, sr=10000)
        ref = clip.samples.copy()
        ref[3000:6000] *= 1e-4  # frames 40 dB down are dropped
        deg = with_noise(AudioClip(ref, 10000), 5, 1).samples
        r, d = metrics._remove_silent_frames(ref, deg)
        r0, d0 = ref_remove_silent_frames(ref, deg)
        assert len(r) < len(ref)
        assert np.array_equal(r, r0) and np.array_equal(d, d0)

    def test_constants_built_once_and_read_only(self):
        from scipy.signal import get_window
        assert np.array_equal(metrics._WINDOW,
                              get_window("hann", metrics.FRAME_LEN, fftbins=True))
        assert np.array_equal(metrics._BAND_MATRIX, metrics._third_octave_matrix())
        for const in (metrics._WINDOW, metrics._BAND_MATRIX):
            assert not const.flags.writeable
