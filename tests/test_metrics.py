import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarlab.dsp import AudioClip, resample
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


def ref_estoi(reference, degraded):
    """`estoi` scored by the per-segment loop it used to run: each SEG_LEN-
    frame slice of the band spectrograms normalised and correlated alone."""
    sr = reference.sample_rate
    n = min(len(reference), len(degraded))
    ref, deg = metrics._strip_digital_silence(reference.samples[:n],
                                              degraded.samples[:n])
    if sr != metrics.ESTOI_RATE:
        ref = resample(AudioClip(ref, sr), metrics.ESTOI_RATE).samples
        deg = resample(AudioClip(deg, sr), metrics.ESTOI_RATE).samples
    ref, deg = metrics._remove_silent_frames(ref, deg)
    x, y = metrics._band_spectrogram(ref), metrics._band_spectrogram(deg)

    def normalise(seg):
        seg = seg - seg.mean(axis=1, keepdims=True)
        seg = seg / (np.linalg.norm(seg, axis=1, keepdims=True) + metrics.NORM_EPS)
        seg = seg - seg.mean(axis=0, keepdims=True)
        return seg / (np.linalg.norm(seg, axis=0, keepdims=True) + metrics.NORM_EPS)

    seg_len = metrics.SEG_LEN
    scores = []
    for m in range(seg_len, x.shape[1] + 1):
        xs = normalise(x[:, m - seg_len:m])
        ys = normalise(y[:, m - seg_len:m])
        scores.append(float(np.sum(xs * ys)) / seg_len)
    return float(np.mean(scores))


class TestEstoiMatchesSegmentLoop:
    @given(seed=st.integers(0, 10 ** 6),
           rate=st.sampled_from([8000, 10000, 16000, 22050]),
           seconds=st.floats(0.7, 2.5), snr_db=st.floats(-15.0, 30.0),
           quiet=st.floats(0.0, 0.2), trim=st.integers(0, 100))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_same_score_as_per_segment_loop(self, seed, rate, seconds, snr_db,
                                            quiet, trim):
        clip = am_tones(seed, sr=rate, dur=seconds)
        ref = clip.samples.copy()
        n = len(ref)
        ref[int(0.4 * n):int((0.4 + quiet) * n)] *= 1e-4  # dropped as silent
        reference = AudioClip(ref, rate)
        deg = with_noise(reference, snr_db, seed + 1).samples
        degraded = AudioClip(deg[:n - trim], rate)
        assert estoi(reference, degraded) == ref_estoi(reference, degraded)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_of_segments_keep_the_score(self, monkeypatch, block):
        # a short block cuts the segments into several passes, the last partial
        clip = am_tones(5, sr=metrics.ESTOI_RATE, dur=1.5)
        deg = with_noise(clip, 3, 6)
        expect = ref_estoi(clip, deg)
        monkeypatch.setattr(metrics, "SEG_BLOCK", block)
        assert estoi(clip, deg) == expect

    def test_one_segment(self):
        # exactly SEG_LEN analysis frames: the windows hold one segment
        n = metrics.FRAME_LEN + (metrics.SEG_LEN - 1) * metrics.FRAME_HOP
        clip = am_tones(3, sr=metrics.ESTOI_RATE, dur=n / metrics.ESTOI_RATE)
        deg = with_noise(clip, 5, 4)
        assert metrics._band_spectrogram(clip.samples).shape[1] == metrics.SEG_LEN
        assert estoi(clip, deg) == ref_estoi(clip, deg)
