from dataclasses import asdict

import numpy as np
import pytest

from sarlab.corruption import (
    CorruptionSpec,
    add_feature_noise,
    corrupt,
    degrade_bandwidth,
    mask_features,
)
from sarlab.dsp import AudioClip
from sarlab.nn import make_rng


def band_energy(x, sr, lo, hi):
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.arange(len(spec)) * sr / len(x)
    return float(np.sum(spec[(freqs >= lo) & (freqs < hi)]))


class TestFeatureNoise:
    def test_snr_calibration(self):
        rng = make_rng(0)
        feat = make_rng(1).standard_normal((100, 80))
        noisy = add_feature_noise(feat, 10.0, rng)
        noise = noisy - feat
        realized = 10 * np.log10(np.mean(feat ** 2) / np.mean(noise ** 2))
        assert 9.5 <= realized <= 10.5

    @pytest.mark.parametrize("target", [15.0, 10.0])
    def test_snr_calibration_many_seeds(self, target):
        feat = make_rng(2).standard_normal((125, 80))
        for seed in range(20):
            noisy = add_feature_noise(feat, target, make_rng(seed))
            noise = noisy - feat
            realized = 10 * np.log10(np.mean(feat ** 2) / np.mean(noise ** 2))
            assert abs(realized - target) <= 0.5

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="zero-power"):
            add_feature_noise(np.zeros((10, 10)), 10.0, make_rng(0))


class TestMaskFeatures:
    def test_identity_at_zero(self):
        feat = make_rng(3).standard_normal((10, 10))
        out = mask_features(feat, 0.0, make_rng(0))
        assert np.array_equal(out, feat)

    def test_all_zero_at_one(self):
        feat = make_rng(4).standard_normal((10, 10))
        assert np.all(mask_features(feat, 1.0, make_rng(0)) == 0)

    def test_zeroed_fraction(self):
        feat = np.ones((100, 100))
        out = mask_features(feat, 0.1, make_rng(5))
        assert abs(np.mean(out == 0) - 0.1) <= 0.01

    def test_no_rescaling_survivors_exact(self):
        feat = make_rng(6).standard_normal((50, 40))
        out = mask_features(feat, 0.3, make_rng(7))
        survivors = out != 0
        assert np.array_equal(out[survivors], feat[survivors])

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            mask_features(np.ones((2, 2)), 1.5, make_rng(0))


class TestBandwidthDegradation:
    def test_white_noise_band_attenuated(self):
        rng = make_rng(8)
        clip = AudioClip(0.3 * rng.uniform(-1, 1, 32000), 16000)
        out = degrade_bandwidth(clip, 8000)
        before = band_energy(clip.samples, 16000, 4500, 7500)
        after = band_energy(out.samples, 16000, 4500, 7500)
        assert 10 * np.log10(after / before) <= -20

    def test_tone_preserved(self):
        t = np.arange(16000) / 16000
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000 * t), 16000)
        out = degrade_bandwidth(clip, 8000)
        assert len(out) == len(clip)
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * 16000 / len(out.samples)
        assert abs(peak_hz - 1000) <= 16000 / len(out.samples)
        core = slice(1000, -1000)
        amp_db = 20 * np.log10(np.max(np.abs(out.samples[core])) / 0.5)
        assert abs(amp_db) <= 0.5

    def test_equal_rate_rejected(self):
        clip = AudioClip(np.zeros(100) + 0.1, 16000)
        with pytest.raises(ValueError):
            degrade_bandwidth(clip, 16000)


class TestCorruptDispatch:
    def test_none_identity_both_kinds(self):
        spec = CorruptionSpec(kind="none")
        feat = make_rng(9).standard_normal((5, 5))
        assert np.array_equal(corrupt(feat, spec), feat)
        clip = AudioClip(np.full(100, 0.1), 16000)
        out = corrupt(clip, spec)
        assert np.array_equal(out.samples, clip.samples)

    def test_mask_delegates(self):
        spec = CorruptionSpec(kind="mask", alpha=0.2, seed=11)
        feat = make_rng(10).standard_normal((40, 40))
        out = corrupt(feat, spec)
        expect = mask_features(feat, 0.2, make_rng(11))
        assert np.array_equal(out, expect)

    def test_band_limit_on_features_rejected(self):
        spec = CorruptionSpec(kind="band_limit", intermediate_rate=8000)
        with pytest.raises(ValueError):
            corrupt(np.ones((5, 5)), spec)

    def test_feature_kind_on_audio_rejected(self):
        spec = CorruptionSpec(kind="mask", alpha=0.2)
        with pytest.raises(ValueError):
            corrupt(AudioClip(np.full(50, 0.2), 16000), spec)

    def test_spec_serialization_round_trip(self):
        for spec in (
            CorruptionSpec(kind="white_noise", snr_db=10.0, seed=3),
            CorruptionSpec(kind="mask", alpha=0.1, seed=4),
            CorruptionSpec(kind="band_limit", intermediate_rate=8000, seed=5),
            CorruptionSpec(kind="none", seed=6),
        ):
            assert CorruptionSpec.from_dict(asdict(spec)) == spec

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            CorruptionSpec(kind="reverb")
        with pytest.raises(ValueError):
            CorruptionSpec(kind="white_noise", snr_db=float("inf"))
        with pytest.raises(ValueError):
            CorruptionSpec(kind="mask", alpha=2.0)

    def test_labels(self):
        assert CorruptionSpec(kind="none").label == "raw"
        assert CorruptionSpec(kind="mask", alpha=0.2).label == "mask_0.2"
        assert CorruptionSpec(kind="white_noise", snr_db=15).label == "snr_15"
