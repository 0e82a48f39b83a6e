"""Distortion models for the anti-distortion evaluation.

Three corruptions: additive Gaussian noise on feature matrices calibrated to
a target SNR, elementwise feature masking WITHOUT survivor rescaling (missing
data, not dropout), and audio bandwidth degradation (down- then up-sampling).
"""

from dataclasses import dataclass

import numpy as np

from .dsp import AudioClip, check_number_fields, resample
from .nn import make_rng

KINDS = ("white_noise", "mask", "band_limit", "none")


@dataclass
class CorruptionSpec:
    kind: str = "none"
    snr_db: float | None = None
    alpha: float | None = None
    intermediate_rate: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if self.kind not in KINDS:
            raise ValueError("unknown corruption kind: %r" % self.kind)
        if self.kind == "white_noise":
            if self.snr_db is None or not np.isfinite(self.snr_db):
                raise ValueError("white_noise requires a finite snr_db")
        elif self.kind == "mask":
            if self.alpha is None or not 0 <= self.alpha <= 1:
                raise ValueError("mask requires alpha in [0, 1]")
        elif self.kind == "band_limit":
            if self.intermediate_rate is None or self.intermediate_rate <= 0:
                raise ValueError("band_limit requires a positive intermediate_rate")

    @classmethod
    def from_dict(cls, d: dict) -> "CorruptionSpec":
        known = {"kind", "snr_db", "alpha", "intermediate_rate", "seed"}
        extra = set(d) - known
        if extra:
            raise ValueError("unknown corruption fields: %s" % sorted(extra))
        return cls(**d)

    @property
    def label(self) -> str:
        if self.kind == "none":
            return "raw"
        if self.kind == "mask":
            return "mask_%g" % self.alpha
        if self.kind == "white_noise":
            return "snr_%g" % self.snr_db
        return "band_limit_%d" % self.intermediate_rate


def add_feature_noise(feat: np.ndarray, snr_db: float, rng) -> np.ndarray:
    """Additive i.i.d. Gaussian noise; variance set by the realized signal power."""
    feat = np.asarray(feat, dtype=np.float64)
    p_signal = float(np.mean(feat ** 2))
    if p_signal == 0.0:
        raise ValueError("zero-power features: SNR undefined")
    sigma = np.sqrt(p_signal / 10.0 ** (snr_db / 10.0))
    return feat + sigma * rng.standard_normal(feat.shape)


def mask_features(feat: np.ndarray, alpha: float, rng) -> np.ndarray:
    """Zero each element with probability alpha; survivors kept bit-exact."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    feat = np.asarray(feat)
    if alpha == 0:
        return feat.copy()
    keep = rng.uniform(size=feat.shape) >= alpha
    return feat * keep


def degrade_bandwidth(clip: AudioClip, intermediate_rate: int) -> AudioClip:
    """Delete content above intermediate_rate/2 by resampling down and back up."""
    if intermediate_rate >= clip.sample_rate:
        raise ValueError("intermediate_rate must be below the clip's rate")
    down = resample(clip, intermediate_rate)
    up = resample(down, clip.sample_rate)
    n = len(clip)
    out = up.samples[:n]
    if len(out) < n:
        out = np.pad(out, (0, n - len(out)))
    return AudioClip(out, clip.sample_rate)


def corrupt(target, spec: CorruptionSpec):
    """Dispatch a corruption onto a feature matrix or an AudioClip."""
    is_audio = isinstance(target, AudioClip)
    if spec.kind == "none":
        if is_audio:
            return AudioClip(target.samples.copy(), target.sample_rate)
        return np.asarray(target).copy()
    if spec.kind == "band_limit":
        if not is_audio:
            raise ValueError("band_limit applies to audio, not feature matrices")
        return degrade_bandwidth(target, spec.intermediate_rate)
    if is_audio:
        raise ValueError("%s applies to feature matrices, not audio" % spec.kind)
    rng = make_rng(spec.seed)
    if spec.kind == "white_noise":
        return add_feature_noise(target, spec.snr_db, rng)
    return mask_features(target, spec.alpha, rng)
