"""Deterministic signal processing: WAV I/O, resampling, STFT, mel, Griffin-Lim.

Everything in here is a pure function of its inputs.  All audio is mono,
amplitude-normalized to [-1, 1].  Mel features are natural-log magnitudes
with a hard floor so silence maps to a finite value.
"""

import functools
import math
import numbers
import os
import secrets
import struct
import typing
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile
from scipy.signal import firwin, get_window, resample_poly

MEL_FLOOR = 1e-5

MEL_MAGIC = b"SARMEL1"

MAX_FEATURE_RATE = 384000


@dataclass
class AudioClip:
    """Mono waveform with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip requires a 1-D sample array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("AudioClip samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def feature_hop(sample_rate: int) -> int:
    """Feature-frame hop in samples: 16 ms at the given rate."""
    return int(round(0.016 * sample_rate))


@dataclass
class StftConfig:
    """Hann-windowed STFT geometry."""

    fft_size: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.fft_size <= 0 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a positive power of two")
        if not 0 < self.hop <= self.fft_size:
            raise ValueError("hop must satisfy 0 < hop <= fft_size")

    @classmethod
    def for_rate(cls, sample_rate: int) -> "StftConfig":
        """Feature-extraction config: 16 ms hop at this rate, 1024-point FFT,
        or the smallest power of two that holds a longer hop (above 64 kHz)."""
        if sample_rate > MAX_FEATURE_RATE:
            raise ValueError("sample rate %d Hz is above the %d Hz feature limit"
                             % (sample_rate, MAX_FEATURE_RATE))
        hop = feature_hop(sample_rate)
        return cls(fft_size=max(1024, 1 << (hop - 1).bit_length()), hop=hop)


@dataclass
class ComplexSpectrogram:
    frames: np.ndarray  # (T, n_bins) complex
    config: StftConfig


@dataclass
class MelFilterBank:
    weights: np.ndarray  # (n_mels, n_bins)
    sample_rate: int
    fft_size: int

    @functools.cached_property
    def pinv(self) -> np.ndarray:
        """(n_bins, n_mels) pseudo-inverse of `weights`, computed once."""
        pinv = np.linalg.pinv(self.weights)
        pinv.flags.writeable = False
        return pinv


@dataclass
class MelSpectrogram:
    frames: np.ndarray  # (T, n_mels) log magnitudes
    sample_rate: int
    hop: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_mels(self) -> int:
        return self.frames.shape[1]


# ---------------------------------------------------------------------------
# Config checking and file writing

def check_number_fields(obj) -> None:
    """Raise ValueError naming the first `int` or `float` field of dataclass
    `obj` that holds no such number.  An int passes as a float, a bool is no
    number, and an `X | None` field also takes None."""
    for f in fields(obj):
        kinds = typing.get_args(f.type) or (f.type,)
        if int in kinds:
            want, what = numbers.Integral, "an integer"
        elif float in kinds:
            want, what = numbers.Real, "a number"
        else:
            continue
        value = getattr(obj, f.name)
        if (value is not None or type(None) not in kinds) and (
                isinstance(value, bool) or not isinstance(value, want)):
            raise ValueError("%s must be %s, got %r" % (f.name, what, value))


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a new file beside `path` for writing; on success, replace `path`.

    Readers see the old file or the whole new one, never a partial write.
    If the writer raises, the old file is left as it was and the new one is
    removed.  The file is created as `open` would create it (mode 0666 less
    the umask).
    """
    path = os.fspath(path)
    tmp = "%s.%s.tmp" % (path, secrets.token_hex(4))
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# WAV I/O

def read_wav(path) -> AudioClip:
    """Load a mono RIFF/WAVE file (16-bit PCM or 32-bit float)."""
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError("unsupported channel count: %d" % data.shape[1])
    if data.size == 0:
        raise ValueError("empty data chunk in %s" % path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32 or data.dtype == np.float64:
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    else:
        raise ValueError("unsupported encoding: %s" % data.dtype)
    return AudioClip(samples, int(rate))


def write_wav(clip: AudioClip, path) -> None:
    """Write 16-bit PCM mono; out-of-range samples are hard-clipped."""
    if len(clip) == 0:
        raise ValueError("cannot write an empty clip")
    q = np.round(clip.samples * 32768.0)
    q = np.clip(q, -32768, 32767).astype(np.int16)
    with atomic_write(path, "wb") as f:
        wavfile.write(f, clip.sample_rate, q)


def wav_duration(path) -> float:
    """Duration in seconds, read from the header without decoding samples."""
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise ValueError("not a RIFF/WAVE file: %s" % path)
        rate = None
        block_align = None
        while True:
            hdr = f.read(8)
            if len(hdr) < 8:
                break
            cid, size = struct.unpack("<4sI", hdr)
            if cid == b"fmt ":
                fmt = f.read(size + (size & 1))
                if size < 16 or len(fmt) < 16:
                    raise ValueError("short fmt chunk in %s" % path)
                _, channels, rate, _, block_align, _ = struct.unpack(
                    "<HHIIHH", fmt[:16])
                if rate == 0 or block_align == 0:
                    raise ValueError("zero sample rate or block align in %s" % path)
            elif cid == b"data":
                if rate is None:
                    raise ValueError("data chunk before fmt in %s" % path)
                return size / block_align / rate
            else:
                f.seek(size + (size & 1), 1)
    raise ValueError("no data chunk in %s" % path)


# ---------------------------------------------------------------------------
# Resampling

def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Polyphase windowed-sinc resampler (Kaiser beta=12, 64 taps/phase)."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    g = math.gcd(clip.sample_rate, target_rate)
    up = target_rate // g
    down = clip.sample_rate // g
    # cutoff at the narrower of the two Nyquists, in units of the
    # upsampled-rate Nyquist
    fc = min(1.0 / up, 1.0 / down)
    taps = 64 * up + 1
    h = firwin(taps, fc, window=("kaiser", 12.0))
    out = resample_poly(clip.samples, up, down, window=h)
    return AudioClip(out, target_rate)


# ---------------------------------------------------------------------------
# STFT / ISTFT

@functools.lru_cache(maxsize=8)
def _window(fft_size: int) -> np.ndarray:
    win = get_window("hann", fft_size, fftbins=True)
    win.flags.writeable = False
    return win


def overlap_add(chunks: np.ndarray, hop: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sum rows of `chunks` placed `hop` samples apart.

    Each output sample adds its rows in ascending row order, as a loop of
    ``y[t*hop:t*hop+n] += chunks[t]`` over ``t`` does, so the result has the
    loop's bits.  Rows are cut into ceil(n/hop) hop-long blocks (zero-padded;
    adding +0.0 leaves a sum unchanged) and block j of every row is added in
    one slice, for j from the last block down to the first.  The sums go to
    `out`, an (n_rows + blocks - 1, hop) accumulator zeroed first, if given;
    the result is a view of it.
    """
    n_rows, n = chunks.shape
    k = -(-n // hop)
    if k * hop != n:
        chunks = np.pad(chunks, ((0, 0), (0, k * hop - n)))
    blocks = chunks.reshape(n_rows, k, hop)
    if out is None:
        out = np.zeros((n_rows + k - 1, hop))
    else:
        out.fill(0.0)
    for j in range(k - 1, -1, -1):
        out[j:j + n_rows] += blocks[:, j]
    return out.reshape(-1)[:(n_rows - 1) * hop + n]


class _Framing:
    """Framing of `n_frames` centered STFT frames under one StftConfig.

    Holds the window, the frame layout and the buffers that analysis and
    synthesis work in.  The reflect index and the padded signal are built on
    the first analysis, the overlap-add normaliser and accumulator on the
    first synthesis, so `stft` never pays for synthesis state.  `stft` and
    `istft` build one per call; `griffin_lim` builds one and runs every
    iteration in its buffers.  So `synthesise` returns a view of its
    accumulator, which the next synthesis overwrites.
    """

    def __init__(self, config: StftConfig, n_frames: int):
        self.config = config
        self.n_frames = n_frames
        self.window = _window(config.fft_size)
        self._padded = None

    def analyse(self, x: np.ndarray) -> np.ndarray:
        """(n_frames, n_bins) spectrum of unpadded samples `x`, whose length
        must give n_frames centered frames; every call on one framing passes
        the same length."""
        n_fft, hop = self.config.fft_size, self.config.hop
        pad = n_fft // 2
        if self._padded is None:
            self._padded = np.zeros(x.size + 2 * pad)
            # a single sample is zero-padded: there is nothing to reflect
            self._source = (np.pad(np.arange(x.size), pad, mode="reflect")
                            if x.size > 1 else None)
            self._frames = sliding_window_view(self._padded, n_fft)[::hop]
            self._windowed = np.empty(self._frames.shape)
        if self._source is None:
            self._padded[pad] = x[0]
        else:  # every index is in range; "clip" writes to `out` unbuffered
            np.take(x, self._source, out=self._padded, mode="clip")
        np.multiply(self._frames, self.window, out=self._windowed)
        # no `out=`: numpy.fft takes one only from numpy 2.0
        return np.fft.rfft(self._windowed, n=n_fft, axis=1)

    @functools.cached_property
    def _synthesis(self):
        """(wsum, wsum > 1e-10, overlap-add accumulator) of this framing."""
        win, hop = self.window, self.config.hop
        wsum = overlap_add(np.broadcast_to(win * win, (self.n_frames, win.size)),
                           hop)
        blocks = -(-win.size // hop)
        return wsum, wsum > 1e-10, np.empty((self.n_frames + blocks - 1, hop))

    def synthesise(self, frames: np.ndarray) -> np.ndarray:
        """Overlap-add inverse of `analyse`, center padding trimmed."""
        n_fft = self.config.fft_size
        chunks = np.fft.irfft(frames, n=n_fft, axis=1)
        chunks *= self.window
        wsum, good, acc = self._synthesis
        y = overlap_add(chunks, self.config.hop, out=acc)
        np.divide(y, wsum, out=y, where=good)
        pad = n_fft // 2
        return y[pad:y.size - pad] if y.size > 2 * pad else y


def stft(clip: AudioClip, config: StftConfig) -> ComplexSpectrogram:
    """Centered STFT: reflect-pad by fft_size/2, then windowed rFFT frames."""
    x = clip.samples
    if x.size == 0:
        raise ValueError("cannot STFT an empty clip")
    pad = config.fft_size // 2
    n_frames = 1 + (x.size + 2 * pad - config.fft_size) // config.hop
    return ComplexSpectrogram(_Framing(config, n_frames).analyse(x), config)


def istft(spec: ComplexSpectrogram) -> AudioClip:
    """Overlap-add inverse of `stft`, trimming the center padding.

    Exact wherever the squared-window overlap is nonzero; with a Hann
    window at hop = fft/4 that covers the whole unpadded signal.
    """
    frames = spec.frames
    if frames.size == 0:
        raise ValueError("cannot invert an empty spectrogram")
    out = _Framing(spec.config, frames.shape[0]).synthesise(frames)
    # sample rate is not carried by the spectrogram; caller re-attaches it
    return AudioClip(out, 1)


# ---------------------------------------------------------------------------
# Mel filterbank and extraction

_F_SP = 200.0 / 3.0
_MIN_LOG_HZ = 1000.0
_MIN_LOG_MEL = _MIN_LOG_HZ / _F_SP
_LOGSTEP = math.log(6.4) / 27.0


def hz_to_mel(f):
    """Slaney mel scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    mel = f / _F_SP
    above = f >= _MIN_LOG_HZ
    mel = np.where(above, _MIN_LOG_MEL + np.log(np.maximum(f, 1e-30) / _MIN_LOG_HZ) / _LOGSTEP, mel)
    return mel


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * _F_SP
    above = m >= _MIN_LOG_MEL
    return np.where(above, _MIN_LOG_HZ * np.exp(_LOGSTEP * (m - _MIN_LOG_MEL)), f)


def mel_filterbank(sample_rate: int, fft_size: int, n_mels: int = 80) -> MelFilterBank:
    """Triangular Slaney-style filters from 0 Hz to Nyquist, area-normalized."""
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    n_bins = fft_size // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / fft_size
    pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0),
                                n_mels + 2))
    weights = np.zeros((n_mels, n_bins))
    for k in range(n_mels):
        lo, mid, hi = pts[k], pts[k + 1], pts[k + 2]
        rise = (bin_freqs - lo) / max(mid - lo, 1e-12)
        fall = (hi - bin_freqs) / max(hi - mid, 1e-12)
        tri = np.maximum(0.0, np.minimum(rise, fall))
        weights[k] = tri * (2.0 / (hi - lo))
    if not np.all(weights.max(axis=1) > 0):
        raise ValueError("filterbank has empty rows; increase fft_size or lower n_mels")
    return MelFilterBank(weights, sample_rate, fft_size)


def mel_spectrogram(clip: AudioClip, config: StftConfig,
                    bank: MelFilterBank) -> MelSpectrogram:
    """Log-mel magnitudes: log(max(bank @ |STFT|, floor))."""
    if bank.fft_size != config.fft_size:
        raise ValueError("filterbank fft_size %d != config fft_size %d"
                         % (bank.fft_size, config.fft_size))
    if bank.sample_rate != clip.sample_rate:
        raise ValueError("filterbank sample_rate %d != clip sample_rate %d"
                         % (bank.sample_rate, clip.sample_rate))
    spec = stft(clip, config)
    mag = np.abs(spec.frames)  # (T, n_bins)
    mel = mag @ bank.weights.T
    frames = np.log(np.maximum(mel, MEL_FLOOR))
    return MelSpectrogram(frames, clip.sample_rate, config.hop)


# ---------------------------------------------------------------------------
# Griffin-Lim

def mel_to_linear(mel: MelSpectrogram, bank: MelFilterBank) -> np.ndarray:
    """Nonnegative least-squares-style magnitude estimate via pinv, clamped at 0."""
    amp = np.exp(mel.frames)  # (T, n_mels) linear mel magnitudes
    return np.maximum(amp @ bank.pinv.T, 0.0)  # (T, n_bins)


def griffin_lim(mel: MelSpectrogram, config: StftConfig, bank: MelFilterBank,
                iterations: int = 60) -> AudioClip:
    """Phase reconstruction from a log-mel spectrogram.

    Deterministic: zero-phase init, no momentum.  The feature frames are
    mapped onto a hop = fft/4 synthesis grid by nearest-frame lookup, since
    overlap-add inversion needs that hop for full window coverage.  At every
    rate the output spans the T feature frames' T - 1 hops, within one
    feature hop of the analysed clip.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if mel.n_frames < 2:
        raise ValueError("griffin_lim needs at least 2 mel frames, got %d"
                         % mel.n_frames)
    target = mel_to_linear(mel, bank)  # (T, n_bins) on the feature grid
    synth_hop = config.fft_size // 4
    t_feat = target.shape[0]
    span = (t_feat - 1) * mel.hop
    if mel.hop != synth_hop:
        t_synth = 1 + math.ceil(span / synth_hop)
        idx = np.clip(np.round(np.arange(t_synth) * synth_hop / mel.hop).astype(int),
                      0, t_feat - 1)
        target = target[idx]
    framing = _Framing(StftConfig(config.fft_size, synth_hop), target.shape[0])
    spec = target.astype(np.complex128)  # zero phase
    est_mag = np.empty(target.shape)
    for _ in range(iterations):
        est = framing.analyse(framing.synthesise(spec))
        np.abs(est, out=est_mag)
        np.multiply(target, est, out=est)
        spec = np.divide(est, np.maximum(est_mag, 1e-12, out=est_mag), out=est)
    return AudioClip(framing.synthesise(spec)[:span], mel.sample_rate)


# ---------------------------------------------------------------------------
# Mel feature files

def save_mel(mel: MelSpectrogram, path) -> None:
    """SARMEL1 file: ASCII header line + row-major little-endian float32."""
    t, d = mel.frames.shape
    if min(t, d, mel.sample_rate, mel.hop) < 1:
        raise ValueError("SARMEL1 needs frames, bands, rate and hop >= 1")
    header = "SARMEL1 %d %d %d %d\n" % (t, d, mel.sample_rate, mel.hop)
    with atomic_write(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(mel.frames.astype("<f4").tobytes())


def load_mel(path) -> MelSpectrogram:
    with open(path, "rb") as f:
        parts = f.readline().split()
        if len(parts) != 5 or parts[0] != MEL_MAGIC:
            raise ValueError("not a SARMEL1 file: %s" % path)
        t, d, rate, hop = (int(p) for p in parts[1:])
        if min(t, d, rate, hop) < 1:
            raise ValueError("SARMEL1 header values must be >= 1: %s" % path)
        size = 4 * t * d
        if size > os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError("truncated SARMEL1 file: %s" % path)
        raw = f.read(size)
        if f.read(1):
            raise ValueError("trailing bytes after SARMEL1 frames: %s" % path)
        frames = np.frombuffer(raw, dtype="<f4").reshape(t, d).astype(np.float64)
    return MelSpectrogram(frames, rate, hop)
