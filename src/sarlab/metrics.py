"""Objective intelligibility: ESTOI on waveform pairs.

ESTOI follows the standard published definition: both signals are resampled
to 10 kHz, silent reference frames (40 dB below the loudest) are removed from
both, a 256-sample Hann / 512-point STFT feeds 15 one-third-octave bands from
150 Hz, and 30-frame segments are row- then column-normalized before
correlation.  Higher is better; the score never exceeds 1.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window

from .dsp import AudioClip, feature_hop, overlap_add, resample

ESTOI_RATE = 10000
FRAME_LEN = 256
FRAME_HOP = 128
FFT_LEN = 512
N_BANDS = 15
FIRST_CENTER_HZ = 150.0
SEG_LEN = 30
DYN_RANGE_DB = 40.0
NORM_EPS = 1e-12
SEG_BLOCK = 512  # segments normalised per pass: bounds memory on long clips


def _strip_digital_silence(ref: np.ndarray, deg: np.ndarray):
    """Drop exact-zero leading/trailing runs of the reference from both.

    Keeps frame alignment independent of prepended digital silence.
    """
    nz = np.flatnonzero(ref)
    if nz.size == 0:
        raise ValueError("reference is all-silent")
    return ref[nz[0]:nz[-1] + 1], deg[nz[0]:nz[-1] + 1]


def _frame(x: np.ndarray):
    n = 1 + (len(x) - FRAME_LEN) // FRAME_HOP
    idx = np.arange(FRAME_LEN)[None, :] + FRAME_HOP * np.arange(n)[:, None]
    return x[idx] * _WINDOW


def _remove_silent_frames(ref: np.ndarray, deg: np.ndarray):
    """Overlap-add back only the frames whose reference energy is in range."""
    if len(ref) < FRAME_LEN:
        raise ValueError("too short for silence removal")
    rf = _frame(ref)
    df = _frame(deg)
    energy_db = 20 * np.log10(np.linalg.norm(rf, axis=1) + NORM_EPS)
    keep = energy_db > energy_db.max() - DYN_RANGE_DB
    if not np.any(keep):
        raise ValueError("reference is all-silent")
    return overlap_add(rf[keep], FRAME_HOP), overlap_add(df[keep], FRAME_HOP)


def _third_octave_matrix():
    centers = FIRST_CENTER_HZ * 2.0 ** (np.arange(N_BANDS) / 3.0)
    lo = centers / 2.0 ** (1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    freqs = np.arange(FFT_LEN // 2 + 1) * ESTOI_RATE / FFT_LEN
    mat = np.zeros((N_BANDS, len(freqs)))
    for k in range(N_BANDS):
        a = int(np.argmin(np.abs(freqs - lo[k])))
        b = int(np.argmin(np.abs(freqs - hi[k])))
        mat[k, a:b] = 1.0
    mat.flags.writeable = False
    return mat


# read-only constants, built once
_WINDOW = get_window("hann", FRAME_LEN, fftbins=True)
_WINDOW.flags.writeable = False
_BAND_MATRIX = _third_octave_matrix()


def _band_spectrogram(x: np.ndarray):
    frames = _frame(x)
    spec = np.abs(np.fft.rfft(frames, n=FFT_LEN, axis=1)) ** 2  # (T, bins)
    return np.sqrt(spec @ _BAND_MATRIX.T).T  # (bands, T)


def _normalized_segments(windows: np.ndarray):
    """Copy of (n_seg, N_BANDS, SEG_LEN) `windows` of a band spectrogram, each
    segment's rows then its columns mean-removed and unit-normed.

    Each window is laid out as a slice of the spectrogram is, so every mean and
    norm sums in the order that normalising the slices one at a time would."""
    seg = windows - windows.mean(axis=2, keepdims=True)
    seg /= np.linalg.norm(seg, axis=2, keepdims=True) + NORM_EPS
    seg -= seg.mean(axis=1, keepdims=True)
    seg /= np.linalg.norm(seg, axis=1, keepdims=True) + NORM_EPS
    return seg


def estoi(reference: AudioClip, degraded: AudioClip) -> float:
    """Extended short-time objective intelligibility of `degraded` vs `reference`.

    Segments are scored SEG_BLOCK at a time, so the working memory beyond the
    band spectrograms stays under 10 MB however long the clips are."""
    if reference.sample_rate != degraded.sample_rate:
        raise ValueError("sample-rate mismatch: %d vs %d"
                         % (reference.sample_rate, degraded.sample_rate))
    sr = reference.sample_rate
    ref, deg = reference.samples, degraded.samples
    tol = feature_hop(sr) + 2  # one feature hop of slack
    if abs(len(ref) - len(deg)) > tol:
        raise ValueError("length mismatch beyond one hop: %d vs %d"
                         % (len(ref), len(deg)))
    n = min(len(ref), len(deg))
    ref, deg = ref[:n], deg[:n]
    ref, deg = _strip_digital_silence(ref, deg)
    if sr != ESTOI_RATE:
        ref = resample(AudioClip(ref, sr), ESTOI_RATE).samples
        deg = resample(AudioClip(deg, sr), ESTOI_RATE).samples
    ref, deg = _remove_silent_frames(ref, deg)
    x = _band_spectrogram(ref)  # (15, T)
    y = _band_spectrogram(deg)
    t_frames = x.shape[1]
    if t_frames < SEG_LEN:
        raise ValueError("too short: %d analysis frames, need %d"
                         % (t_frames, SEG_LEN))
    # (n_seg, N_BANDS, SEG_LEN) strided views: no copy
    xw = sliding_window_view(x, SEG_LEN, axis=1).transpose(1, 0, 2)
    yw = sliding_window_view(y, SEG_LEN, axis=1).transpose(1, 0, 2)
    sums = np.concatenate([
        (_normalized_segments(xw[i:i + SEG_BLOCK])
         * _normalized_segments(yw[i:i + SEG_BLOCK])).sum(axis=(1, 2))
        for i in range(0, len(xw), SEG_BLOCK)])
    return float(np.mean(sums / SEG_LEN))
