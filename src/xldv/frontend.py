"""Acoustic front-end: log mel filterbanks, MFCCs, deltas, CMVN.

All operations are pure per-utterance functions returning new FeatureMatrix
objects. Framing is 25 ms windows every 10 ms with a Hamming window. Temporal
context is edge-replicated throughout: ``edge_index`` is the one gather rule
for deltas here and for splicing, chunking and network time context elsewhere.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft

from .errors import DegenerateInputError, InvalidArgumentError

SAMPLE_RATE = 8000
FRAME_LENGTH_MS = 25.0
FRAME_SHIFT_MS = 10.0
FRAME_LENGTH = int(SAMPLE_RATE * FRAME_LENGTH_MS / 1000)  # 200 samples
FRAME_SHIFT = int(SAMPLE_RATE * FRAME_SHIFT_MS / 1000)  # 80 samples
N_FFT = 256
LOG_FLOOR = 1e-10
CMVN_VAR_FLOOR = 1e-10


@dataclass
class FeatureMatrix:
    """T x D feature matrix with utterance metadata.

    ``data`` is always float64, C-contiguous, with T >= 1 rows. The id fields
    must not contain tab or newline characters (they are used as field
    separators in archives and manifests).
    """

    utterance_id: str
    speaker_id: str
    language_id: str
    data: np.ndarray
    frame_shift_ms: float = FRAME_SHIFT_MS
    frame_length_ms: float = FRAME_LENGTH_MS

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise InvalidArgumentError(
                f"feature matrix must be 2-D with T,D >= 1, got shape {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise InvalidArgumentError(
                f"feature matrix for {self.utterance_id!r} contains non-finite values"
            )
        for name in (self.utterance_id, self.speaker_id, self.language_id):
            if "\t" in name or "\n" in name:
                raise InvalidArgumentError(f"id {name!r} contains tab/newline")

    @property
    def n_frames(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]


def n_frames_for_samples(n_samples):
    """Number of 25ms/10ms frames for a signal of ``n_samples`` samples."""
    if n_samples < FRAME_LENGTH:
        return 0
    return 1 + (n_samples - FRAME_LENGTH) // FRAME_SHIFT


def _as_float_signal(utterance):
    samples = np.asarray(utterance.samples)
    if samples.dtype == np.int16:
        return samples.astype(np.float64) / 32768.0
    return samples.astype(np.float64)


def _frames(signal):
    n = n_frames_for_samples(len(signal))
    if n < 1:
        raise InvalidArgumentError(
            f"audio too short for one frame: {len(signal)} < {FRAME_LENGTH} samples"
        )
    idx = np.arange(FRAME_LENGTH)[None, :] + FRAME_SHIFT * np.arange(n)[:, None]
    return signal[idx]


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_filters, n_fft=N_FFT, sample_rate=SAMPLE_RATE, fmin=20.0, fmax=None):
    """Triangular mel filter weights, shape (n_filters, n_fft//2 + 1)."""
    if fmax is None:
        fmax = sample_rate / 2.0
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_filters + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    weights = np.zeros((n_filters, n_fft // 2 + 1))
    for j in range(n_filters):
        lo, ctr, hi = edges[j], edges[j + 1], edges[j + 2]
        up = (bin_freqs - lo) / (ctr - lo)
        down = (hi - bin_freqs) / (hi - ctr)
        weights[j] = np.clip(np.minimum(up, down), 0.0, None)
    return weights


def filter_band_edges(n_filters, sample_rate=SAMPLE_RATE, fmin=20.0, fmax=None):
    """(low, high) Hz support of each triangular filter."""
    if fmax is None:
        fmax = sample_rate / 2.0
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_filters + 2))
    return [(edges[j], edges[j + 2]) for j in range(n_filters)]


def _power_spectrum(utterance):
    frames = _frames(_as_float_signal(utterance))
    window = np.hamming(FRAME_LENGTH)
    spec = np.fft.rfft(frames * window, n=N_FFT)
    return (spec.real**2 + spec.imag**2), frames


def fbank(utterance, n_mels=40):
    """Log mel filterbank features, D = n_mels."""
    if n_mels < 1:
        raise InvalidArgumentError("n_mels must be >= 1")
    power, _ = _power_spectrum(utterance)
    fb = mel_filterbank(n_mels)
    energies = np.maximum(power @ fb.T, LOG_FLOOR)
    return FeatureMatrix(
        utterance.utterance_id, utterance.speaker_id, utterance.language_id,
        np.log(energies),
    )


N_MFCC_FILTERS = 23
N_CEPSTRA = 19


def mfcc(utterance):
    """19 cepstral coefficients plus log frame energy, D = 20.

    Energy is computed on the raw (unwindowed) frame and occupies column 0;
    cepstra c1..c19 follow. 23 mel filters feed a type-II orthonormal DCT.
    """
    power, frames = _power_spectrum(utterance)
    fb = mel_filterbank(N_MFCC_FILTERS)
    logmel = np.log(np.maximum(power @ fb.T, LOG_FLOOR))
    cepstra = scipy.fft.dct(logmel, type=2, axis=1, norm="ortho")[:, 1 : N_CEPSTRA + 1]
    energy = np.log(np.maximum((frames**2).sum(axis=1), LOG_FLOOR))
    return FeatureMatrix(
        utterance.utterance_id, utterance.speaker_id, utterance.language_id,
        np.hstack([energy[:, None], cepstra]),
    )


def edge_index(n_frames, idx, offsets):
    """Frame indices ``idx + offset`` clamped to 0..n_frames-1 (edge replication).

    The result has the shape of ``idx`` followed by that of ``offsets``; either
    may be a scalar. Indexing a (T, ...) array with it copies frames exactly.
    """
    return np.clip(np.add.outer(idx, offsets), 0, n_frames - 1)


DELTA_WINDOW = 2


def _delta(data, window=DELTA_WINDOW):
    """Regression delta over +-window frames with edge replication."""
    t_idx = np.arange(data.shape[0])
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(data)
    for n in range(1, window + 1):
        fwd, bwd = edge_index(data.shape[0], t_idx, (n, -n)).T
        out += n * (data[fwd] - data[bwd])
    return out / denom


def add_deltas(feat: FeatureMatrix) -> FeatureMatrix:
    """Append first and second order deltas: D=20 -> D=60, columns [static, d, dd]."""
    if feat.dim != N_CEPSTRA + 1:
        raise InvalidArgumentError(
            f"add_deltas expects D={N_CEPSTRA + 1} static features, got D={feat.dim}"
        )
    d1 = _delta(feat.data)
    d2 = _delta(d1)
    return replace(feat, data=np.hstack([feat.data, d1, d2]))


def cmvn(feat: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance, per-dimension mean/variance normalization.

    Dimensions whose variance is at or below the floor are only mean-centered.
    Idempotent to within 1e-10.
    """
    if feat.n_frames < 2:
        raise InvalidArgumentError("cmvn requires T >= 2 frames")
    mean = feat.data.mean(axis=0)
    centered = feat.data - mean
    var = (centered**2).mean(axis=0)
    scale = np.where(var > CMVN_VAR_FLOOR, 1.0 / np.sqrt(np.maximum(var, CMVN_VAR_FLOOR)), 1.0)
    return replace(feat, data=centered * scale)

