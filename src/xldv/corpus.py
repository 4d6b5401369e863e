"""Deterministic synthetic multi-speaker, multi-language corpus at 8 kHz.

Each language owns a set of phone templates (band-gain envelopes over a fixed
filterbank plus a language-level band emphasis curve); each speaker is a
(pitch, formant warp, spectral tilt, gain) tuple. Utterances render an
excitation (harmonic at the speaker pitch, or noise for unvoiced templates)
through the warped, tilted envelope. Everything is a pure function of
explicit seeds, so any utterance can be re-synthesized in isolation.

A voiced segment is a sum of harmonics, sum_k a_k sin(k w n + phi_k). It is
rendered as the imaginary part of a polynomial in the unit phasor
z_n = exp(i w n), evaluated by Horner's rule: one complex multiply-add per
sample and harmonic, where the sine sum took one libm sine each. The float64
waveform differs from the sine sum by about 1e-13 of its peak; after int16
quantization the samples are the same (``tests/test_corpus.py`` keeps the
sine sum as its reference).
"""

import hashlib
import os
import wave
from dataclasses import dataclass, field

import numpy as np

from .archive import atomic_open, read_columns
from .errors import DataError, InvalidArgumentError
from .frontend import FRAME_LENGTH, FRAME_SHIFT, SAMPLE_RATE, n_frames_for_samples
from .workers import map_ordered

N_BANDS = 24
BAND_LOW_HZ = 100.0
BAND_HIGH_HZ = 3700.0
MIN_DURATION_MS = 80.0
MAX_DURATION_MS = 160.0
VOICED_PROB = 0.75
ENVELOPE_FLOOR = 0.5  # least envelope distance between any two phone templates
TRAIN_LANGUAGE = "E"
EVAL_LANGUAGES = ("A", "B")
HARMONIC_MAX_HZ = 3700.0
FADE_SAMPLES = 32
PITCH_RANGE_HZ = (70.0, 300.0)
FORMANT_SHIFT_RANGE = (0.8, 1.25)
TILT_RANGE_DB = (-9.0, 3.0)
GAIN_RANGE = (0.5, 1.2)

_BAND_CENTERS = np.geomspace(BAND_LOW_HZ, BAND_HIGH_HZ, N_BANDS)


def derive_rng(*parts) -> np.random.Generator:
    """Stable RNG keyed by a tuple of strings/ints (independent of hash seed)."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


@dataclass
class PhonePrototype:
    envelope: np.ndarray  # linear band gains over _BAND_CENTERS, > 0
    mean_duration_ms: float
    voiced: bool


@dataclass
class PhoneInventory:
    language_id: str
    phones: list

    def __post_init__(self):
        if not self.phones:
            raise InvalidArgumentError("inventory needs at least one phone")
        for p in self.phones:
            if not np.all(np.isfinite(p.envelope)) or np.any(p.envelope < 0):
                raise InvalidArgumentError("phone envelope gains must be finite and >= 0")

    @property
    def n_phones(self):
        return len(self.phones)


@dataclass
class SpeakerProfile:
    speaker_id: str
    pitch_hz: float
    formant_shift: float
    spectral_tilt_db_per_octave: float
    gain: float


@dataclass
class Utterance:
    utterance_id: str
    speaker_id: str
    language_id: str
    phone_segments: list  # (start_sample, phone_idx), start ascending
    samples: np.ndarray  # int16 mono at 8 kHz
    sample_rate: int = SAMPLE_RATE

    @property
    def duration_s(self):
        return len(self.samples) / self.sample_rate


def _centred_log_gain(envelope: np.ndarray) -> np.ndarray:
    log_gain = np.log(np.maximum(envelope, 1e-12))
    return log_gain - log_gain.mean()


def _envelope_distances(centred: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Scale-invariant distance from one band-gain envelope to each of ``others``.

    RMS difference of mean-removed log gains, so a global gain factor or a
    language-wide emphasis common to both templates does not count. Both
    sides are given as ``_centred_log_gain`` rows, computed once per
    template; ``others`` is (n, N_BANDS).
    """
    diff = centred - others
    return np.sqrt(np.mean(diff**2, axis=1))


def _smooth_curve(rng, scale, n=N_BANDS, window=5):
    raw = rng.normal(0.0, scale, n + window - 1)
    kernel = np.ones(window) / window
    return np.convolve(raw, kernel, mode="valid")


def make_inventory(seed, language_id, n_phones, emphasis_db=6.0,
                   avoid_inventories=()) -> PhoneInventory:
    """Create ``n_phones`` mutually distinct templates for one language.

    Templates are rejection-sampled so every within-inventory pair (and every
    pair against ``avoid_inventories``, used for cross-language disjointness)
    keeps an envelope distance above ``ENVELOPE_FLOOR``. A language-wide
    smooth band emphasis (up to +-emphasis_db) shifts the aggregate spectrum
    of the whole language, which is what makes enroll/test language mismatch
    a real distribution shift.
    """
    rng = derive_rng(seed, "inventory", language_id, n_phones)
    emphasis = _smooth_curve(rng, 1.0)
    emphasis = emphasis / max(np.abs(emphasis).max(), 1e-9) * emphasis_db
    taken = np.array(
        [_centred_log_gain(p.envelope) for inv in avoid_inventories for p in inv.phones]
    ).reshape(-1, N_BANDS)
    phones = []
    attempts = 0
    while len(phones) < n_phones:
        attempts += 1
        if attempts > 200 * n_phones:
            raise InvalidArgumentError(
                f"cannot place {n_phones} phones above distance floor {ENVELOPE_FLOOR}"
            )
        log_gain = _smooth_curve(rng, 2.5)
        log_gain -= log_gain.mean()
        envelope = np.exp(log_gain) * 10.0 ** (emphasis / 20.0)
        centred = _centred_log_gain(envelope)
        if np.all(_envelope_distances(centred, taken) >= ENVELOPE_FLOOR):
            phones.append(
                PhonePrototype(
                    envelope=envelope,
                    mean_duration_ms=float(rng.uniform(MIN_DURATION_MS, MAX_DURATION_MS)),
                    voiced=bool(rng.random() < VOICED_PROB),
                )
            )
            taken = np.vstack([taken, centred])
    return PhoneInventory(language_id=language_id, phones=phones)


def sample_speaker(seed, speaker_id) -> SpeakerProfile:
    """Draw a speaker profile; deterministic in (seed, speaker_id)."""
    rng = derive_rng(seed, "speaker", speaker_id)
    pitch = float(np.exp(rng.uniform(np.log(PITCH_RANGE_HZ[0]), np.log(PITCH_RANGE_HZ[1]))))
    shift = float(np.exp(rng.uniform(np.log(FORMANT_SHIFT_RANGE[0]), np.log(FORMANT_SHIFT_RANGE[1]))))
    tilt = float(rng.uniform(*TILT_RANGE_DB))
    gain = float(rng.uniform(*GAIN_RANGE))
    return SpeakerProfile(speaker_id, pitch, shift, tilt, gain)


def _envelope_at(envelope, freqs_hz, speaker: SpeakerProfile):
    """Evaluate a warped, tilted envelope at arbitrary frequencies."""
    log_gain = np.log(np.maximum(envelope, 1e-12))
    warped = np.interp(freqs_hz / speaker.formant_shift, _BAND_CENTERS, log_gain,
                       left=log_gain[0], right=log_gain[-1])
    octaves = np.log2(np.maximum(freqs_hz, 50.0) / 500.0)
    return np.exp(warped) * 10.0 ** (speaker.spectral_tilt_db_per_octave * octaves / 20.0)


def _apply_fade(sig):
    n = min(FADE_SAMPLES, len(sig) // 2)
    if n > 0:
        ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, n))
        sig[:n] *= ramp
        sig[-n:] *= ramp[::-1]
    return sig


def _render_segment(phone: PhonePrototype, speaker: SpeakerProfile, n_samples, rng):
    if n_samples <= 0:
        return np.zeros(0)
    if phone.voiced:
        f0 = speaker.pitch_hz * rng.uniform(0.95, 1.05)
        n_harm = max(1, int(HARMONIC_MAX_HZ / f0))
        amps = _envelope_at(phone.envelope, np.arange(1, n_harm + 1) * f0, speaker)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_harm)
        # Im(sum_k c_k z^k) with c_k = amps_k e^{i phases_k}, by Horner's rule
        coef = amps * np.exp(1j * phases)
        z = np.exp(1j * (2.0 * np.pi * f0 / SAMPLE_RATE) * np.arange(n_samples))
        acc = np.full(n_samples, coef[-1])
        for c in coef[-2::-1]:
            acc *= z
            acc += c
        acc *= z
        sig = acc.imag
    else:
        noise = rng.standard_normal(n_samples)
        spec = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / SAMPLE_RATE)
        sig = np.fft.irfft(spec * _envelope_at(phone.envelope, freqs, speaker), n=n_samples)
    return _apply_fade(sig)


def synth_utterance(speaker: SpeakerProfile, inventory: PhoneInventory, phone_sequence,
                    target_duration_s, seed=0, utterance_id="utt",
                    ) -> Utterance:
    """Render a phone sequence for one speaker.

    Per-phone durations start from the template means, are jittered, then
    rescaled so the total equals the target to within one sample. The whole
    waveform is peak-normalized and scaled by the speaker gain before 16-bit
    quantization.
    """
    phone_sequence = list(phone_sequence)
    if not phone_sequence:
        raise InvalidArgumentError("phone_sequence must be non-empty")
    for idx in phone_sequence:
        if not 0 <= idx < inventory.n_phones:
            raise InvalidArgumentError(
                f"phone index {idx} out of range for inventory of {inventory.n_phones}"
            )
    if target_duration_s <= 0:
        raise InvalidArgumentError("target duration must be positive")
    rng = derive_rng(seed, "synth", utterance_id)
    total_samples = int(round(target_duration_s * SAMPLE_RATE))
    nominal = np.array(
        [inventory.phones[i].mean_duration_ms for i in phone_sequence]
    ) * rng.uniform(0.85, 1.15, len(phone_sequence))
    bounds = np.round(np.concatenate([[0.0], np.cumsum(nominal)]) / nominal.sum()
                      * total_samples).astype(int)
    pieces = []
    segments = []
    for i, phone_idx in enumerate(phone_sequence):
        n = bounds[i + 1] - bounds[i]
        if n <= 0:
            continue
        segments.append((int(bounds[i]), int(phone_idx)))
        pieces.append(_render_segment(inventory.phones[phone_idx], speaker, n, rng))
    sig = np.concatenate(pieces) if pieces else np.zeros(total_samples)
    peak = np.abs(sig).max()
    if peak > 0:
        sig = sig / peak * 0.45
    sig = np.clip(sig * speaker.gain, -1.0, 1.0)
    samples = np.round(sig * 32767.0).astype(np.int16)
    return Utterance(utterance_id, speaker.speaker_id, inventory.language_id,
                     segments, samples)


def frame_labels(utterance: Utterance, n_frames=None) -> np.ndarray:
    """Per-frame phone labels; frame t is labeled by the phone at its center."""
    if n_frames is None:
        n_frames = n_frames_for_samples(len(utterance.samples))
    starts = np.array([s for s, _ in utterance.phone_segments])
    phones = np.array([p for _, p in utterance.phone_segments])
    centers = np.minimum(FRAME_SHIFT * np.arange(n_frames) + FRAME_LENGTH // 2,
                         len(utterance.samples) - 1)
    seg = np.searchsorted(starts, centers, side="right") - 1
    return phones[np.maximum(seg, 0)]


def label_runs(labels: np.ndarray):
    """Run-length encode per-frame labels as (start_frame, phone_idx) pairs."""
    runs = []
    for t, lab in enumerate(labels):
        if not runs or runs[-1][1] != int(lab):
            runs.append((t, int(lab)))
    return runs


@dataclass
class CorpusConfig:
    n_train_speakers: int = 200
    n_train_utts: int = 20
    n_eval_speakers: int = 40
    n_eval_utts: int = 10
    n_phones: int = 48
    min_duration_s: float = 2.0
    max_duration_s: float = 3.0
    language_emphasis_db: float = 6.0


@dataclass
class UttRecord:
    utterance_id: str
    speaker_id: str
    language_id: str
    rel_path: str
    duration_s: float


@dataclass
class CorpusManifest:
    root: str
    train_speakers: list
    eval_speakers: list
    records: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)  # utt_id -> [(start_frame, phone_idx)]

    def utterances(self, split):
        """Records of the ``"train"`` or ``"eval"`` speakers, in manifest order."""
        if split not in ("train", "eval"):
            raise InvalidArgumentError(f"unknown split {split!r}")
        train = set(self.train_speakers)
        return [r for r in self.records if (r.speaker_id in train) == (split == "train")]

    def wav_path(self, rec: UttRecord):
        return os.path.join(self.root, rec.rel_path)

    def save(self):
        lines = [
            f"{r.utterance_id}\t{r.speaker_id}\t{r.language_id}\t{r.rel_path}\t{r.duration_s:.3f}\n"
            for r in self.records
        ]
        with atomic_open(os.path.join(self.root, "manifest.tsv")) as fh:
            fh.writelines(lines)
        with atomic_open(os.path.join(self.root, "labels.tsv")) as fh:
            for r in self.records:
                runs = ",".join(f"{s}:{p}" for s, p in self.labels[r.utterance_id])
                fh.write(f"{r.utterance_id}\t{runs}\n")
        with atomic_open(os.path.join(self.root, "speakers.tsv")) as fh:
            for spk in self.train_speakers:
                fh.write(f"{spk}\ttrain\n")
            for spk in self.eval_speakers:
                fh.write(f"{spk}\teval\n")

    @classmethod
    def load(cls, root):
        """The manifest under ``root``; a ``DataError`` names the TSV at fault."""
        manifest_path, labels_path, speakers_path = (
            os.path.join(root, name) for name in ("manifest.tsv", "labels.tsv", "speakers.tsv"))
        if not os.path.exists(manifest_path):
            raise DataError(f"no corpus manifest at {manifest_path}")
        utts, spks, langs, rels, durs = read_columns(manifest_path, 5)
        labelled, runs = read_columns(labels_path, 2)
        speakers, splits = read_columns(speakers_path, 2)
        try:
            records = [UttRecord(*row, float(dur))
                       for *row, dur in zip(utts, spks, langs, rels, durs)]
        except ValueError as exc:
            raise DataError(f"{manifest_path}: {exc}") from None
        try:
            labels = {
                utt: [(int(s), int(p)) for s, p in (r.split(":") for r in run.split(","))]
                for utt, run in zip(labelled, runs)
            }
        except ValueError as exc:
            raise DataError(f"{labels_path}: {exc}") from None
        if sorted(labelled) != sorted(utts):
            raise DataError(f"{labels_path}: not one row per utterance of manifest.tsv")
        odd = sorted(set(splits) - {"train", "eval"})
        if odd:
            raise DataError(f"{speakers_path}: split {odd[0]!r} is neither train nor eval")
        unlisted = sorted(set(spks) - set(speakers))
        if unlisted:
            raise DataError(f"{speakers_path}: no row for speaker {unlisted[0]!r} of manifest.tsv")
        train_speakers = [spk for spk, split in zip(speakers, splits) if split == "train"]
        eval_speakers = [spk for spk, split in zip(speakers, splits) if split == "eval"]
        return cls(root, train_speakers, eval_speakers, records, labels)


def _write_wav(path, samples):
    with atomic_open(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(samples.astype("<i2").tobytes())


def read_wav(path) -> np.ndarray:
    with wave.open(path, "rb") as fh:
        if fh.getframerate() != SAMPLE_RATE or fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise DataError(f"{path}: expected 16-bit mono {SAMPLE_RATE} Hz WAV")
        return np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")


def build_corpus(config: CorpusConfig, seed, out_dir) -> CorpusManifest:
    """Synthesize the full train/eval corpus under ``out_dir``.

    Train speakers get utterances in ``TRAIN_LANGUAGE`` only; every eval
    speaker gets the configured number of utterances in each of
    ``EVAL_LANGUAGES``.
    Byte-identical on rebuild with the same (config, seed).
    """
    inventories = {}
    for lang in (TRAIN_LANGUAGE, *EVAL_LANGUAGES):
        inventories[lang] = make_inventory(
            seed, lang, config.n_phones,
            emphasis_db=config.language_emphasis_db,
            avoid_inventories=list(inventories.values()),
        )

    os.makedirs(out_dir, exist_ok=True)

    train_speakers = [f"trn{i:04d}" for i in range(config.n_train_speakers)]
    eval_speakers = [f"evl{i:04d}" for i in range(config.n_eval_speakers)]
    plan = []
    for spk in train_speakers:
        for j in range(config.n_train_utts):
            plan.append((spk, TRAIN_LANGUAGE, f"{spk}-{TRAIN_LANGUAGE}-{j:03d}"))
    for spk in eval_speakers:
        for lang in EVAL_LANGUAGES:
            for j in range(config.n_eval_utts):
                plan.append((spk, lang, f"{spk}-{lang}-{j:03d}"))

    manifest = CorpusManifest(str(out_dir), train_speakers, eval_speakers)
    mean_dur_s = {
        lang: np.mean([p.mean_duration_ms for p in inv.phones]) / 1000.0
        for lang, inv in inventories.items()
    }

    def synth_one(entry):
        spk, lang, utt_id = entry
        profile = sample_speaker(seed, spk)
        inventory = inventories[lang]
        urng = derive_rng(seed, "utt", utt_id)
        target = float(urng.uniform(config.min_duration_s, config.max_duration_s))
        seq_len = max(1, int(np.ceil(target / mean_dur_s[lang])))
        sequence = urng.integers(0, inventory.n_phones, seq_len)
        utt = synth_utterance(profile, inventory, sequence, target,
                              seed=seed, utterance_id=utt_id)
        rel = os.path.join("wav", spk, f"{utt_id}.wav")
        os.makedirs(os.path.join(out_dir, "wav", spk), exist_ok=True)
        _write_wav(os.path.join(out_dir, rel), utt.samples)
        return UttRecord(utt_id, spk, lang, rel, utt.duration_s), label_runs(frame_labels(utt))

    for rec, runs in map_ordered(synth_one, plan):
        manifest.records.append(rec)
        manifest.labels[rec.utterance_id] = runs
    manifest.save()
    return manifest


def expand_labels(runs, n_frames) -> np.ndarray:
    """Expand (start_frame, phone_idx) runs into a per-frame label array."""
    labels = np.zeros(n_frames, dtype=np.int64)
    for i, (start, phone) in enumerate(runs):
        end = runs[i + 1][0] if i + 1 < len(runs) else n_frames
        labels[start:min(end, n_frames)] = phone
    return labels


def load_utterance(manifest: CorpusManifest, rec: UttRecord) -> Utterance:
    """Reload a corpus utterance's audio from disk (labels live in the manifest)."""
    samples = read_wav(manifest.wav_path(rec))
    return Utterance(rec.utterance_id, rec.speaker_id, rec.language_id, [], samples)
