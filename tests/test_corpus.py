"""Synthetic corpus generation: determinism, separation, structure."""

import hashlib
import itertools
import os

import numpy as np
import pytest

from xldv import corpus
from xldv.corpus import (
    CorpusConfig,
    CorpusManifest,
    build_corpus,
    expand_labels,
    frame_labels,
    label_runs,
    make_inventory,
    read_wav,
    sample_speaker,
    synth_utterance,
)
from xldv.errors import InvalidArgumentError
from xldv.frontend import n_frames_for_samples

TINY = CorpusConfig(
    n_train_speakers=3, n_train_utts=2, n_eval_speakers=2, n_eval_utts=2,
    n_phones=5, min_duration_s=1.0, max_duration_s=1.5,
)


def envelope_distance(a, b) -> float:
    """The scalar definition that ``corpus._envelope_distances`` vectorises:
    RMS difference of the two envelopes' mean-removed log gains."""
    diff = corpus._centred_log_gain(a) - corpus._centred_log_gain(b)
    return float(np.sqrt(np.mean(diff**2)))


class TestInventory:
    def test_single_phone(self):
        assert make_inventory(7, "A", 1).n_phones == 1

    def test_deterministic(self):
        a = make_inventory(7, "A", 10)
        b = make_inventory(7, "A", 10)
        for pa, pb in zip(a.phones, b.phones):
            np.testing.assert_array_equal(pa.envelope, pb.envelope)
            assert pa.mean_duration_ms == pb.mean_duration_ms
            assert pa.voiced == pb.voiced

    def test_cross_language_distance_floor_brute_force(self):
        a = make_inventory(7, "A", 10)
        b = make_inventory(7, "B", 10)
        dists = [
            envelope_distance(pa.envelope, pb.envelope)
            for pa in a.phones
            for pb in b.phones
        ]
        assert min(dists) > 0.5

    def test_within_language_distance_floor(self):
        inv = make_inventory(3, "E", 20)
        dists = [
            envelope_distance(inv.phones[i].envelope, inv.phones[j].envelope)
            for i in range(20)
            for j in range(i + 1, 20)
        ]
        assert min(dists) >= 0.5

    def test_zero_phones_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_inventory(7, "A", 0)

    def test_vectorized_distances_equal_scalar_function(self):
        a = make_inventory(7, "A", 12)
        b = make_inventory(7, "B", 12, avoid_inventories=[a])
        envelopes = [p.envelope for inv in (a, b) for p in inv.phones]
        centred = np.array([corpus._centred_log_gain(e) for e in envelopes])
        for i, e in enumerate(envelopes):
            row = corpus._envelope_distances(centred[i], centred)
            assert row.tolist() == [envelope_distance(e, other) for other in envelopes]

    def test_inventories_equal_with_pairwise_scalar_distances(self, monkeypatch):
        def build():
            a = make_inventory(5, "A", 10)
            return [a, make_inventory(5, "B", 10, avoid_inventories=[a])]

        fast = build()

        def one_pair_at_a_time(centred, others):
            return np.array([np.sqrt(np.mean((centred - o) ** 2)) for o in others])

        monkeypatch.setattr(corpus, "_envelope_distances", one_pair_at_a_time)
        slow = build()
        for inv_f, inv_s in zip(fast, slow):
            for pf, ps in zip(inv_f.phones, inv_s.phones, strict=True):
                assert pf.envelope.tobytes() == ps.envelope.tobytes()
                assert (pf.mean_duration_ms, pf.voiced) == (ps.mean_duration_ms, ps.voiced)

    def test_languages_built_in_turn_keep_every_cross_pair_above_the_floor(self):
        # as build_corpus makes them: E, then A avoiding E, then B avoiding both.
        # Without the language emphasis, templates made without avoid lists
        # come as close as 0.408 here.
        inventories = []
        for lang in (corpus.TRAIN_LANGUAGE, *corpus.EVAL_LANGUAGES):
            inventories.append(make_inventory(0, lang, 48, emphasis_db=0.0,
                                              avoid_inventories=inventories))
        for i, inv_a in enumerate(inventories):
            for inv_b in inventories[i + 1:]:
                for pa, pb in itertools.product(inv_a.phones, inv_b.phones):
                    distance = envelope_distance(pa.envelope, pb.envelope)
                    assert distance >= corpus.ENVELOPE_FLOOR, (inv_a.language_id, inv_b.language_id)


class TestSpeakerSampling:
    def test_deterministic(self):
        assert sample_speaker(4, "s1") == sample_speaker(4, "s1")

    def test_ranges(self):
        for i in range(100):
            p = sample_speaker(9, f"spk{i}")
            assert 70.0 <= p.pitch_hz <= 300.0
            assert 0.8 <= p.formant_shift <= 1.25
            assert p.gain > 0
            assert np.isfinite(p.spectral_tilt_db_per_octave)

    def test_profiles_rarely_collide(self):
        pairs = {
            (sample_speaker(9, f"spk{i}").pitch_hz, sample_speaker(9, f"spk{i}").formant_shift)
            for i in range(100)
        }
        assert len(pairs) >= 99


class TestSynthUtterance:
    def setup_method(self):
        self.inv = make_inventory(11, "E", 8)
        self.spk = sample_speaker(11, "spkA")

    def test_duration_contract(self):
        utt = synth_utterance(self.spk, self.inv, [0, 1, 2, 3, 4], 2.5, seed=1)
        d_bar = max(p.mean_duration_ms for p in self.inv.phones) / 1000.0
        assert abs(utt.duration_s - 2.5) <= d_bar
        assert utt.sample_rate == 8000
        assert utt.samples.dtype == np.int16

    def test_zero_gain_silence(self):
        spk = sample_speaker(11, "spkB")
        spk.gain = 0.0
        utt = synth_utterance(spk, self.inv, [0, 1], 1.0, seed=2)
        assert np.all(utt.samples == 0)

    def test_deterministic(self):
        a = synth_utterance(self.spk, self.inv, [1, 2, 3], 1.5, seed=5, utterance_id="u")
        b = synth_utterance(self.spk, self.inv, [1, 2, 3], 1.5, seed=5, utterance_id="u")
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_speakers_separated_by_ltas_oracle(self):
        # Oracle: long-term average log spectrum over 256-point frames.
        def ltas(utt):
            x = utt.samples.astype(np.float64) / 32768.0
            frames = x[: len(x) // 256 * 256].reshape(-1, 256)
            power = (np.abs(np.fft.rfft(frames, axis=1)) ** 2).mean(axis=0)
            return np.log(np.maximum(power, 1e-12))

        s1 = sample_speaker(11, "spk1")
        s2 = sample_speaker(11, "spk2")
        u1 = synth_utterance(s1, self.inv, [0, 1, 2, 3] * 4, 2.5, seed=3, utterance_id="u")
        u2 = synth_utterance(s2, self.inv, [0, 1, 2, 3] * 4, 2.5, seed=3, utterance_id="u")
        dist = np.sqrt(np.mean((ltas(u1) - ltas(u2)) ** 2))
        assert dist > 0.5  # floor measured offline across seeds: typical 1.5-4

    def test_invalid_phone_index(self):
        with pytest.raises(InvalidArgumentError):
            synth_utterance(self.spk, self.inv, [0, 99], 1.0, seed=1)

    def test_empty_sequence(self):
        with pytest.raises(InvalidArgumentError):
            synth_utterance(self.spk, self.inv, [], 1.0, seed=1)


def sine_sum_render(phone, speaker, n_samples, rng):
    """The reference ``_render_segment``: one sine per (sample, harmonic) pair."""
    if n_samples <= 0:
        return np.zeros(0)
    if phone.voiced:
        f0 = speaker.pitch_hz * rng.uniform(0.95, 1.05)
        n_harm = max(1, int(corpus.HARMONIC_MAX_HZ / f0))
        k = np.arange(1, n_harm + 1)
        amps = corpus._envelope_at(phone.envelope, k * f0, speaker)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_harm)
        t = np.arange(n_samples) / corpus.SAMPLE_RATE
        sig = np.sin(2.0 * np.pi * f0 * np.outer(t, k) + phases) @ amps
    else:
        noise = rng.standard_normal(n_samples)
        spec = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / corpus.SAMPLE_RATE)
        sig = np.fft.irfft(spec * corpus._envelope_at(phone.envelope, freqs, speaker),
                           n=n_samples)
    return corpus._apply_fade(sig)


class TestRenderSegment:
    """The phasor rendering against the sine sum it replaced."""

    # the pitch range's ends give the most harmonics (about 52) and the fewest (12)
    @pytest.mark.parametrize("pitch", corpus.PITCH_RANGE_HZ)
    @pytest.mark.parametrize("shift", corpus.FORMANT_SHIFT_RANGE)
    @pytest.mark.parametrize("n", [1, 2, 33, 2 * corpus.FADE_SAMPLES - 1, 1000])
    def test_voiced_matches_sine_sum(self, pitch, shift, n):
        inv = make_inventory(13, "E", 4)
        phone = corpus.PhonePrototype(inv.phones[0].envelope, 100.0, voiced=True)
        speaker = corpus.SpeakerProfile("s", pitch, shift, -3.0, 1.0)
        rng, ref_rng = (np.random.default_rng(7) for _ in range(2))
        out = corpus._render_segment(phone, speaker, n, rng)
        ref = sine_sum_render(phone, speaker, n, ref_rng)
        assert out.shape == ref.shape == (n,)
        assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()
        assert rng.random() == ref_rng.random()  # the same draws, in the same order

    def test_corpus_samples_equal_the_sine_sum_corpus(self, tmp_path, monkeypatch):
        build_corpus(TINY, 42, tmp_path / "phasor")
        monkeypatch.setattr(corpus, "_render_segment", sine_sum_render)
        manifest = build_corpus(TINY, 42, tmp_path / "sines")
        assert any(p.voiced for p in make_inventory(42, "E", TINY.n_phones).phones)
        for rec in manifest.records:
            np.testing.assert_array_equal(
                read_wav(str(tmp_path / "phasor" / rec.rel_path)),
                read_wav(str(tmp_path / "sines" / rec.rel_path)), err_msg=rec.utterance_id)


class TestLabels:
    def test_labels_align_with_segments_within_one_frame(self):
        inv = make_inventory(2, "E", 6)
        spk = sample_speaker(2, "s")
        utt = synth_utterance(spk, inv, [0, 3, 1, 4, 2], 2.0, seed=7)
        n = n_frames_for_samples(len(utt.samples))
        labels = frame_labels(utt)
        assert labels.shape == (n,)
        for start_sample, phone in utt.phone_segments:
            # the frame whose center first falls in the segment gets its label
            frame = int(np.ceil((start_sample - 100) / 80))
            frame = min(max(frame, 0), n - 1)
            assert labels[min(frame + 1, n - 1)] == phone or labels[frame] == phone

    def test_run_length_round_trip(self):
        inv = make_inventory(2, "E", 6)
        utt = synth_utterance(sample_speaker(2, "s"), inv, [0, 1, 0, 2], 1.5, seed=9)
        labels = frame_labels(utt)
        runs = label_runs(labels)
        np.testing.assert_array_equal(expand_labels(runs, len(labels)), labels)


class TestBuildCorpus:
    def test_counts_and_manifest(self, tmp_path):
        manifest = build_corpus(TINY, 42, tmp_path / "corpus")
        train = manifest.utterances("train")
        evals = manifest.utterances("eval")
        assert len(train) == 3 * 2
        assert len(evals) == 2 * 2 * 2
        assert not set(manifest.train_speakers) & set(manifest.eval_speakers)
        for rec in manifest.records:
            path = manifest.wav_path(rec)
            assert os.path.exists(path)
            samples = read_wav(path)
            assert TINY.min_duration_s - 0.01 <= len(samples) / 8000 <= TINY.max_duration_s + 0.01

    def test_eval_speakers_cover_both_languages(self, tmp_path):
        manifest = build_corpus(TINY, 42, tmp_path / "corpus")
        for spk in manifest.eval_speakers:
            for lang in ("A", "B"):
                utts = [r for r in manifest.records
                        if r.speaker_id == spk and r.language_id == lang]
                assert len(utts) == TINY.n_eval_utts

    def test_regeneration_byte_identical(self, tmp_path):
        def tree_digest(root):
            digest = hashlib.sha256()
            for dirpath, _, files in sorted(os.walk(root)):
                for name in sorted(files):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        digest.update(name.encode())
                        digest.update(fh.read())
            return digest.hexdigest()

        build_corpus(TINY, 42, tmp_path / "c1")
        build_corpus(TINY, 42, tmp_path / "c2")
        assert tree_digest(tmp_path / "c1") == tree_digest(tmp_path / "c2")

    def test_manifest_load_round_trip(self, tmp_path):
        manifest = build_corpus(TINY, 42, tmp_path / "corpus")
        loaded = CorpusManifest.load(tmp_path / "corpus")
        assert loaded.train_speakers == manifest.train_speakers
        assert loaded.eval_speakers == manifest.eval_speakers
        assert loaded.labels == manifest.labels
        assert [r.utterance_id for r in loaded.records] == [
            r.utterance_id for r in manifest.records
        ]
