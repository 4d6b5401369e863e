"""Trials, scoring, EER (with a brute-force oracle), and the results grid."""

import itertools

import numpy as np
import pytest

from xldv.backend import CosineScorer
from xldv.corpus import CorpusConfig, CorpusManifest, UttRecord, build_corpus
from xldv.errors import InvalidArgumentError
from xldv.evalkit import (
    EERResult,
    ScoreSet,
    TrialList,
    compute_eer,
    make_trials,
    results_table,
    score_trials,
)


def toy_manifest(n_spk=2, utts_per_lang=2, languages=("A", "B")):
    records = []
    speakers = [f"evl{i}" for i in range(n_spk)]
    for spk in speakers:
        for lang in languages:
            for j in range(utts_per_lang):
                utt = f"{spk}-{lang}-{j}"
                records.append(UttRecord(utt, spk, lang, f"{utt}.wav", 2.0))
    return CorpusManifest("/nowhere", [], speakers, records, {})


def brute_force_eer(tar, non):
    """O(n^2) sweep: same midpoint candidates, counting by explicit loops."""
    scores = sorted(set(list(tar) + list(non)))
    candidates = [scores[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(scores[:-1], scores[1:])]
    candidates += [scores[-1] + 1.0]
    far = []
    frr = []
    for theta in candidates:
        far.append(sum(1 for s in non if s >= theta) / len(non))
        frr.append(sum(1 for s in tar if s < theta) / len(tar))
    for k in range(len(candidates) - 1):
        d0 = far[k] - frr[k]
        d1 = far[k + 1] - frr[k + 1]
        if d0 >= 0.0 > d1:
            t = 0.0 if d0 == d1 else d0 / (d0 - d1)
            return far[k] + t * (far[k + 1] - far[k])
    raise AssertionError("no crossing found")


class TestMakeTrials:
    def test_two_speaker_counting(self):
        manifest = toy_manifest(n_spk=2, utts_per_lang=2)
        trials = make_trials(manifest, "A-A")
        n_target = sum(t.target for t in trials.trials)
        assert n_target == 2  # C(2,2) per speaker * 2 speakers
        assert len(trials) - n_target == 4  # C(4,2) - 2

    def test_target_formula_vs_enumeration(self):
        for n_spk, u in itertools.product((2, 3, 4), (2, 3)):
            manifest = toy_manifest(n_spk=n_spk, utts_per_lang=u)
            trials = make_trials(manifest, "A-A")
            assert sum(t.target for t in trials.trials) == n_spk * (u * (u - 1) // 2)
            total = (n_spk * u) * (n_spk * u - 1) // 2
            assert len(trials) == total
            for t in trials.trials:
                assert t.enroll != t.test

    def test_fullscale_target_count(self):
        n_spk, u = 181, 10
        assert n_spk * (u * (u - 1) // 2) == 8145  # complete-data count

    def test_cross_condition_counts_and_languages(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=2)
        trials = make_trials(manifest, "A/B")
        assert len(trials) == (3 * 2) ** 2  # n_spk^2 * u^2
        assert sum(t.target for t in trials.trials) == 3 * 2 * 2
        for t in trials.trials:
            assert t.enroll.split("-")[1] == "A"
            assert t.test.split("-")[1] == "B"

    def test_deterministic_regeneration(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=3)
        t1 = make_trials(manifest, "A/B")
        t2 = make_trials(manifest, "A/B")
        assert t1 == t2

    def test_missing_language_coverage_names_speaker(self):
        manifest = toy_manifest(n_spk=2, utts_per_lang=1)
        manifest.records = [r for r in manifest.records if not (
            r.speaker_id == "evl1" and r.language_id == "B")]
        with pytest.raises(InvalidArgumentError, match="evl1"):
            make_trials(manifest, "A/B")

    def test_trial_file_round_trip(self, tmp_path):
        manifest = toy_manifest()
        trials = make_trials(manifest, "B-B")
        path = tmp_path / "trials.tsv"
        trials.save(path)
        assert TrialList.load(path, "B-B") == trials


class TestScoreTrials:
    def _embeddings(self, manifest):
        rng = np.random.default_rng(0)
        return {r.utterance_id: rng.normal(size=8) for r in manifest.records}

    def test_single_trial(self):
        manifest = toy_manifest()
        emb = self._embeddings(manifest)
        trials = TrialList("A-A", make_trials(manifest, "A-A").trials[:1])
        scores = score_trials(CosineScorer(), emb, trials)
        assert scores.scores.shape == (1,)

    def test_symmetric_scorer_swap_invariance(self):
        manifest = toy_manifest()
        emb = self._embeddings(manifest)
        trials = make_trials(manifest, "A-A")
        swapped = TrialList(
            "A-A", [type(t)(t.test, t.enroll, t.target) for t in trials.trials]
        )
        s1 = score_trials(CosineScorer(), emb, trials).scores
        s2 = score_trials(CosineScorer(), emb, swapped).scores
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_subset_consistent_with_full_run(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=3)
        emb = self._embeddings(manifest)
        trials = make_trials(manifest, "A/B")
        full = score_trials(CosineScorer(), emb, trials).scores
        idx = np.random.default_rng(1).choice(len(trials), 10, replace=False)
        sub = TrialList("A/B", [trials.trials[i] for i in idx])
        np.testing.assert_array_equal(
            score_trials(CosineScorer(), emb, sub).scores, full[idx]
        )

    def test_missing_embedding_names_utterance(self):
        manifest = toy_manifest()
        emb = self._embeddings(manifest)
        emb.pop("evl0-A-1")
        with pytest.raises(InvalidArgumentError, match="evl0-A-1"):
            score_trials(CosineScorer(), emb, make_trials(manifest, "A-A"))


class TestComputeEer:
    def test_perfect_separation(self):
        res = compute_eer([0.9, 0.8], [0.1, 0.2])
        assert res.eer == 0.0
        assert res.n_target == 2 and res.n_nontarget == 2

    def test_identical_multisets_chance(self):
        res = compute_eer([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        np.testing.assert_allclose(res.eer, 0.5, atol=1e-12)

    def test_matches_brute_force_sweep_exactly(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            n_tar = int(rng.integers(1, 30))
            n_non = int(rng.integers(1, 30))
            tar = rng.normal(0.5, 1.0, n_tar)
            non = rng.normal(-0.5, 1.0, n_non)
            fast = compute_eer(tar, non).eer
            slow = brute_force_eer(tar.tolist(), non.tolist())
            assert fast == slow, f"mismatch on case {trial}"

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(3)
        tar = rng.normal(1.0, 1.0, 40)
        non = rng.normal(-1.0, 1.0, 60)
        base = compute_eer(tar, non).eer
        assert compute_eer(np.exp(tar), np.exp(non)).eer == base
        assert compute_eer(2 * tar + 1, 2 * non + 1).eer == base

    def test_negate_and_swap_labels_preserves_eer(self):
        rng = np.random.default_rng(4)
        tar = rng.normal(0.8, 1.0, 30)
        non = rng.normal(-0.2, 1.0, 50)
        base = compute_eer(tar, non).eer
        flipped = compute_eer(-non, -tar).eer
        np.testing.assert_allclose(flipped, base, atol=1e-12)

    def test_eer_range_on_separated_scores(self):
        # the interpolated crossing sits in [0, 0.5] whenever targets score
        # higher on average (worse-than-chance score sets can exceed 0.5)
        rng = np.random.default_rng(5)
        for _ in range(30):
            tar = rng.normal(0.75, 1.0, 25)
            non = rng.normal(-0.75, 1.0, 25)
            res = compute_eer(tar, non)
            assert 0.0 <= res.eer <= 0.5 + 1e-12

    def test_threshold_at_crossing(self):
        res = compute_eer([1.0, 3.0], [0.0, 2.0])
        far = np.mean([0.0, 2.0] >= np.full(2, res.threshold))
        frr = np.mean([1.0, 3.0] < np.full(2, res.threshold))
        assert abs(far - frr) <= 0.5  # step functions bracket the crossing

    def test_missing_class_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compute_eer([], [0.1])

    def test_score_set_split(self):
        manifest = toy_manifest()
        trials = make_trials(manifest, "A-A")
        rng = np.random.default_rng(6)
        emb = {r.utterance_id: rng.normal(size=4) for r in manifest.records}
        scores = score_trials(CosineScorer(), emb, trials)
        tar, non = scores.split()
        n_target = sum(t.target for t in trials.trials)
        assert len(tar) == n_target
        assert len(non) == len(trials) - n_target
        res = compute_eer(*scores.split())
        assert 0.0 <= res.eer <= 1.0


class TestResultsTable:
    CONDITIONS = ("A-A", "B-B", "A/B")

    def test_empty_grid_header_only(self):
        tsv, text = results_table({}, self.CONDITIONS)
        assert tsv.splitlines() == ["System\tMetric\tA-A EER%\tB-B EER%\tA/B EER%"]
        assert len(text.splitlines()) == 1

    def test_single_cell(self):
        res = {("ivector", "plda", "A-A"): EERResult(0.0531, 0.2, 10, 10)}
        tsv, _ = results_table(res, self.CONDITIONS)
        lines = tsv.splitlines()
        assert len(lines) == 2
        assert lines[1] == "ivector\tplda\t5.31\t-\t-"

    def test_full_grid_golden(self):
        systems = ("ivector", "dvector-phone-blind", "dvector-phone-aware")
        metrics = ("cosine", "lda", "plda")
        res = {}
        value = 0.01
        for s in systems:
            for m in metrics:
                for c in self.CONDITIONS:
                    res[(s, m, c)] = EERResult(value, 0.0, 5, 5)
                    value += 0.01
        tsv, text = results_table(res, self.CONDITIONS)
        expected = (
            "System\tMetric\tA-A EER%\tB-B EER%\tA/B EER%\n"
            "ivector\tcosine\t1.00\t2.00\t3.00\n"
            "ivector\tlda\t4.00\t5.00\t6.00\n"
            "ivector\tplda\t7.00\t8.00\t9.00\n"
            "dvector-phone-blind\tcosine\t10.00\t11.00\t12.00\n"
            "dvector-phone-blind\tlda\t13.00\t14.00\t15.00\n"
            "dvector-phone-blind\tplda\t16.00\t17.00\t18.00\n"
            "dvector-phone-aware\tcosine\t19.00\t20.00\t21.00\n"
            "dvector-phone-aware\tlda\t22.00\t23.00\t24.00\n"
            "dvector-phone-aware\tplda\t25.00\t26.00\t27.00\n"
        )
        assert tsv == expected
        assert len(text.splitlines()) == 10


def test_trials_on_real_corpus(tmp_path):
    config = CorpusConfig(
        n_train_speakers=2, n_train_utts=1, n_eval_speakers=3, n_eval_utts=2,
        n_phones=4, min_duration_s=1.0, max_duration_s=1.2,
    )
    manifest = build_corpus(config, 99, tmp_path / "c")
    for cond, expected_len in (("A-A", 15), ("B-B", 15), ("A/B", 36)):
        trials = make_trials(manifest, cond)
        assert len(trials) == expected_len
