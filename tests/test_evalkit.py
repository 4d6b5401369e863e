"""Trials, scoring, EER (with a brute-force oracle), and the results grid."""

import itertools

import numpy as np
import pytest

from backend_reference import cosine_score
from xldv.backend import CosineScorer, EmbeddingSet, PLDAScorer, TrainingSpan, train_lda, train_plda
from xldv.corpus import CorpusConfig, CorpusManifest, UttRecord, build_corpus
from xldv.errors import InvalidArgumentError, NumericError
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


def trial_columns(trials):
    return trials.enroll, trials.test, trials.target.tolist()


def subset(trials, idx):
    """The trials at positions ``idx``, in that order."""
    return TrialList([trials.enroll[i] for i in idx],
                     [trials.test[i] for i in idx], trials.target[idx])


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
        n_target = trials.target.sum()
        assert n_target == 2  # C(2,2) per speaker * 2 speakers
        assert len(trials) - n_target == 4  # C(4,2) - 2

    def test_target_formula_vs_enumeration(self):
        for n_spk, u in itertools.product((2, 3, 4), (2, 3)):
            manifest = toy_manifest(n_spk=n_spk, utts_per_lang=u)
            trials = make_trials(manifest, "A-A")
            assert trials.target.sum() == n_spk * (u * (u - 1) // 2)
            total = (n_spk * u) * (n_spk * u - 1) // 2
            assert len(trials) == len(trials.test) == len(trials.target) == total
            for enroll, test, target in zip(*trial_columns(trials)):
                assert enroll != test
                assert target == (enroll.split("-")[0] == test.split("-")[0])

    def test_fullscale_target_count(self):
        n_spk, u = 181, 10
        assert n_spk * (u * (u - 1) // 2) == 8145  # complete-data count

    def test_cross_condition_counts_and_languages(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=2)
        trials = make_trials(manifest, "A/B")
        assert len(trials) == (3 * 2) ** 2  # n_spk^2 * u^2
        assert trials.target.sum() == 3 * 2 * 2
        for enroll, test in zip(trials.enroll, trials.test):
            assert enroll.split("-")[1] == "A"
            assert test.split("-")[1] == "B"

    def test_deterministic_regeneration(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=3)
        t1 = make_trials(manifest, "A/B")
        t2 = make_trials(manifest, "A/B")
        assert trial_columns(t1) == trial_columns(t2)

    def test_missing_language_coverage_names_speaker(self):
        manifest = toy_manifest(n_spk=2, utts_per_lang=1)
        manifest.records = [r for r in manifest.records if not (
            r.speaker_id == "evl1" and r.language_id == "B")]
        with pytest.raises(InvalidArgumentError, match="evl1"):
            make_trials(manifest, "A/B")

    def test_trial_file_round_trip(self, tmp_path):
        for condition in ("B-B", "A/B"):
            trials = make_trials(toy_manifest(n_spk=3), condition)
            path = tmp_path / "trials.tsv"
            trials.save(path)
            back = TrialList.load(path)
            assert back.target.dtype == bool
            assert trial_columns(back) == trial_columns(trials)
            labels = [line.split("\t")[2] for line in path.read_text().splitlines()]
            assert labels == ["target" if y else "nontarget" for y in trials.target]

    def test_empty_trial_file_round_trip(self, tmp_path):
        trials = make_trials(toy_manifest(n_spk=1, utts_per_lang=1), "A-A")
        assert len(trials) == 0
        path = tmp_path / "trials.tsv"
        trials.save(path)
        assert path.read_bytes() == b""
        assert trial_columns(TrialList.load(path)) == ([], [], [])

    @pytest.mark.parametrize("text", [
        "u1\tu2\n", "u1\tu2\ttarget\textra\n", "u1\tu2\tmaybe\n",
    ], ids=["two-fields", "four-fields", "bad-label"])
    def test_malformed_trial_file_rejected(self, tmp_path, text):
        path = tmp_path / "trials.tsv"
        path.write_text("u0\tu1\tnontarget\n" + text)
        with pytest.raises(InvalidArgumentError, match="trials.tsv"):
            TrialList.load(path)


class TestScoreTrials:
    def _embeddings(self, manifest):
        rng = np.random.default_rng(0)
        records = manifest.records
        return EmbeddingSet([r.utterance_id for r in records],
                            rng.normal(size=(len(records), 8)))

    def _rows(self, emb, utts):
        return [emb.vectors[emb.utterance_ids.index(u)] for u in utts]

    def test_single_trial(self):
        manifest = toy_manifest()
        emb = self._embeddings(manifest)
        trials = subset(make_trials(manifest, "A-A"), [0])
        scores = score_trials(CosineScorer(), emb, trials)
        assert scores.scores.shape == (1,)

    @pytest.mark.parametrize("condition", ["A-A", "A/B"])
    def test_cosine_equals_scalar_cosine_per_pair(self, condition):
        manifest = toy_manifest(n_spk=3, utts_per_lang=3)
        emb = self._embeddings(manifest)
        trials = make_trials(manifest, condition)
        scores = score_trials(CosineScorer(), emb, trials).scores
        expected = [cosine_score(a, b) for a, b in zip(self._rows(emb, trials.enroll),
                                                       self._rows(emb, trials.test))]
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    def test_lda_cosine_equals_scalar_cosine_of_projected_rows(self):
        manifest = toy_manifest(n_spk=4, utts_per_lang=3)
        emb = self._embeddings(manifest)
        lda = train_lda(TrainingSpan(emb.vectors, [r.speaker_id for r in manifest.records]), 3)
        mu = emb.vectors.mean(axis=0)
        trials = make_trials(manifest, "A/B")
        scores = score_trials(CosineScorer(lda, mu), emb, trials).scores
        expected = [cosine_score((a - mu) @ lda, (b - mu) @ lda)
                    for a, b in zip(self._rows(emb, trials.enroll),
                                    self._rows(emb, trials.test))]
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)

    def test_prepare_sees_one_row_per_utterance(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=3)
        emb = self._embeddings(manifest)
        trials = make_trials(manifest, "A/B")
        prepared = []

        class Recording(CosineScorer):
            def prepare(self, vectors):
                prepared.append(np.array(vectors))
                return super().prepare(vectors)

        scores = score_trials(Recording(), emb, trials).scores
        assert len(prepared) == 1
        np.testing.assert_array_equal(prepared[0], emb.vectors)
        assert len(trials) == 81 > len(emb)
        np.testing.assert_array_equal(scores, score_trials(CosineScorer(), emb, trials).scores)

    @pytest.mark.parametrize("scorer_class", [CosineScorer, PLDAScorer])
    def test_score_pairs_sees_the_prepared_matrix(self, scorer_class, monkeypatch):
        # every trial is a cell of one matrix over the utterances, so no
        # trial-sized row gather is ever scored
        manifest = toy_manifest(n_spk=3, utts_per_lang=3)
        emb = self._embeddings(manifest)
        speakers = [r.speaker_id for r in manifest.records]
        scorer = (CosineScorer() if scorer_class is CosineScorer
                  else PLDAScorer(train_plda(TrainingSpan(emb.vectors, speakers), n_iters=2)))
        seen = []
        score_pairs = scorer_class.score_pairs

        def spy(self, enroll, test):
            seen.append((enroll, test))
            return score_pairs(self, enroll, test)

        monkeypatch.setattr(scorer_class, "score_pairs", spy)
        trials = make_trials(manifest, "A/B")
        score_trials(scorer, emb, trials)
        assert len(trials) == 81 > len(emb) == 18
        prepared = scorer.prepare(emb.vectors)
        assert len(seen) == 1
        for rows in seen[0]:  # (n_utterances, k), not one row per trial
            np.testing.assert_array_equal(rows, prepared)

    def test_symmetric_scorer_swap_invariance(self):
        manifest = toy_manifest()
        emb = self._embeddings(manifest)
        trials = make_trials(manifest, "A-A")
        swapped = TrialList(trials.test, trials.enroll, trials.target)
        s1 = score_trials(CosineScorer(), emb, trials).scores
        s2 = score_trials(CosineScorer(), emb, swapped).scores
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_subset_consistent_with_full_run(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=3)
        emb = self._embeddings(manifest)
        trials = make_trials(manifest, "A/B")
        full = score_trials(CosineScorer(), emb, trials).scores
        idx = np.random.default_rng(1).choice(len(trials), 10, replace=False)
        np.testing.assert_array_equal(
            score_trials(CosineScorer(), emb, subset(trials, idx)).scores, full[idx]
        )

    def test_non_finite_score_names_the_trial(self):
        manifest = toy_manifest()
        emb = self._embeddings(manifest)
        trials = make_trials(manifest, "A/B")
        row_of = {u: i for i, u in enumerate(emb.utterance_ids)}

        class OneInf(CosineScorer):
            def score_pairs(self, enroll, test):
                scores = super().score_pairs(enroll, test)
                scores[row_of[trials.enroll[3]], row_of[trials.test[3]]] = np.inf
                return scores

        with pytest.raises(NumericError,
                           match=f"trial {trials.enroll[3]} vs {trials.test[3]}$"):
            score_trials(OneInf(), emb, trials)

    def test_missing_embedding_names_utterance(self):
        manifest = toy_manifest()
        emb = self._embeddings(manifest)
        keep = [i for i, u in enumerate(emb.utterance_ids) if u != "evl0-A-1"]
        emb = EmbeddingSet([emb.utterance_ids[i] for i in keep], emb.vectors[keep])
        with pytest.raises(InvalidArgumentError, match="evl0-A-1"):
            score_trials(CosineScorer(), emb, make_trials(manifest, "A-A"))


class TestScoreFiles:
    def _score_set(self):
        manifest = toy_manifest(n_spk=3, utts_per_lang=2)
        trials = make_trials(manifest, "A/B")
        rng = np.random.default_rng(7)
        scores = rng.normal(size=len(trials)) * 10.0 ** rng.integers(-5, 6, len(trials))
        return ScoreSet(trials, scores)

    def test_score_file_round_trip(self, tmp_path):
        score_set = self._score_set()
        path = tmp_path / "scores.tsv"
        score_set.save(path)
        assert path.read_text().splitlines() == [f"{s:.8e}" for s in score_set.scores]
        back = ScoreSet.load(path, score_set.trial_list)
        assert back.trial_list is score_set.trial_list
        np.testing.assert_array_equal(
            back.scores, [float(f"{s:.8e}") for s in score_set.scores]
        )

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:-1],
        lambda lines: lines + lines[:1],
        lambda lines: ["n/a"] + lines[1:],
        lambda lines: lines[:1] + ["nan"] + lines[2:],
        lambda lines: lines[:-1] + ["-inf"],
    ], ids=["short", "long", "non-numeric", "nan", "inf"])
    def test_malformed_score_file_rejected(self, tmp_path, edit):
        score_set = self._score_set()
        path = tmp_path / "scores.tsv"
        score_set.save(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(InvalidArgumentError, match="scores.tsv"):
            ScoreSet.load(path, score_set.trial_list)


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
        scores = ScoreSet(trials, np.random.default_rng(6).normal(size=len(trials)))
        tar, non = scores.split()
        np.testing.assert_array_equal(tar, scores.scores[trials.target])
        n_target = trials.target.sum()
        assert len(tar) == n_target
        assert len(non) == len(trials) - n_target
        res = compute_eer(*scores.split())
        assert 0.0 <= res.eer <= 1.0


class TestResultsTable:
    def test_full_grid_golden(self):
        systems = ("ivector", "dvector-phone-blind", "dvector-phone-aware")
        metrics = ("cosine", "lda", "plda")
        res = {}
        value = 0.01
        for s in systems:
            for m in metrics:
                for c in ("A-A", "B-B", "A/B"):
                    res[(s, m, c)] = EERResult(value, 0.0, 5, 5)
                    value += 0.01
        tsv, text = results_table(res)
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
