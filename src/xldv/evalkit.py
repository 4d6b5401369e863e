"""Trial construction, trial scoring, EER, and the results grid.

Same-language conditions ("A-A") enumerate every unordered pair of eval
utterances within the language; the cross condition ("A/B") pairs each
utterance of the first language with each of the second, every unordered
pair exactly once. EER uses a threshold sweep at score midpoints with linear
interpolation at the FAR/FRR crossing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

SYSTEMS = ("ivector", "dvector-phone-blind", "dvector-phone-aware")
METRICS = ("cosine", "lda", "plda")


@dataclass
class Trial:
    enroll: str
    test: str
    target: bool


@dataclass
class TrialList:
    condition: str
    trials: list

    def __len__(self):
        return len(self.trials)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.trials:
                label = "target" if t.target else "nontarget"
                fh.write(f"{t.enroll}\t{t.test}\t{label}\n")

    @classmethod
    def load(cls, path, condition):
        trials = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                enroll, test, label = line.rstrip("\n").split("\t")
                trials.append(Trial(enroll, test, label == "target"))
        return cls(condition, trials)


def split_conditions(text):
    """The comma-separated trial conditions in ``text``, blanks dropped."""
    return [c.strip() for c in text.split(",") if c.strip()]


def parse_condition(condition):
    """Returns (lang_enroll, lang_test, is_cross)."""
    cross = "/" in condition
    langs = condition.split("/" if cross else "-")
    if len(langs) != 2 or (langs[0] != langs[1]) != cross:
        raise InvalidArgumentError(
            f"malformed condition {condition!r}: A-A pairs one language, A/B two"
        )
    return langs[0], langs[1], cross


def make_trials(manifest, condition) -> TrialList:
    """All-pairs trial list for one condition, deterministic in the manifest."""
    lang_a, lang_b, cross = parse_condition(condition)
    speaker_of = {}
    utts = {lang_a: [], lang_b: []}
    for rec in manifest.utterances("eval"):
        speaker_of[rec.utterance_id] = rec.speaker_id
        if rec.language_id in utts:
            utts[rec.language_id].append(rec.utterance_id)
    for lang in (lang_a, lang_b):
        covered = {speaker_of[u] for u in utts[lang]}
        for spk in manifest.eval_speakers:
            if spk not in covered:
                raise InvalidArgumentError(
                    f"eval speaker {spk} has no utterances in language {lang}"
                )
    trials = []
    if cross:
        for enroll in sorted(utts[lang_a]):
            for test in sorted(utts[lang_b]):
                trials.append(
                    Trial(enroll, test, speaker_of[enroll] == speaker_of[test])
                )
    else:
        pool = sorted(utts[lang_a])
        for i, enroll in enumerate(pool):
            for test in pool[i + 1 :]:
                trials.append(
                    Trial(enroll, test, speaker_of[enroll] == speaker_of[test])
                )
    return TrialList(condition, trials)


@dataclass
class ScoreSet:
    trial_list: TrialList
    scores: np.ndarray

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for t, s in zip(self.trial_list.trials, self.scores):
                fh.write(f"{t.enroll}\t{t.test}\t{s:.8e}\n")

    @classmethod
    def load(cls, path, trial_list: TrialList):
        scores = []
        with open(path, encoding="utf-8") as fh:
            for line, trial in zip(fh, trial_list.trials):
                enroll, test, score = line.rstrip("\n").split("\t")
                if enroll != trial.enroll or test != trial.test:
                    raise InvalidArgumentError(f"{path}: scores misaligned with trials")
                scores.append(float(score))
        if len(scores) != len(trial_list):
            raise InvalidArgumentError(f"{path}: score count != trial count")
        return cls(trial_list, np.array(scores))

    def split(self):
        mask = np.array([t.target for t in self.trial_list.trials])
        return self.scores[mask], self.scores[~mask]


def score_trials(scorer, embeddings_by_utt, trial_list: TrialList) -> ScoreSet:
    """One finite score per trial, order-preserving with the list.

    ``scorer`` is any object with ``score_pairs(enroll, test)`` over
    row-aligned embedding matrices.
    """
    for t in trial_list.trials:
        for utt in (t.enroll, t.test):
            if utt not in embeddings_by_utt:
                raise InvalidArgumentError(f"no embedding for utterance {utt!r}")
    if not trial_list.trials:
        return ScoreSet(trial_list, np.zeros(0))
    enroll = np.stack([embeddings_by_utt[t.enroll] for t in trial_list.trials])
    test = np.stack([embeddings_by_utt[t.test] for t in trial_list.trials])
    scores = np.asarray(scorer.score_pairs(enroll, test), dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        bad = trial_list.trials[int(np.argmax(~np.isfinite(scores)))]
        raise InvalidArgumentError(
            f"non-finite score for trial {bad.enroll} vs {bad.test}"
        )
    return ScoreSet(trial_list, scores)


@dataclass
class EERResult:
    eer: float
    threshold: float
    n_target: int
    n_nontarget: int


def _sweep_thresholds(scores):
    """Candidate thresholds: midpoints of adjacent distinct scores + sentinels."""
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0 if distinct.size > 1 else np.zeros(0)
    return np.concatenate([[distinct[0] - 1.0], mids, [distinct[-1] + 1.0]])


def compute_eer(target_scores, nontarget_scores) -> EERResult:
    """EER at the interpolated FAR/FRR crossing over midpoint thresholds.

    Acceptance is score >= threshold, so FAR falls and FRR rises as the
    threshold sweeps upward.
    """
    tar = np.asarray(target_scores, dtype=np.float64)
    non = np.asarray(nontarget_scores, dtype=np.float64)
    if tar.size == 0 or non.size == 0:
        raise InvalidArgumentError("EER needs at least one target and one nontarget trial")
    thresholds = _sweep_thresholds(np.concatenate([tar, non]))
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    far = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size
    frr = np.searchsorted(tar_sorted, thresholds, side="left") / tar.size
    diff = far - frr
    crossing = int(np.searchsorted(-diff, 0.0, side="right"))
    crossing = min(max(crossing, 1), len(thresholds) - 1)
    k = crossing - 1
    d0, d1 = diff[k], diff[crossing]
    t = 0.0 if d0 == d1 else d0 / (d0 - d1)
    eer = far[k] + t * (far[crossing] - far[k])
    thr = thresholds[k] + t * (thresholds[crossing] - thresholds[k])
    return EERResult(eer=float(eer), threshold=float(thr),
                     n_target=int(tar.size), n_nontarget=int(non.size))


def results_table(results, conditions):
    """Render the (system, metric, condition) -> EERResult grid.

    Returns (tsv, aligned_text). Rows are grouped by system then metric in
    ``SYSTEMS`` and ``METRICS`` order; missing cells render as "-", and a row
    with no cell is left out.
    """
    header = ["System", "Metric"] + [f"{c} EER%" for c in conditions]
    rows = []
    for system in SYSTEMS:
        for metric in METRICS:
            cells = []
            any_present = False
            for cond in conditions:
                res = results.get((system, metric, cond))
                if res is None:
                    cells.append("-")
                else:
                    any_present = True
                    cells.append(f"{100.0 * res.eer:.2f}")
            if any_present:
                rows.append([system, metric] + cells)
    tsv = "\n".join("\t".join(r) for r in [header] + rows) + "\n"
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    aligned = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in [header] + rows
    ) + "\n"
    return tsv, aligned
