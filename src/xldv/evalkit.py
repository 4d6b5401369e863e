"""Trial construction, trial scoring, EER, and the results grid.

Same-language conditions ("A-A") enumerate every unordered pair of eval
utterances within the language; the cross condition ("A/B") pairs each
utterance of the first language with each of the second, every unordered
pair exactly once. EER uses a threshold sweep at score midpoints with linear
interpolation at the FAR/FRR crossing.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .archive import atomic_open, read_columns
from .errors import InvalidArgumentError, NumericError

SYSTEMS = ("ivector", "dvector-phone-blind", "dvector-phone-aware")
METRICS = ("cosine", "lda", "plda")
# trial condition -> (enroll language, test language)
CONDITIONS = {"A-A": ("A", "A"), "B-B": ("B", "B"), "A/B": ("A", "B")}


@dataclass
class TrialList:
    """Trial i pairs utterance ids ``enroll[i]``, ``test[i]``; bool ``target[i]``: same speaker."""

    enroll: list
    test: list
    target: np.ndarray

    def __len__(self):
        return len(self.enroll)

    def save(self, path):
        labels = np.where(self.target, "target", "nontarget").tolist()
        with atomic_open(path) as fh:
            fh.writelines(f"{e}\t{t}\t{y}\n" for e, t, y in zip(self.enroll, self.test, labels))

    @classmethod
    def load(cls, path):
        enroll, test, labels = read_columns(path, 3)
        if not set(labels) <= {"target", "nontarget"}:
            raise InvalidArgumentError(f"{path}: a trial label is not target/nontarget")
        return cls(enroll, test, np.array(labels, dtype=object) == "target")


def make_trials(manifest, condition) -> TrialList:
    """All-pairs trial list for one of ``CONDITIONS``, deterministic in the manifest."""
    lang_a, lang_b = CONDITIONS[condition]
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
    pairs = (itertools.product(sorted(utts[lang_a]), sorted(utts[lang_b]))
             if lang_a != lang_b else itertools.combinations(sorted(utts[lang_a]), 2))
    enroll, test = [list(column) for column in zip(*pairs)] or [[], []]
    target = np.array([speaker_of[e] == speaker_of[t] for e, t in zip(enroll, test)], bool)
    return TrialList(enroll, test, target)


@dataclass
class ScoreSet:
    """``scores[i]`` scores trial i of ``trial_list``, the one holder of trial ids;
    on disk, one ``%.8e`` line per trial, in trial-list order."""

    trial_list: TrialList
    scores: np.ndarray

    def save(self, path):
        with atomic_open(path) as fh:
            fh.writelines(f"{s:.8e}\n" for s in self.scores.tolist())

    @classmethod
    def load(cls, path, trial_list: TrialList):
        (column,) = read_columns(path, 1)
        if len(column) != len(trial_list):
            raise InvalidArgumentError(f"{path}: score count != trial count")
        try:
            scores = np.array(column, dtype=np.float64)
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}: {exc}") from None
        if not np.all(np.isfinite(scores)):
            raise InvalidArgumentError(f"{path}: a score is not finite")
        return cls(trial_list, scores)

    def split(self):
        target = self.trial_list.target
        return self.scores[target], self.scores[~target]


def score_trials(scorer, embeddings, trial_list: TrialList) -> ScoreSet:
    """One finite score per trial, order-preserving with the list.

    ``scorer.prepare`` maps the ``EmbeddingSet``'s matrix, one row per utterance,
    ``scorer.score_pairs`` scores every pair of its rows, and each trial reads
    its score at its enroll and test rows."""
    row_of = {utt: i for i, utt in enumerate(embeddings.utterance_ids)}
    try:
        enroll = np.array([row_of[u] for u in trial_list.enroll], dtype=np.intp)
        test = np.array([row_of[u] for u in trial_list.test], dtype=np.intp)
    except KeyError as exc:
        raise InvalidArgumentError(f"no embedding for utterance {exc.args[0]!r}") from None
    prepared = scorer.prepare(embeddings.vectors)
    scores = np.asarray(scorer.score_pairs(prepared, prepared), dtype=np.float64)[enroll, test]
    if not np.all(np.isfinite(scores)):
        bad = int(np.argmax(~np.isfinite(scores)))
        raise NumericError(
            f"non-finite score for trial {trial_list.enroll[bad]} vs {trial_list.test[bad]}"
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


def results_table(results):
    """Render the full (system, metric, condition) -> EERResult grid.

    Returns (tsv, aligned_text). Rows are grouped by system then metric in
    ``SYSTEMS`` and ``METRICS`` order, columns follow ``CONDITIONS``.
    """
    header = ["System", "Metric"] + [f"{c} EER%" for c in CONDITIONS]
    rows = [[system, metric] + [f"{100.0 * results[(system, metric, cond)].eer:.2f}"
                                for cond in CONDITIONS]
            for system in SYSTEMS for metric in METRICS]
    tsv = "\n".join("\t".join(r) for r in [header] + rows) + "\n"
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    aligned = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in [header] + rows
    ) + "\n"
    return tsv, aligned
