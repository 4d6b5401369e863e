"""Pipeline stages and the run manifest.

``STAGES`` is the one table of stages: each stage's name, its input and
output artifacts (paths under the run directory, named once in the layout
section below) and its body, in run order. A stage body reads configuration
only as ``ctx.config[key]``; ``run_stage`` hands it a view that records each
key read, and the manifest stores that ``{key: value}`` map beside the
stage's input and output checksums and the stage's code ``version``. A stage
is skipped when its version is unchanged, every recorded key still has its
recorded value and all input/output checksums still match: a verifying-traces rebuilder
with dynamic dependencies (Mokhov, Mitchell & Peyton Jones, "Build Systems a
la Carte", ICFP 2018). So re-running an unchanged experiment is a no-op,
changing one config key re-runs the stages that read it plus the dependents
whose inputs actually changed, and deleting one stage's outputs regenerates
only that stage (and dependents whose inputs actually changed). The reason a
stage ran is logged and kept in its record, with a per-stage run counter,
the wall time, ``max_rss_mb`` (the process's ``ru_maxrss`` after the stage)
and ``child_max_rss_mb`` (``ru_maxrss`` of its largest finished worker
process). Both are high-water marks of the whole process, so in one
``run_all`` a stage's own peak shows as the first record where a value
rises. None of these takes part in ``stage_current``.
One ``run_all`` hashes each file at most once: stages share a digest memo,
and a stage that runs replaces its outputs' entries.
Stages whose work splits into independent units (utterances, CT-DNN
variants, systems) run them through ``workers.map_ordered``; the rest stay
serial, because their EM sums would round differently in another order.
"""

import ctypes
import dataclasses
import glob
import hashlib
import itertools
import json
import logging
import os
import pathlib
import resource
import time
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from . import BLAS_THREADS, __version__
from . import archive, backend, corpus, ctdnn, evalkit, frontend, ivector, phonenet, workers
from .config import ExperimentConfig
from .errors import DataError
from .evalkit import CONDITIONS, METRICS, SYSTEMS
from .nn import NetworkGraph, TrainState

log = logging.getLogger(__name__)


def sha256_file(path, chunk=1 << 20):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _digest(run_dir, rel, digests):
    """sha256 of ``run_dir/rel``, memoized in ``digests`` (rel -> digest)."""
    if rel not in digests:
        digests[rel] = sha256_file(os.path.join(run_dir, rel))
    return digests[rel]


# OpenBLAS's openblas_get_corename in scipy-openblas, which numpy wheels bundle
OPENBLAS_CORENAME = "scipy_openblas_get_corename64_"


def blas_core():
    """The CPU kernel numpy's bundled OpenBLAS selected (``SkylakeX``, ...), or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        corename = getattr(ctypes.CDLL(path), OPENBLAS_CORENAME, None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _max_rss_mb(who):
    # ru_maxrss is in KiB on Linux
    return round(resource.getrusage(who).ru_maxrss / 1024.0, 1)


class RunManifest:
    """Journal of completed stages: config keys read, checksums, timings."""

    def __init__(self, run_dir):
        self.path = os.path.join(run_dir, "manifest.json")
        self.data = {"tool_version": __version__, "stages": {}}
        if os.path.exists(self.path):
            try:
                with open(self.path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
                raise DataError(f"cannot read run manifest {self.path}: {exc}") from exc
            stages = data.get("stages") if isinstance(data, dict) else None
            if not isinstance(stages, dict) or not all(
                isinstance(rec, dict) for rec in stages.values()
            ):
                raise DataError(f"run manifest {self.path} has no valid stage table")
            self.data = data

    def save(self):
        with archive.atomic_open(self.path) as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def record(self, stage, config_keys, inputs, outputs, wall_clock, reason, version=1):
        seq = self.data["stages"].get(stage, {}).get("run_seq")
        self.data["tool_version"] = __version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = int(BLAS_THREADS) if (BLAS_THREADS or "").isdigit() else BLAS_THREADS
        self.data["blas"] = {"name": blas["name"], "version": blas["version"],
                             "threads": threads, "core": blas_core()}
        self.data["stages"][stage] = {
            "version": version,
            "config_keys": config_keys,
            "inputs": inputs,
            "outputs": outputs,
            "reason": reason,
            "run_seq": (seq if isinstance(seq, int) else 0) + 1,
            "wall_clock_s": round(wall_clock, 3),
            "max_rss_mb": _max_rss_mb(resource.RUSAGE_SELF),
            "child_max_rss_mb": _max_rss_mb(resource.RUSAGE_CHILDREN),
        }
        self.save()

    def stage_current(self, stage, version, config, input_hashes, run_dir, digests):
        """Why ``stage`` at code ``version`` has to run, or None when current.

        Output files are hashed through ``digests``, a rel -> sha256 memo.
        """
        rec = self.data["stages"].get(stage)
        if rec is None:
            return "no record"
        for key in ("config_keys", "inputs", "outputs"):
            if not isinstance(rec.get(key), dict):
                return f"record has no {key.replace('_', ' ')}"
        if rec.get("version", 1) != version:
            return "code version changed"
        for key, value in sorted(rec["config_keys"].items()):
            if config.values.get(key) != value:
                return f"config key {key} changed"
        recorded = rec["inputs"]
        for rel in sorted(set(recorded) | set(input_hashes)):
            if recorded.get(rel) != input_hashes.get(rel):
                return f"input {rel} changed"
        for rel, digest in sorted(rec["outputs"].items()):
            path = os.path.join(run_dir, rel)
            if not os.path.exists(path):
                return f"output {rel} missing"
            if _digest(run_dir, rel, digests) != digest:
                return f"output {rel} changed"
        return None


class RecordingConfig:
    """Read-only view of a config that remembers every key read through it.

    Stage bodies get this as ``ctx.config``; the keys they read, with their
    values, are the config part of the stage's fingerprint.
    """

    def __init__(self, config: ExperimentConfig):
        self._config = config
        self.read = {}

    def __getitem__(self, key):
        value = self._config[key]
        self.read[key] = value
        return value


@dataclass
class Context:
    config: ExperimentConfig
    run_dir: str
    manifest: RunManifest

    def path(self, rel):
        return os.path.join(self.run_dir, rel)


def _corpus_config(cfg: ExperimentConfig) -> corpus.CorpusConfig:
    return corpus.CorpusConfig(
        n_train_speakers=cfg["corpus.n_train_speakers"],
        n_train_utts=cfg["corpus.n_train_utts"],
        n_eval_speakers=cfg["corpus.n_eval_speakers"],
        n_eval_utts=cfg["corpus.n_eval_utts"],
        n_phones=cfg["corpus.n_phones"],
        min_duration_s=cfg["corpus.min_duration_s"],
        max_duration_s=cfg["corpus.max_duration_s"],
        language_emphasis_db=cfg["corpus.language_emphasis_db"],
    )


def _ctdnn_config(cfg: ExperimentConfig) -> ctdnn.CTDNNConfig:
    return ctdnn.CTDNNConfig(
        n_speakers=cfg["corpus.n_train_speakers"],
        conv1_channels=cfg["ctdnn.conv1_channels"],
        conv2_channels=cfg["ctdnn.conv2_channels"],
        bottleneck_dim=cfg["ctdnn.bottleneck_dim"],
        td_hidden=cfg["ctdnn.td_hidden"],
        feature_dim=cfg["ctdnn.feature_dim"],
        factor_dim=cfg["asr.svd_rank"],
    )


# --- run-directory layout --------------------------------------------------
# Every artifact path relative to the run directory. The stage bodies and the
# stage table name files only through these.

CORPUS_DIR = "corpus"
WAV_DIGEST = "corpus/wav.sha256"
CORPUS_FILES = ("corpus/manifest.tsv", "corpus/labels.tsv", "corpus/speakers.tsv",
                WAV_DIGEST)
FBANK = "feats/fbank.farc"
MFCC = "feats/mfcc.farc"
FACTORS = "feats/factors.farc"
ASR_MODEL = "models/asr.nnck"
UBM_MODEL = "models/ubm.nnck"
TMATRIX_MODEL = "models/tmatrix.nnck"
EER_TABLE = "results/eer.tsv"
REPORT_TSV = "results/report.tsv"
REPORT_TXT = "results/report.txt"
SPLITS = ("train", "eval")

# phone-aware flag -> CT-DNN variant; its d-vector system is "dvector-<variant>"
CTDNN_VARIANTS = {False: "phone-blind", True: "phone-aware"}


def ctdnn_model(aware):
    return f"models/ctdnn_{'aware' if aware else 'blind'}.nnck"


def embedding_file(system, split):
    tag = ("ivec", "dvec_blind", "dvec_aware")[SYSTEMS.index(system)]
    return f"embeddings/{tag}_{split}.farc"


def backend_model(system):
    return f"models/backend_{system}.nnck"


def trial_file(cond):
    return f"trials/{cond.replace('/', 'x')}.tsv"


def score_file(system, metric, cond):
    return f"scores/{system}_{metric}_{cond.replace('/', 'x')}.tsv"


def _load_manifest(ctx: Context) -> corpus.CorpusManifest:
    return corpus.CorpusManifest.load(ctx.path(CORPUS_DIR))


def _backend_subset(manifest, per_speaker):
    """First N train utterances per speaker (by utterance id) for back-ends."""
    chosen = []
    by_spk = {}
    for rec in sorted(manifest.utterances("train"), key=lambda r: r.utterance_id):
        taken = by_spk.setdefault(rec.speaker_id, 0)
        if taken < per_speaker:
            by_spk[rec.speaker_id] += 1
            chosen.append(rec)
    return chosen


# --- stage bodies ----------------------------------------------------------


def stage_synth(ctx: Context):
    cfg = ctx.config
    manifest = corpus.build_corpus(
        _corpus_config(cfg), cfg["corpus.seed"], ctx.path(CORPUS_DIR)
    )
    digest = hashlib.sha256()
    for rec in manifest.records:
        digest.update(rec.utterance_id.encode())
        digest.update(sha256_file(manifest.wav_path(rec)).encode())
    with archive.atomic_open(ctx.path(WAV_DIGEST)) as fh:
        fh.write(digest.hexdigest() + "\n")


def stage_feats(ctx: Context):
    manifest = _load_manifest(ctx)

    def records(rec):
        """One utterance's fbank and MFCC rows, from one read, framing and FFT.

        float32, the archive's precision: the stage holds every utterance's
        rows until both archives are written, 400 bytes a frame, less than
        float64 MFCC rows alone (480)."""
        utt = corpus.load_utterance(manifest, rec)
        spectrum = frontend.power_spectrum(utt)
        fb = frontend.cmvn(frontend.fbank(utt, spectrum))
        mf = frontend.cmvn(frontend.add_deltas(frontend.mfcc(utt, spectrum)))
        return fb.data.astype(np.float32), mf.data.astype(np.float32)

    pairs = workers.map_ordered(records, manifest.records)
    for k, rel in enumerate((FBANK, MFCC)):
        archive.archive_write((frontend.FeatureMatrix(rec.utterance_id, pair[k])
                               for rec, pair in zip(manifest.records, pairs)), ctx.path(rel))


def stage_train_asr(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    feats = archive.archive_read_dict(ctx.path(FBANK),
                                      [r.utterance_id for r in manifest.records])
    train_feats = [feats[r.utterance_id] for r in manifest.utterances("train")]
    labels = {
        r.utterance_id: corpus.expand_labels(
            manifest.labels[r.utterance_id], feats[r.utterance_id].n_frames
        )
        for r in manifest.utterances("train")
    }
    net_config = phonenet.PhoneNetConfig(
        n_phones=cfg["corpus.n_phones"], td_hidden=cfg["asr.td_hidden"],
    )
    graph = phonenet.build_phone_classifier(net_config, seed=cfg["asr.seed"])
    data = phonenet.make_phone_dataset(train_feats, labels, seed=cfg["asr.seed"])
    state = TrainState(
        learning_rate=phonenet.LEARNING_RATE, max_epochs=cfg["asr.epochs"],
        batches_per_epoch=cfg["asr.batches_per_epoch"], seed=cfg["asr.seed"],
    )
    result = phonenet.train_phone_classifier(graph, data, state)
    log.info("phone classifier: val frame accuracy %.3f", result.val_accuracy)
    graph.save(
        ctx.path(ASR_MODEL),
        extra_header={
            "kind": "phone-classifier",
            "val_accuracy": result.val_accuracy,
            "val_loss": result.val_loss,
        },
    )
    extractor = phonenet.svd_decompose(graph, rank=cfg["asr.svd_rank"])

    def factor_records():
        for rec in manifest.records:
            feat = feats[rec.utterance_id]
            factors = phonenet.linguistic_factor(extractor, graph, feat)
            yield frontend.FeatureMatrix(rec.utterance_id, factors)

    archive.archive_write(factor_records(), ctx.path(FACTORS))


def _train_one_ctdnn(ctx: Context, train_feats, labels, aware: bool):
    """``labels`` maps each training utterance id to its speaker label."""
    cfg = ctx.config
    net_config = _ctdnn_config(cfg)
    factors_by_utt = None
    variant = CTDNN_VARIANTS[aware]
    seed = corpus.derive_rng(cfg["ctdnn.seed"], variant).integers(0, 2**31 - 1)
    if aware:
        factors = archive.archive_read_dict(ctx.path(FACTORS), labels)
        factors_by_utt = {u: f.data for u, f in factors.items()}
        graph = ctdnn.build_phone_aware(net_config, seed=int(seed))
    else:
        graph = ctdnn.build_phone_blind(net_config, seed=int(seed))
    data = ctdnn.make_speaker_dataset(
        train_feats, labels, net_config,
        factors_by_utt=factors_by_utt, chunk_frames=cfg["ctdnn.chunk_frames"],
        batch_chunks=cfg["ctdnn.batch_chunks"],
        val_fraction=cfg["ctdnn.val_fraction"], seed=int(seed),
    )
    state = TrainState(
        learning_rate=cfg["ctdnn.learning_rate"], max_epochs=cfg["ctdnn.epochs"],
        batches_per_epoch=cfg["ctdnn.batches_per_epoch"],
        seed=int(seed),
    )
    result = ctdnn.train_ctdnn(graph, data, state)
    log.info("%s feature net: val frame accuracy %.3f", variant, result.val_accuracy)
    graph.save(
        ctx.path(ctdnn_model(aware)),
        extra_header={
            "kind": "ctdnn",
            "variant": variant,
            "val_accuracy": result.val_accuracy,
            "val_loss": result.val_loss,
        },
    )


def stage_train_ctdnn(ctx: Context):
    manifest = _load_manifest(ctx)
    train = manifest.utterances("train")
    label_of = ctdnn.contiguous_labels(manifest.train_speakers)
    labels = {r.utterance_id: label_of[r.speaker_id] for r in train}
    feats = archive.archive_read_dict(ctx.path(FBANK), labels)
    train_feats = [feats[r.utterance_id] for r in train]
    workers.map_ordered(lambda aware: _train_one_ctdnn(ctx, train_feats, labels, aware),
                        CTDNN_VARIANTS, ctx.config)


def _ubm_sample(ctx: Context):
    """The training utterances' MFCC frames, subsampled to ``ivector.ubm_frames``.

    The sampled float32 rows, in sample order, are gathered from each
    utterance's rows into one array; the whole pass is never concatenated.
    """
    cfg = ctx.config
    train_ids = [r.utterance_id for r in _load_manifest(ctx).utterances("train")]
    rows = [feat.data for feat in archive.archive_stream(ctx.path(MFCC), train_ids)]
    n = sum(len(data) for data in rows)
    budget = cfg["ivector.ubm_frames"]
    if n > budget:
        rng = corpus.derive_rng(cfg["ivector.seed"], "ubm-subsample")
        pick = rng.choice(n, budget, replace=False)
    else:
        pick = np.arange(n)
    slot = np.full(n, -1)  # each frame's row in the sample, or -1
    slot[pick] = np.arange(len(pick))
    frames = np.empty((len(pick), rows[0].shape[1]), np.float32)
    start = 0
    for data in rows:
        where = slot[start : start + len(data)]
        start += len(data)
        kept = where >= 0
        frames[where[kept]] = data[kept]
    return frames


def stage_train_ubm(ctx: Context):
    cfg = ctx.config
    frames = _ubm_sample(ctx)
    ubm = ivector.train_ubm(
        frames, cfg["ivector.n_components"], n_iters=cfg["ivector.ubm_iters"],
        seed=cfg["ivector.seed"],
    )
    archive.save_model(ctx.path(UBM_MODEL), {"kind": "ubm"}, ubm=ubm)


def stage_train_tv(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    ubm = archive.load_model(ctx.path(UBM_MODEL), {"kind": "ubm"}, ubm=ivector.UBM)["ubm"]
    train_ids = [r.utterance_id for r in manifest.utterances("train")]
    stats = [ivector.accumulate_stats(ubm, feat)
             for feat in archive.archive_stream(ctx.path(MFCC), train_ids)]
    tmat = ivector.train_tmatrix(
        ubm, stats, rank=cfg["ivector.dim"], n_iters=cfg["ivector.tv_iters"],
        seed=cfg["ivector.seed"],
    )
    archive.save_model(ctx.path(TMATRIX_MODEL), {"kind": "tmatrix"}, tmatrix=tmat)


def _embedding_set(records, vector_of):
    """``EmbeddingSet`` of ``vector_of(record)`` for each record, in order."""
    return backend.EmbeddingSet([r.utterance_id for r in records],
                                np.array([vector_of(r) for r in records]))


def stage_extract(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    splits = dict(zip(SPLITS, (
        _backend_subset(manifest, cfg["backend.train_utts_per_speaker"]),
        manifest.utterances("eval"),
    )))
    used = [r.utterance_id for recs in splits.values() for r in recs]
    net_config = _ctdnn_config(cfg)
    # checkpoints load here, once; each system's worker reads its own archives
    graphs = {
        f"dvector-{variant}":
            NetworkGraph.from_checkpoint(ctx.path(ctdnn_model(aware)),
                                         {"kind": "ctdnn", "variant": variant})[0]
        for aware, variant in CTDNN_VARIANTS.items()
    }
    ubm = archive.load_model(ctx.path(UBM_MODEL), {"kind": "ubm"}, ubm=ivector.UBM)["ubm"]
    tmat = archive.load_model(ctx.path(TMATRIX_MODEL), {"kind": "tmatrix"},
                              tmatrix=ivector.TMatrix)["tmatrix"]

    def embed(system):
        if system == "ivector":
            mfcc_feats = archive.archive_read_dict(ctx.path(MFCC), used)
            whitened = ivector.whiten(ubm, tmat)

            def vector(rec):
                stats = ivector.accumulate_stats(ubm, mfcc_feats[rec.utterance_id])
                return ivector.extract_ivector(whitened, stats)
        else:
            feats = archive.archive_read_dict(ctx.path(FBANK), used)
            factors = (archive.archive_read_dict(ctx.path(FACTORS), used)
                       if system == "dvector-phone-aware" else None)

            def vector(rec):
                fac = factors[rec.utterance_id].data if factors is not None else None
                return ctdnn.dvector(ctdnn.extract_frame_features(
                    graphs[system], feats[rec.utterance_id], net_config, factors=fac
                ))

        for split, recs in splits.items():
            _embedding_set(recs, vector).to_archive(ctx.path(embedding_file(system, split)))

    workers.map_ordered(embed, SYSTEMS, cfg)


def _train_backend(ctx: Context, system):
    cfg = ctx.config
    path = ctx.path(embedding_file(system, "train"))
    emb = backend.EmbeddingSet.from_archive(path)
    speaker_of = {r.utterance_id: r.speaker_id for r in _load_manifest(ctx).records}
    unlisted = [u for u in emb.utterance_ids if u not in speaker_of]
    if unlisted:
        raise DataError(f"{path}: utterance {unlisted[0]!r} is not in the corpus manifest")
    speakers = [speaker_of[u] for u in emb.utterance_ids]
    mean = emb.vectors.mean(axis=0)
    normed = backend.center_lengthnorm(emb.vectors, mean)
    label_of = ctdnn.contiguous_labels(speakers)
    labels = np.array([label_of[s] for s in speakers])
    span = backend.TrainingSpan(normed, labels)
    log.info("%s: back-end span has rank %d of %d", system, span.rank, emb.dim)
    k = min(cfg["backend.lda_dim"], span.rank, len(span.counts) - 1)
    if k < cfg["backend.lda_dim"]:
        log.info("%s: LDA dim clamped to %d", system, k)
    lda = backend.train_lda(span, k)
    plda = backend.train_plda(span, n_iters=cfg["backend.plda_iters"])
    # perfbench's retune check reads the top-level lda_dim
    archive.save_model(ctx.path(backend_model(system)),
                       {"kind": "backend", "system": system, "lda_dim": int(k)},
                       mean=mean, lda=lda, plda=plda)


def stage_backend_train(ctx: Context):
    workers.map_ordered(lambda system: _train_backend(ctx, system), SYSTEMS, ctx.config)


def stage_score(ctx: Context):
    manifest = _load_manifest(ctx)
    trial_lists = {}
    for cond in CONDITIONS:
        trials = evalkit.make_trials(manifest, cond)
        trials.save(ctx.path(trial_file(cond)))
        trial_lists[cond] = trials
    for system in SYSTEMS:
        mean, lda, plda = archive.load_model(
            ctx.path(backend_model(system)), {"kind": "backend", "system": system},
            mean=np.ndarray, lda=np.ndarray, plda=backend.PLDAModel).values()
        emb = backend.EmbeddingSet.from_archive(ctx.path(embedding_file(system, "eval")))
        emb.vectors = backend.center_lengthnorm(emb.vectors, mean)
        scorers = {
            "cosine": backend.CosineScorer(),
            "lda": backend.CosineScorer(lda, plda.mu),
            "plda": backend.PLDAScorer(plda),
        }
        for cond, trials in trial_lists.items():
            for metric, scorer in scorers.items():
                scores = evalkit.score_trials(scorer, emb, trials)
                scores.save(ctx.path(score_file(system, metric, cond)))


def stage_eval(ctx: Context):
    trial_lists = {cond: evalkit.TrialList.load(ctx.path(trial_file(cond)))
                   for cond in CONDITIONS}
    lines = []
    for system in SYSTEMS:
        for metric in METRICS:
            for cond, trials in trial_lists.items():
                scores = evalkit.ScoreSet.load(
                    ctx.path(score_file(system, metric, cond)), trials
                )
                res = evalkit.compute_eer(*scores.split())
                lines.append(
                    f"{system}\t{metric}\t{cond}\t{res.eer:.6f}\t"
                    f"{res.threshold:.8e}\t{res.n_target}\t{res.n_nontarget}\n"
                )
    with archive.atomic_open(ctx.path(EER_TABLE)) as fh:
        fh.writelines(lines)


_EER_CELLS = tuple(itertools.product(SYSTEMS, METRICS, CONDITIONS))


def read_eer_table(path):
    """The EER grid; ``path`` must hold one row for each (system, metric, condition)."""
    system, metric, cond, eer, thr, n_tar, n_non = archive.read_columns(path, 7)
    cells = list(zip(system, metric, cond))
    rows = Counter(cells)
    for cell in [*rows, *_EER_CELLS]:
        if cell not in _EER_CELLS:
            raise DataError(f"{path}: {'/'.join(cell)} is not a cell of the EER grid")
        if rows[cell] != 1:
            raise DataError(f"{path}: {rows[cell]} rows for cell {'/'.join(cell)}, want 1")
    try:
        return {key: evalkit.EERResult(float(e), float(t), int(a), int(b))
                for key, e, t, a, b in zip(cells, eer, thr, n_tar, n_non)}
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def stage_report(ctx: Context):
    results = read_eer_table(ctx.path(EER_TABLE))
    tsv, text = evalkit.results_table(results)
    with archive.atomic_open(ctx.path(REPORT_TSV)) as fh:
        fh.write(tsv)
    with archive.atomic_open(ctx.path(REPORT_TXT)) as fh:
        fh.write(text)


# --- the stage table -------------------------------------------------------
# Inputs and outputs are run-dir paths. A change that alters a stage's output
# bytes bumps its code ``version``, so older run dirs re-run it.

Stage = namedtuple("Stage", "name inputs outputs fn version", defaults=(1,))

_CTDNN_MODELS = (ctdnn_model(False), ctdnn_model(True))
_EMBEDDINGS = tuple(embedding_file(s, split) for s in SYSTEMS for split in SPLITS)
_BACKENDS = tuple(backend_model(s) for s in SYSTEMS)
# score files, then trial lists
_SCORES = (tuple(score_file(s, m, c) for s in SYSTEMS for m in METRICS for c in CONDITIONS)
           + tuple(trial_file(c) for c in CONDITIONS))

STAGES = (
    Stage("synth", (), CORPUS_FILES, stage_synth, version=2),
    Stage("feats", CORPUS_FILES, (FBANK, MFCC), stage_feats, version=2),
    Stage("train-asr", CORPUS_FILES + (FBANK,), (ASR_MODEL, FACTORS), stage_train_asr,
          version=3),
    Stage("train-ctdnn", CORPUS_FILES + (FBANK, FACTORS), _CTDNN_MODELS,
          stage_train_ctdnn, version=2),
    Stage("train-ubm", CORPUS_FILES + (MFCC,), (UBM_MODEL,), stage_train_ubm, version=2),
    Stage("train-tv", CORPUS_FILES + (MFCC, UBM_MODEL), (TMATRIX_MODEL,), stage_train_tv,
          version=3),
    Stage("extract", CORPUS_FILES + (FBANK, MFCC, FACTORS) + _CTDNN_MODELS
          + (UBM_MODEL, TMATRIX_MODEL), _EMBEDDINGS, stage_extract, version=3),
    Stage("backend-train", CORPUS_FILES + _EMBEDDINGS, _BACKENDS, stage_backend_train,
          version=5),
    Stage("score", CORPUS_FILES + _EMBEDDINGS + _BACKENDS, _SCORES, stage_score,
          version=4),
    Stage("eval", _SCORES, (EER_TABLE,), stage_eval),
    Stage("report", (EER_TABLE,), (REPORT_TSV, REPORT_TXT), stage_report),
)
STAGE_NAMES = [stage.name for stage in STAGES]
_STAGE_BY_NAME = {stage.name: stage for stage in STAGES}


def run_stage(ctx: Context, name, force=False, digests=None):
    """Run one stage (skipping if current); returns True if work was done.

    ``digests`` is a rel -> sha256 memo that ``run_all`` shares across its
    stages, so each file is hashed once per invocation; a stage that runs
    replaces its outputs' entries. Without it every file is hashed afresh.
    """
    if digests is None:
        digests = {}
    stage = _STAGE_BY_NAME.get(name)
    if stage is None:
        raise DataError(f"unknown stage {name!r}")
    missing = [rel for rel in stage.inputs if not os.path.exists(ctx.path(rel))]
    if missing:
        raise DataError(
            f"stage {name} requires {missing[0]} (run earlier stages first)"
        )
    input_hashes = {rel: _digest(ctx.run_dir, rel, digests) for rel in stage.inputs}
    reason = "forced" if force else ctx.manifest.stage_current(
        name, stage.version, ctx.config, input_hashes, ctx.run_dir, digests
    )
    if reason is None:
        log.info("stage %s: up to date, skipping", name)
        return False
    log.info("stage %s: running (%s)", name, reason)
    for rel in stage.outputs:
        os.makedirs(os.path.dirname(ctx.path(rel)), exist_ok=True)
    config = RecordingConfig(ctx.config)
    t0 = time.perf_counter()
    stage.fn(dataclasses.replace(ctx, config=config))
    wall = time.perf_counter() - t0
    output_hashes = {}
    for rel in stage.outputs:
        if not os.path.exists(ctx.path(rel)):
            raise DataError(f"stage {name} did not produce {rel}")
        output_hashes[rel] = sha256_file(ctx.path(rel))
    digests.update(output_hashes)
    ctx.manifest.record(name, config.read, input_hashes, output_hashes, wall, reason,
                        stage.version)
    log.info("stage %s: done in %.1fs", name, wall)
    return True


def run_all(ctx: Context, force=False):
    ran = []
    digests = {}
    for name in STAGE_NAMES:
        if run_stage(ctx, name, force=force, digests=digests):
            ran.append(name)
    return ran


def make_context(config: ExperimentConfig, run_dir=None) -> Context:
    if run_dir is None:
        run_dir = os.environ.get("XLDV_RUN_DIR") or os.path.join(
            "runs", config.hash()[:12]
        )
    os.makedirs(run_dir, exist_ok=True)
    resolved = pathlib.Path(run_dir, "config.resolved.ini")
    text = config.canonical_text().encode("utf-8")
    # rewritten only when it differs, so a no-op run touches no file
    if not resolved.is_file() or resolved.read_bytes() != text:
        with archive.atomic_open(resolved, "wb") as fh:
            fh.write(text)
    return Context(config=config, run_dir=run_dir, manifest=RunManifest(run_dir))
