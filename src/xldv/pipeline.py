"""Pipeline stages and the run manifest.

Every stage declares its input and output artifacts (paths under the run
directory). A stage body reads configuration only as ``ctx.config[key]``;
``run_stage`` hands it a view that records each key read, and the manifest
stores that ``{key: value}`` map beside the stage's input and output
checksums. A stage is skipped when every recorded key still has its recorded
value and all input/output checksums still match: a verifying-traces rebuilder
with dynamic dependencies (Mokhov, Mitchell & Peyton Jones, "Build Systems a
la Carte", ICFP 2018). So re-running an unchanged experiment is a no-op,
changing one config key re-runs the stages that read it plus the dependents
whose inputs actually changed, and deleting one stage's outputs regenerates
only that stage (and dependents whose inputs actually changed). The reason a
stage ran is logged and kept in its record, with a per-stage run counter.
One ``run_all`` hashes each file at most once: stages share a digest memo,
and a stage that runs replaces its outputs' entries.
"""

import dataclasses
import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, archive, backend, corpus, ctdnn, evalkit, frontend, ivector, phonenet
from .config import ExperimentConfig
from .errors import DataError
from .evalkit import METRICS, SYSTEMS
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


def condition_token(condition):
    return condition.replace("/", "x")


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
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    def record(self, stage, config_keys, inputs, outputs, wall_clock, reason):
        previous = self.data["stages"].get(stage, {})
        self.data["tool_version"] = __version__
        self.data["stages"][stage] = {
            "config_keys": config_keys,
            "inputs": inputs,
            "outputs": outputs,
            "reason": reason,
            "run_seq": previous.get("run_seq", 0) + 1,
            "wall_clock_s": round(wall_clock, 3),
        }
        self.save()

    def stage_current(self, stage, config, input_hashes, run_dir, digests):
        """Why ``stage`` has to run, or None when its record is still current.

        Output files are hashed through ``digests``, a rel -> sha256 memo.
        """
        rec = self.data["stages"].get(stage)
        if rec is None:
            return "no record"
        if "config_keys" not in rec:
            return "record has no config keys"
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

    @property
    def train_dtype(self):
        return np.float64 if self.config["experiment.deterministic"] else np.float32


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
        envelope_floor=cfg["corpus.envelope_floor"],
    )


def _ctdnn_config(cfg: ExperimentConfig) -> ctdnn.CTDNNConfig:
    return ctdnn.CTDNNConfig(
        n_speakers=cfg["corpus.n_train_speakers"],
        n_mels=cfg["frontend.n_mels"],
        splice_left=cfg["frontend.splice_left"],
        splice_right=cfg["frontend.splice_right"],
        conv1_channels=cfg["ctdnn.conv1_channels"],
        conv2_channels=cfg["ctdnn.conv2_channels"],
        bottleneck_dim=cfg["ctdnn.bottleneck_dim"],
        td_hidden=cfg["ctdnn.td_hidden"],
        pnorm_group=cfg["ctdnn.pnorm_group"],
        feature_dim=cfg["ctdnn.feature_dim"],
        factor_dim=cfg["asr.svd_rank"],
        factor_injection=cfg["ctdnn.factor_injection"],
    )


def _load_manifest(ctx: Context) -> corpus.CorpusManifest:
    return corpus.CorpusManifest.load(ctx.path("corpus"))


def _train_records(manifest):
    train = set(manifest.train_speakers)
    return [r for r in manifest.records if r.speaker_id in train]


def _eval_records(manifest):
    train = set(manifest.train_speakers)
    return [r for r in manifest.records if r.speaker_id not in train]


def _backend_subset(manifest, per_speaker):
    """First N train utterances per speaker (by utterance id) for back-ends."""
    chosen = []
    by_spk = {}
    for rec in sorted(_train_records(manifest), key=lambda r: r.utterance_id):
        taken = by_spk.setdefault(rec.speaker_id, 0)
        if taken < per_speaker:
            by_spk[rec.speaker_id] += 1
            chosen.append(rec)
    return chosen


# --- stage bodies ----------------------------------------------------------


def stage_synth(ctx: Context):
    cfg = ctx.config
    manifest = corpus.build_corpus(
        _corpus_config(cfg), cfg["corpus.seed"], ctx.path("corpus")
    )
    digest = hashlib.sha256()
    for rec in manifest.records:
        digest.update(rec.utterance_id.encode())
        digest.update(sha256_file(manifest.wav_path(rec)).encode())
    with open(ctx.path("corpus/wav.sha256"), "w", encoding="utf-8") as fh:
        fh.write(digest.hexdigest() + "\n")


def stage_feats(ctx: Context):
    manifest = _load_manifest(ctx)
    n_mels = ctx.config["frontend.n_mels"]

    def fbank_records():
        for rec in manifest.records:
            utt = corpus.load_utterance(manifest, rec)
            yield frontend.cmvn(frontend.fbank(utt, n_mels=n_mels))

    def mfcc_records():
        for rec in manifest.records:
            utt = corpus.load_utterance(manifest, rec)
            yield frontend.cmvn(frontend.add_deltas(frontend.mfcc(utt)))

    archive.archive_write(fbank_records(), ctx.path("feats/fbank.farc"))
    archive.archive_write(mfcc_records(), ctx.path("feats/mfcc.farc"))


def stage_train_asr(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    feats = archive.archive_read_dict(ctx.path("feats/fbank.farc"))
    train_feats = [feats[r.utterance_id] for r in _train_records(manifest)]
    labels = {
        r.utterance_id: corpus.expand_labels(
            manifest.labels[r.utterance_id], feats[r.utterance_id].n_frames
        )
        for r in _train_records(manifest)
    }
    net_config = phonenet.PhoneNetConfig(
        n_phones=cfg["corpus.n_phones"],
        n_mels=cfg["frontend.n_mels"],
        td_hidden=cfg["asr.td_hidden"],
        n_stages=cfg["asr.n_stages"],
    )
    graph = phonenet.build_phone_classifier(
        net_config, seed=cfg["asr.seed"], dtype=ctx.train_dtype
    )
    data = phonenet.make_phone_dataset(
        train_feats, labels, chunk_frames=cfg["asr.chunk_frames"],
        batch_chunks=cfg["asr.batch_chunks"], seed=cfg["asr.seed"],
    )
    state = TrainState(
        learning_rate=cfg["asr.learning_rate"], max_epochs=cfg["asr.epochs"],
        batches_per_epoch=cfg["asr.batches_per_epoch"], seed=cfg["asr.seed"],
    )
    result = phonenet.train_phone_classifier(graph, data, state)
    log.info("phone classifier: val frame accuracy %.3f", result.val_accuracy)
    graph.save(
        ctx.path("models/asr.nnck"),
        extra_header={
            "kind": "phone-classifier",
            "val_accuracy": result.val_accuracy,
            "val_loss": result.val_loss,
        },
    )
    extractor = phonenet.svd_decompose(graph, rank=cfg["asr.svd_rank"])
    phonenet.save_extractor(ctx.path("models/svdf.nnck"), extractor)

    def factor_records():
        for rec in manifest.records:
            feat = feats[rec.utterance_id]
            factors = phonenet.linguistic_factor(extractor, graph, feat)
            yield frontend.FeatureMatrix(
                rec.utterance_id, rec.speaker_id, rec.language_id,
                factors.astype(np.float32),
            )

    archive.archive_write(factor_records(), ctx.path("feats/factors.farc"))


def _train_one_ctdnn(ctx: Context, aware: bool):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    feats = archive.archive_read_dict(ctx.path("feats/fbank.farc"))
    train_recs = _train_records(manifest)
    net_config = _ctdnn_config(cfg)
    labels = ctdnn.contiguous_labels(manifest.train_speakers)
    factors_by_utt = None
    variant = "phone-aware" if aware else "phone-blind"
    seed = corpus.derive_rng(cfg["ctdnn.seed"], variant).integers(0, 2**31 - 1)
    if aware:
        factors = archive.archive_read_dict(ctx.path("feats/factors.farc"))
        factors_by_utt = {u: f.data for u, f in factors.items()}
        graph = ctdnn.build_phone_aware(net_config, seed=int(seed), dtype=ctx.train_dtype)
    else:
        graph = ctdnn.build_phone_blind(net_config, seed=int(seed), dtype=ctx.train_dtype)
    data = ctdnn.make_speaker_dataset(
        [feats[r.utterance_id] for r in train_recs], labels, net_config,
        factors_by_utt=factors_by_utt, chunk_frames=cfg["ctdnn.chunk_frames"],
        batch_chunks=cfg["ctdnn.batch_chunks"],
        val_fraction=cfg["ctdnn.val_fraction"], seed=int(seed),
    )
    state = TrainState(
        learning_rate=cfg["ctdnn.learning_rate"], momentum=cfg["ctdnn.momentum"],
        max_epochs=cfg["ctdnn.epochs"], batches_per_epoch=cfg["ctdnn.batches_per_epoch"],
        seed=int(seed),
    )
    result = ctdnn.train_ctdnn(graph, data, state)
    log.info("%s feature net: val frame accuracy %.3f", variant, result.val_accuracy)
    name = "ctdnn_aware" if aware else "ctdnn_blind"
    graph.save(
        ctx.path(f"models/{name}.nnck"),
        extra_header={
            "kind": "ctdnn",
            "variant": variant,
            "input_signature": {
                "feature": "fbank+cmvn",
                "n_mels": cfg["frontend.n_mels"],
                "splice": [cfg["frontend.splice_left"], cfg["frontend.splice_right"]],
            },
            "val_accuracy": result.val_accuracy,
            "val_loss": result.val_loss,
        },
    )


def stage_train_ctdnn(ctx: Context):
    _train_one_ctdnn(ctx, aware=False)
    _train_one_ctdnn(ctx, aware=True)


def stage_train_ubm(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    rows = []
    train_ids = {r.utterance_id for r in _train_records(manifest)}
    for feat in archive.archive_stream(ctx.path("feats/mfcc.farc")):
        if feat.utterance_id in train_ids:
            rows.append(feat.data)
    frames = np.concatenate(rows)
    budget = cfg["ivector.ubm_frames"]
    if frames.shape[0] > budget:
        rng = corpus.derive_rng(cfg["ivector.seed"], "ubm-subsample")
        frames = frames[rng.choice(frames.shape[0], budget, replace=False)]
    ubm = ivector.train_ubm(
        frames, cfg["ivector.n_components"], n_iters=cfg["ivector.ubm_iters"],
        seed=cfg["ivector.seed"],
    )
    archive.save_checkpoint(
        ctx.path("models/ubm.nnck"),
        {"kind": "ubm", "section": "UBM0", "objective": ubm.objective},
        {"UBM0.weights": ubm.weights, "UBM0.means": ubm.means,
         "UBM0.variances": ubm.variances},
    )


def load_ubm(path) -> ivector.UBM:
    header, tensors = archive.load_checkpoint(path)
    return ivector.UBM(
        weights=tensors["UBM0.weights"], means=tensors["UBM0.means"],
        variances=tensors["UBM0.variances"], objective=header.get("objective", []),
    )


def load_tmatrix(path) -> ivector.TMatrix:
    header, tensors = archive.load_checkpoint(path)
    return ivector.TMatrix(
        t=tensors["TVMX.t"], n_components=header["n_components"],
        dim=header["dim"], objective=header.get("objective", []),
    )


def stage_train_tv(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    ubm = load_ubm(ctx.path("models/ubm.nnck"))
    train_ids = {r.utterance_id for r in _train_records(manifest)}
    stats = []
    for feat in archive.archive_stream(ctx.path("feats/mfcc.farc")):
        if feat.utterance_id in train_ids:
            stats.append(ivector.accumulate_stats(ubm, feat))
    tmat = ivector.train_tmatrix(
        ubm, stats, rank=cfg["ivector.dim"], n_iters=cfg["ivector.tv_iters"],
        seed=cfg["ivector.seed"],
    )
    archive.save_checkpoint(
        ctx.path("models/tmatrix.nnck"),
        {"kind": "tmatrix", "section": "TVMX", "n_components": tmat.n_components,
         "dim": tmat.dim, "objective": tmat.objective},
        {"TVMX.t": tmat.t},
    )


def _extract_dvectors(ctx: Context, records, aware: bool, feats, factors):
    name = "ctdnn_aware" if aware else "ctdnn_blind"
    graph, _ = NetworkGraph.from_checkpoint(ctx.path(f"models/{name}.nnck"))
    net_config = _ctdnn_config(ctx.config)
    ids, spks, langs, rows = [], [], [], []
    for rec in records:
        feat = feats[rec.utterance_id]
        fac = factors[rec.utterance_id].data if aware else None
        frames = ctdnn.extract_frame_features(graph, feat, net_config, factors=fac)
        rows.append(ctdnn.dvector(frames))
        ids.append(rec.utterance_id)
        spks.append(rec.speaker_id)
        langs.append(rec.language_id)
    return backend.EmbeddingSet(ids, spks, langs, np.array(rows))


def stage_extract(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    train_recs = _backend_subset(manifest, cfg["backend.train_utts_per_speaker"])
    eval_recs = _eval_records(manifest)
    feats = archive.archive_read_dict(ctx.path("feats/fbank.farc"))
    factors = archive.archive_read_dict(ctx.path("feats/factors.farc"))
    for aware, tag in ((False, "dvec_blind"), (True, "dvec_aware")):
        for recs, split in ((train_recs, "train"), (eval_recs, "eval")):
            emb = _extract_dvectors(ctx, recs, aware, feats, factors)
            emb.to_archive(ctx.path(f"embeddings/{tag}_{split}.farc"))
    del feats, factors
    ubm = load_ubm(ctx.path("models/ubm.nnck"))
    tmat = load_tmatrix(ctx.path("models/tmatrix.nnck"))
    mfcc_feats = archive.archive_read_dict(ctx.path("feats/mfcc.farc"))
    for recs, split in ((train_recs, "train"), (eval_recs, "eval")):
        ids, spks, langs, rows = [], [], [], []
        for rec in recs:
            stats = ivector.accumulate_stats(ubm, mfcc_feats[rec.utterance_id])
            rows.append(ivector.extract_ivector(ubm, tmat, stats))
            ids.append(rec.utterance_id)
            spks.append(rec.speaker_id)
            langs.append(rec.language_id)
        backend.EmbeddingSet(ids, spks, langs, np.array(rows)).to_archive(
            ctx.path(f"embeddings/ivec_{split}.farc")
        )


EMBEDDING_TAGS = dict(zip(SYSTEMS, ("ivec", "dvec_blind", "dvec_aware")))


def stage_backend_train(ctx: Context):
    cfg = ctx.config
    for system, tag in EMBEDDING_TAGS.items():
        emb = backend.EmbeddingSet.from_archive(
            ctx.path(f"embeddings/{tag}_train.farc")
        )
        mean = emb.vectors.mean(axis=0)
        normed = backend.center_lengthnorm(emb.vectors, mean)
        label_of = {s: i for i, s in enumerate(sorted(set(emb.speaker_ids)))}
        labels = np.array([label_of[s] for s in emb.speaker_ids])
        n_classes = labels.max() + 1
        k = min(cfg["backend.lda_dim"], emb.dim, n_classes - 1)
        if k < cfg["backend.lda_dim"]:
            log.info("%s: LDA dim clamped to %d", system, k)
        lda = backend.train_lda(normed, labels, k)
        plda = backend.train_plda(normed, labels, n_iters=cfg["backend.plda_iters"])
        archive.save_checkpoint(
            ctx.path(f"models/backend_{system}.nnck"),
            {"kind": "backend", "system": system, "sections": ["LDAP", "PLDA"],
             "plda_objective": plda.objective, "lda_dim": int(k)},
            {
                "MEAN.mean": mean,
                "LDAP.mean": lda.mean,
                "LDAP.matrix": lda.matrix,
                "LDAP.eigenvalues": lda.eigenvalues,
                "PLDA.mu": plda.mu,
                "PLDA.phi_b": plda.phi_b,
                "PLDA.phi_w": plda.phi_w,
            },
        )


def load_backend(path):
    header, tensors = archive.load_checkpoint(path)
    lda = backend.LDAProjection(
        mean=tensors["LDAP.mean"], matrix=tensors["LDAP.matrix"],
        eigenvalues=tensors["LDAP.eigenvalues"],
    )
    plda = backend.PLDAModel(
        mu=tensors["PLDA.mu"], phi_b=tensors["PLDA.phi_b"],
        phi_w=tensors["PLDA.phi_w"], objective=header.get("plda_objective", []),
    )
    return tensors["MEAN.mean"], lda, plda


def conditions(cfg) -> list:
    return [c.strip() for c in cfg["eval.conditions"].split(",") if c.strip()]


def stage_score(ctx: Context):
    cfg = ctx.config
    manifest = _load_manifest(ctx)
    trial_lists = {}
    for cond in conditions(cfg):
        trials = evalkit.make_trials(manifest, cond)
        trials.save(ctx.path(f"trials/{condition_token(cond)}.tsv"))
        trial_lists[cond] = trials
    for system, tag in EMBEDDING_TAGS.items():
        mean, lda, plda = load_backend(ctx.path(f"models/backend_{system}.nnck"))
        emb = backend.EmbeddingSet.from_archive(ctx.path(f"embeddings/{tag}_eval.farc"))
        normed = backend.center_lengthnorm(emb.vectors, mean)
        by_utt = dict(zip(emb.utterance_ids, normed))
        scorers = {
            "cosine": backend.CosineScorer(),
            "lda": backend.CosineScorer(lda=lda),
            "plda": backend.PLDAScorer(plda),
        }
        for cond, trials in trial_lists.items():
            for metric, scorer in scorers.items():
                scores = evalkit.score_trials(scorer, by_utt, trials)
                scores.save(ctx.path(
                    f"scores/{system}_{metric}_{condition_token(cond)}.tsv"
                ))


def stage_eval(ctx: Context):
    cfg = ctx.config
    lines = []
    for system in SYSTEMS:
        for metric in METRICS:
            for cond in conditions(cfg):
                token = condition_token(cond)
                trials = evalkit.TrialList.load(
                    ctx.path(f"trials/{token}.tsv"), cond
                )
                scores = evalkit.ScoreSet.load(
                    ctx.path(f"scores/{system}_{metric}_{token}.tsv"), trials
                )
                res = evalkit.compute_eer(scores)
                lines.append(
                    f"{system}\t{metric}\t{cond}\t{res.eer:.6f}\t"
                    f"{res.threshold:.8e}\t{res.n_target}\t{res.n_nontarget}\n"
                )
    with open(ctx.path("results/eer.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def read_eer_table(path):
    results = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            system, metric, cond, eer, thr, n_tar, n_non = line.rstrip("\n").split("\t")
            results[(system, metric, cond)] = evalkit.EERResult(
                float(eer), float(thr), int(n_tar), int(n_non)
            )
    return results


def stage_report(ctx: Context):
    results = read_eer_table(ctx.path("results/eer.tsv"))
    tsv, text = evalkit.results_table(results, conditions(ctx.config))
    with open(ctx.path("results/report.tsv"), "w", encoding="utf-8") as fh:
        fh.write(tsv)
    with open(ctx.path("results/report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)


def _score_outputs(cfg):
    out = []
    for system in SYSTEMS:
        for metric in METRICS:
            for cond in conditions(cfg):
                out.append(f"scores/{system}_{metric}_{condition_token(cond)}.tsv")
    out += [f"trials/{condition_token(c)}.tsv" for c in conditions(cfg)]
    return tuple(out)


def stage_definitions(cfg):
    corpus_outputs = (
        "corpus/manifest.tsv", "corpus/labels.tsv", "corpus/speakers.tsv",
        "corpus/wav.sha256",
    )
    model_outputs = {
        "train-asr": ("models/asr.nnck", "models/svdf.nnck", "feats/factors.farc"),
        "train-ctdnn": ("models/ctdnn_blind.nnck", "models/ctdnn_aware.nnck"),
        "train-ubm": ("models/ubm.nnck",),
        "train-tv": ("models/tmatrix.nnck",),
    }
    embedding_outputs = tuple(
        f"embeddings/{tag}_{split}.farc"
        for tag in EMBEDDING_TAGS.values()
        for split in ("train", "eval")
    )
    backend_outputs = tuple(
        f"models/backend_{system}.nnck" for system in SYSTEMS
    )
    return [
        ("synth", (), corpus_outputs, stage_synth),
        ("feats", corpus_outputs, ("feats/fbank.farc", "feats/mfcc.farc"), stage_feats),
        ("train-asr", corpus_outputs + ("feats/fbank.farc",),
         model_outputs["train-asr"], stage_train_asr),
        ("train-ctdnn",
         corpus_outputs + ("feats/fbank.farc", "feats/factors.farc"),
         model_outputs["train-ctdnn"], stage_train_ctdnn),
        ("train-ubm", corpus_outputs + ("feats/mfcc.farc",),
         model_outputs["train-ubm"], stage_train_ubm),
        ("train-tv", corpus_outputs + ("feats/mfcc.farc", "models/ubm.nnck"),
         model_outputs["train-tv"], stage_train_tv),
        ("extract",
         corpus_outputs + ("feats/fbank.farc", "feats/mfcc.farc",
                           "feats/factors.farc", "models/ctdnn_blind.nnck",
                           "models/ctdnn_aware.nnck", "models/ubm.nnck",
                           "models/tmatrix.nnck"),
         embedding_outputs, stage_extract),
        ("backend-train", embedding_outputs, backend_outputs, stage_backend_train),
        ("score",
         corpus_outputs + embedding_outputs + backend_outputs,
         _score_outputs(cfg), stage_score),
        ("eval", _score_outputs(cfg), ("results/eer.tsv",), stage_eval),
        ("report", ("results/eer.tsv",),
         ("results/report.tsv", "results/report.txt"), stage_report),
    ]


STAGE_NAMES = [
    "synth", "feats", "train-asr", "train-ctdnn", "train-ubm", "train-tv",
    "extract", "backend-train", "score", "eval", "report",
]


def _ensure_dirs(run_dir):
    for sub in ("corpus", "feats", "models", "embeddings", "trials", "scores",
                "results"):
        os.makedirs(os.path.join(run_dir, sub), exist_ok=True)


def run_stage(ctx: Context, name, force=False, digests=None):
    """Run one stage (skipping if current); returns True if work was done.

    ``digests`` is a rel -> sha256 memo that ``run_all`` shares across its
    stages, so each file is hashed once per invocation; a stage that runs
    replaces its outputs' entries. Without it every file is hashed afresh.
    """
    if digests is None:
        digests = {}
    defs = {d[0]: d for d in stage_definitions(ctx.config)}
    if name not in defs:
        raise DataError(f"unknown stage {name!r}")
    _, inputs, outputs, fn = defs[name]
    _ensure_dirs(ctx.run_dir)
    missing = [rel for rel in inputs if not os.path.exists(ctx.path(rel))]
    if missing:
        raise DataError(
            f"stage {name} requires {missing[0]} (run earlier stages first)"
        )
    input_hashes = {rel: _digest(ctx.run_dir, rel, digests) for rel in inputs}
    reason = "forced" if force else ctx.manifest.stage_current(
        name, ctx.config, input_hashes, ctx.run_dir, digests
    )
    if reason is None:
        log.info("stage %s: up to date, skipping", name)
        return False
    log.info("stage %s: running (%s)", name, reason)
    config = RecordingConfig(ctx.config)
    t0 = time.perf_counter()
    fn(dataclasses.replace(ctx, config=config))
    wall = time.perf_counter() - t0
    output_hashes = {}
    for rel in outputs:
        if not os.path.exists(ctx.path(rel)):
            raise DataError(f"stage {name} did not produce {rel}")
        output_hashes[rel] = sha256_file(ctx.path(rel))
    digests.update(output_hashes)
    ctx.manifest.record(name, config.read, input_hashes, output_hashes, wall, reason)
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
    resolved = os.path.join(run_dir, "config.resolved.ini")
    with open(resolved, "w", encoding="utf-8") as fh:
        fh.write(config.canonical_text())
    return Context(config=config, run_dir=run_dir, manifest=RunManifest(run_dir))
