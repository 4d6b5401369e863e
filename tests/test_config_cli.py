"""Configuration parsing/validation and the CLI pipeline on a tiny corpus."""

import itertools
import json
import logging
import multiprocessing
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
import scipy

import xldv
from xldv import archive, backend, corpus, evalkit, ivector, pipeline, workers
from xldv.cli import main
from xldv.config import (
    SCHEMA,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from xldv.errors import ConfigError, DataError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY_OVERRIDES = [
    "corpus.n_train_speakers=6",
    "corpus.n_train_utts=4",
    "corpus.n_eval_speakers=3",
    "corpus.n_eval_utts=2",
    "corpus.n_phones=8",
    "corpus.min_duration_s=1.0",
    "corpus.max_duration_s=1.4",
    "ctdnn.conv1_channels=4",
    "ctdnn.conv2_channels=6",
    "ctdnn.bottleneck_dim=32",
    "ctdnn.td_hidden=16",
    "ctdnn.feature_dim=16",
    "ctdnn.epochs=1",
    "ctdnn.batches_per_epoch=20",
    "asr.td_hidden=16",
    "asr.svd_rank=4",
    "asr.epochs=1",
    "asr.batches_per_epoch=15",
    "ivector.n_components=4",
    "ivector.dim=8",
    "ivector.ubm_iters=3",
    "ivector.tv_iters=3",
    "ivector.ubm_frames=20000",
    "backend.lda_dim=5",
    "backend.plda_iters=3",
    "backend.train_utts_per_speaker=4",
]

# Keys that were retired because every run left them at their default; each
# value is now a module constant. A run dir made while they existed recorded
# them, with these values, in the stages listed in RETIRED_READERS.
RETIRED_KEYS = {
    "corpus.envelope_floor": 0.5,
    "frontend.n_mels": 40,
    "frontend.splice_left": 4,
    "frontend.splice_right": 4,
    "ctdnn.pnorm_group": 2,
    "ctdnn.momentum": 0.9,
    "asr.n_stages": 2,
    "asr.chunk_frames": 32,
    "asr.batch_chunks": 8,
    "asr.learning_rate": 0.01,
}
_CTDNN_SHAPE_KEYS = ("frontend.n_mels", "frontend.splice_left", "frontend.splice_right",
                "ctdnn.pnorm_group")
RETIRED_READERS = {
    "synth": ("corpus.envelope_floor",),
    "feats": ("frontend.n_mels",),
    "train-asr": ("frontend.n_mels", "asr.n_stages", "asr.chunk_frames", "asr.batch_chunks",
                  "asr.learning_rate"),
    "train-ctdnn": _CTDNN_SHAPE_KEYS + ("ctdnn.momentum",),
    "extract": _CTDNN_SHAPE_KEYS,
}


def tiny_args(run_dir, extra=()):
    args = []
    for kv in TINY_OVERRIDES + list(extra):
        args += ["--set", kv]
    return args + ["--run-dir", str(run_dir), "--quiet"]


class TestConfig:
    def test_empty_file_materializes_all_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        report = load_config(path).report()
        assert "corpus.n_train_speakers = 200" in report
        assert "ctdnn.bottleneck_dim = 512" in report
        assert "ctdnn.feature_dim = 400" in report
        # derived seeds are materialized to explicit values
        for line in report.splitlines():
            if line.endswith(".seed") or ".seed =" in line:
                assert "-1" not in line.split("=")[1]

    def test_misspelled_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("corpus.n_train_speakers = 10\ncorpus.n_phoness = 3\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path).report()

    def test_type_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("corpus.n_train_speakers = ten\n")

    def test_paper_scale_config_flagged_large(self, tmp_path):
        path = tmp_path / "paper.ini"
        path.write_text(
            "corpus.n_train_speakers = 5000\n"
            "ivector.n_components = 2048\n"
            "ivector.dim = 400\n"
        )
        report = load_config(path).report()
        assert "flag: large-scale" in report
        assert "ivector.n_components = 2048" in report

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("corpus.n_phones = 3\ncorpus.n_phones = 4\n")

    def test_comments_and_blank_lines_ok(self):
        values = parse_config_text("# comment\n\ncorpus.n_phones = 9  # inline\n")
        assert values == {"corpus.n_phones": 9}

    def test_seed_derivation_changes_with_master(self):
        a = ExperimentConfig({"experiment.seed": 1})
        b = ExperimentConfig({"experiment.seed": 2})
        assert a["corpus.seed"] != b["corpus.seed"]
        assert a["corpus.seed"] == ExperimentConfig({"experiment.seed": 1})["corpus.seed"]

    def test_explicit_seed_respected(self):
        cfg = ExperimentConfig({"corpus.seed": 777})
        assert cfg["corpus.seed"] == 777

    def test_svd_rank_cross_check(self):
        with pytest.raises(ConfigError, match="svd_rank"):
            load_config(None, ["corpus.n_phones=8", "asr.svd_rank=40"]).validate()

    @pytest.mark.parametrize("key", [k for k, f in SCHEMA.items() if f.low is not None])
    def test_schema_bound_rejects_the_value_below_it(self, capsys, key):
        low = SCHEMA[key].low
        assert SCHEMA[key].default >= low
        code = main(["validate-config", "--set", f"{key}={low - 1}", "--quiet"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"xldv: error: config: {key} must be >= {low}"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_reports_line_number(self, value):
        with pytest.raises(ConfigError, match=r"line 2: .*corpus\.language_emphasis_db"):
            parse_config_text(f"corpus.n_phones = 9\ncorpus.language_emphasis_db = {value}\n")

    @pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
    def test_benchmark_workload_config_loads(self, workload):
        # perfbench runs these files; a new bound must not reject them
        load_config(os.path.join(ROOT, "perfbench", "workloads", f"{workload}.ini"))

    def test_override_replaces_the_file_value(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("corpus.n_train_utts = 9\ncorpus.seed = 777\n")
        cfg = load_config(path, ["corpus.n_train_utts=12", "corpus.seed=-1"])
        assert cfg["corpus.n_train_utts"] == 12
        assert cfg["corpus.seed"] == load_config(None)["corpus.seed"]  # -1 derives it again
        assert load_config(path, ["experiment.seed=5"])["corpus.seed"] == 777

    def test_override_without_equals_sign_is_rejected(self):
        with pytest.raises(ConfigError, match="^override must look like section.key=value: "
                                              "'corpus.n_phones'$"):
            load_config(None, ["corpus.n_phones"])

    def test_canonical_hash_stable_under_override_order(self):
        c1 = load_config(None, ["corpus.n_train_utts=9", "ivector.dim=50"])
        c2 = load_config(None, ["ivector.dim=50", "corpus.n_train_utts=9"])
        assert c1.hash() == c2.hash()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    code = main(["all"] + tiny_args(run_dir))
    assert code == 0
    return run_dir


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_tiny.json")


def golden_digests(run_dir):
    """Each stage's code version and output sha256 values in a tiny run, and the
    environment its bytes hold for: the manifest's ``blas`` entry, numpy and scipy."""
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {
        "environment": {"blas": manifest["blas"], "numpy": np.__version__,
                        "scipy": scipy.__version__},
        "stages": {name: {"version": rec["version"], "outputs": rec["outputs"]}
                   for name, rec in manifest["stages"].items()},
    }


class TestCli:
    def test_run_all_produces_full_report(self, tiny_run):
        report = (tiny_run / "results" / "report.tsv").read_text()
        lines = report.splitlines()
        assert len(lines) == 10  # header + 3 systems x 3 metrics
        assert lines[0] == "System\tMetric\tA-A EER%\tB-B EER%\tA/B EER%"
        assert (tiny_run / "results" / "report.txt").exists()

    def test_manifest_records_blas(self, tiny_run):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        recorded = json.loads((tiny_run / "manifest.json").read_text())["blas"]
        core = recorded.pop("core")
        # tests/conftest.py sets OPENBLAS_NUM_THREADS to 1 before numpy loads
        assert recorded == {"name": blas["name"], "version": blas["version"], "threads": 1}
        assert recorded["name"] and recorded["version"]
        assert core == pipeline.blas_core()
        if blas["name"] == "scipy-openblas":
            assert isinstance(core, str) and core

    def test_manifest_blas_core_is_null_without_the_symbol(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "OPENBLAS_CORENAME", "no_such_symbol_")
        pipeline.RunManifest(str(tmp_path)).record("synth", {}, {}, {}, 0.0, "test")
        assert json.loads((tmp_path / "manifest.json").read_text())["blas"]["core"] is None

    @pytest.mark.parametrize("numpy_first, env_threads, recorded", [
        (True, None, None), (True, "2", 2), (False, "2", 1),
    ], ids=["numpy-first-unset", "numpy-first-2", "xldv-first-2"])
    def test_manifest_records_threads_the_blas_loaded_with(self, tmp_path, numpy_first,
                                                           env_threads, recorded):
        script = ("import numpy\n" if numpy_first else "") + (
            "import sys\n"
            "from xldv.pipeline import RunManifest\n"
            "RunManifest(sys.argv[1]).record('synth', {}, {}, {}, 0.0, 'test')\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(xldv.__file__))
        if env_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env_threads
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                       check=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["blas"]["threads"] == recorded

    def test_second_run_is_noop(self, tiny_run, caplog):
        manifest_before = (tiny_run / "manifest.json").read_text()
        code = main(["all"] + tiny_args(tiny_run))
        assert code == 0
        manifest_after = json.loads((tiny_run / "manifest.json").read_text())
        assert json.loads(manifest_before)["stages"] == manifest_after["stages"]

    def test_stage_records_keep_max_rss(self, tiny_run):
        # must run before any test here re-runs a stage of tiny_run: ru_maxrss
        # is the test process's high-water mark, so a later re-run records more
        manifest = tiny_run / "manifest.json"
        stages = json.loads(manifest.read_text())["stages"]
        rss = [stages[name]["max_rss_mb"] for name in pipeline.STAGE_NAMES]
        assert rss[0] > 0
        assert rss == sorted(rss)
        # the largest worker so far; synth already ran its utterances in workers
        child = [stages[name]["child_max_rss_mb"] for name in pipeline.STAGE_NAMES]
        assert child[0] > 0
        assert child == sorted(child)
        before = manifest.read_bytes()
        assert main(["all"] + tiny_args(tiny_run)) == 0
        assert manifest.read_bytes() == before

    def test_stage_isolation_on_deleted_output(self, tiny_run):
        before = json.loads((tiny_run / "manifest.json").read_text())["stages"]
        os.remove(tiny_run / "models" / "ubm.nnck")
        code = main(["all"] + tiny_args(tiny_run))
        assert code == 0
        after = json.loads((tiny_run / "manifest.json").read_text())["stages"]
        # the regenerated UBM is byte-identical, so downstream stages stay valid
        assert after["train-ubm"]["run_seq"] == before["train-ubm"]["run_seq"] + 1
        assert after["train-ubm"]["reason"] == "output models/ubm.nnck missing"
        assert after["train-ubm"]["outputs"] == before["train-ubm"]["outputs"]
        assert after["extract"] == before["extract"]
        assert after["report"] == before["report"]

    @pytest.mark.parametrize("change", ["rotate", "append-noise"])
    def test_back_end_does_not_depend_on_the_embedding_basis(self, run_copy, caplog,
                                                             change):
        # a random rotation of the embedding space, or appended dimensions of
        # rounding-level noise, leaves the span's rank, the floor and ridge
        # lines and every EER cell as they were (thresholds may round apart);
        # the tiny d-vectors have rank 9 in 16 dimensions
        ctx = tiny_context(run_copy)

        def back_end():
            caplog.clear()
            with caplog.at_level(logging.INFO):
                for name in ("backend-train", "score", "eval"):
                    pipeline.run_stage(ctx, name, force=True)
            lines = [re.sub(r" of \d+$", "", msg) for msg in caplog.messages
                     if re.search("span has rank|floored|ridge", msg)]
            rows = [line.split("\t") for line in
                    (run_copy / pipeline.EER_TABLE).read_text().splitlines()]
            return lines, [row[:4] + row[5:] for row in rows]

        before = back_end()
        rng = np.random.default_rng(30)
        for system in evalkit.SYSTEMS:
            paths = [run_copy / pipeline.embedding_file(system, split)
                     for split in pipeline.SPLITS]
            sets = [backend.EmbeddingSet.from_archive(path) for path in paths]
            rotation = np.linalg.qr(rng.normal(size=(sets[0].dim,) * 2))[0]
            for emb, path in zip(sets, paths):
                if change == "rotate":
                    emb.vectors = emb.vectors @ rotation
                else:
                    scale = 1e-7 * np.linalg.norm(emb.vectors, axis=1, keepdims=True)
                    emb.vectors = np.hstack([emb.vectors,
                                             scale * rng.normal(size=(len(emb), 4))])
                emb.to_archive(path)
        assert len(before[0]) == len(evalkit.SYSTEMS)
        assert back_end() == before

    def test_zero_within_class_scatter_exits_three(self, run_copy, capsys):
        # 1-D train i-vectors that share a sign within each speaker length-norm
        # to +-1, so LDA's within-class scatter is zero and no ridge scaled by
        # its trace can make it definite. The config cannot ask for them
        # (ivector.dim >= 2), so the test writes them.
        path = run_copy / pipeline.embedding_file("ivector", "train")
        utts = backend.EmbeddingSet.from_archive(path).utterance_ids
        manifest = corpus.CorpusManifest.load(run_copy / pipeline.CORPUS_DIR)
        speaker_of = {r.utterance_id: r.speaker_id for r in manifest.records}
        speakers = sorted(set(speaker_of.values()))
        signs = [[(-1.0) ** speakers.index(speaker_of[u])] for u in utts]
        backend.EmbeddingSet(utts, np.array(signs)).to_archive(path)
        assert main(["backend-train"] + tiny_args(run_copy)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["xldv: error: numeric: LDA: within-class scatter is zero"]

    @pytest.mark.parametrize("src, dst, stage", [
        ("tmatrix.nnck", "ubm.nnck", "train-tv"),
        ("ubm.nnck", "backend_ivector.nnck", "score"),
        ("ubm.nnck", "ctdnn_blind.nnck", "extract"),
    ], ids=["ubm", "backend", "ctdnn"])
    def test_checkpoint_of_the_wrong_kind_exits_two(self, run_copy, capsys, src, dst, stage):
        models = run_copy / "models"
        shutil.copyfile(models / src, models / dst)
        assert main([stage] + tiny_args(run_copy)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"xldv: error: data: {models / dst}: checkpoint kind is ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("src, dst, stage, entry", [
        ("backend_dvector-phone-aware.nnck", "backend_dvector-phone-blind.nnck", "score",
         "system is 'dvector-phone-aware', not 'dvector-phone-blind'"),
        ("backend_ivector.nnck", "backend_dvector-phone-blind.nnck", "score",
         "system is 'ivector', not 'dvector-phone-blind'"),
        ("ctdnn_aware.nnck", "ctdnn_blind.nnck", "extract",
         "variant is 'phone-aware', not 'phone-blind'"),
    ], ids=["aware-backend", "ivector-backend", "aware-ctdnn"])
    def test_checkpoint_of_another_system_exits_two(self, run_copy, capsys, src, dst, stage,
                                                    entry):
        models = run_copy / "models"
        shutil.copyfile(models / src, models / dst)
        assert main([stage] + tiny_args(run_copy)) == 2
        assert capsys.readouterr().err == (
            f"xldv: error: data: {models / dst}: checkpoint {entry}\n")

    def test_checkpoint_without_a_field_exits_two(self, run_copy, capsys):
        path = run_copy / pipeline.TMATRIX_MODEL
        header, tensors = archive.load_checkpoint(path)
        del header["tmatrix.dim"]
        archive.save_checkpoint(path, header, tensors)
        assert main(["extract"] + tiny_args(run_copy)) == 2
        assert capsys.readouterr().err == (
            f"xldv: error: data: {path}: tmatrix checkpoint lacks 'tmatrix.dim'\n")

    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:100],
        lambda raw: b"\xff\xfe" + raw,
        lambda raw: b'{"stages": []}\n',
    ], ids=["truncated", "not-utf8", "no-stage-table"])
    def test_corrupt_manifest_exits_two(self, tiny_run, tmp_path, capsys, corrupt):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        manifest = run_dir / "manifest.json"
        manifest.write_bytes(corrupt(manifest.read_bytes()))
        code = main(["all"] + tiny_args(run_dir))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("xldv: error: data:")
        assert "manifest.json" in err
        assert len(err.splitlines()) == 1

    def test_eval_without_scores_exits_two_naming_missing_file(self, tmp_path, capsys):
        code = main(["eval"] + tiny_args(tmp_path / "fresh"))
        assert code == 2
        err = capsys.readouterr().err
        assert "scores/" in err and err.startswith("xldv: error: data:")

    def test_run_dir_that_is_a_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_text("")
        assert main(["all"] + tiny_args(path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("xldv: error: data: "), err
        assert str(path) in err[0]

    def test_missing_wav_in_a_worker_exits_two(self, run_copy, capsys):
        # feats reads each wav in a worker, whose OSError reaches the stage process
        wav = sorted((run_copy / "corpus" / "wav").rglob("*.wav"))[0]
        wav.unlink()
        assert main(["feats", "--force"] + tiny_args(run_copy)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("xldv: error: data: "), err
        assert str(wav) in err[0]
        assert multiprocessing.active_children() == []

    def test_bad_config_exits_one(self, tmp_path, capsys):
        # each on top of the tiny config; all but the first two once failed
        # mid-run or ran to the end. A p-norm group of 2 cannot split an odd
        # width, the speaker nets need two classes, the T-matrix EM needs
        # ivector.dim (8 here) training utterances (24 here), the UBM 2 frames
        # per component (4 here) and two components (one makes every i-vector
        # a function of the frame count), LDA and PLDA two utterances per
        # speaker, and LDA two i-vector dimensions (a 1-D one length-norms to
        # +-1, which can leave no within-class scatter)
        for override in ("corpus.not_a_key=1", "corpus.min_duration_s=0",
                         "ctdnn.td_hidden=7", "asr.td_hidden=15", "corpus.n_train_speakers=1",
                         "ivector.dim=30", "ivector.ubm_frames=5", "ctdnn.chunk_frames=0",
                         "backend.train_utts_per_speaker=1", "ctdnn.epochs=-1",
                         "corpus.max_duration_s=inf", "ivector.n_components=1",
                         "ivector.dim=1"):
            code = main(["all"] + tiny_args(tmp_path / "x", [override]))
            assert code == 1, override
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("xldv: error: config:"), override
            assert override.split("=")[0] in lines[0], override
            assert not (tmp_path / "x").exists(), override

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_exits_one(self, tmp_path, capsys, kind):
        path = {"missing": tmp_path / "none.ini", "directory": tmp_path,
                "not-utf8": tmp_path / "latin1.ini"}[kind]
        if kind == "not-utf8":
            path.write_bytes(b"# \xe9\n")
        code = main(["validate-config", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"xldv: error: config: cannot read {path}")

    @pytest.mark.parametrize("key, value", [
        ("ctdnn.factor_injection", "bottleneck"),
        ("experiment.deterministic", "true"),
        *RETIRED_KEYS.items(),
    ], ids=["ctdnn.factor_injection", "experiment.deterministic", *RETIRED_KEYS])
    def test_removed_key_exits_one(self, tmp_path, capsys, key, value):
        path = tmp_path / "old.ini"
        path.write_text(f"corpus.n_train_utts = 9\n{key} = {value}\n")
        code = main(["validate-config", "--config", str(path), "--quiet"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"xldv: error: config: line 2: unknown key {key!r}"]

    def test_removed_deterministic_flag_exits_one(self, tmp_path, capsys):
        code = main(["all", "--deterministic"] + tiny_args(tmp_path / "run"))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("xldv: error: config:")
        assert "--deterministic" in lines[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["validate-config", "all"])
    @pytest.mark.parametrize("conditions", ["A/B/C", "A-A-A", "A/A", "A-A,A-A", "C-C", ""])
    def test_bad_conditions_exit_one_before_any_stage(self, tmp_path, capsys, command,
                                                      conditions):
        # the trial conditions are fixed (evalkit.CONDITIONS); the retired key is unknown
        code = main([command, "--set", f"eval.conditions={conditions}",
                     "--run-dir", str(tmp_path / "run"), "--quiet"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["xldv: error: config: unknown key 'eval.conditions'"]
        assert not (tmp_path / "run").exists()

    def test_synth_runs_in_empty_run_dir(self, tmp_path):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        assert pipeline.run_stage(tiny_context(run_dir), "synth")
        # only the directories of the stage's own outputs are made
        assert sorted(os.listdir(run_dir)) == [
            "config.resolved.ini", "corpus", "manifest.json"
        ]
        for rel in pipeline.CORPUS_FILES:
            assert (run_dir / rel).is_file()

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_validate_config_prints_report(self, capsys):
        assert main(["validate-config", "--set", "corpus.n_train_utts=9"]) == 0
        out = capsys.readouterr().out
        assert "corpus.n_train_utts = 9" in out

    def test_seed_flag_overrides_master(self, capsys, monkeypatch):
        validated = []
        real = ExperimentConfig.validate

        def counting(cfg):
            validated.append(cfg.values["experiment.seed"])
            return real(cfg)

        monkeypatch.setattr(ExperimentConfig, "validate", counting)
        assert main(["validate-config", "--set", "experiment.seed=5", "--seed", "999"]) == 0
        out = capsys.readouterr().out
        assert "experiment.seed = 999" in out
        assert validated == [999]

    def test_resolved_config_reloads_to_the_same_hash(self, tiny_run):
        resolved = tiny_run / "config.resolved.ini"
        cfg = load_config(resolved)
        assert cfg.hash() == load_config(None, TINY_OVERRIDES).hash()
        assert cfg.canonical_text() == resolved.read_text()


class TestDeterminism:
    def test_gemm_bits_do_not_depend_on_blas_thread_env(self):
        # OpenBLAS rounds this float32 GEMM (K = 1104, the phone-aware TD #1)
        # differently at 1 and 2 threads; importing xldv first pins 1 thread
        script = (
            "import hashlib, sys, xldv\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "a = rng.standard_normal((384, 1104)).astype(np.float32)\n"
            "b = rng.standard_normal((1104, 256)).astype(np.float32)\n"
            "sys.stdout.write(hashlib.sha256((a @ b).tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(xldv.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(out.stdout)
        assert digests[0] == digests[1]

    def test_two_runs_byte_identical_reports(self, tiny_run, tmp_path):
        other = tmp_path / "run2"
        code = main(["all"] + tiny_args(other))
        assert code == 0
        for rel in ("results/report.tsv", "results/report.txt", "results/eer.tsv"):
            assert (tiny_run / rel).read_bytes() == (other / rel).read_bytes(), rel

    def test_outputs_change_only_with_a_version_bump(self, tiny_run):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        now = golden_digests(tiny_run)
        mismatch = {key: [golden["environment"].get(key), value]
                    for key, value in now["environment"].items()
                    if golden["environment"].get(key) != value}
        if mismatch:
            pytest.skip(f"golden digests hold for another environment, [golden, here]: {mismatch}")
        unbumped = [name for name, rec in now["stages"].items()
                    if name in golden["stages"]
                    and rec["version"] == golden["stages"][name]["version"]
                    and rec["outputs"] != golden["stages"][name]["outputs"]]
        assert unbumped == [], (
            "outputs changed without a version bump in pipeline.STAGES; after the bump, "
            "regenerate the digests with: PYTHONPATH=src python tests/test_config_cli.py")

    def test_different_seed_changes_results(self, tiny_run, tmp_path):
        other = tmp_path / "run3"
        code = main(["all"] + tiny_args(other, extra=["experiment.seed=777"]))
        assert code == 0
        assert (tiny_run / "results" / "eer.tsv").read_bytes() != (
            other / "results" / "eer.tsv"
        ).read_bytes()


def tiny_context(run_dir, extra=()):
    return pipeline.make_context(load_config(None, TINY_OVERRIDES + list(extra)),
                                 str(run_dir))


def stage_records(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())["stages"]


@pytest.fixture
def run_copy(tiny_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run, run_dir)
    return run_dir


class TestReuse:
    """Which stages a config or code change re-runs; each test works on a copy."""

    def test_immediate_rerun_runs_nothing(self, run_copy):
        assert pipeline.run_all(tiny_context(run_copy)) == []

    def test_lda_dim_change_reruns_only_backend_stages(self, run_copy):
        results = [run_copy / "results" / name for name in ("eer.tsv", "report.txt")]
        before = [path.read_bytes() for path in results]
        ran = pipeline.run_all(tiny_context(run_copy, ["backend.lda_dim=4"]))
        assert ran == ["backend-train", "score", "eval", "report"]
        records = stage_records(run_copy)
        assert records["backend-train"]["reason"] == "config key backend.lda_dim changed"
        assert records["score"]["reason"].startswith("input models/backend_")
        assert [path.read_bytes() for path in results] != before
        ran = pipeline.run_all(tiny_context(run_copy))
        assert ran == ["backend-train", "score", "eval", "report"]
        assert [path.read_bytes() for path in results] == before

    def test_conditions_change_reruns_only_scoring_stages(self, run_copy):
        # a run dir from before the trial conditions were fixed recorded their key
        manifest = run_copy / "manifest.json"
        data = json.loads(manifest.read_text())
        for name in ("score", "eval", "report"):
            data["stages"][name]["config_keys"]["eval.conditions"] = "A-A,B-B,A/B"
        manifest.write_text(json.dumps(data))
        before = run_files(run_copy)
        assert pipeline.run_all(tiny_context(run_copy)) == ["score", "eval", "report"]
        records = stage_records(run_copy)
        for name in ("score", "eval", "report"):
            assert records[name]["reason"] == "config key eval.conditions changed"
            assert "eval.conditions" not in records[name]["config_keys"]
        assert run_files(run_copy) == before
        assert pipeline.run_all(tiny_context(run_copy)) == []

    def test_retired_keys_rerun_the_stages_that_recorded_them(self, run_copy):
        manifest = run_copy / "manifest.json"
        data = json.loads(manifest.read_text())
        for name, keys in RETIRED_READERS.items():
            data["stages"][name]["config_keys"].update({k: RETIRED_KEYS[k] for k in keys})
        manifest.write_text(json.dumps(data))
        before = run_files(run_copy)
        assert pipeline.run_all(tiny_context(run_copy)) == list(RETIRED_READERS)
        records = stage_records(run_copy)
        for name, keys in RETIRED_READERS.items():
            assert records[name]["reason"] == f"config key {min(keys)} changed"
            assert not set(RETIRED_KEYS) & set(records[name]["config_keys"])
        assert run_files(run_copy) == before
        assert pipeline.run_all(tiny_context(run_copy)) == []

    def test_legacy_record_is_rerun(self, run_copy):
        manifest = run_copy / "manifest.json"
        data = json.loads(manifest.read_text())
        rec = data["stages"]["report"]
        del rec["config_keys"], rec["reason"], rec["run_seq"]
        rec["config_hash"] = "0" * 64
        manifest.write_text(json.dumps(data))
        assert pipeline.run_all(tiny_context(run_copy)) == ["report"]
        rec = stage_records(run_copy)["report"]
        assert rec["reason"] == "record has no config keys"
        assert rec["run_seq"] == 1
        assert "config_hash" not in rec

    @pytest.mark.parametrize("edit", [
        {"outputs": []}, {"inputs": None}, {"outputs": [], "run_seq": "2"},
    ], ids=["outputs-a-list", "inputs-missing", "run-seq-a-string"])
    def test_malformed_record_is_rerun(self, run_copy, edit):
        manifest = run_copy / "manifest.json"
        data = json.loads(manifest.read_text())
        rec = data["stages"]["report"]
        for key, value in edit.items():
            if value is None:
                del rec[key]
            else:
                rec[key] = value
        manifest.write_text(json.dumps(data))
        assert pipeline.run_all(tiny_context(run_copy)) == ["report"]
        rec = stage_records(run_copy)["report"]
        assert rec["reason"] == f"record has no {next(iter(edit))}"
        if "run_seq" in edit:  # a count that is not one starts again
            assert rec["run_seq"] == 1
        assert pipeline.run_all(tiny_context(run_copy)) == []

    def test_noop_run_touches_no_file(self, run_copy):
        # config.resolved.ini included: it is rewritten only when it differs
        def stats():
            return {path: (path.stat().st_ino, path.stat().st_mtime_ns)
                    for path in [run_copy, *run_copy.rglob("*")]}

        before = stats()
        assert main(["all"] + tiny_args(run_copy)) == 0
        assert stats() == before

    @pytest.mark.parametrize("name, changes_output, ran", [
        ("train-ubm", False, ["train-ubm"]),
        ("eval", True, ["eval", "report"]),
    ], ids=["same-bytes", "new-bytes"])
    def test_version_bump_reruns_that_stage_and_changed_dependents(
            self, run_copy, monkeypatch, name, changes_output, ran):
        stage = pipeline._STAGE_BY_NAME[name]

        def fn(ctx):
            stage.fn(ctx)
            if changes_output:  # raise the EER in the table's last row
                path = ctx.path(pipeline.EER_TABLE)
                with open(path, encoding="utf-8") as fh:
                    lines = fh.readlines()
                fields = lines[-1].split("\t")
                fields[3] = f"{float(fields[3]) + 0.01:.6f}"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(lines[:-1] + ["\t".join(fields)])

        monkeypatch.setitem(pipeline._STAGE_BY_NAME, name,
                            stage._replace(fn=fn, version=stage.version + 1))
        assert pipeline.run_all(tiny_context(run_copy)) == ran
        record = stage_records(run_copy)[name]
        assert record["reason"] == "code version changed"
        assert record["version"] == stage.version + 1
        assert pipeline.run_all(tiny_context(run_copy)) == []

    def test_record_without_version_counts_as_version_one(self, run_copy):
        manifest = run_copy / "manifest.json"
        data = json.loads(manifest.read_text())
        for name, rec in data["stages"].items():
            assert rec.pop("version") == pipeline._STAGE_BY_NAME[name].version
        manifest.write_text(json.dumps(data))
        # stages still at version 1 stay current; bumped ones re-run, with the same bytes
        bumped = [stage.name for stage in pipeline.STAGES if stage.version != 1]
        assert pipeline.run_all(tiny_context(run_copy)) == bumped
        records = stage_records(run_copy)
        assert all(records[name]["reason"] == "code version changed" for name in bumped)
        assert pipeline.run_all(tiny_context(run_copy)) == []

    @pytest.mark.parametrize("extra", [[], ["backend.lda_dim=4"]],
                             ids=["no-op", "lda-dim-change"])
    def test_run_all_hashes_each_file_at_most_once(self, run_copy, monkeypatch, extra):
        hashed = []
        real = pipeline.sha256_file

        def counting(path, *args, **kwargs):
            hashed.append(os.path.relpath(path, run_copy))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "sha256_file", counting)
        pipeline.run_all(tiny_context(run_copy, extra))
        assert "feats/mfcc.farc" in hashed
        repeated = sorted({rel for rel in hashed if hashed.count(rel) > 1})
        assert repeated == []

    def test_eval_loads_each_trial_list_once(self, run_copy, monkeypatch):
        eer = run_copy / "results" / "eer.tsv"
        before = eer.read_bytes()
        loaded = []
        real = evalkit.TrialList.load

        def counting(path):
            loaded.append(os.path.relpath(path, run_copy))
            return real(path)

        monkeypatch.setattr(evalkit.TrialList, "load", counting)
        pipeline.run_stage(tiny_context(run_copy), "eval", force=True)
        assert loaded == ["trials/A-A.tsv", "trials/B-B.tsv", "trials/AxB.tsv"]
        assert eer.read_bytes() == before

    def test_extract_loads_each_checkpoint_once(self, run_copy, monkeypatch):
        embeddings = sorted((run_copy / "embeddings").iterdir())
        before = [path.read_bytes() for path in embeddings]
        loaded = []
        real = archive.load_checkpoint

        def counting(path, *args, **kwargs):
            loaded.append(os.path.basename(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(archive, "load_checkpoint", counting)
        pipeline.run_stage(tiny_context(run_copy), "extract", force=True)
        assert sorted(loaded) == [
            "ctdnn_aware.nnck", "ctdnn_blind.nnck", "tmatrix.nnck", "ubm.nnck"
        ]
        assert sorted((run_copy / "embeddings").iterdir()) == embeddings
        assert [path.read_bytes() for path in embeddings] == before

    def test_extract_whitens_the_tmatrix_once(self, run_copy, tmp_path, monkeypatch):
        # the i-vector worker builds it; a file counts the builds across processes
        builds = tmp_path / "builds"
        real = ivector._whitened_gram

        def counting(*args):
            with open(builds, "a", encoding="utf-8") as fh:
                fh.write("built\n")
            return real(*args)

        monkeypatch.setattr(ivector, "_whitened_gram", counting)
        pipeline.run_stage(tiny_context(run_copy), "extract", force=True)
        assert builds.read_text() == "built\n"

    def test_every_key_but_master_seed_is_read(self, tiny_run):
        read = set()
        for rec in stage_records(tiny_run).values():
            read |= set(rec["config_keys"])
        # experiment.seed reaches the stages through the section seeds
        assert read == set(SCHEMA) - {"experiment.seed"}


def run_files(run_dir):
    """rel -> bytes of every file in a run directory but ``manifest.json``."""
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class TestWorkers:
    """Pooled stages give a serial run's bytes, records and logs, and fail cleanly."""

    def test_worker_count_changes_no_byte_key_or_log_line(self, tmp_path, monkeypatch,
                                                          caplog):
        caplog.set_level(logging.INFO)
        runs = {}
        for count in (1, 2):
            monkeypatch.setattr(workers, "worker_count", lambda: count)
            caplog.clear()
            run_dir = tmp_path / f"workers{count}"
            assert main(["all"] + tiny_args(run_dir)) == 0
            # timings are the only part of a log line that may differ
            lines = [(r.name, r.levelno, re.sub(r"\d+\.\d+s\b", "<t>", r.getMessage()))
                     for r in caplog.records]
            keys = {name: rec["config_keys"] for name, rec in stage_records(run_dir).items()}
            runs[count] = run_files(run_dir), keys, lines
        assert len(runs[1][0]) > 80
        assert any("feature net: val frame accuracy" in line for _, _, line in runs[1][2])
        assert runs[1] == runs[2]

    def test_stderr_shows_each_worker_line_once(self, run_copy):
        # workers must not write to the handlers they inherit, only the stage process
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xldv.__file__)))
        args = [arg for arg in tiny_args(run_copy) if arg != "--quiet"]
        out = subprocess.run([sys.executable, "-m", "xldv.cli", "backend-train", "--force"]
                             + args, env=env, capture_output=True, text=True, check=True)
        messages = [line.split(": ", 1)[1] for line in out.stderr.splitlines()]
        # each system's worker logs its span's rank; the d-vectors have rank 9
        # in 16 dimensions, so no PLDA floor is logged
        assert messages[:-1] == ["stage backend-train: running (forced)",
                                 "ivector: back-end span has rank 8 of 8",
                                 "dvector-phone-blind: back-end span has rank 9 of 16",
                                 "dvector-phone-aware: back-end span has rank 9 of 16"]
        assert messages[-1].startswith("stage backend-train: done in ")

    def test_data_error_in_a_worker_exits_two(self, run_copy, capsys):
        # only the phone-aware CT-DNN's worker reads the factors archive
        factors = run_copy / "feats" / "factors.farc"
        factors.write_bytes(factors.read_bytes()[:-3])
        assert main(["train-ctdnn", "--force"] + tiny_args(run_copy)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"xldv: error: data: {factors}: truncated record checksum")
        assert len(err.splitlines()) == 1
        assert multiprocessing.active_children() == []

    def test_killed_worker_exits_two_and_leaves_no_child(self, run_copy, capsys,
                                                         monkeypatch):
        real = pipeline._train_backend

        def die_on_phone_aware(ctx, system):
            if system == "dvector-phone-aware":
                os.kill(os.getpid(), signal.SIGKILL)
            real(ctx, system)

        monkeypatch.setattr(pipeline, "_train_backend", die_on_phone_aware)
        assert main(["backend-train", "--force"] + tiny_args(run_copy)) == 2
        err = capsys.readouterr().err
        assert err.startswith("xldv: error: internal: a worker process died")
        assert len(err.splitlines()) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stage, rel", [
        ("feats", "feats/fbank.farc"),  # written by the stage process
        ("extract", "embeddings/ivec_train.farc"),  # written by a worker
    ])
    @pytest.mark.parametrize("delete", [False, True], ids=["old", "absent"])
    def test_failed_write_leaves_old_bytes_or_no_file(self, run_copy, monkeypatch,
                                                      stage, rel, delete):
        before = run_files(run_copy)
        if delete:
            (run_copy / rel).unlink()
        real = archive._record_bytes
        written = itertools.count()

        def fail_midway(feat):
            if next(written) == 5:
                raise DataError("device full")
            return real(feat)

        monkeypatch.setattr(archive, "_record_bytes", fail_midway)
        assert main([stage, "--force"] + tiny_args(run_copy)) == 2
        after = run_files(run_copy)
        assert not [name for name in after if name.endswith(".tmp")]
        assert all(after[name] == before[name] for name in after)
        assert (rel in after) != delete
        monkeypatch.undo()
        assert main(["all"] + tiny_args(run_copy)) == 0
        assert run_files(run_copy) == before


def first_record_id(ident):
    """An edit that gives an archive's first record the id ``ident``, with a valid CRC."""
    def edit(raw):
        (n,) = struct.unpack_from("<H", raw, 6)
        t, d = struct.unpack_from("<II", raw, 8 + n)
        end = 8 + n + 8 + 4 * t * d
        body = struct.pack("<H", len(ident)) + ident + raw[8 + n:end]
        return raw[:6] + body + struct.pack("<I", zlib.crc32(body)) + raw[end + 4:]
    return edit


def replace_first_field(index, value):
    def edit(raw):
        lines = raw.decode().split("\n")
        fields = lines[0].split("\t")
        fields[index] = value
        return "\n".join(["\t".join(fields)] + lines[1:]).encode()
    return edit


@pytest.mark.parametrize("rel, stage, corrupt, named", [
    ("results/eer.tsv", "report", lambda raw: raw + b"ivector\tcosine\n", "results/eer.tsv"),
    ("results/eer.tsv", "report", replace_first_field(3, "low"), "results/eer.tsv"),
    ("results/eer.tsv", "report", lambda raw: raw.split(b"\n", 1)[1], "results/eer.tsv"),
    ("results/eer.tsv", "report", lambda raw: raw + raw.split(b"\n", 1)[0] + b"\n",
     "results/eer.tsv"),
    ("results/eer.tsv", "report",
     lambda raw: raw + b"ghost\tcosine\tA-A\t0.1\t0.0\t1\t1\n", "results/eer.tsv"),
    ("trials/A-A.tsv", "eval", lambda raw: raw + b"u0\tu1\n", "trials/A-A.tsv"),
    ("trials/A-A.tsv", "eval", lambda raw: b"\xff" + raw, "trials/A-A.tsv"),
    ("scores/ivector_plda_A-A.tsv", "eval", replace_first_field(0, "n/a"),
     "scores/ivector_plda_A-A.tsv"),
    ("scores/ivector_plda_A-A.tsv", "eval", replace_first_field(0, "nan"),
     "scores/ivector_plda_A-A.tsv"),
    ("scores/ivector_lda_A-A.tsv", "eval", replace_first_field(0, "-inf"),
     "scores/ivector_lda_A-A.tsv"),
    ("corpus/manifest.tsv", "score", replace_first_field(4, "long"), "corpus/manifest.tsv"),
    ("corpus/labels.tsv", "score", replace_first_field(1, "0:x"), "corpus/labels.tsv"),
    ("corpus/labels.tsv", "train-asr", lambda raw: raw.split(b"\n", 1)[1],
     "corpus/labels.tsv"),
    ("corpus/speakers.tsv", "score", lambda raw: raw + b"s0\ttrain\textra\n",
     "corpus/speakers.tsv"),
    ("corpus/speakers.tsv", "score", replace_first_field(1, "test"), "corpus/speakers.tsv"),
    ("feats/fbank.farc", "train-asr", first_record_id(b"\xffu0"), "feats/fbank.farc"),
    ("feats/fbank.farc", "train-asr", first_record_id(b"u\t0"), "feats/fbank.farc"),
    ("feats/fbank.farc", "train-asr", lambda raw: raw[:4] + struct.pack("<H", 1) + raw[6:],
     "feats/fbank.farc"),
    ("embeddings/ivec_train.farc", "backend-train", first_record_id(b"ghost-E-000"),
     "embeddings/ivec_train.farc"),
], ids=["eer-fields", "eer-number", "eer-row-missing", "eer-row-twice",
        "eer-unknown-system", "trials-fields", "trials-not-utf8", "score-number",
        "score-nan", "score-inf", "manifest-duration", "labels-run", "labels-missing-row",
        "speakers-fields", "speakers-split", "fbank-record-id", "fbank-record-id-tab",
        "fbank-version-one", "embedding-unlisted"])
def test_malformed_artifact_exits_two(run_copy, capsys, rel, stage, corrupt, named):
    path = run_copy / rel
    path.write_bytes(corrupt(path.read_bytes()))
    assert main([stage] + tiny_args(run_copy)) == 2
    err = capsys.readouterr().err
    assert err.startswith("xldv: error: data:")
    assert len(err.splitlines()) == 1
    assert f"{run_copy / named}: " in err


@pytest.mark.parametrize("rel, stages", [
    ("feats/fbank.farc", ["train-asr", "train-ctdnn", "extract"]),
    ("feats/mfcc.farc", ["train-ubm", "train-tv", "extract"]),
    ("feats/factors.farc", ["train-ctdnn", "extract"]),
], ids=["fbank", "mfcc", "factors"])
def test_archive_without_a_listed_utterance_exits_two(run_copy, capsys, rel, stages):
    path = run_copy / rel
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<H", raw, 6)
    t, d = struct.unpack_from("<II", raw, 8 + n)
    path.write_bytes(raw[:6] + raw[8 + n + 8 + 4 * t * d + 4:])  # drop the first record
    first = raw[8:8 + n].decode()
    for stage in stages:
        assert main([stage] + tiny_args(run_copy)) == 2, stage
        assert capsys.readouterr().err == (
            f"xldv: error: data: {path}: no record for utterance {first!r}\n")


if __name__ == "__main__":
    # Rewrites golden_tiny.json from a fresh tiny run, after a stage version bump.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        # a new process imports xldv before numpy, so BLAS runs one thread as in tests
        src = os.path.dirname(os.path.dirname(xldv.__file__))
        subprocess.run([sys.executable, "-m", "xldv.cli", "all"] + tiny_args(tmp),
                       env=dict(os.environ, PYTHONPATH=src), check=True)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden_digests(tmp), fh, indent=2, sort_keys=True)
            fh.write("\n")
