"""Configuration parsing/validation and the CLI pipeline on a tiny corpus."""

import json
import os
import shutil

import numpy as np
import pytest

from xldv import evalkit, pipeline
from xldv.cli import main
from xldv.config import (
    SCHEMA,
    ExperimentConfig,
    load_config,
    parse_config_text,
    validate_config,
)
from xldv.errors import ConfigError

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


def tiny_args(run_dir, extra=()):
    args = []
    for kv in TINY_OVERRIDES + list(extra):
        args += ["--set", kv]
    return args + ["--run-dir", str(run_dir), "--quiet"]


class TestConfig:
    def test_empty_file_materializes_all_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        report = validate_config(path)
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
            validate_config(path)

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
        report = validate_config(path)
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


class TestCli:
    def test_run_all_produces_full_report(self, tiny_run):
        report = (tiny_run / "results" / "report.tsv").read_text()
        lines = report.splitlines()
        assert len(lines) == 10  # header + 3 systems x 3 metrics
        assert lines[0] == "System\tMetric\tA-A EER%\tB-B EER%\tA/B EER%"
        assert (tiny_run / "results" / "report.txt").exists()

    def test_second_run_is_noop(self, tiny_run, caplog):
        manifest_before = (tiny_run / "manifest.json").read_text()
        code = main(["all"] + tiny_args(tiny_run))
        assert code == 0
        manifest_after = json.loads((tiny_run / "manifest.json").read_text())
        assert json.loads(manifest_before)["stages"] == manifest_after["stages"]

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

    def test_bad_config_exits_one(self, tmp_path, capsys):
        code = main(["synth", "--set", "corpus.not_a_key=1",
                     "--run-dir", str(tmp_path / "x"), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("xldv: error: config:")

    def test_removed_factor_injection_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "old.ini"
        path.write_text("corpus.n_train_utts = 9\nctdnn.factor_injection = bottleneck\n")
        code = main(["validate-config", "--config", str(path), "--quiet"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("xldv: error: config:")
        assert "ctdnn.factor_injection" in lines[0]

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_validate_config_prints_report(self, capsys):
        assert main(["validate-config", "--set", "corpus.n_train_utts=9"]) == 0
        out = capsys.readouterr().out
        assert "corpus.n_train_utts = 9" in out

    def test_seed_flag_overrides_master(self, capsys):
        assert main(["validate-config", "--seed", "999"]) == 0
        out = capsys.readouterr().out
        assert "experiment.seed = 999" in out


class TestDeterminism:
    def test_two_runs_byte_identical_reports(self, tiny_run, tmp_path):
        other = tmp_path / "run2"
        code = main(["all"] + tiny_args(other))
        assert code == 0
        for rel in ("results/report.tsv", "results/report.txt", "results/eer.tsv"):
            assert (tiny_run / rel).read_bytes() == (other / rel).read_bytes(), rel

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


class TestReuse:
    """Which stages a config change re-runs; each test works on a copy."""

    @pytest.fixture
    def run_copy(self, tiny_run, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_run, run_dir)
        return run_dir

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
        ran = pipeline.run_all(tiny_context(run_copy, ["eval.conditions=A-A,A/B"]))
        assert ran == ["score", "eval", "report"]
        assert stage_records(run_copy)["score"]["config_keys"]["eval.conditions"] == "A-A,A/B"

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

        def counting(path, condition):
            loaded.append(condition)
            return real(path, condition)

        monkeypatch.setattr(evalkit.TrialList, "load", counting)
        pipeline.run_stage(tiny_context(run_copy), "eval", force=True)
        assert loaded == ["A-A", "B-B", "A/B"]
        assert eer.read_bytes() == before

    def test_every_key_but_master_seed_is_read(self, tiny_run):
        read = set()
        for rec in stage_records(tiny_run).values():
            read |= set(rec["config_keys"])
        # experiment.seed reaches the stages through the section seeds
        assert read == set(SCHEMA) - {"experiment.seed"}
