"""The stage table, and the names the benchmark in ``perfbench/`` relies on."""

import ast
import importlib
import importlib.util
import inspect
import logging
import os
import pathlib

from test_config_cli import TINY_OVERRIDES, tiny_args, tiny_run  # noqa: F401 (fixture)
from xldv import archive, evalkit, pipeline, workers
from xldv.cli import build_parser, main
from xldv.config import load_config

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


class TestTable:
    def test_inputs_and_outputs_are_path_tuples(self):
        for stage in pipeline.STAGES:
            for paths in (stage.inputs, stage.outputs):
                assert type(paths) is tuple, stage.name
                assert all(isinstance(rel, str) for rel in paths), stage.name

    def test_each_input_is_an_output_of_an_earlier_stage(self):
        made = set()
        for stage in pipeline.STAGES:
            assert set(stage.inputs) <= made, (stage.name, sorted(set(stage.inputs) - made))
            made.update(stage.outputs)

    def test_every_output_is_read_later_or_kept(self):
        kept = {
            pipeline.REPORT_TSV: "the product",
            pipeline.REPORT_TXT: "the product",
            pipeline.ASR_MODEL: "the phone classifier of record",
        }
        read = set()
        for stage in reversed(pipeline.STAGES):
            unread = set(stage.outputs) - read - set(kept)
            assert not unread, (stage.name, sorted(unread))
            read.update(stage.inputs)

    def test_no_file_is_the_output_of_two_stages(self):
        owner = {}
        for stage in pipeline.STAGES:
            assert len(set(stage.outputs)) == len(stage.outputs), stage.name
            for rel in stage.outputs:
                assert owner.setdefault(rel, stage.name) == stage.name, rel

    def test_cli_subcommands_are_the_table_names_in_order(self):
        command, = [a for a in build_parser()._actions if a.dest == "command"]
        assert command.choices == pipeline.STAGE_NAMES + ["all", "validate-config"]


def constants(filename, names):
    """Top-level literal assignments of a perfbench module, read without importing it."""
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(names), filename
    return found


class TestBenchmarkContract:
    """perfbench drives xldv from outside; these are the names it uses."""

    def test_every_wrapped_name_resolves(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py")
        )
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.WRAPPED
        for mod_name, attr, _, _ in tracer.WRAPPED:
            obj = importlib.import_module(mod_name)
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj), (mod_name, attr)

    def test_stage_lists_match_the_table(self):
        metrics = constants("metrics.py", ["STAGES", "TRAINING_STAGES"])
        worker = constants("worker.py", ["N_STAGES", "FORCED_STAGES"])
        assert list(metrics["STAGES"]) == pipeline.STAGE_NAMES
        assert set(metrics["TRAINING_STAGES"]) <= set(pipeline.STAGE_NAMES)
        assert worker["N_STAGES"] == len(pipeline.STAGES)
        forced = list(worker["FORCED_STAGES"])
        assert forced == [n for n in pipeline.STAGE_NAMES if n in forced]

    def test_systems_metrics_and_conditions_match(self):
        worker = constants("worker.py", ["SYSTEMS", "METRICS", "CONDITIONS"])
        assert worker["SYSTEMS"] == evalkit.SYSTEMS
        assert worker["METRICS"] == evalkit.METRICS
        assert worker["CONDITIONS"] == tuple(evalkit.CONDITIONS)

    def test_run_stage_signature_and_log_templates(self):
        params = list(inspect.signature(pipeline.run_stage).parameters)
        assert params == ["ctx", "name", "force", "digests"]
        source = inspect.getsource(pipeline.run_stage)
        templates = constants("worker.py", ["LOG_COUNTERS"])["LOG_COUNTERS"]
        stage_templates = [t for t in templates if t.startswith("stage %s:")]
        assert len(stage_templates) == 3
        for template in stage_templates:
            assert f'"{template}' in source, template

    def test_intervention_templates_start_a_source_string(self):
        # a reworded log message would silently zero its perfbench counter
        literals = set()
        for path in sorted(pathlib.Path(pipeline.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
        templates = constants("worker.py", ["LOG_COUNTERS"])["LOG_COUNTERS"]
        interventions = [t for t in templates if not t.startswith("stage %s:")]
        assert interventions
        for template in interventions:
            assert any(lit.startswith(template) for lit in literals), template

    def test_pooled_backend_train_counts_each_intervention_once(self, tmp_path,
                                                                monkeypatch, caplog):
        # perfbench counts these lines with a root-logger handler in the stage
        # process; 2 utterances per speaker make both LDA scatters singular
        extra = ["backend.train_utts_per_speaker=2"]
        assert main(["all"] + tiny_args(tmp_path, extra)) == 0
        templates = constants("worker.py", ["LOG_COUNTERS"])["LOG_COUNTERS"]
        seen = []

        class Counter(logging.Handler):
            def emit(self, record):
                seen.append((record.msg, record.process))

        counter = Counter(logging.INFO)
        caplog.set_level(logging.INFO)
        monkeypatch.setattr(workers, "worker_count", lambda: 2)
        logging.getLogger().addHandler(counter)
        try:
            ctx = pipeline.make_context(load_config(None, TINY_OVERRIDES + extra), tmp_path)
            pipeline.run_stage(ctx, "backend-train", force=True)
        finally:
            logging.getLogger().removeHandler(counter)
        counts = {}
        for msg, process in seen:
            key = next((key for t, key in templates.items() if msg.startswith(t)), None)
            if key in ("plda_floors", "lda_ridges"):
                assert process != os.getpid()  # emitted in a worker
                counts[key] = counts.get(key, 0) + 1
        assert counts == {"plda_floors": 12, "lda_ridges": 3}  # as in a serial run

    def test_backend_checkpoints_name_their_lda_dim(self, tiny_run):  # noqa: F811
        # retune reads the header's top-level lda_dim to check its override took
        paths = sorted((tiny_run / "models").glob("backend_*.nnck"))
        assert len(paths) == len(evalkit.SYSTEMS)
        for path in paths:
            header, tensors = archive.load_checkpoint(path)
            assert type(header["lda_dim"]) is int, path.name
            assert header["lda_dim"] == tensors["lda"].shape[1], path.name

    def test_run_dir_files_the_worker_reads(self):
        assert pipeline.EER_TABLE == "results/eer.tsv"
        assert pipeline.REPORT_TXT == "results/report.txt"
        for system in evalkit.SYSTEMS:
            assert pipeline.backend_model(system) == f"models/backend_{system}.nnck"
        for cond in evalkit.CONDITIONS:
            assert pipeline.trial_file(cond) == f"trials/{cond.replace('/', 'x')}.tsv"
