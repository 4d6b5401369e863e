"""One benchmark step in a fresh process.

    python3 perfbench/worker.py SPEC.json

SPEC names a role (``setup``, ``timed`` or ``layers``), the workload, its
config file and run directory, and where to write the result JSON. A fresh
process per step keeps each step's peak RSS its own. With ``trace`` set, the
xldv modules are wrapped by ``tracer.Tracer`` before anything runs.
"""

import importlib
import json
import logging
import math
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

SYSTEMS = ("ivector", "dvector-phone-blind", "dvector-phone-aware")
METRICS = ("cosine", "lda", "plda")
CONDITIONS = ("A-A", "B-B", "A/B")
FORCED_STAGES = ("extract", "backend-train", "score", "eval", "report")
N_STAGES = 11

# Log templates xldv emits for stage runs and numeric interventions.
LOG_COUNTERS = {
    "stage %s: running": "stages_run",
    "stage %s: up to date, skipping": "stages_skipped",
    "stage %s: done in %.1fs": "stages_done",
    "PLDA init: within-class covariance floored": "plda_floors",
    "PLDA M-step: within-class covariance floored": "plda_floors",
    "LDA: within-class scatter singular": "lda_ridges",
    "t-matrix M-step: ridge added": "tv_ridges",
    "iteration %d: re-seeding empty component": "ubm_reseeds",
}


class CountingHandler(logging.Handler):
    """Counts xldv log records by template; formats nothing."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.counts = dict.fromkeys(LOG_COUNTERS.values(), 0)

    def emit(self, record):
        msg = record.msg if isinstance(record.msg, str) else ""
        for prefix, key in LOG_COUNTERS.items():
            if msg.startswith(prefix):
                self.counts[key] += 1
                return


class Step:
    """State of one worker step: its checks, counters and the run directory."""

    def __init__(self, spec, counter):
        self.spec = spec
        self.counter = counter
        self.run_dir = spec["run_dir"]
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), str(detail)])
        return ok

    def path(self, rel):
        return os.path.join(self.run_dir, rel)

    def read(self, rel):
        try:
            with open(self.path(rel), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def xldv_all(self, extra=()):
        """``xldv all`` through the CLI; returns (exit code, stages run)."""
        from xldv import cli

        before = self.counter.counts["stages_run"]
        code = cli.main(["all", "--config", self.spec["config"],
                         "--run-dir", self.run_dir, *extra])
        return code, self.counter.counts["stages_run"] - before

    def grid(self):
        """Parse results/eer.tsv into {(system, metric, cond): eer}."""
        raw = self.read("results/eer.tsv")
        cells = {}
        for line in (raw or b"").decode("utf-8", "replace").splitlines():
            parts = line.split("\t")
            if len(parts) == 7:
                try:
                    cells[tuple(parts[:3])] = (float(parts[3]), float(parts[4]))
                except ValueError:
                    cells[tuple(parts[:3])] = (math.nan, math.nan)
        return cells

    def check_grid(self):
        cells = self.grid()
        want = {(s, m, c) for s in SYSTEMS for m in METRICS for c in CONDITIONS}
        finite = all(math.isfinite(e) and math.isfinite(t) and 0.0 <= e <= 1.0
                     for e, t in cells.values())
        return self.check("grid: 27 cells present and finite",
                          set(cells) == want and finite,
                          f"{len(cells)} cells")

    def compare_reference(self, name, rel, reference):
        with open(reference, "rb") as fh:
            want = fh.read()
        self.check(name, self.read(rel) == want, rel)


def setup(step):
    from xldv import config

    cfg = config.load_config(step.spec["config"])
    result = {"sizes": input_sizes(cfg), "env": environment()}
    if step.spec["workload"] == "cold-train":
        os.makedirs(step.run_dir, exist_ok=True)
        return result
    code, ran = step.xldv_all()
    step.check("setup: xldv all exits 0", code == 0, code)
    step.check("setup: all stages run", ran == N_STAGES, ran)
    step.check_grid()
    return result


def timed_cold_train(step):
    t0 = time.perf_counter()
    code, ran = step.xldv_all()
    step.check_grid()
    t1 = time.perf_counter()
    step.check("cold-train: xldv all exits 0", code == 0, code)
    step.check("cold-train: all stages run", ran == N_STAGES, ran)
    return t0, t1


def timed_eval_heavy(step):
    from xldv import config, pipeline
    from xldv.errors import XldvError

    t0 = time.perf_counter()
    ran = []
    try:
        ctx = pipeline.make_context(config.load_config(step.spec["config"]),
                                    step.run_dir)
        for stage in FORCED_STAGES:
            ran.append(pipeline.run_stage(ctx, stage, force=True))
    except XldvError as exc:
        step.check("eval-heavy: forced stages raise no error", False, exc)
    step.check_grid()
    t1 = time.perf_counter()
    step.check("eval-heavy: forced stages all run",
               ran == [True] * len(FORCED_STAGES), ran)
    ref = step.spec["reference"]
    step.compare_reference("eval-heavy: forced re-run reproduces eer.tsv",
                           "results/eer.tsv", ref["eer"])
    step.compare_reference("eval-heavy: forced re-run reproduces report.txt",
                           "results/report.txt", ref["report"])
    return t0, t1


def timed_retune(step):
    lda_dim = step.spec["lda_dim"]
    extra = ["--set", f"backend.lda_dim={lda_dim}"]
    t0 = time.perf_counter()
    code, ran = step.xldv_all(extra)
    manifest = step.read("manifest.json")
    noop_code, noop_ran = step.xldv_all(extra)
    step.check_grid()
    t1 = time.perf_counter()
    step.check("retune: key change exits 0", code == 0, code)
    step.check("retune: key change re-runs at least the back-end stages", ran >= 4, ran)
    step.check("retune: no-op exits 0", noop_code == 0, noop_code)
    step.check("retune: no-op runs 0 stages", noop_ran == 0, noop_ran)
    step.check("retune: no-op leaves manifest.json unchanged",
               manifest is not None and step.read("manifest.json") == manifest)
    ref = step.spec["reference"]

    def lda_free_rows(raw):
        return [ln for ln in raw.decode("utf-8").splitlines()
                if ln.split("\t")[1:2] in (["cosine"], ["plda"])]

    with open(ref["eer"], "rb") as fh:
        unchanged = lda_free_rows(fh.read())
    step.check("retune: cosine and PLDA cells equal the set-up grid",
               lda_free_rows(step.read("results/eer.tsv") or b"") == unchanged)
    from xldv import archive

    dims = [archive.load_checkpoint(step.path(f"models/backend_{s}.nnck"))[0]["lda_dim"]
            for s in SYSTEMS]
    step.check("retune: back-ends use the requested lda_dim",
               dims == [lda_dim] * len(SYSTEMS), dims)
    if lda_dim == step.spec["setup_lda_dim"]:
        step.compare_reference("retune: grid restored byte for byte",
                               "results/eer.tsv", ref["eer"])
        step.compare_reference("retune: report restored byte for byte",
                               "results/report.txt", ref["report"])
    return t0, t1


TIMED = {"cold-train": timed_cold_train, "eval-heavy": timed_eval_heavy,
         "retune": timed_retune}


def timed(step):
    start = dict(step.counter.counts)
    t0, t1 = TIMED[step.spec["workload"]](step)
    counts = {k: step.counter.counts[k] - start[k]
              for k in ("stages_run", "stages_skipped")}
    return {"grid_s": t1 - t0, "window": [t0, t1], "stage_counts": counts,
            "trials": count_trials(step),
            "grid": {" ".join(key): eer for key, (eer, _) in step.grid().items()}}


def layers(step, repeats=15, warmup=2):
    """Forward/backward ms of each phone-blind CT-DNN layer at the training shape."""
    import numpy as np
    from xldv import config, ctdnn

    cfg = config.load_config(step.spec["config"])
    net_cfg = ctdnn.CTDNNConfig(n_speakers=cfg["corpus.n_train_speakers"])
    graph = ctdnn.build_phone_blind(net_cfg, seed=cfg["ctdnn.seed"])
    rng = np.random.default_rng(cfg["experiment.seed"])
    x = rng.standard_normal((cfg["ctdnn.batch_chunks"], cfg["ctdnn.chunk_frames"],
                             net_cfg.n_mels, net_cfg.splice_width)).astype(np.float32)
    samples = {}
    for i, layer in enumerate(graph.layers):
        fwd, bwd = [], []
        for rep in range(warmup + repeats):
            cache = {}
            t0 = time.perf_counter()
            y = layer.forward(x, cache)
            t1 = time.perf_counter()
            dy = np.ones_like(y)
            t2 = time.perf_counter()
            layer.backward(dy, cache)
            t3 = time.perf_counter()
            if rep >= warmup:
                fwd.append((t1 - t0) * 1e3)
                bwd.append((t3 - t2) * 1e3)
        kind = layer.name.split(":", 1)[1]
        samples[f"nn.L{i:02d}_{kind}.fwd_ms"] = fwd
        samples[f"nn.L{i:02d}_{kind}.bwd_ms"] = bwd
        x = y
    return {"layer_samples": samples}


ROLES = {"setup": setup, "timed": timed, "layers": layers}


def input_sizes(cfg):
    n_train_spk = cfg["corpus.n_train_speakers"]
    per_spk = min(cfg["backend.train_utts_per_speaker"], cfg["corpus.n_train_utts"])
    return {
        "train_utterances": n_train_spk * cfg["corpus.n_train_utts"],
        "eval_utterances": cfg["corpus.n_eval_speakers"] * 2 * cfg["corpus.n_eval_utts"],
        "backend_train_utterances": n_train_spk * per_spk,
        "ctdnn_batches": 2 * cfg["ctdnn.epochs"] * cfg["ctdnn.batches_per_epoch"],
        "ctdnn_batch_shape": [cfg["ctdnn.batch_chunks"], cfg["ctdnn.chunk_frames"]],
        "asr_batches": cfg["asr.epochs"] * cfg["asr.batches_per_epoch"],
        "ubm_iters": cfg["ivector.ubm_iters"],
        "tv_iters": cfg["ivector.tv_iters"],
        "plda_iters": cfg["backend.plda_iters"],
    }


def count_trials(step):
    total = 0
    for cond in CONDITIONS:
        raw = step.read(f"trials/{cond.replace('/', 'x')}.tsv")
        total += raw.count(b"\n") if raw else 0
    return total


def environment():
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    counter = CountingHandler()
    root = logging.getLogger()
    root.addHandler(counter)  # also makes the CLI's logging.basicConfig a no-op
    root.setLevel(logging.INFO)
    importlib.import_module("xldv.cli")  # imports every layer before any timing
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    step = Step(spec, counter)
    result = ROLES[spec["role"]](step)
    result.update(
        checks=step.checks,
        counts=counter.counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        spans=tracer.spans if tracer is not None else [],
        done_at=time.monotonic(),
    )
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
