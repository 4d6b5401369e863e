"""Outside-in benchmark for xldv: the EER grid's cost on three workloads.

    python3 perfbench/run.py --workload cold-train --seed 1 --seconds 12 --trace 0

Run from the root of a source tree (it needs ``src/xldv``). The benchmark sets
up the workload several times, then repeats its timed part in fresh worker
processes until ``--seconds`` have passed (with a minimum number of
repetitions), checks every EER grid, and prints one JSON object as its last
line of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics. A fuller record (provenance, checks, EER grid, tail
percentiles) goes to ``.perfbench/results/`` and a summary to stderr.
See ``perfbench/README.md`` for why each workload exists.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import layer_metrics, stage_coverage, timed_pattern  # noqa: E402

BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 170
COVERAGE_MARGIN = 0.03  # stage spans must cover >= 97% of a traced timed part


class Workload:
    def __init__(self, name, setups, min_reps, lda_dims=None):
        self.name = name
        self.setups = setups      # set-ups per run; setup_s is their median
        self.min_reps = min_reps  # timed repetitions per run, at least 2 so that
        # a traced run, which alternates, has untraced and traced ones
        self.lda_dims = lda_dims  # retune: values backend.lda_dim toggles to


WORKLOADS = {
    w.name: w for w in (
        Workload("cold-train", setups=5, min_reps=2),
        Workload("eval-heavy", setups=2, min_reps=5),
        Workload("retune", setups=2, min_reps=2, lda_dims=(4, 6)),
    )
}


class Run:
    """One benchmark invocation: its directories, worker steps and checks."""

    def __init__(self, root, workload, seed, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = os.path.join(root, ".perfbench", "work",
                                 f"{workload.name}-{seed}-{os.getpid()}")
        self.checks = []
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        self.n_steps = 0

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), str(detail)])

    def step(self, role, run_dir, trace=False, **extra):
        """Run one worker step; returns (result dict or None, wall seconds)."""
        self.n_steps += 1
        base = os.path.join(self.work, f"step{self.n_steps:03d}")
        spec = dict(role=role, workload=self.workload.name, config=self.config,
                    run_dir=run_dir, trace=trace, out=base + ".out.json",
                    src=os.path.join(self.root, "src"), **extra)
        with open(base + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), base + ".spec.json"],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=False)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code != 0 or not os.path.exists(spec["out"]):
            self.check(f"{role} worker exits cleanly", False, code)
            return None, time.monotonic() - t0
        with open(spec["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(spec["out"])
        # The worker's own CLOCK_MONOTONIC reading ends the step: waiting on a
        # child with a timeout polls in steps of up to 50 ms.
        return result, result["done_at"] - t0

    def write_config(self):
        src = os.path.join(HERE, "workloads", f"{self.workload.name}.ini")
        with open(src, encoding="utf-8") as fh:
            text = fh.read()
        # The seed reaches the program only as experiment.seed.
        self.config_text = text + f"experiment.seed = {self.seed}\n"
        self.config = os.path.join(self.work, "config.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.config_text)
        self.setup_lda_dim = int(next(
            line.split("=")[1] for line in text.splitlines()
            if line.startswith("backend.lda_dim")))

    def run_setups(self):
        results, walls = [], []
        for k in range(self.workload.setups):
            run_dir = os.path.join(self.work, f"setup{k}")
            result, wall = self.step("setup", run_dir, trace=self.trace)
            walls.append(wall)
            if result is not None:
                results.append(result)
        if self.workload.name != "cold-train":
            self.reference = {}
            for rel, key in (("results/eer.tsv", "eer"), ("results/report.txt", "report")):
                blobs = [_read(os.path.join(self.work, f"setup{k}", rel))
                         for k in range(self.workload.setups)]
                self.check(f"set-ups: {rel} byte-identical across repeated set-ups",
                           blobs[0] is not None and len(set(blobs)) == 1)
                self.reference[key] = os.path.join(self.work, "reference-" + key)
                with open(self.reference[key], "wb") as fh:
                    fh.write(blobs[0] or b"")
        return results, walls

    def timed_step(self, rep, traced):
        name = self.workload.name
        extra = {}
        if name == "cold-train":
            run_dir = os.path.join(self.work, f"cold{rep}")
            os.makedirs(run_dir)
        elif name == "eval-heavy":
            run_dir = os.path.join(self.work, f"setup{rep % self.workload.setups}")
            extra["reference"] = self.reference
        else:
            run_dir = os.path.join(self.work, "setup0")
            extra.update(reference=self.reference, setup_lda_dim=self.setup_lda_dim,
                         lda_dim=self.workload.lda_dims[rep % 2])
        result, _ = self.step("timed", run_dir, trace=traced, **extra)
        if name == "cold-train":
            outputs = [_read(os.path.join(run_dir, rel))
                       for rel in ("results/eer.tsv", "results/report.txt")]
            if rep == 0:
                self.first_outputs = outputs
            else:
                self.check("cold-train: eer.tsv and report.txt byte-identical "
                           "across repetitions", outputs == self.first_outputs)
            if rep > 0:
                shutil.rmtree(run_dir)
        return result

    def run_timed(self, seconds):
        untraced, traced = [], []
        reps = self.workload.min_reps
        start = time.perf_counter()
        rep = 0
        while rep < reps or time.perf_counter() - start < seconds:
            is_traced = self.trace and rep % 2 == 1
            result = self.timed_step(rep, is_traced)
            if result is not None:
                (traced if is_traced else untraced).append(result)
            rep += 1
        return untraced, traced


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def src_line_count(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xldv", "__init__.py")):
        print("perfbench: error: run from the root of an xldv source tree "
              "(src/xldv not found)", file=sys.stderr)
        return 2
    run = Run(root, WORKLOADS[args.workload], args.seed, bool(args.trace))
    os.makedirs(run.work)
    try:
        report = measure(run, args)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.work))
        except OSError:
            pass
    if report is None:
        return 1
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir,
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print_summary(report, out)
    print(json.dumps(report["result"]))
    return 0


def measure(run, args):
    run.write_config()
    setup_results, setup_walls = run.run_setups()
    untraced, traced = run.run_timed(args.seconds)
    timed_all = untraced + traced
    if not untraced or (run.trace and not traced):
        print("perfbench: error: no timed repetition completed", file=sys.stderr)
        return None
    steps = setup_results + timed_all
    layer_samples = {}
    if run.trace:
        result, _ = run.step("layers", os.path.join(run.work, "layers"), trace=False)
        if result is None:
            print("perfbench: error: layer timing step failed", file=sys.stderr)
            return None
        layer_samples = result["layer_samples"]

    checks = [c for st in steps for c in st["checks"]] + run.checks
    stage_runs = sum(st["counts"]["stages_run"] for st in steps)
    stage_fails = sum(st["counts"]["stages_run"] - st["counts"]["stages_done"]
                      for st in steps)

    if run.trace:
        coverage = [stage_coverage(st) for st in traced]
        checks.append(["trace: stage spans cover the timed part within "
                       f"{COVERAGE_MARGIN:.0%}", min(coverage) >= 1 - COVERAGE_MARGIN,
                       f"min coverage {min(coverage):.4f}"])
        values, details = layer_metrics(traced, [r for r in setup_results if r["spans"]],
                                        layer_samples)
        traced_grid = statistics.median(r["grid_s"] for r in traced)
        untraced_grid = statistics.median(r["grid_s"] for r in untraced)
        values["trace.grid_s"] = (traced_grid, "s")
        values["trace.overhead_s"] = (traced_grid - untraced_grid, "s")
        values["trace.stage_coverage"] = (min(coverage), "ratio")
    else:
        details = {}
        values = {
            "grid_s": (statistics.median(r["grid_s"] for r in untraced), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
            "setup_s": (statistics.median(setup_walls), "s"),
        }
    failed = stage_fails + sum(1 for c in checks if not c[1])
    result = {
        "correct": failed == 0,
        "attempted": stage_runs + len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    env = next((r["env"] for r in setup_results), {})
    sizes = dict(next((r["sizes"] for r in setup_results), {}),
                 trials=timed_all[-1]["trials"])
    return {
        "result": result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_rev": git_rev(run.root),
            "src_lines": src_line_count(run.root),
            "config_text": run.config_text,
            "config_sha256": hashlib.sha256(run.config_text.encode()).hexdigest(),
            "environment": env,
            "input_sizes": sizes,
            "repetitions": {"setups": len(setup_walls), "untraced": len(untraced),
                            "traced": len(traced)},
        },
        "samples": {
            "setup_s": setup_walls,
            "grid_s": [r["grid_s"] for r in untraced],
            "traced_grid_s": [r["grid_s"] for r in traced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        },
        "details": details,
        "pattern": timed_pattern(values, traced) if run.trace else {},
        "eer_grid": timed_all[-1]["grid"],
        "checks": checks,
    }


def print_summary(report, path):
    err = sys.stderr
    res = report["result"]
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
          file=err)
    for name, m in res["metrics"].items():
        d = report["details"].get(name)
        tail = f"  ({d['tail_label']} {d['tail']:.4g}, n={d['n']})" if d else ""
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{tail}", file=err)
    for name, ok, detail in report["checks"]:
        if not ok:
            print(f"  FAILED check: {name} {detail}", file=err)
    if report["pattern"]:
        print(f"  pattern: {json.dumps(report['pattern'])}", file=err)
    print(f"  full record: {os.path.relpath(path)}", file=err)


if __name__ == "__main__":
    sys.exit(main())
