"""Per-stage memory of a run: each named stage's tracemalloc peak and ru_maxrss.

    python3 scripts/stage_peaks.py RUN_DIR STAGE [STAGE ...]

RUN_DIR is a finished run directory, and it is left as it is: the script
hard-links it into a sibling copy (``cp -al``), where every file xldv writes
replaces its link rather than the shared bytes. In this one fresh process it
then force-runs the named stages on the copy, in the order given, and prints
per stage:

- ``tracemalloc_mb``: the peak of traced allocations (Python objects and
  numpy buffers) during the stage, above what was live when it started;
- ``max_rss_mb`` and ``child_max_rss_mb``: the ``ru_maxrss`` of this
  process and of its largest finished worker, as the stage's manifest record
  keeps them. Both are high-water marks that never fall, so a stage shows
  only where it raises one.

Work done in a stage's forked workers is not in ``tracemalloc_mb``.
tracemalloc slows Python-heavy stages, so read no wall time from this script.
The copy is removed at the end.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from xldv import config, pipeline  # noqa: E402  (after the path insert)


def main(argv):
    if len(argv) < 2 or any(name not in pipeline.STAGE_NAMES for name in argv[1:]):
        sys.exit(f"usage: stage_peaks.py RUN_DIR STAGE [STAGE ...]\n"
                 f"stages: {' '.join(pipeline.STAGE_NAMES)}")
    run_dir = os.path.abspath(argv[0])
    resolved = os.path.join(run_dir, "config.resolved.ini")
    if not os.path.isfile(resolved):
        sys.exit(f"{run_dir}: no config.resolved.ini, so not a run directory")
    scratch = tempfile.mkdtemp(prefix="stage-peaks-", dir=os.path.dirname(run_dir))
    try:
        copy = os.path.join(scratch, "run")
        subprocess.run(["cp", "-al", run_dir, copy], check=True)
        ctx = pipeline.make_context(config.load_config(resolved), copy)
        print(f"{'stage':<14} {'tracemalloc_mb':>14} {'max_rss_mb':>10} {'child_max_rss_mb':>16}")
        tracemalloc.start()
        for name in argv[1:]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            pipeline.run_stage(ctx, name, force=True)
            peak = tracemalloc.get_traced_memory()[1] - base
            record = ctx.manifest.data["stages"][name]
            print(f"{name:<14} {peak / 2**20:>14.1f} {record['max_rss_mb']:>10.1f} "
                  f"{record['child_max_rss_mb']:>16.1f}", flush=True)
        tracemalloc.stop()
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main(sys.argv[1:])
