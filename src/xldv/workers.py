"""A stage's independent units, run in worker processes forked from it.

Units reach the workers by fork, so closures work and nothing is pickled on
the way in. Fork is safe here: BLAS runs one thread, and the executor forks
every worker before it starts its own thread. Results, log records and
config keys come back in unit order, so the worker count, which the CPU
affinity mask sets, changes no byte.
"""

import logging
import os

from .errors import XldvError

_job = None  # in a worker: the (fn, items, config) of the map that forked it


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _start_worker(*job):
    global _job
    _job = job


def _run_items(indices):
    """In a worker: the items' results, then their XldvError, log records and config keys."""
    fn, items, config = _job
    capture = _Capture()
    logging.root.handlers = [capture]
    read = config.read if config is not None else {}
    read.clear()
    results, error = [], None
    try:
        for i in indices:
            results.append(fn(items[i]))
    except XldvError as exc:
        error = exc
    return results, error, capture.records, read


def worker_count():
    return len(os.sched_getaffinity(0))


def map_ordered(fn, items, config=None):
    """``[fn(item) for item in items]``, computed in forked worker processes.

    The log records of each item are re-emitted here, and the keys it read
    through ``config`` (the stage's ``RecordingConfig``) merged into it, in
    item order. An item's ``XldvError`` is raised here after the records of
    the items before it; a worker that dies raises ``XldvError``. Every
    worker has exited when this returns or raises.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    items = list(items)
    n_workers = max(1, min(len(items), worker_count()))
    pool = ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn, items, config))
    step = max(1, len(items) // (4 * n_workers))
    try:
        results = []
        for future in [pool.submit(_run_items, range(len(items))[i:i + step])
                       for i in range(0, len(items), step)]:
            result, error, records, read = future.result()
            for record in records:
                logging.getLogger(record.name).handle(record)
            if config is not None:
                config.read.update(read)
            if error is not None:
                raise error
            results.extend(result)
        return results
    except BrokenProcessPool as exc:
        raise XldvError(f"a worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)
