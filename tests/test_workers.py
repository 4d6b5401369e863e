"""``workers.map_ordered``: forked workers that give a serial run's results and logs."""

import logging
import multiprocessing
import os
import signal

import pytest

from xldv import workers
from xldv.errors import DataError, XldvError
from xldv.pipeline import RecordingConfig


@pytest.fixture(params=[1, 2, 4], ids=["1-worker", "2-workers", "4-workers"])
def n_workers(request, monkeypatch):
    monkeypatch.setattr(workers, "worker_count", lambda: request.param)
    return request.param


def test_results_come_back_in_item_order(n_workers):
    offset = 100  # reaches the workers by fork, like any closure

    def square(x):
        return (x * x + offset, os.getpid())

    out = workers.map_ordered(square, range(20))
    assert [value for value, _ in out] == [x * x + 100 for x in range(20)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= n_workers
    assert multiprocessing.active_children() == []


def test_log_records_are_re_emitted_in_item_order(n_workers, caplog):
    log = logging.getLogger("xldv.test")

    def noisy(x):
        log.info("item %d", x)
        log.debug("hidden %d", x)
        return x

    caplog.set_level(logging.INFO)
    workers.map_ordered(noisy, range(9))
    records = [r for r in caplog.records if r.name == "xldv.test"]
    assert [(r.msg, r.args) for r in records] == [("item %d", (x,)) for x in range(9)]
    assert all(r.process != os.getpid() for r in records)


def test_config_keys_read_in_workers_are_merged(n_workers):
    config = RecordingConfig({"a": 1, "b": 2, "c": 3})
    config["a"]
    workers.map_ordered(lambda key: config[key], ["b", "c", "b"], config)
    assert config.read == {"a": 1, "b": 2, "c": 3}


def test_worker_error_keeps_its_class_and_the_records_before_it(n_workers, caplog):
    log = logging.getLogger("xldv.test")

    def fail_at_five(x):
        log.info("item %d", x)
        if x == 5:
            raise DataError(f"bad item {x}")
        return x

    caplog.set_level(logging.INFO)
    with pytest.raises(DataError, match="^bad item 5$"):
        workers.map_ordered(fail_at_five, range(12))
    messages = [r.getMessage() for r in caplog.records if r.name == "xldv.test"]
    assert messages == [f"item {x}" for x in range(6)]
    assert multiprocessing.active_children() == []


def test_killed_worker_raises_and_leaves_no_child(n_workers):
    def die_at_three(x):
        if x == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(XldvError, match="worker process died") as err:
        workers.map_ordered(die_at_three, range(8))
    assert type(err.value) is XldvError
    assert multiprocessing.active_children() == []
