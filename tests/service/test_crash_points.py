"""Crash-point tests: a writer killed at any step of a durable write.

:class:`CrashingOs` stands in for ``os`` inside :mod:`repro.persist` and
kills the writer at one step of :func:`repro.persist.write_atomic`:

* ``write`` — the temp file exists but nothing was written to it;
* ``fsync`` — the temp file was written but not yet fsynced;
* ``replace`` — the temp file was fsynced but not renamed over the target;
* ``dirsync`` — the rename happened but the directory was not fsynced.

After the death nothing of the writer runs, so its temp file is left
behind as a SIGKILL would leave it.  For every artefact (manifest,
checkpoint, job record, result, design cache) the tests assert that the
target holds the old or the new content, never a torn file; that no temp
file survives recovery; and that the recovering reader returns a
consistent state.  The service tests kill the job worker for real at a
crash point and assert the retried job's result is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import stat
import sys

import pytest

from repro import persist
from repro.experiments import orchestrator
from repro.experiments.orchestrator import ExperimentGrid
from repro.link.design import LinkDesignPoint
from repro.obs.manifest import load_manifest, write_manifest
from repro.service import ServiceConfig, SimulationService
from repro.service.models import Job, JobState
from repro.service.queue import DurableJobQueue
from repro.service.store import PersistentDesignCache, ResultsStore

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "experiments"))
import faultinject  # noqa: E402

from test_service_api import poll_until_terminal, request  # noqa: E402

STEPS = ("write", "fsync", "replace", "dirsync")
KEY = ("H(7,4)", 7, 4, 1e-12)
OTHER_KEY = ("H(7,4)", 7, 4, 1e-9)
POINT = LinkDesignPoint(
    "H(7,4)", 1e-12, 2.5e-9, 30.25, 1e-5, 2e-7, 4e-4, 1.6e-3, True, 1.75e-9, 4 / 7
)


class Crash(BaseException):
    """The simulated death of the writing process."""


class CrashingOs:
    """``os`` for :mod:`repro.persist` that dies once, at ``step``."""

    def __init__(self, step: str, die=None, armed: bool = True):
        self.step = step
        self.armed = armed
        self.dead = False
        self._die = die

    def __getattr__(self, name):
        return getattr(os, name)

    def _reached(self, step: str) -> bool:
        if self.armed and not self.dead and step == self.step:
            self.dead = True
            return True
        return False

    def die(self) -> None:
        if self._die is not None:
            self._die()
        raise Crash(self.step)

    def fdopen(self, descriptor, *args, **kwargs):
        if self._reached("write"):
            os.close(descriptor)
            self.die()
        return os.fdopen(descriptor, *args, **kwargs)

    def fsync(self, descriptor):
        directory = stat.S_ISDIR(os.fstat(descriptor).st_mode)
        if self._reached("dirsync" if directory else "fsync"):
            self.die()
        os.fsync(descriptor)

    def replace(self, source, target):
        if source.endswith(".tmp") and self._reached("replace"):
            self.die()
        os.replace(source, target)

    def unlink(self, path):
        if not self.dead:  # a dead process cleans nothing up
            os.unlink(path)


@contextlib.contextmanager
def crash_at(monkeypatch, step):
    monkeypatch.setattr(persist, "os", CrashingOs(step))
    with pytest.raises(Crash):
        yield
    monkeypatch.setattr(persist, "os", os)


def _temp_files(directory) -> list:
    return sorted(name for name in os.listdir(directory) if name.endswith(".tmp"))


def _landed(step: str) -> bool:
    """Whether the new content is in place after a crash at ``step``."""
    return step == "dirsync"


def _assert_debris(directory, step: str) -> None:
    """A crash before the rename leaves exactly the one temp file behind."""
    assert len(_temp_files(directory)) == (0 if _landed(step) else 1)


@pytest.mark.parametrize("step", STEPS)
class TestCrashPoints:
    def test_manifest(self, tmp_path, monkeypatch, step):
        path = str(tmp_path / "sweep.manifest.json")
        old, new = {"kind": "run-manifest", "v": 1}, {"kind": "run-manifest", "v": 2}
        write_manifest(path, old)
        with crash_at(monkeypatch, step):
            write_manifest(path, new)
        assert load_manifest(path) == (new if _landed(step) else old)
        _assert_debris(tmp_path, step)

        # Recovery is the next write of the same manifest.
        write_manifest(path, new)
        assert load_manifest(path) == new
        assert _temp_files(tmp_path) == []

    def test_checkpoint(self, tmp_path, monkeypatch, step):
        grid = ExperimentGrid("toy", ({"i": 0}, {"i": 1}), None)
        old = {0: {"value": 1}}
        new = {0: {"value": 1}, 1: {"value": 2}}
        orchestrator._write_checkpoint(str(tmp_path), grid, old)
        with crash_at(monkeypatch, step):
            orchestrator._write_checkpoint(str(tmp_path), grid, new)
        _assert_debris(tmp_path, step)

        recovered = orchestrator._load_checkpoint(str(tmp_path), grid)
        assert recovered == (new if _landed(step) else old)
        assert not os.path.exists(orchestrator.checkpoint_path(str(tmp_path), "toy") + ".corrupt")
        assert _temp_files(tmp_path) == []

    def test_job_record(self, tmp_path, monkeypatch, step):
        queue = DurableJobQueue(str(tmp_path))
        job, _ = queue.submit(Job(job_id="a" * 16, experiment="table1", options=None))
        with crash_at(monkeypatch, step):
            queue.transition(job.job_id, JobState.RUNNING)
        record = persist.read_json(str(tmp_path / (job.job_id + ".json")))
        assert record["checksum"] == persist.digest(record["job"])
        on_disk = JobState.RUNNING if _landed(step) else JobState.QUEUED
        assert record["job"]["state"] == on_disk
        _assert_debris(tmp_path, step)

        reborn = DurableJobQueue(str(tmp_path))
        requeued = reborn.recover()
        assert requeued == []  # __init__ already recovered the spool
        recovered = reborn.get(job.job_id)
        assert recovered.state == JobState.QUEUED  # an interrupted claim re-queues
        assert recovered.attempts == 0
        assert sorted(os.listdir(tmp_path)) == [job.job_id + ".json"]

    def test_result(self, tmp_path, monkeypatch, step):
        store = ResultsStore(str(tmp_path))
        old = {"text": "old", "rows": [{"a": 1}]}
        new = {"text": "new", "rows": [{"a": 2}]}
        store.put("f" * 16, old)
        with crash_at(monkeypatch, step):
            store.put("f" * 16, new)
        _assert_debris(tmp_path, step)

        reopened = ResultsStore(str(tmp_path))
        assert reopened.get("f" * 16) == (new if _landed(step) else old)
        assert sorted(os.listdir(tmp_path)) == ["f" * 16 + ".json"]

    def test_design_cache_rewrite(self, tmp_path, monkeypatch, step):
        """The salvage rewrite after damage is itself crash-safe."""
        path = str(tmp_path / "design-cache.jsonl")
        PersistentDesignCache(path).store(KEY, POINT)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "design-po')  # a torn append
        with crash_at(monkeypatch, step):
            PersistentDesignCache(path)  # quarantines, then rewrites the survivors
        assert os.path.exists(path + ".corrupt")
        _assert_debris(tmp_path, step)

        recovered = PersistentDesignCache(path)
        # Before the rewrite lands the damaged file is already quarantined,
        # so the cache restarts empty; a cache miss only costs a re-solve.
        assert recovered.load(KEY) == (POINT if _landed(step) else None)
        assert _temp_files(tmp_path) == []


def test_design_cache_append_crash_before_fsync(tmp_path, monkeypatch):
    """An append that dies before its fsync leaves whole records only."""
    path = str(tmp_path / "design-cache.jsonl")
    cache = PersistentDesignCache(path)
    cache.store(KEY, POINT)
    with crash_at(monkeypatch, "fsync"):
        cache.store(OTHER_KEY, POINT)
    recovered = PersistentDesignCache(path)
    assert recovered.load(KEY) == POINT
    assert recovered.load(OTHER_KEY) == POINT
    assert not os.path.exists(path + ".corrupt")


# --------------------------------------------------------------------------
# Service: kill the job worker at a crash point, retry, compare the result.

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service workers require the fork start method",
)


def _worker_crash(tmp_path, monkeypatch, step, is_target):
    """Make the first targeted write of any forked job worker die at ``step``.

    The worker SIGKILLs itself, so nothing after the crash point runs.  A
    marker file makes the fault one-shot across processes: the retry's
    worker, forked afresh from the service, finds it and writes normally.
    """
    marker = tmp_path / "crashed"
    service_pid = os.getpid()

    def die():
        marker.touch(exist_ok=False)
        os.kill(os.getpid(), signal.SIGKILL)

    crashing = CrashingOs(step, die=die, armed=False)
    write_atomic = persist.write_atomic

    def targeted_write_atomic(path, text):
        crashing.armed = (
            os.getpid() != service_pid and not marker.exists() and is_target(path)
        )
        try:
            write_atomic(path, text)
        finally:
            crashing.armed = False

    monkeypatch.setattr(persist, "os", crashing)
    monkeypatch.setattr(persist, "write_atomic", targeted_write_atomic)
    return marker


@needs_fork
@pytest.mark.parametrize(
    "artefact,step",
    [("result", step) for step in STEPS] + [("checkpoint", "replace"), ("checkpoint", "dirsync")],
)
def test_service_job_retried_after_worker_crash_is_byte_identical(
    tmp_path, monkeypatch, artefact, step
):
    faultinject.install()
    reference = tmp_path / "reference"
    reference.mkdir()
    options = {"work_dir": str(reference), "num_shards": 3}
    expected_text, expected_rows = orchestrator.run_experiment(faultinject.EXPERIMENT, options=options)
    expected = json.dumps({"text": expected_text, "rows": expected_rows}, sort_keys=True)

    work = tmp_path / "work"
    work.mkdir()
    data = tmp_path / "data"
    is_target = {
        "result": lambda path: os.path.dirname(path) == str(data / "results"),
        "checkpoint": lambda path: os.path.basename(path) == f"{faultinject.EXPERIMENT}.json",
    }[artefact]
    marker = _worker_crash(tmp_path, monkeypatch, step, is_target)

    service = SimulationService(
        data_dir=str(data), service_config=ServiceConfig(backoff_base_s=0.05, backoff_cap_s=0.2)
    )
    service.start()
    try:
        status, payload, _ = request(
            f"{service.url}/jobs",
            "POST",
            {"experiment": faultinject.EXPERIMENT, "options": {**options, "work_dir": str(work)}},
        )
        assert status == 202, payload
        final = poll_until_terminal(service.url, payload["job_id"], deadline_s=90.0)
        assert marker.exists()  # the fault fired
        assert final["state"] == JobState.DONE
        assert final["attempts"] == 1  # the crash was charged once, then retried
        status, body, _ = request(f"{service.url}/jobs/{payload['job_id']}/result")
        assert status == 200
        assert json.dumps(body["result"], sort_keys=True) == expected
    finally:
        service.stop(drain_timeout_s=10.0)
    debris = [
        os.path.join(directory, name)
        for directory, _, names in os.walk(data)
        for name in names
        if name.endswith(".tmp")
    ]
    assert debris == []
