"""Model-based test of the durable job queue's lifecycle.

A hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.service.queue.DurableJobQueue` through random sequences of
``submit`` (idempotent per fingerprint, bounded by the depth limit),
``claim_next`` at chosen monotonic instants, legal and illegal
``transition`` calls per :attr:`JobState.TRANSITIONS`, the supervisor's
retry-with-backoff sequence, ``resubmit`` and
restarts (a new queue on the same spool), and checks every step against a
plain dict model.  After each step three views must equal the model: the
live queue, the raw records on disk, and a queue reopened from a copy of
the spool (which applies restart recovery: running and failed jobs return
to queued and every backoff deadline is forgotten).
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import persist
from repro.exceptions import ConfigurationError, JobNotFoundError, QueueFullError
from repro.service.models import Job, JobState
from repro.service.queue import DurableJobQueue

JOB_IDS = ("a" * 16, "b" * 16, "c" * 16)
MAX_DEPTH = 2
#: Instants on the monotonic clock; backoff deadlines are drawn from the same set.
INSTANTS = (0.0, 5.0, 50.0)

job_ids = st.sampled_from(JOB_IDS)
instants = st.sampled_from(INSTANTS)


def _view(job: Job) -> dict:
    """The fields the model tracks (``updated_s`` is wall-clock noise)."""
    return {
        "state": job.state,
        "attempts": job.attempts,
        "deterministic_failures": job.deterministic_failures,
        "not_before_s": job.not_before_s,
        "error": job.error,
        "created_s": job.created_s,
        "experiment": job.experiment,
    }


def _after_restart(model: dict) -> dict:
    """What restart recovery makes of the model (``Job.rescheduled`` semantics)."""
    recovered = {}
    for job_id, fields in model.items():
        fields = dict(fields)
        if fields["state"] in (JobState.RUNNING, JobState.FAILED):
            fields["state"] = JobState.QUEUED
        if fields["state"] == JobState.QUEUED:
            fields["not_before_s"] = 0.0
        recovered[job_id] = fields
    return recovered


class QueueLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.spool = tempfile.mkdtemp(prefix="queue-model-")
        self.queue = DurableJobQueue(self.spool, max_depth=MAX_DEPTH)
        self.model: dict = {}

    def teardown(self):
        shutil.rmtree(self.spool, ignore_errors=True)

    # ------------------------------------------------------------------ rules
    @rule(job_id=job_ids, created_s=st.sampled_from((1.0, 2.0)), experiment=st.sampled_from(("x", "y")))
    def submit(self, job_id, created_s, experiment):
        job = Job(job_id=job_id, experiment=experiment, options=None, created_s=created_s)
        occupancy = sum(
            1 for fields in self.model.values()
            if fields["state"] not in (JobState.DONE, JobState.DEAD)
        )
        if job_id not in self.model and occupancy >= MAX_DEPTH:
            with pytest.raises(QueueFullError):
                self.queue.submit(job)
            return
        returned, created = self.queue.submit(job)
        # Idempotent on the fingerprint: a known id returns the existing job.
        assert created == (job_id not in self.model)
        if created:
            self.model[job_id] = _view(job)
        assert _view(returned) == self.model[job_id]

    @rule(now=instants)
    def claim_next(self, now):
        eligible = [
            (fields["created_s"], job_id)
            for job_id, fields in self.model.items()
            if fields["state"] == JobState.QUEUED and fields["not_before_s"] <= now
        ]
        claimed = self.queue.claim_next(now_s=now)
        if not eligible:
            assert claimed is None
            return
        _, expected = min(eligible)
        assert claimed is not None and claimed.job_id == expected
        self.model[expected].update(state=JobState.RUNNING, error=None)

    @rule(
        job_id=job_ids,
        new_state=st.sampled_from(JobState.ALL),
        error=st.sampled_from((None, "boom")),
        not_before_s=st.sampled_from((None,) + INSTANTS),
        charge_attempt=st.booleans(),
        charge_deterministic=st.booleans(),
    )
    def transition(self, job_id, new_state, error, not_before_s, charge_attempt, charge_deterministic):
        kwargs = dict(
            error=error,
            not_before_s=not_before_s,
            charge_attempt=charge_attempt,
            charge_deterministic=charge_deterministic,
        )
        if job_id not in self.model:
            with pytest.raises(JobNotFoundError):
                self.queue.transition(job_id, new_state, **kwargs)
            return
        fields = self.model[job_id]
        if new_state not in JobState.TRANSITIONS[fields["state"]]:
            with pytest.raises(ConfigurationError):
                self.queue.transition(job_id, new_state, **kwargs)
            return
        returned = self.queue.transition(job_id, new_state, **kwargs)
        fields.update(
            state=new_state,
            error=error,
            attempts=fields["attempts"] + int(charge_attempt),
            deterministic_failures=fields["deterministic_failures"] + int(charge_deterministic),
        )
        if not_before_s is not None:
            fields["not_before_s"] = not_before_s
        assert _view(returned) == fields

    def _running(self) -> list:
        return sorted(
            job_id for job_id, fields in self.model.items() if fields["state"] == JobState.RUNNING
        )

    @precondition(lambda self: self._running())
    @rule(data=st.data(), not_before_s=st.sampled_from(INSTANTS[1:]))
    def retry_with_backoff(self, data, not_before_s):
        """The supervisor's retry: running -> failed (charged) -> queued later."""
        job_id = data.draw(st.sampled_from(self._running()))
        self.queue.transition(job_id, JobState.FAILED, error="boom", charge_attempt=True)
        self.queue.transition(job_id, JobState.QUEUED, error="boom", not_before_s=not_before_s)
        fields = self.model[job_id]
        fields.update(
            state=JobState.QUEUED,
            error="boom",
            attempts=fields["attempts"] + 1,
            not_before_s=not_before_s,
        )

    @rule(job_id=job_ids)
    def resubmit(self, job_id):
        if job_id not in self.model:
            with pytest.raises(JobNotFoundError):
                self.queue.resubmit(job_id)
            return
        self.queue.resubmit(job_id)
        self.model[job_id].update(
            state=JobState.QUEUED,
            attempts=0,
            deterministic_failures=0,
            not_before_s=0.0,
            error=None,
        )

    @rule()
    def restart(self):
        expected_requeued = sorted(
            job_id
            for job_id, fields in self.model.items()
            if fields["state"] in (JobState.RUNNING, JobState.FAILED)
        )
        self.queue = DurableJobQueue(self.spool, max_depth=MAX_DEPTH)
        self.model = _after_restart(self.model)
        # Recovery already ran in __init__: a second pass requeues nothing.
        assert self.queue.recover() == []
        assert all(
            self.queue.get(job_id).state == JobState.QUEUED for job_id in expected_requeued
        )

    # ------------------------------------------------------------- invariants
    @invariant()
    def live_queue_matches_model(self):
        assert {job.job_id: _view(job) for job in self.queue.jobs()} == self.model
        counts = self.queue.counts()
        for state in JobState.ALL:
            assert counts[state] == sum(
                1 for fields in self.model.values() if fields["state"] == state
            )

    @invariant()
    def records_on_disk_match_model(self):
        on_disk = {}
        for job_id in JOB_IDS:
            document = persist.read_json(f"{self.spool}/{job_id}.json")
            if document is None:
                continue
            assert document["checksum"] == persist.digest(document["job"])
            on_disk[job_id] = _view(Job.from_dict(document["job"]))
        assert on_disk == self.model

    @invariant()
    def reopened_queue_matches_model(self):
        copy = tempfile.mkdtemp(prefix="queue-reopened-")
        try:
            shutil.copytree(self.spool, copy, dirs_exist_ok=True)
            reopened = DurableJobQueue(copy, max_depth=MAX_DEPTH)
            assert {job.job_id: _view(job) for job in reopened.jobs()} == _after_restart(
                self.model
            )
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    @invariant()
    def retry_delay_matches_model(self):
        for now in INSTANTS:
            pending = [
                fields["not_before_s"] - now
                for fields in self.model.values()
                if fields["state"] == JobState.QUEUED and fields["not_before_s"] > now
            ]
            assert self.queue.next_retry_delay_s(now_s=now) == (min(pending) if pending else None)


QueueLifecycle.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None
)
TestQueueLifecycle = QueueLifecycle.TestCase
