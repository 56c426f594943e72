"""Unit tests for admission control and stride-fair dispatch."""

import itertools
import time

import pytest

from repro.core.exceptions import ValidationError
from repro.serve import AdmissionError, Job, JobQueue, JobSpec
from repro.serve.anytime import AnytimeEstimate

_seq = itertools.count(1)


def make_job(tenant="t", priority=0):
    seq = next(_seq)
    spec = JobSpec(job_id=f"q-{seq}", tenant=tenant, method="loo",
                   utility=None, priority=priority)
    return Job(spec, anytime=AnytimeEstimate(), seq=seq)


def drain(queue, n):
    """Pop ``n`` jobs, reporting each done, and return the tenant log."""
    for _ in range(n):
        job = queue.pop(timeout=1.0)
        assert job is not None
        queue.task_done(job.spec.tenant)
    return queue.dispatch_log


class TestAdmission:
    def test_capacity_rejection_with_retry_hint(self):
        queue = JobQueue(capacity=2, retry_after=0.5)
        queue.push(make_job())
        queue.push(make_job())
        with pytest.raises(AdmissionError) as err:
            queue.push(make_job())
        assert err.value.reason == "queue_full"
        assert err.value.retry_after >= 0.5

    def test_tenant_pending_quota(self):
        queue = JobQueue(capacity=10)
        queue.configure_tenant("a", max_pending=1)
        queue.push(make_job("a"))
        with pytest.raises(AdmissionError) as err:
            queue.push(make_job("a"))
        assert err.value.reason == "tenant_quota"
        queue.push(make_job("b"))  # other tenants unaffected

    def test_closed_queue_rejects_but_still_drains(self):
        queue = JobQueue(capacity=10)
        queue.push(make_job("a"))
        queue.close()
        with pytest.raises(AdmissionError) as err:
            queue.push(make_job("a"))
        assert err.value.reason == "draining"
        assert queue.pop(timeout=1.0) is not None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            JobQueue(capacity=0)
        with pytest.raises(ValidationError):
            JobQueue().configure_tenant("a", weight=0.0)


class TestDispatchOrder:
    def test_priority_beats_fifo_within_tenant(self):
        queue = JobQueue()
        low = make_job("a", priority=0)
        high = make_job("a", priority=5)
        mid = make_job("a", priority=1)
        for job in (low, high, mid):
            queue.push(job)
        popped = [queue.pop(timeout=1.0) for _ in range(3)]
        assert popped == [high, mid, low]

    def test_fifo_ties_by_admission_order(self):
        queue = JobQueue()
        jobs = [make_job("a") for _ in range(4)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop(timeout=1.0) for _ in range(4)] == jobs

    def test_equal_weights_alternate(self):
        queue = JobQueue()
        for _ in range(4):
            queue.push(make_job("a"))
        for _ in range(4):
            queue.push(make_job("b"))
        assert drain(queue, 8) == ["a", "b"] * 4

    def test_weighted_two_to_one_stride(self):
        queue = JobQueue()
        queue.configure_tenant("a", weight=2.0)
        queue.configure_tenant("b", weight=1.0)
        for _ in range(6):
            queue.push(make_job("a"))
        for _ in range(3):
            queue.push(make_job("b"))
        log = drain(queue, 9)
        assert log == ["a", "b", "a", "a", "b", "a", "a", "b", "a"]

    def test_late_tenant_starts_at_virtual_time(self):
        # A tenant arriving mid-stream must not be owed "back pay": it
        # starts at the incumbents' pass, so it cannot monopolize.
        queue = JobQueue()
        for _ in range(8):
            queue.push(make_job("a"))
        drain(queue, 4)
        for _ in range(4):
            queue.push(make_job("b"))
        log = drain(queue, 8)
        recent = log[4:]
        assert recent.count("a") == 4 and recent.count("b") == 4
        # never two-in-a-row for the latecomer
        assert all(not (x == y == "b") for x, y in zip(recent, recent[1:]))

    def test_weighted_share_holds_across_idle_bursts(self):
        # Between bursts both tenants go idle. A returning tenant must
        # re-enter at the virtual time: otherwise the weight-2 tenant,
        # which drains first each burst, banks the gap as credit and
        # wins nearly every backlogged dispatch instead of 2/3.
        queue = JobQueue()
        queue.configure_tenant("a", weight=2.0)
        queue.configure_tenant("b", weight=1.0)
        backlogged = []
        for _ in range(20):
            pending = {"a": 6, "b": 6}
            for _ in range(6):
                queue.push(make_job("a"))
                queue.push(make_job("b"))
            for _ in range(12):
                both = pending["a"] > 0 and pending["b"] > 0
                tenant = queue.pop(timeout=1.0).spec.tenant
                pending[tenant] -= 1
                if both:
                    backlogged.append(tenant)
                queue.task_done(tenant)
        share = backlogged.count("a") / len(backlogged)
        assert abs(share - 2 / 3) <= 0.1

    def test_max_active_skips_saturated_tenant(self):
        queue = JobQueue()
        queue.configure_tenant("a", max_active=1)
        first, second = make_job("a"), make_job("a")
        other = make_job("b")
        for job in (first, second, other):
            queue.push(job)
        assert queue.pop(timeout=1.0) is first
        assert queue.pop(timeout=1.0) is other  # a is at max_active
        assert queue.pop(timeout=0.05) is None
        queue.task_done("a")
        assert queue.pop(timeout=1.0) is second


class TestParkAndRemove:
    def test_parked_job_returns_after_deadline(self):
        queue = JobQueue()
        job = make_job("a")
        queue.push(job)
        assert queue.pop(timeout=1.0) is job
        queue.task_done("a")
        queue.park(job, delay=0.15)
        assert queue.pop(timeout=0.05) is None
        assert queue.pop(timeout=2.0) is job

    def test_parked_deadline_ignores_wall_clock_jumps(self, monkeypatch):
        from repro.serve import queue as queue_mod

        queue = JobQueue()
        job = make_job("a")
        queue.push(job)
        assert queue.pop(timeout=1.0) is job
        queue.task_done("a")
        queue.park(job, delay=60.0)
        # A forward wall-clock step used to unpark lease-backoff jobs
        # immediately; the deadline now lives on the monotonic clock.
        real_time = time.time
        monkeypatch.setattr(queue_mod.time, "time",
                            lambda: real_time() + 3600.0)
        assert queue.pop(timeout=0.2) is None
        assert queue.remove(job) is True

    def test_remove_pending_and_parked(self):
        queue = JobQueue()
        first, second = make_job("a"), make_job("a")
        queue.push(first)
        queue.push(second)
        assert queue.remove(first) is True
        assert queue.pop(timeout=1.0) is second
        queue.task_done("a")
        queue.park(second, delay=60)
        assert queue.remove(second) is True
        assert queue.remove(second) is False
        assert queue.idle()


class TestIntrospection:
    def test_snapshot_and_idle(self):
        queue = JobQueue(capacity=8)
        queue.configure_tenant("a", weight=2.0)
        queue.push(make_job("a"))
        snap = queue.snapshot()
        assert snap["pending"] == 1 and snap["capacity"] == 8
        assert snap["tenants"]["a"]["weight"] == 2.0
        assert not queue.idle()
        job = queue.pop(timeout=1.0)
        assert queue.active == 1
        queue.task_done(job.spec.tenant)
        assert queue.idle() and queue.wait_idle(timeout=1.0)
