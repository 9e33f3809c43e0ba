"""Supervised job runtime: lifecycle, deadlines, retries, inline mode.

Unit-level tests of :mod:`repro.jobs` using tiny module-level job
functions (no placement flows — the chaos tests in
``test_jobs_chaos.py`` exercise the runtime under the real sweep).
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.jobs import (
    CANCELLED,
    CRASHED,
    DONE,
    FAILED,
    HUNG,
    TIMEOUT,
    JobCancelled,
    JobSpec,
    Supervisor,
    SupervisorConfig,
    SupervisorError,
    compute_backoff,
    run_jobs,
)
from repro.utils import heartbeat
from repro.utils.faults import FaultPlan
from repro.utils.metrics import MemorySink, MetricsRegistry, validate_stream

#: Fast supervision policy for tests: tight polling, tiny backoff.
FAST = dict(heartbeat_interval=0.02, poll_interval=0.01, backoff_base=0.01)


def job_double(x):
    """Trivial job: returns its argument doubled."""
    return x * 2


def job_raise(x):
    """Deterministic failure: always raises."""
    raise ValueError(f"deliberate failure for {x}")


def job_sleep_silent(seconds):
    """A hung job: sleeps without ever beating."""
    time.sleep(seconds)
    return "woke"


def job_sleep_beating(seconds):
    """A slow-but-alive job: beats while it sleeps."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        heartbeat.beat()
        time.sleep(0.02)
    return "done-slow"


def job_flaky(x):
    """Fires the ``flaky.site`` fault site, then returns."""
    from repro.utils import faults

    heartbeat.beat()
    faults.fire("flaky.site")
    return x + 1


def job_with_ctx(base, ctx=None):
    """Context-aware job: reports its attempt number and checkpoint."""
    return {
        "base": base,
        "attempt": ctx.attempt,
        "is_retry": ctx.is_retry,
        "checkpoint": ctx.checkpoint_path,
    }


def job_cancelled(x):
    """Raises the cooperative-cancellation signal directly."""
    raise JobCancelled("giving up")


class TestHeartbeatHook:
    def test_beat_without_handler_is_noop(self):
        heartbeat.clear_handler()
        heartbeat.beat()  # must not raise
        assert heartbeat.active() is None

    def test_handler_receives_beats_and_can_raise(self):
        calls = []
        heartbeat.set_handler(lambda: calls.append(1))
        try:
            heartbeat.beat()
            heartbeat.beat()
        finally:
            heartbeat.clear_handler()
        assert calls == [1, 1]
        heartbeat.set_handler(lambda: (_ for _ in ()).throw(JobCancelled("x")))
        try:
            with pytest.raises(JobCancelled):
                heartbeat.beat()
        finally:
            heartbeat.clear_handler()


class TestLifecycle:
    def test_done_failed_and_order(self):
        specs = [
            JobSpec("a", fn=job_double, args=(3,), index=0),
            JobSpec("b", fn=job_raise, args=(1,), index=1),
            JobSpec("c", fn=job_double, args=(5,), index=2),
        ]
        results = run_jobs(specs, config=SupervisorConfig(max_workers=2, **FAST))
        assert [r.job_id for r in results] == ["a", "b", "c"]
        assert results[0].state == DONE and results[0].value == 6
        assert results[0].ok and results[0].attempts == 1
        assert results[1].state == FAILED
        assert "deliberate failure" in results[1].error
        assert not results[1].ok
        assert results[2].state == DONE and results[2].value == 10

    def test_failed_jobs_are_not_retried(self):
        results = run_jobs(
            [JobSpec("f", fn=job_raise, args=(0,), max_retries=3)],
            config=SupervisorConfig(**FAST),
        )
        assert results[0].state == FAILED
        assert results[0].attempts == 1

    def test_context_passed_to_with_context_jobs(self):
        results = run_jobs(
            [
                JobSpec(
                    "ctx",
                    fn=job_with_ctx,
                    args=(7,),
                    with_context=True,
                    checkpoint_path="/tmp/nowhere.npz",
                )
            ],
            config=SupervisorConfig(**FAST),
        )
        assert results[0].value == {
            "base": 7,
            "attempt": 0,
            "is_retry": False,
            "checkpoint": "/tmp/nowhere.npz",
        }

    def test_cancelled_inside_job_reports_cancelled(self):
        results = run_jobs(
            [JobSpec("c", fn=job_cancelled, args=(0,))],
            config=SupervisorConfig(**FAST),
        )
        assert results[0].state == CANCELLED
        assert "giving up" in results[0].error

    def test_duplicate_job_ids_rejected(self):
        with Supervisor(SupervisorConfig(**FAST)) as sup:
            sup.submit(JobSpec("dup", fn=job_double, args=(1,)))
            with pytest.raises(ValueError, match="duplicate job id"):
                sup.submit(JobSpec("dup", fn=job_double, args=(2,)))


class TestDeadlines:
    def test_timeout_kills_and_reports(self):
        results = run_jobs(
            [
                JobSpec(
                    "slow",
                    fn=job_sleep_silent,
                    args=(30.0,),
                    timeout=0.4,
                    max_retries=0,
                )
            ],
            config=SupervisorConfig(**FAST),
        )
        assert results[0].state == TIMEOUT
        assert "deadline" in results[0].error

    def test_hung_worker_reaped_but_beating_worker_survives(self):
        specs = [
            JobSpec(
                "hung",
                fn=job_sleep_silent,
                args=(30.0,),
                heartbeat_timeout=0.4,
                max_retries=0,
                index=0,
            ),
            JobSpec(
                "beating",
                fn=job_sleep_beating,
                args=(1.0,),
                heartbeat_timeout=0.4,
                index=1,
            ),
        ]
        results = run_jobs(
            specs, config=SupervisorConfig(max_workers=2, **FAST)
        )
        # same wall time, opposite outcomes: silence is hung, slow is fine
        assert results[0].state == HUNG
        assert "heartbeat" in results[0].error
        assert results[1].state == DONE and results[1].value == "done-slow"


class TestRetry:
    def test_sigkill_then_retry_succeeds(self):
        spec = JobSpec(
            "kill-once",
            fn=job_flaky,
            args=(10,),
            max_retries=2,
            fault_plans=(
                FaultPlan("flaky.site", mode="sigkill", attempts=1),
            ),
        )
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        results = run_jobs(
            [spec], config=SupervisorConfig(**FAST), metrics=metrics
        )
        metrics.close()
        assert results[0].state == DONE
        assert results[0].value == 11
        assert results[0].attempts == 2
        kinds = [e["kind"] for e in metrics.series.get("job.crashed", [])]
        assert kinds == ["job.crashed"]
        retries = metrics.series.get("job.retry", [])
        assert len(retries) == 1 and retries[0]["attempt"] == 1

    def test_crash_every_attempt_exhausts_retries(self):
        spec = JobSpec(
            "kill-always",
            fn=job_flaky,
            args=(0,),
            max_retries=1,
            fault_plans=(FaultPlan("flaky.site", mode="sigkill"),),
        )
        results = run_jobs([spec], config=SupervisorConfig(**FAST))
        assert results[0].state == CRASHED
        assert results[0].attempts == 2
        assert "without a result" in results[0].error

    def test_backoff_is_deterministic_and_grows(self):
        cfg = SupervisorConfig(backoff_base=0.1, backoff_factor=2.0)
        first = compute_backoff(cfg, "job-a", 1)
        assert first == compute_backoff(cfg, "job-a", 1)
        assert compute_backoff(cfg, "job-a", 3) > first
        # different jobs get decorrelated jitter
        assert first != compute_backoff(cfg, "job-b", 1)


class TestCancellation:
    def test_cancel_pending_job(self):
        with Supervisor(SupervisorConfig(max_workers=1, **FAST)) as sup:
            sup.submit(JobSpec("run", fn=job_sleep_beating, args=(0.5,)))
            sup.submit(JobSpec("queued", fn=job_double, args=(1,)))
            sup.cancel("queued")
            results = sup.wait()
        by_id = {r.job_id: r for r in results}
        assert by_id["run"].state == DONE
        assert by_id["queued"].state == CANCELLED
        assert by_id["queued"].attempts == 0

    def test_cancel_running_job_cooperatively(self):
        with Supervisor(SupervisorConfig(max_workers=1, **FAST)) as sup:
            sup.submit(JobSpec("long", fn=job_sleep_beating, args=(30.0,)))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                sup.poll()
                if sup._jobs["long"].state == "running":
                    break
                time.sleep(0.01)
            sup.cancel("long")
            results = sup.wait()
        assert results[0].state == CANCELLED


class TestDegradation:
    class _BrokenContext:
        """An mp context whose process starts always fail."""

        class Process:
            def __init__(self, *a, **kw):
                pass

            def start(self):
                raise OSError("no processes for you")

        def get_context(self):  # pragma: no cover — API compat shim
            return self

    def test_broken_mp_context_raises_from_run_jobs(self):
        """No ladder: a supervisor that cannot start workers is loud."""
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        with pytest.raises(SupervisorError, match="cannot start worker"):
            run_jobs(
                [
                    JobSpec("a", fn=job_double, args=(2,), index=0),
                    JobSpec("b", fn=job_double, args=(3,), index=1),
                ],
                config=SupervisorConfig(**FAST),
                metrics=metrics,
                mp_context=self._BrokenContext(),
            )
        metrics.close()
        assert "job.degrade" not in metrics.series
        validate_stream([json.loads(line) for line in sink.lines])

    def test_retired_degrade_event_still_validates(self):
        """Older streams that carry ``job.degrade`` stay readable."""
        validate_stream([
            {"v": 2, "seq": 0, "kind": "run.start", "command": "test"},
            {"v": 2, "seq": 1, "kind": "job.degrade", "rung": "in-process",
             "reason": "no processes"},
        ])

    def test_supervisor_error_is_raised_not_swallowed(self):
        sup = Supervisor(SupervisorConfig(**FAST), mp_context=self._BrokenContext())
        try:
            with pytest.raises(SupervisorError, match="cannot start worker"):
                sup.run([JobSpec("x", fn=job_double, args=(1,))])
        finally:
            sup.close()


def job_pid_and_arg(obj):
    """Reports the process it ran in and echoes its argument."""
    return os.getpid(), obj


class TestInlineMode:
    """``max_workers=0``: jobs run one at a time on a helper thread."""

    INLINE = dict(max_workers=0, poll_interval=0.01)

    def test_done_failed_and_order(self):
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        results = run_jobs(
            [
                JobSpec("a", fn=job_double, args=(3,), index=0),
                JobSpec("b", fn=job_raise, args=(1,), index=1),
                JobSpec("c", fn=job_with_ctx, args=(7,), with_context=True,
                        index=2),
            ],
            config=SupervisorConfig(**self.INLINE),
            metrics=metrics,
        )
        metrics.close()
        assert [r.state for r in results] == [DONE, FAILED, DONE]
        assert results[0].value == 6
        assert "deliberate failure" in results[1].error
        assert results[2].value["attempt"] == 0
        kinds = [json.loads(line)["kind"] for line in sink.lines]
        assert kinds.count("job.submit") == kinds.count("job.end") == 3
        validate_stream([json.loads(line) for line in sink.lines])

    def test_job_shares_this_process(self):
        """Inline kwargs need not pickle: the job gets the object itself."""
        lock = threading.Lock()
        results = run_jobs(
            [JobSpec("p", fn=job_pid_and_arg, kwargs={"obj": lock})],
            config=SupervisorConfig(**self.INLINE),
        )
        assert results[0].value == (os.getpid(), lock)

    def test_one_job_at_a_time(self):
        with Supervisor(SupervisorConfig(**self.INLINE)) as sup:
            sup.submit(JobSpec("a", fn=job_sleep_beating, args=(0.3,)))
            sup.submit(JobSpec("b", fn=job_double, args=(1,)))
            sup.poll()
            assert sup.job_state("a") == "running"
            assert sup.job_state("b") == "pending"
            results = sup.wait()
        assert [r.state for r in results] == [DONE, DONE]

    def test_cancel_lands_at_next_beat(self):
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        with Supervisor(SupervisorConfig(**self.INLINE), metrics=metrics) as sup:
            sup.submit(JobSpec("long", fn=job_sleep_beating, args=(30.0,)))
            sup.poll()
            assert sup.worker_pid("long") == os.getpid()
            t0 = time.monotonic()
            sup.cancel("long")
            results = sup.wait()
            assert time.monotonic() - t0 < 5.0
        metrics.close()
        assert results[0].state == CANCELLED
        assert len(metrics.series["job.cancel"]) == 1
        assert heartbeat.active() is None

    def test_close_stops_running_job(self):
        sup = Supervisor(SupervisorConfig(**self.INLINE))
        sup.submit(JobSpec("long", fn=job_sleep_beating, args=(30.0,)))
        sup.poll()
        thread = sup._jobs["long"].proc._thread
        sup.close()
        assert not thread.is_alive()
        assert heartbeat.active() is None

    @pytest.mark.parametrize("field", ["timeout", "heartbeat_timeout"])
    def test_deadlines_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} cannot be enforced"):
            SupervisorConfig(max_workers=0, **{field: 1.0})
        with Supervisor(SupervisorConfig(**self.INLINE)) as sup:
            with pytest.raises(ValueError, match=f"{field} cannot be enforced"):
                sup.submit(JobSpec("x", fn=job_double, args=(1,),
                                   **{field: 1.0}))

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            SupervisorConfig(max_workers=-1)
