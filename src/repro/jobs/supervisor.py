"""Supervised job execution: deadlines, heartbeats, retries, inline mode.

The :class:`Supervisor` runs :class:`~repro.jobs.spec.JobSpec` work
orders in child processes (one process per attempt, up to
``max_workers`` concurrently) and enforces the lifecycle contract the
workers themselves cannot be trusted with:

* **wall-clock deadlines** — a job past its ``timeout`` is SIGKILLed
  by the supervisor; no cooperation required;
* **hung vs slow** — workers touch a heartbeat file at flow progress
  points (:mod:`repro.utils.heartbeat`); a worker that stops beating
  for ``heartbeat_timeout`` seconds is *hung* and reaped immediately,
  while a slow-but-progressing worker runs until its deadline;
* **retry with backoff** — involuntary deaths (crash/hang/timeout)
  are retried up to ``max_retries`` times with exponential backoff and
  deterministic jitter; a retried job whose spec names a
  ``checkpoint_path`` warm-starts from its last atomic checkpoint;
* **cooperative cancellation** — :meth:`Supervisor.cancel` flags the
  job's cancel file (picked up at the next heartbeat), escalating to
  SIGTERM and finally SIGKILL after a grace period.

With ``max_workers=0`` the supervisor runs **inline**: one job at a
time, in this process, on a helper thread.  The job shares the
process's memory (its kwargs need not pickle, so a daemon can hand it
a warm cache); thread liveness stands in for the worker's exit code
and a :class:`threading.Event` polled at each heartbeat stands in for
the cancel file.  A thread cannot be killed, so inline jobs have no
deadlines (:class:`SupervisorConfig` rejects them) and stop only at a
progress beat.

Results come back in submission order, every job reporting a
structured :class:`~repro.jobs.spec.JobResult` — the supervisor never
raises because of anything a *job* did.  When it cannot start a
worker at all it raises :class:`SupervisorError`; nothing falls back
to another way of running the job.

This is the one job executor of the repository: the bench and DSE
sweep runners (:mod:`repro.bench.parallel`) and the placement service
daemon all run their jobs through it.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass

from repro.jobs.spec import (
    CANCELLED,
    CRASHED,
    HUNG,
    PENDING,
    RETRYABLE_STATES,
    RUNNING,
    TIMEOUT,
    JobCancelled,
    JobResult,
    JobSpec,
)
from repro.jobs.worker import (
    CANCEL_FILE,
    HEARTBEAT_FILE,
    read_result,
    run_attempt,
    worker_main,
)
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL

logger = get_logger("jobs.supervisor")

#: Seconds :meth:`Supervisor.close` waits for a cancelled inline job.
INLINE_CLOSE_TIMEOUT = 60.0


class SupervisorError(RuntimeError):
    """The supervisor itself (not a job) cannot make progress.

    Raised when a worker (process or inline thread) cannot be started;
    it propagates to the caller.
    """


@dataclass
class SupervisorConfig:
    """Supervision policy knobs (per-spec fields override the defaults).

    Attributes
    ----------
    max_workers:
        Concurrent worker processes; ``0`` runs jobs inline, one at a
        time on a helper thread of this process.
    timeout / heartbeat_timeout:
        Defaults for specs that leave theirs ``None`` — see
        :class:`~repro.jobs.spec.JobSpec`.  Rejected with
        ``max_workers=0``: nothing can kill a thread.
    heartbeat_interval:
        Worker-side throttle between heartbeat file updates; keep well
        under ``heartbeat_timeout``.
    max_retries:
        Default replacement attempts after involuntary deaths.
    backoff_base / backoff_factor / backoff_jitter:
        Retry delay: ``base * factor**(attempt-1)``, stretched by up
        to ``jitter`` fraction using a jitter stream seeded from the
        job id (deterministic across runs, decorrelated across jobs).
    poll_interval:
        Supervisor tick period.
    cancel_grace:
        Seconds between cancellation escalation steps (cooperative
        flag -> SIGTERM -> SIGKILL).
    """

    max_workers: int = 1
    timeout: float | None = None
    heartbeat_timeout: float | None = None
    heartbeat_interval: float = 0.1
    max_retries: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    poll_interval: float = 0.02
    cancel_grace: float = 0.5

    def __post_init__(self) -> None:
        if self.max_workers < 0:
            raise ValueError(
                f"max_workers must be >= 0, got {self.max_workers}"
            )
        if self.max_workers == 0:
            _check_inline_deadlines(self, "max_workers=0")


def _check_inline_deadlines(obj, where: str) -> None:
    """Reject deadlines on inline jobs: a thread cannot be killed."""
    for name in ("timeout", "heartbeat_timeout"):
        if getattr(obj, name) is not None:
            raise ValueError(
                f"{name} cannot be enforced with {where}: inline jobs run "
                f"on a thread, which cannot be killed"
            )


def compute_backoff(config: SupervisorConfig, job_id: str, attempt: int) -> float:
    """Deterministic exponential backoff with per-job jitter.

    ``attempt`` is the 1-based retry number.  Seeding the jitter from
    ``(job_id, attempt)`` keeps reruns reproducible while spreading
    simultaneous retries of different jobs apart.
    """
    base = config.backoff_base * config.backoff_factor ** max(0, attempt - 1)
    jitter = random.Random(f"{job_id}:{attempt}").random()
    return base * (1.0 + config.backoff_jitter * jitter)


@dataclass
class _Job:
    """Supervisor-internal tracking record of one submitted job."""

    spec: JobSpec
    order: int
    state: str = PENDING
    attempt: int = 0
    proc: object = None
    workdir: str = ""
    started: float = 0.0
    first_started: float | None = None
    not_before: float = 0.0
    last_beat: float = 0.0
    beat_stamp: str = ""
    cancel_requested: bool = False
    cancel_since: float = 0.0
    sigterm_sent: bool = False
    result: JobResult | None = None

    @property
    def done(self) -> bool:
        """True once a terminal :class:`JobResult` is recorded."""
        return self.result is not None


class _InlineWorker:
    """Stand-in for a worker process: one attempt on a helper thread.

    Exposes the slice of the ``multiprocessing.Process`` interface the
    supervisor reads (``start``/``join``/``exitcode``/``pid``); the
    attempt's outcome lands in :attr:`payload` instead of a result
    file, and :attr:`cancel` replaces the cancel file.
    """

    def __init__(self, spec: JobSpec, attempt: int) -> None:
        self.pid = os.getpid()
        self.cancel = threading.Event()
        self.payload = None
        self._thread = threading.Thread(
            target=self._run,
            args=(spec, attempt),
            daemon=True,
            name=f"repro-job-{spec.job_id}-{attempt}",
        )

    def _run(self, spec: JobSpec, attempt: int) -> None:
        self.payload = run_attempt(spec, attempt, self._beat)

    def _beat(self) -> None:
        if self.cancel.is_set():
            raise JobCancelled("cancel requested by supervisor")

    def start(self) -> None:
        """Start the helper thread."""
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        """Wait for the attempt to finish."""
        self._thread.join(timeout)

    @property
    def exitcode(self) -> int | None:
        """``None`` while the attempt runs, ``0`` once it returned."""
        return None if self._thread.is_alive() else 0


class Supervisor:
    """Run job specs under deadlines, heartbeats and retry policy.

    Use as a context manager, or call :meth:`close` to reap any
    still-running workers and delete the scratch directory.  The
    incremental API (:meth:`submit` / :meth:`poll` / :meth:`wait` /
    :meth:`cancel`) exists so a long-running service can feed jobs in
    over time; :meth:`run` is the batch convenience used by the sweep
    runner.  :meth:`poll`, :meth:`cancel` and :meth:`close` are meant
    to be called from one thread, inline mode included.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        metrics=NULL,
        mp_context=None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.metrics = metrics
        self._ctx = mp_context or multiprocessing.get_context()
        self.inline = self.config.max_workers == 0
        self._jobs: dict = {}
        self._order: list = []
        self._delivered: set = set()
        self._root = tempfile.mkdtemp(prefix="repro-jobs-")
        self._closed = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop running workers and remove scratch files.

        Worker processes are SIGKILLed.  An inline job is cancelled
        and awaited until its next progress beat (up to
        :data:`INLINE_CLOSE_TIMEOUT` seconds).
        """
        if self._closed:
            return
        self._closed = True
        for job in self._jobs.values():
            if job.proc is None or job.proc.exitcode is not None:
                continue
            if self.inline:
                job.proc.cancel.set()
                job.proc.join(timeout=INLINE_CLOSE_TIMEOUT)
                if job.proc.exitcode is None:
                    logger.error(
                        "inline job %s did not stop within %.0fs of close",
                        job.spec.job_id, INLINE_CLOSE_TIMEOUT,
                    )
            else:
                job.proc.kill()
                job.proc.join(timeout=5)
        shutil.rmtree(self._root, ignore_errors=True)

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Queue one job; returns its id.  Ids must be unique."""
        if spec.job_id in self._jobs:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        if self.inline:
            _check_inline_deadlines(spec, f"inline job {spec.job_id!r}")
        job = _Job(spec=spec, order=len(self._order))
        self._jobs[spec.job_id] = job
        self._order.append(spec.job_id)
        if self.metrics.enabled:
            self.metrics.emit("job.submit", job=spec.job_id, index=spec.index)
        return spec.job_id

    def cancel(self, job_id: str) -> None:
        """Request cancellation (cooperative first, forced eventually)."""
        job = self._jobs[job_id]
        if job.done:
            return
        if self.metrics.enabled:
            self.metrics.emit("job.cancel", job=job_id)
        if job.state == PENDING:
            self._finalize(job, CANCELLED, "cancelled before start")
            return
        if not job.cancel_requested:
            job.cancel_requested = True
            job.cancel_since = time.monotonic()
            if self.inline:
                job.proc.cancel.set()
            else:
                self._touch(os.path.join(job.workdir, CANCEL_FILE))

    def results(self) -> list:
        """Terminal :class:`JobResult` entries so far, submission order."""
        return [
            self._jobs[jid].result
            for jid in self._order
            if self._jobs[jid].result is not None
        ]

    def take_completed(self) -> list:
        """Newly terminal :class:`JobResult` entries since the last call.

        Incremental companion to :meth:`results` for long-lived callers
        (the service daemon drains this from its scheduler tick): each
        terminal result is returned exactly once, submission order
        within a call.
        """
        fresh = []
        for jid in self._order:
            job = self._jobs[jid]
            if job.result is not None and jid not in self._delivered:
                self._delivered.add(jid)
                fresh.append(job.result)
        return fresh

    def job_state(self, job_id: str) -> str:
        """The current lifecycle state of one submitted job."""
        return self._jobs[job_id].state

    def worker_pid(self, job_id: str) -> int | None:
        """Pid of the job's live worker process (``None`` if none)."""
        proc = self._jobs[job_id].proc
        return proc.pid if proc is not None else None

    def run(self, specs) -> list:
        """Submit ``specs`` and block until every job is terminal."""
        for spec in specs:
            self.submit(spec)
        return self.wait()

    def wait(self) -> list:
        """Drive the state machine until all submitted jobs finish."""
        while not all(job.done for job in self._jobs.values()):
            self.poll()
            time.sleep(self.config.poll_interval)
        return self.results()

    # ------------------------------------------------------------------
    # one scheduling tick
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Advance every job one step: reap, enforce, retry, start."""
        now = time.monotonic()
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state == RUNNING:
                self._check_running(job, now)
        self._start_pending(now)

    def _check_running(self, job: _Job, now: float) -> None:
        proc = job.proc
        if proc.exitcode is not None:
            self._reap(job)
            return
        if self.inline:
            return  # no deadline or escalation can act on a thread
        self._refresh_beat(job, now)
        if job.cancel_requested:
            waited = now - job.cancel_since
            if waited > 2 * self.config.cancel_grace:
                proc.kill()
                proc.join(timeout=5)
                self._reap(job)
            elif waited > self.config.cancel_grace and not job.sigterm_sent:
                job.sigterm_sent = True
                proc.terminate()
            return
        timeout = job.spec.timeout
        timeout = self.config.timeout if timeout is None else timeout
        if timeout is not None and now - job.started > timeout:
            if self.metrics.enabled:
                self.metrics.emit(
                    "job.timeout",
                    job=job.spec.job_id,
                    attempt=job.attempt,
                    timeout_s=timeout,
                )
            logger.warning(
                "%s exceeded its %.1fs deadline; killing worker",
                job.spec.job_id, timeout,
            )
            proc.kill()
            proc.join(timeout=5)
            self._attempt_ended(job, TIMEOUT, f"deadline exceeded ({timeout}s)")
            return
        hb_timeout = job.spec.heartbeat_timeout
        if hb_timeout is None:
            hb_timeout = self.config.heartbeat_timeout
        if hb_timeout is not None and now - job.last_beat > hb_timeout:
            silent = now - job.last_beat
            if self.metrics.enabled:
                self.metrics.emit(
                    "job.hung",
                    job=job.spec.job_id,
                    attempt=job.attempt,
                    silent_s=silent,
                )
            logger.warning(
                "%s silent for %.1fs (heartbeat limit %.1fs); killing "
                "hung worker", job.spec.job_id, silent, hb_timeout,
            )
            proc.kill()
            proc.join(timeout=5)
            self._attempt_ended(
                job, HUNG, f"no heartbeat for {silent:.1f}s"
            )

    def _refresh_beat(self, job: _Job, now: float) -> None:
        """Track progress via the heartbeat file's *content* change.

        Comparing content stamps instead of mtimes keeps the check in
        one clock domain (the supervisor's monotonic clock).
        """
        try:
            with open(os.path.join(job.workdir, HEARTBEAT_FILE)) as fh:
                stamp = fh.read()
        except OSError:
            return
        if stamp != job.beat_stamp:
            job.beat_stamp = stamp
            job.last_beat = now

    # ------------------------------------------------------------------
    # attempt/job termination
    # ------------------------------------------------------------------
    def _reap(self, job: _Job) -> None:
        """Classify a worker that exited on its own (or was killed)."""
        job.proc.join(timeout=5)
        if self.inline:
            payload = job.proc.payload
        else:
            payload = read_result(job.workdir)
        if payload is not None:
            self._attempt_ended(
                job, payload["state"], payload["error"], value=payload["value"]
            )
            return
        exitcode = job.proc.exitcode
        if job.cancel_requested:
            self._attempt_ended(
                job, CANCELLED, f"killed after cancel (exitcode {exitcode})",
                exitcode=exitcode,
            )
            return
        if self.metrics.enabled:
            self.metrics.emit(
                "job.crashed",
                job=job.spec.job_id,
                attempt=job.attempt,
                exitcode=exitcode,
            )
        logger.warning(
            "%s worker died without a result (exitcode %s)",
            job.spec.job_id, exitcode,
        )
        self._attempt_ended(
            job, CRASHED, f"worker died without a result (exitcode {exitcode})",
            exitcode=exitcode,
        )

    def _attempt_ended(
        self,
        job: _Job,
        state: str,
        error: str | None,
        value=None,
        exitcode: int | None = None,
    ) -> None:
        now = time.monotonic()
        if exitcode is None and job.proc is not None:
            exitcode = job.proc.exitcode
        if self.metrics.enabled:
            self.metrics.emit(
                "job.end",
                job=job.spec.job_id,
                attempt=job.attempt,
                state=state,
                elapsed_s=now - job.started,
            )
        job.proc = None
        max_retries = job.spec.max_retries
        if max_retries is None:
            max_retries = self.config.max_retries
        retryable = (
            state in RETRYABLE_STATES
            and not job.cancel_requested
            and job.attempt < max_retries
        )
        if retryable:
            backoff = compute_backoff(
                self.config, job.spec.job_id, job.attempt + 1
            )
            resume = bool(
                job.spec.checkpoint_path
                and os.path.exists(job.spec.checkpoint_path)
            )
            if self.metrics.enabled:
                self.metrics.emit(
                    "job.retry",
                    job=job.spec.job_id,
                    attempt=job.attempt + 1,
                    backoff_s=backoff,
                    resume=resume,
                )
            logger.warning(
                "replacing dead worker for %s (attempt %d, backoff %.2fs, "
                "%s)", job.spec.job_id, job.attempt + 1, backoff,
                "resuming from checkpoint" if resume else "cold restart",
            )
            job.attempt += 1
            job.state = PENDING
            job.not_before = now + backoff
            return
        self._finalize(job, state, error, value=value, exitcode=exitcode)

    def _finalize(
        self,
        job: _Job,
        state: str,
        error: str | None,
        value=None,
        exitcode: int | None = None,
    ) -> None:
        elapsed = 0.0
        if job.first_started is not None:
            elapsed = time.monotonic() - job.first_started
        job.state = state
        job.result = JobResult(
            job_id=job.spec.job_id,
            state=state,
            value=value,
            error=error,
            attempts=job.attempt + 1 if job.first_started is not None else 0,
            elapsed=elapsed,
            exitcode=exitcode,
            index=job.spec.index,
        )

    # ------------------------------------------------------------------
    # starting workers
    # ------------------------------------------------------------------
    def _start_pending(self, now: float) -> None:
        running = sum(
            1 for j in self._jobs.values() if j.state == RUNNING
        )
        capacity = max(1, self.config.max_workers)
        for job_id in self._order:
            if running >= capacity:
                return
            job = self._jobs[job_id]
            if job.done or job.state != PENDING or now < job.not_before:
                continue
            self._start(job, now)
            running += 1

    def _start(self, job: _Job, now: float) -> None:
        if self.inline:
            proc = _InlineWorker(job.spec, job.attempt)
        else:
            job.workdir = os.path.join(
                self._root, f"{job.spec.index}-{job.attempt}"
            )
            os.makedirs(job.workdir, exist_ok=True)
            proc = self._ctx.Process(
                target=worker_main,
                args=(
                    job.spec,
                    job.attempt,
                    job.workdir,
                    self.config.heartbeat_interval,
                ),
                daemon=True,
                name=f"repro-job-{job.spec.job_id}-{job.attempt}",
            )
        try:
            proc.start()
        except (OSError, RuntimeError) as exc:
            raise SupervisorError(
                f"cannot start worker for {job.spec.job_id!r}: {exc}"
            ) from exc
        job.proc = proc
        job.state = RUNNING
        job.started = now
        job.last_beat = now
        job.beat_stamp = ""
        if job.first_started is None:
            job.first_started = now
        if self.metrics.enabled:
            self.metrics.emit(
                "job.start",
                job=job.spec.job_id,
                attempt=job.attempt,
                pid=proc.pid,
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _touch(path: str) -> None:
        with open(path, "w") as fh:
            fh.write("1")


def run_jobs(
    specs,
    max_workers: int = 1,
    config: SupervisorConfig | None = None,
    metrics=NULL,
    mp_context=None,
) -> list:
    """Run ``specs`` on one :class:`Supervisor`; results in order.

    A :class:`SupervisorError` (the supervisor's own machinery, never a
    job) propagates to the caller.
    """
    cfg = config if config is not None else SupervisorConfig(
        max_workers=max_workers
    )
    with Supervisor(cfg, metrics=metrics, mp_context=mp_context) as sup:
        return sup.run(specs)
