"""Worker-side runtime of the supervised job executor.

:func:`worker_main` is the ``multiprocessing.Process`` target: it runs
one job attempt in a fresh process and communicates with the
supervisor through three files in the attempt's scratch directory —

``heartbeat``
    Touched (mtime-updated) whenever the job reaches a progress point
    (:func:`repro.utils.heartbeat.beat` sites in the flow loops).  The
    supervisor reads staleness off the mtime, so a SIGKILL'd or
    C-looping worker needs no cooperation to be detected.
``cancel``
    Created by the supervisor to request cooperative cancellation; the
    beat handler notices it at the next progress point and raises
    :class:`~repro.jobs.spec.JobCancelled`.  SIGTERM takes the same
    path for workers that stopped beating.
``result``
    The attempt's outcome, pickled and written atomically (temp file +
    ``os.replace``), so a worker killed mid-write leaves *no* result
    file rather than a torn one — the supervisor treats absence as a
    crash.

Files survive where pipes do not: a SIGKILL'd worker cannot flush a
pipe, but everything it already wrote to disk remains observable.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback

from repro.jobs.spec import (
    CANCELLED,
    DONE,
    FAILED,
    JobCancelled,
    JobContext,
    JobSpec,
)
from repro.utils import faults, heartbeat

#: Scratch-file names inside one attempt directory.
HEARTBEAT_FILE = "heartbeat"
CANCEL_FILE = "cancel"
RESULT_FILE = "result"


class WorkerRuntime:
    """Per-attempt in-worker state: throttled beats + cancel polling."""

    def __init__(self, workdir: str, interval: float = 0.1) -> None:
        self.heartbeat_path = os.path.join(workdir, HEARTBEAT_FILE)
        self.cancel_path = os.path.join(workdir, CANCEL_FILE)
        self.interval = interval
        self._last = float("-inf")
        self._beats = 0

    def beat(self, force: bool = False) -> None:
        """Record progress and poll for cancellation (throttled).

        Installed as the process-wide :mod:`repro.utils.heartbeat`
        handler; the throttle keeps hot flow loops from paying a
        syscall per iteration.
        """
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        self._beats += 1
        with open(self.heartbeat_path, "w") as fh:
            fh.write(str(self._beats))
        if os.path.exists(self.cancel_path):
            raise JobCancelled("cancel requested by supervisor")

    def handle_sigterm(self, signum, frame) -> None:
        """SIGTERM → cooperative cancellation of the running attempt."""
        raise JobCancelled("SIGTERM from supervisor")


def write_result(workdir: str, payload: dict) -> None:
    """Atomically persist an attempt outcome for the supervisor."""
    path = os.path.join(workdir, RESULT_FILE)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def read_result(workdir: str):
    """Load an attempt outcome; ``None`` when absent or unreadable.

    An unreadable file is equivalent to a missing one — both mean the
    worker did not complete a clean handoff (crash semantics).
    """
    path = os.path.join(workdir, RESULT_FILE)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None


def run_attempt(spec: JobSpec, attempt: int, beat) -> dict:
    """Run one attempt of ``spec`` with ``beat`` as the heartbeat handler.

    Never raises: returns the outcome ``{"state", "value", "error"}``
    with ``state`` = ``done`` | ``failed`` | ``cancelled`` plus the
    value or traceback.  Shared by worker processes and the
    supervisor's inline mode, whose ``beat`` polls a cancel event.
    """
    heartbeat.set_handler(beat)
    injector = None
    plans = faults.plans_for_attempt(spec.fault_plans, attempt)
    if plans:
        injector = faults.FaultInjector()
        for plan in plans:
            injector.add(plan)
        faults.install(injector)

    state, value, error = DONE, None, None
    try:
        kwargs = dict(spec.kwargs)
        if spec.with_context:
            kwargs["ctx"] = JobContext(
                job_id=spec.job_id,
                attempt=attempt,
                checkpoint_path=spec.checkpoint_path,
            )
        value = spec.fn(*spec.args, **kwargs)
    except JobCancelled as exc:
        state, error = CANCELLED, f"cancelled: {exc}"
    except BaseException:
        state, error = FAILED, traceback.format_exc()
    finally:
        if injector is not None:
            faults.uninstall()
        heartbeat.clear_handler()
    return {"state": state, "value": value, "error": error}


def worker_main(
    spec: JobSpec, attempt: int, workdir: str, heartbeat_interval: float
) -> None:
    """Process entry point: run one attempt of ``spec`` to completion.

    Never raises (the process exit code stays 0 for every cooperative
    outcome); the result file carries the :func:`run_attempt`
    outcome.  Involuntary deaths (SIGKILL, hard timeouts) leave no
    result file at all — that is the supervisor's crash signal.
    """
    runtime = WorkerRuntime(workdir, interval=heartbeat_interval)
    signal.signal(signal.SIGTERM, runtime.handle_sigterm)
    runtime.beat(force=True)
    write_result(workdir, run_attempt(spec, attempt, runtime.beat))
