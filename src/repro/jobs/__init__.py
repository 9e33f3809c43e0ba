"""Supervised job runtime: specs, workers, and the supervisor.

Public API of the one job executor (sweeps, DSE and the service daemon):
build :class:`JobSpec` work orders, hand them to :func:`run_jobs` (or
a long-lived :class:`Supervisor`), and get :class:`JobResult` outcomes
back in submission order — with timeouts, hung-worker reaping and
retry from checkpoint handled here rather than in every caller.
``SupervisorConfig(max_workers=0)`` runs jobs inline, in this process.
"""

from repro.jobs.spec import (
    CANCELLED,
    CRASHED,
    DONE,
    FAILED,
    HUNG,
    PENDING,
    RETRYABLE_STATES,
    RUNNING,
    TERMINAL_STATES,
    TIMEOUT,
    JobCancelled,
    JobContext,
    JobResult,
    JobSpec,
)
from repro.jobs.supervisor import (
    Supervisor,
    SupervisorConfig,
    SupervisorError,
    compute_backoff,
    run_jobs,
)

__all__ = [
    "CANCELLED",
    "CRASHED",
    "DONE",
    "FAILED",
    "HUNG",
    "PENDING",
    "RETRYABLE_STATES",
    "RUNNING",
    "TERMINAL_STATES",
    "TIMEOUT",
    "JobCancelled",
    "JobContext",
    "JobResult",
    "JobSpec",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorError",
    "compute_backoff",
    "run_jobs",
]
