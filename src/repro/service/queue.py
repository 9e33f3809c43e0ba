"""Persistent priority queue backing the placement service.

Each accepted job is one JSON file under the queue root, written
atomically (tmp + ``os.replace``) on every state change, so a
SIGKILL'd daemon loses at most an in-flight rename — never an accepted
job.  On startup the queue rescans the directory; corrupt files
(a torn write from a previous life) are skipped with a warning instead
of poisoning recovery.

Ordering is deterministic: jobs run by descending ``priority`` with
submission order (``seq``) breaking ties — the key is ``(-priority,
seq)``, a *stable* FIFO within each priority band.  The pure
:func:`execution_order` helper exists so tests (including the
hypothesis property suite) can pin the scheduler's order without a
daemon in the loop.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass

#: Queue-level job lifecycle (distinct from the supervised runtime's
#: per-attempt job states, which an entry records in ``job_state``).
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass
class QueueEntry:
    """One accepted job: identity, ordering, payload and outcome.

    ``seq`` is the queue-assigned submission counter (also the file
    name); ``job_state`` mirrors the supervised runtime's final state
    string (DONE / CRASHED / TIMEOUT / ...) for diagnostics while
    ``state`` is the queue-level lifecycle.  ``resume`` marks an entry
    re-queued after a daemon death so its next run warm-starts from the
    job's checkpoint.
    """

    job_id: str
    seq: int
    payload: dict
    priority: int = 0
    state: str = QUEUED
    attempts: int = 0
    job_state: str | None = None
    error: str | None = None
    resume: bool = False
    worker_pid: int | None = None
    result: dict | None = None

    def order_key(self):
        """Scheduling key: higher priority first, FIFO within a band."""
        return (-self.priority, self.seq)

    def as_dict(self) -> dict:
        """JSON-ready form (also the on-disk record)."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "payload": self.payload,
            "priority": self.priority,
            "state": self.state,
            "attempts": self.attempts,
            "job_state": self.job_state,
            "error": self.error,
            "resume": self.resume,
            "worker_pid": self.worker_pid,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueueEntry":
        """Rebuild an entry from its on-disk record."""
        return cls(**{k: data.get(k) for k in (
            "job_id", "seq", "payload", "priority", "state", "attempts",
            "job_state", "error", "resume", "worker_pid", "result",
        )})


def execution_order(entries) -> list:
    """The deterministic order a scheduler drains ``entries`` in.

    Stable sort by ``(-priority, seq)``: strictly higher priority
    first; equal priorities run in submission order.  Pure so the
    property suite can compare a live drain against it.
    """
    return sorted(entries, key=QueueEntry.order_key)


class PersistentQueue:
    """Crash-safe priority queue: one JSON file per job under ``root``.

    Thread-safe (one re-entrant lock around every operation) — the
    daemon's HTTP threads submit and cancel while the scheduler thread
    drains.  Every mutation is persisted before it is visible, so the
    on-disk state is never behind the in-memory state by more than the
    mutation being written.
    """

    def __init__(self, root: str):
        self.root = root
        self._lock = threading.RLock()
        self._entries: dict = {}
        self._next_seq = 0
        os.makedirs(root, exist_ok=True)
        self._load()

    # -- persistence ---------------------------------------------------
    def _path(self, seq: int) -> str:
        return os.path.join(self.root, f"{seq:08d}.json")

    def _persist(self, entry: QueueEntry) -> None:
        path = self._path(entry.seq)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(entry.as_dict(), fh, indent=1)
        os.replace(tmp, path)

    def _load(self) -> None:
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            # advance the counter from the file name even when the
            # content is torn, so fresh submissions never reuse the
            # dead entry's seq (and file)
            try:
                self._next_seq = max(self._next_seq, int(name[:-5]) + 1)
            except ValueError:
                pass
            try:
                with open(path) as fh:
                    entry = QueueEntry.from_dict(json.load(fh))
            except (json.JSONDecodeError, TypeError, KeyError, OSError) as exc:
                warnings.warn(
                    f"skipping corrupt queue entry {path}: {exc}",
                    stacklevel=2,
                )
                continue
            self._entries[entry.job_id] = entry
            self._next_seq = max(self._next_seq, entry.seq + 1)

    # -- submission / lookup -------------------------------------------
    def submit(self, payload: dict, priority: int = 0,
               job_id: str | None = None, prepare=None) -> QueueEntry:
        """Accept a job: assign a seq, persist, return the entry.

        An explicit ``job_id`` colliding with an existing entry raises
        ``ValueError`` (the HTTP API turns that into a 409).  When
        given, ``prepare(job_id)`` returns the payload to store in place
        of ``payload``; it runs under the queue lock, so the scheduler
        never sees the entry before its payload is complete.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            if job_id is None:
                job_id = f"job-{seq:06d}"
            elif job_id in self._entries:
                raise ValueError(f"duplicate job id {job_id!r}")
            if prepare is not None:
                payload = prepare(job_id)
            entry = QueueEntry(
                job_id=job_id, seq=seq, payload=payload, priority=priority
            )
            self._persist(entry)
            self._entries[job_id] = entry
            return entry

    def get(self, job_id: str) -> QueueEntry | None:
        """The entry for ``job_id`` (``None`` when unknown)."""
        with self._lock:
            return self._entries.get(job_id)

    def entries(self) -> list:
        """All entries, submission (``seq``) order regardless of state."""
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.seq)

    def counts(self) -> dict:
        """``{state: n}`` histogram over all entries."""
        with self._lock:
            out: dict = {}
            for entry in self._entries.values():
                out[entry.state] = out.get(entry.state, 0) + 1
            return out

    # -- scheduling ----------------------------------------------------
    def next_ready(self) -> QueueEntry | None:
        """The QUEUED entry the scheduler should run next (or ``None``)."""
        with self._lock:
            ready = [e for e in self._entries.values() if e.state == QUEUED]
            if not ready:
                return None
            return min(ready, key=QueueEntry.order_key)

    def update(self, entry: QueueEntry, **changes) -> QueueEntry:
        """Apply field changes to ``entry`` and persist atomically."""
        with self._lock:
            for key, value in changes.items():
                setattr(entry, key, value)
            self._persist(entry)
            return entry

    def requeue_incomplete(self) -> list:
        """Return RUNNING entries to QUEUED after a daemon death.

        Their next run resumes from the job checkpoint (``resume`` is
        set so the scheduler and clients can tell a warm-start from a
        first run).  Returns the re-queued entries, seq order.
        """
        with self._lock:
            requeued = []
            for entry in sorted(self._entries.values(), key=lambda e: e.seq):
                if entry.state == RUNNING:
                    self.update(
                        entry, state=QUEUED, resume=True, worker_pid=None
                    )
                    requeued.append(entry)
            return requeued
