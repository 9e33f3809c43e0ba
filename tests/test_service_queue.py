"""Persistent queue: deterministic ordering (hypothesis) + persistence.

The queue's scheduling contract — strictly higher priority first, FIFO
within a priority band, same submissions always the same order — is
what makes service runs reproducible, so the ordering properties are
pinned with hypothesis over arbitrary priority sequences, and the
persistence properties (atomic files, restart round-trip, corrupt-file
tolerance) with unit tests.
"""

from __future__ import annotations

import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.queue import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    PersistentQueue,
    QueueEntry,
    execution_order,
)

priorities = st.lists(st.integers(min_value=-5, max_value=5), max_size=30)


def drain_order(queue: PersistentQueue) -> list:
    """Job ids in the order a scheduler would run them (simulated)."""
    order = []
    while True:
        entry = queue.next_ready()
        if entry is None:
            return order
        queue.update(entry, state=DONE)
        order.append(entry.job_id)


class TestOrderingProperties:
    @given(prios=priorities)
    @settings(max_examples=50, deadline=None)
    def test_drain_matches_execution_order(self, prios, tmp_path_factory):
        """Draining next_ready() one by one IS the pure execution_order."""
        root = str(tmp_path_factory.mktemp("q"))
        queue = PersistentQueue(root)
        for p in prios:
            queue.submit({"n": p}, priority=p)
        expected = [e.job_id for e in execution_order(queue.entries())]
        assert drain_order(queue) == expected

    @given(prios=priorities)
    @settings(max_examples=50, deadline=None)
    def test_same_submissions_same_order(self, prios, tmp_path_factory):
        """Two queues fed the same sequence drain identically."""
        roots = [str(tmp_path_factory.mktemp("q")) for _ in range(2)]
        orders = []
        for root in roots:
            queue = PersistentQueue(root)
            for p in prios:
                queue.submit({"n": p}, priority=p)
            orders.append(drain_order(queue))
        assert orders[0] == orders[1]

    @given(prios=priorities)
    @settings(max_examples=50, deadline=None)
    def test_priority_bands_fifo(self, prios, tmp_path_factory):
        """Higher priority strictly first; submission order within a band."""
        root = str(tmp_path_factory.mktemp("q"))
        queue = PersistentQueue(root)
        entries = [queue.submit({}, priority=p) for p in prios]
        by_id = {e.job_id: e for e in entries}
        order = drain_order(queue)
        ranks = {jid: k for k, jid in enumerate(order)}
        for a in entries:
            for b in entries:
                if a.priority > b.priority:
                    assert ranks[a.job_id] < ranks[b.job_id]
                elif a.priority == b.priority and a.seq < b.seq:
                    assert ranks[a.job_id] < ranks[b.job_id]
        assert sorted(order) == sorted(by_id)

    @given(prios=priorities)
    @settings(max_examples=25, deadline=None)
    def test_entries_stay_submission_ordered(self, prios, tmp_path_factory):
        """entries() reports submission order however the drain went."""
        root = str(tmp_path_factory.mktemp("q"))
        queue = PersistentQueue(root)
        for p in prios:
            queue.submit({}, priority=p)
        drain_order(queue)
        seqs = [e.seq for e in queue.entries()]
        assert seqs == sorted(seqs) == list(range(len(prios)))


class TestPersistence:
    def test_restart_round_trip(self, tmp_path):
        """A rebuilt queue sees every entry, field for field."""
        root = str(tmp_path / "q")
        queue = PersistentQueue(root)
        a = queue.submit({"kind": "place"}, priority=3)
        b = queue.submit({"kind": "route"}, job_id="named")
        queue.update(a, state=DONE, result={"hpwl": 1.0})
        reloaded = PersistentQueue(root)
        assert [e.as_dict() for e in reloaded.entries()] == [
            a.as_dict(), b.as_dict(),
        ]
        assert reloaded._next_seq == 2

    def test_duplicate_job_id_rejected(self, tmp_path):
        queue = PersistentQueue(str(tmp_path / "q"))
        queue.submit({}, job_id="x")
        with pytest.raises(ValueError, match="duplicate"):
            queue.submit({}, job_id="x")

    def test_prepared_payload_is_all_a_scheduler_sees(self, tmp_path):
        """A scheduler polling during submission never gets the raw payload."""
        queue = PersistentQueue(str(tmp_path / "q"))
        seen = []
        poller = threading.Thread(target=lambda: seen.append(queue.next_ready()))

        def prepare(job_id):
            poller.start()
            poller.join(0.2)  # the poll waits on the queue lock meanwhile
            assert poller.is_alive() and not seen
            return {"request": {"out": f"{job_id}/placed.bl"}}

        entry = queue.submit({"request": {}}, prepare=prepare)
        poller.join(5.0)
        assert not poller.is_alive()
        assert seen[0] is entry
        assert entry.payload == {"request": {"out": "job-000000/placed.bl"}}
        with open(queue._path(entry.seq)) as fh:
            assert json.load(fh)["payload"] == entry.payload

    def test_requeue_incomplete(self, tmp_path):
        """Only RUNNING entries return to QUEUED, flagged for resume."""
        queue = PersistentQueue(str(tmp_path / "q"))
        run = queue.submit({})
        done = queue.submit({})
        queued = queue.submit({})
        queue.update(run, state=RUNNING, worker_pid=123)
        queue.update(done, state=DONE)
        requeued = PersistentQueue(queue.root).requeue_incomplete()
        assert [e.job_id for e in requeued] == [run.job_id]
        entry = requeued[0]
        assert entry.state == QUEUED
        assert entry.resume is True
        assert entry.worker_pid is None
        reloaded = PersistentQueue(queue.root)
        states = {e.job_id: e.state for e in reloaded.entries()}
        assert states == {
            run.job_id: QUEUED, done.job_id: DONE, queued.job_id: QUEUED,
        }

    def test_corrupt_entry_skipped_with_warning(self, tmp_path):
        """A torn queue file is skipped, not fatal to recovery."""
        queue = PersistentQueue(str(tmp_path / "q"))
        keep = queue.submit({})
        torn = queue.submit({})
        path = os.path.join(queue.root, f"{torn.seq:08d}.json")
        with open(path, "w") as fh:
            fh.write('{"job_id": "torn", "se')
        with pytest.warns(UserWarning, match="corrupt queue entry"):
            reloaded = PersistentQueue(queue.root)
        assert [e.job_id for e in reloaded.entries()] == [keep.job_id]
        # the next submission must not collide with the dead seq
        fresh = reloaded.submit({})
        assert fresh.seq > torn.seq

    def test_updates_are_atomic_files(self, tmp_path):
        """Every persisted entry parses; no tmp droppings left behind."""
        queue = PersistentQueue(str(tmp_path / "q"))
        entry = queue.submit({"k": 1}, priority=2)
        queue.update(entry, state=CANCELLED, error="x")
        names = sorted(os.listdir(queue.root))
        assert names == ["00000000.json"]
        with open(os.path.join(queue.root, names[0])) as fh:
            data = json.load(fh)
        assert QueueEntry.from_dict(data).as_dict() == entry.as_dict()
