"""Service soak: concurrent clients, scheduling order, cancellation.

A daemon is only useful if it survives being *used*: several clients
submitting at once, jobs racing through a multi-worker supervisor,
cancels landing at awkward times.  These tests drive a real daemon
over its HTTP API (threads as clients) and then audit the persistent
queue, the artifacts, and the telemetry streams for consistency.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.io import save_design
from repro.service import (
    CANCELLED,
    DONE,
    TERMINAL_STATES,
    PlacementService,
    ServiceClient,
    ServiceConfig,
    execution_order,
)
from repro.synth import SynthConfig, generate_design
from repro.utils.metrics import read_jsonl, validate_stream

pytestmark = pytest.mark.service


def make_design(path, n_cells: int = 110, seed: int = 9) -> str:
    """Write a small synthetic design file; returns its absolute path."""
    save_design(
        generate_design(SynthConfig(name="toy", n_cells=n_cells, seed=seed)),
        str(path),
    )
    return os.path.abspath(str(path))


class TestSoak:
    def test_multi_client_sweep(self, tmp_path):
        """3 client threads x 3 jobs against 2 supervised workers: every
        job completes, every stream validates, the queue drains."""
        design = make_design(tmp_path / "design.bl")
        root = str(tmp_path / "service")
        config = ServiceConfig(
            root=root, max_workers=2,
            poll_interval=0.02,
        )
        per_client = 3
        ids: list = []
        errors: list = []
        lock = threading.Lock()

        def client_thread(k: int) -> None:
            try:
                client = ServiceClient(root=root)
                mine = [
                    client.submit(
                        {"input": design, "iters": 25}, priority=k
                    )["job_id"]
                    for _ in range(per_client)
                ]
                done = client.wait_all(mine, timeout=600)
                with lock:
                    ids.extend(mine)
                    for entry in done:
                        if entry["state"] != DONE:
                            errors.append(entry)
            except Exception as exc:  # surfaced after join
                with lock:
                    errors.append(exc)

        with PlacementService(config):
            threads = [
                threading.Thread(target=client_thread, args=(k,))
                for k in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(ids) == 9

        # queue fully drained, every entry terminal-DONE with a result
        with open(os.path.join(root, "queue", "00000000.json")) as fh:
            assert json.load(fh)["state"] == DONE
        for jid in ids:
            jobdir = Path(root) / "jobs" / jid
            assert (jobdir / "placed.bl").exists()
            events = read_jsonl(str(jobdir / "metrics.jsonl"))
            validate_stream(events)
            assert events[-1]["kind"] == "run.end"
        service_events = read_jsonl(os.path.join(root, "service.jsonl"))
        validate_stream(service_events)
        by_kind: dict = {}
        for event in service_events:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
        assert by_kind["job.queued"] == 9
        assert by_kind["job.end"] == 9
        assert by_kind["service.stop"] == 1

    def test_paused_service_runs_in_priority_order(self, tmp_path):
        """A staged batch executes in exactly (-priority, seq) order."""
        design = make_design(tmp_path / "design.bl", n_cells=60, seed=2)
        root = str(tmp_path / "service")
        config = ServiceConfig(
            root=root, max_workers=1,
            poll_interval=0.02, paused=True,
        )
        priorities = [0, 5, -1, 5, 0]
        with PlacementService(config) as service:
            client = ServiceClient(root=root)
            entries = [
                client.submit({"input": design, "iters": 10}, priority=p)
                for p in priorities
            ]
            ids = [e["job_id"] for e in entries]
            service.resume()
            client.wait_all(ids, timeout=600)

        # expected order from the pure helper: seqs [1, 3, 0, 4, 2]
        expected = [
            e.job_id for e in execution_order(service.queue.entries())
        ]
        started = [
            event["job"]
            for event in read_jsonl(os.path.join(root, "service.jsonl"))
            if event["kind"] == "job.start"
        ]
        assert started == expected
        assert [ids[k] for k in (1, 3, 0, 4, 2)] == expected

    def test_cancel_queued_and_running(self, tmp_path):
        """Cancelling a queued job never runs it; cancelling the running
        one interrupts it; later jobs still complete."""
        design = make_design(tmp_path / "design.bl")
        root = str(tmp_path / "service")
        config = ServiceConfig(
            root=root, max_workers=1,
            poll_interval=0.02, paused=True,
        )
        with PlacementService(config) as service:
            client = ServiceClient(root=root)
            running = client.submit(
                {"input": design, "routability": True, "iters": 40,
                 "rounds": 8, "iters_per_round": 20},
                priority=1,
            )["job_id"]
            doomed = client.submit({"input": design, "iters": 10})["job_id"]
            survivor = client.submit(
                {"input": design, "iters": 10}
            )["job_id"]
            # cancel the queued one before anything runs
            client.cancel(doomed)
            service.resume()
            # cancel the long job as soon as it starts; if it already
            # finished (timing), the cancel is an accepted no-op
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                state = client.status(running)["state"]
                if state == "RUNNING" or state in TERMINAL_STATES:
                    client.cancel(running)
                    break
                time.sleep(0.02)
            done = client.wait_all(
                [running, doomed, survivor], timeout=600
            )
        states = {e["job_id"]: e["state"] for e in done}
        assert states[doomed] == CANCELLED
        assert states[survivor] == DONE
        assert states[running] in (CANCELLED, DONE)
        doomed_entry = service.queue.get(doomed)
        assert doomed_entry.attempts == 0  # never admitted
        validate_stream(read_jsonl(os.path.join(root, "service.jsonl")))
