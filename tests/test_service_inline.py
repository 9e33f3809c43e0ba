"""Inline daemon execution: cancel and shutdown of a running job.

An inline daemon runs its jobs inside its own process, one at a time.
Nothing can kill such a job, so both ways of stopping it are
cooperative: a client cancel and a daemon shutdown each land at the
job's next progress beat.  These tests pin where each one leaves the
queue entry and the daemon's telemetry stream.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.io import save_design
from repro.service import (
    CANCELLED,
    QUEUED,
    RUNNING,
    PlacementService,
    ServiceClient,
    ServiceConfig,
)
from repro.synth import SynthConfig, generate_design
from repro.utils.metrics import read_jsonl, validate_stream

pytestmark = pytest.mark.service

#: A routability flow long enough to still be running when the test
#: acts on it (a congested design keeps the RD loop iterating).
LONG_REQUEST = {
    "routability": True, "iters": 200, "rounds": 8, "iters_per_round": 40,
}


def make_design(path) -> str:
    """A congested design file; returns its absolute path."""
    netlist = generate_design(SynthConfig(
        name="toy", n_cells=300, seed=1, utilization=0.75, nets_per_cell=1.6,
    ))
    save_design(netlist, str(path))
    return os.path.abspath(str(path))


def inline_config(root: str) -> ServiceConfig:
    """An inline daemon (jobs run in the daemon process)."""
    return ServiceConfig(root=root, max_workers=0, poll_interval=0.02)


def wait_running(service: PlacementService, job_id: str) -> None:
    """Block until the scheduler has started ``job_id``."""
    deadline = time.monotonic() + 60.0
    while service.queue.get(job_id).state != RUNNING:
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.01)


class TestInlineDaemon:
    def test_cancel_running_job_lands_at_next_beat(self, tmp_path):
        """A cancel of the running inline job ends it CANCELLED, with
        exactly one ``job.cancel`` event in the daemon stream."""
        design = make_design(tmp_path / "design.bl")
        root = str(tmp_path / "service")
        with PlacementService(inline_config(root)) as service:
            client = ServiceClient(root=root)
            job_id = client.submit({"input": design, **LONG_REQUEST})["job_id"]
            wait_running(service, job_id)
            client.cancel(job_id)
            final = client.wait(job_id, timeout=120)
        assert final["state"] == CANCELLED
        assert final["job_state"] == "cancelled"
        events = read_jsonl(os.path.join(root, "service.jsonl"))
        validate_stream(events)
        cancels = [e for e in events if e["kind"] == "job.cancel"]
        assert [e["job"] for e in cancels] == [job_id]

    def test_stop_requeues_running_job_for_resume(self, tmp_path):
        """``stop()`` during an inline job returns it to QUEUED with
        ``resume`` set, so the next daemon warm-starts it."""
        design = make_design(tmp_path / "design.bl")
        root = str(tmp_path / "service")
        service = PlacementService(inline_config(root))
        service.start()
        try:
            client = ServiceClient(root=root)
            job_id = client.submit({"input": design, **LONG_REQUEST})["job_id"]
            wait_running(service, job_id)
        finally:
            service.stop("test")
        entry = service.queue.get(job_id)
        assert entry.state == QUEUED
        assert entry.resume is True
        assert entry.worker_pid is None
        events = read_jsonl(os.path.join(root, "service.jsonl"))
        validate_stream(events)
        assert [e["kind"] for e in events[-2:]] == ["service.stop", "run.end"]


class TestInlineDeadlines:
    """An inline daemon has nothing that could enforce a deadline."""

    @pytest.mark.parametrize("field", ["job_timeout", "heartbeat_timeout"])
    def test_config_rejected(self, tmp_path, field):
        config = ServiceConfig(root=str(tmp_path), max_workers=0,
                               **{field: 5.0})
        with pytest.raises(ValueError, match="cannot be enforced"):
            PlacementService(config)

    @pytest.mark.parametrize("flag", ["--job-timeout", "--heartbeat-timeout"])
    def test_cli_exits(self, tmp_path, flag):
        from repro.cli import main

        root = tmp_path / "service"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--root", str(root), "--max-workers", "0",
                  flag, "5"])
        assert "cannot be enforced" in str(exc.value.code)
        assert not root.exists()
