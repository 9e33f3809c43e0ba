"""Service chaos: daemon SIGKILL recovery and cancel-during-resume.

The acceptance contract of the placement service under violence:

* SIGKILL the daemon with jobs queued *and* running — after a restart
  on the same root, every accepted job still completes; the job that
  was running warm-starts from its last ``.bak``-backed checkpoint
  instead of recomputing from scratch; the daemon's own telemetry
  stream stays schema-valid across lives.
* Cancel a job while it is stalled *inside* the checkpoint read of a
  resume attempt — the cancel wins, and no orphan heartbeat, result
  or temp files survive the supervisor teardown.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.io import save_design
from repro.jobs import CANCELLED, JobSpec, Supervisor, SupervisorConfig
from repro.service import ServiceClient
from repro.synth import SynthConfig, generate_design
from repro.utils import checkpoint, heartbeat
from repro.utils.faults import FaultPlan
from repro.utils.metrics import (
    MemorySink,
    MetricsRegistry,
    read_jsonl,
    validate_stream,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_design(path, congested: bool = False) -> str:
    """A design file; ``congested`` makes the RD loop run many rounds."""
    kwargs = dict(n_cells=110, seed=9)
    if congested:
        kwargs = dict(
            n_cells=300, seed=1, utilization=0.75, nets_per_cell=1.6
        )
    save_design(
        generate_design(SynthConfig(name="toy", **kwargs)), str(path)
    )
    return os.path.abspath(str(path))


def spawn_daemon(root: str, logfile) -> subprocess.Popen:
    """Start ``repro serve --max-workers 0`` (inline) as a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--root", root, "--max-workers", "0"],
        env=env, stdout=logfile, stderr=logfile,
    )


def wait_for_daemon(root: str, timeout: float = 60.0) -> ServiceClient:
    """Poll until a daemon answers on the (possibly re-written) address
    file; a stale file from a SIGKILLed life just fails the probe."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            client = ServiceClient(root=root, timeout=5.0)
            client.health()
            return client
        except (OSError, ValueError) as exc:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"no daemon answering under {root}"
                ) from exc
            time.sleep(0.05)


@pytest.mark.chaos
class TestDaemonSigkill:
    def test_sigkill_daemon_recovers_queue_and_resumes(self, tmp_path):
        """Queued jobs survive a daemon SIGKILL; the running one
        warm-starts from its checkpoint after the restart."""
        design = make_design(tmp_path / "design.bl", congested=True)
        root = str(tmp_path / "service")
        os.makedirs(root)
        log = open(tmp_path / "daemon.log", "w")
        daemon = spawn_daemon(root, log)
        try:
            client = wait_for_daemon(root)
            slow = client.submit({
                "input": design, "routability": True, "iters": 40,
                "rounds": 8, "iters_per_round": 10,
            })["job_id"]
            quick = [
                client.submit({"input": design, "iters": 10})["job_id"]
                for _ in range(2)
            ]
            # wait for the running job's SECOND checkpoint write (a
            # `.bak` predecessor proves one good round is on disk)
            bak = Path(root) / "jobs" / slow / "flow.npz.bak"
            deadline = time.monotonic() + 120.0
            while not bak.exists():
                assert time.monotonic() < deadline, "no .bak appeared"
                assert daemon.poll() is None, "daemon died on its own"
                time.sleep(0.05)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=30)

            daemon = spawn_daemon(root, log)
            client = wait_for_daemon(root)
            entries = client.wait_all([slow, *quick], timeout=600)
            assert [e["state"] for e in entries] == ["DONE"] * 3
            assert entries[0]["resume"] is True
            client.shutdown()
            daemon.wait(timeout=60)
            # graceful HTTP shutdown completes its teardown even
            # though the scheduler/http threads exit first: the
            # address file is gone, and the stream got service.stop
            assert not os.path.exists(os.path.join(root, "service.json"))
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
            log.close()

        # the interrupted job's stream: first segment cut short by the
        # SIGKILL, second segment a resumed run that warm-started
        events = read_jsonl(
            str(Path(root) / "jobs" / slow / "metrics.jsonl")
        )
        validate_stream(events)
        starts = [e for e in events if e["kind"] == "run.start"]
        assert [s["resumed"] for s in starts] == [False, True]
        resumes = [e for e in events if e["kind"] == "rd.resume"]
        assert len(resumes) == 1 and resumes[0]["round"] >= 1
        assert events[-1]["kind"] == "run.end"

        # the daemon's own stream validates across both lives, and the
        # second life recorded the recovery of the interrupted job
        service_events = read_jsonl(os.path.join(root, "service.jsonl"))
        validate_stream(service_events)
        recoveries = [
            e for e in service_events if e["kind"] == "service.recover"
        ]
        assert [e["requeued"] for e in recoveries] == [0, 1]
        assert sum(
            1 for e in service_events if e["kind"] == "job.queued"
        ) == 3
        assert [e["kind"] for e in service_events[-2:]] == [
            "service.stop", "run.end",
        ]


# ----------------------------------------------------------------------
# cancel-during-resume (supervisor level)
# ----------------------------------------------------------------------
def job_resume_then_stall(ckpt: str, marker: str, ctx=None):
    """Attempt 0: write two checkpoints, then die at the fault site.
    Attempt 1: resume through ``read_checkpoint_with_fallback`` — a
    ``checkpoint.read`` delay plan holds the job inside the read, the
    window the test cancels into.  ``marker`` is only written if the
    resume ever completes (the test asserts it never does)."""
    from repro.utils import faults

    heartbeat.beat()
    if ctx.attempt == 0:
        for k in range(2):
            checkpoint.write_checkpoint(
                ckpt, {"round": k}, {"x": np.full(4, float(k))},
                keep_previous=True,
            )
        faults.fire("test.die")
        return "unreachable"  # pragma: no cover — SIGKILLed above
    meta, arrays, used = checkpoint.read_checkpoint_with_fallback(ckpt)
    with open(marker, "w") as fh:
        fh.write(used)
    while True:  # pragma: no cover — cancelled during the read
        heartbeat.beat()
        time.sleep(0.02)


@pytest.mark.service
class TestCancelDuringResume:
    def test_cancel_mid_resume_leaves_no_orphans(self, tmp_path):
        """A cancel landing inside the resume read wins, and teardown
        leaves no heartbeat/result/tmp droppings anywhere."""
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        ckpt = str(ckpt_dir / "flow.npz")
        marker = str(tmp_path / "resume-completed")
        sink = MemorySink()
        metrics = MetricsRegistry(sink=sink)
        metrics.start_run(command="test")
        spec = JobSpec(
            "resume-cancel",
            fn=job_resume_then_stall,
            args=(ckpt, marker),
            with_context=True,
            checkpoint_path=ckpt,
            max_retries=1,
            fault_plans=(
                FaultPlan("test.die", mode="sigkill", attempts=1),
                FaultPlan("checkpoint.read", mode="delay", delay=20.0),
            ),
        )
        sup = Supervisor(
            SupervisorConfig(
                heartbeat_interval=0.02, poll_interval=0.01,
                backoff_base=0.01, cancel_grace=0.2,
            ),
            metrics=metrics,
        )
        try:
            sup.submit(spec)
            # drive the machine until the RETRY attempt starts, then
            # cancel into the stalled checkpoint read
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                sup.poll()
                starts = metrics.series.get("job.start", [])
                if any(s.get("attempt") == 1 for s in starts):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("retry attempt never started")
            sup.cancel("resume-cancel")
            results = sup.wait()
        finally:
            scratch = sup._root
            sup.close()
            metrics.close()

        assert results[0].state == CANCELLED
        assert results[0].attempts == 2
        # the resume never completed: cancel beat the stalled read
        assert not os.path.exists(marker)
        # no orphan supervisor scratch (heartbeat/result/cancel files)
        assert not os.path.exists(scratch)
        # the checkpoint directory holds exactly the two good archives
        assert sorted(os.listdir(ckpt_dir)) == ["flow.npz", "flow.npz.bak"]
        kinds = [e["kind"] for e in metrics.series.get("job.cancel", [])]
        assert kinds == ["job.cancel"]
        validate_stream([json.loads(line) for line in sink.lines])
