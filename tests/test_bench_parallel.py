"""Parallel experiment runner: ordering, isolation, merged telemetry."""

from __future__ import annotations

import json

import pytest

from repro.bench.parallel import (
    DesignRun,
    SweepResult,
    merge_event_segments,
    run_sweep,
    run_sweep_task,
    SweepTask,
    write_events_jsonl,
)
from repro.place.config import GPConfig
from repro.utils.faults import FaultPlan
from repro.utils.metrics import read_jsonl, validate_stream

#: Small-but-real sweep settings shared by every test here.
FAST = dict(scale=0.12, placers=("Xplace",), gp_config=GPConfig(max_iters=20))
DESIGNS = ["des_perf_1", "des_perf_a", "des_perf_b"]


@pytest.fixture(scope="module")
def pooled_sweep():
    """One pooled sweep with a fault injected into the middle design.

    Module-scoped: the pool spin-up and three placements are the
    expensive part, and every assertion below reads the same result.
    """
    return run_sweep(
        DESIGNS,
        kind="table1",
        jobs=2,
        fault_plans=(FaultPlan("bench.design.des_perf_a", mode="raise"),),
        **FAST,
    )


class TestSequentialSweep:
    def test_rows_and_order(self):
        result = run_sweep(DESIGNS[:2], kind="table1", jobs=1, **FAST)
        assert [r.design for r in result.runs] == DESIGNS[:2]
        assert all(r.ok for r in result.runs)
        rows = result.rows()
        assert [row["design"] for row in rows] == DESIGNS[:2]
        assert all(row["placer"] == "Xplace" for row in rows)
        assert all({"DRWL", "#DRVias", "#DRVs", "PT", "RT"} <= set(row["metrics"])
                   for row in rows)

    def test_merged_stream_is_schema_valid(self, tmp_path):
        result = run_sweep(
            DESIGNS[:2], kind="table1", jobs=1,
            metrics_path=str(tmp_path / "sweep.jsonl"), **FAST,
        )
        events = result.events()
        validate_stream(events)
        # one segment per design, opened in input order
        starts = [e for e in events if e["kind"] == "run.start"]
        assert [s["design"] for s in starts] == DESIGNS[:2]
        assert [s["shard"] for s in starts] == [0, 1]
        # the file round-trips to the same stream
        on_disk = read_jsonl(str(tmp_path / "sweep.jsonl"))
        validate_stream(on_disk)
        assert on_disk == events

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="sweep kind"):
            run_sweep(["des_perf_1"], kind="table3")


@pytest.mark.faultinject
class TestPoolIsolation:
    def test_results_stay_in_input_order(self, pooled_sweep):
        assert [r.design for r in pooled_sweep.runs] == DESIGNS
        assert [r.index for r in pooled_sweep.runs] == [0, 1, 2]

    def test_faulted_design_reports_error_entry(self, pooled_sweep):
        failed = pooled_sweep.errors()
        assert [r.design for r in failed] == ["des_perf_a"]
        assert "InjectedFault" in failed[0].error
        assert failed[0].rows == []
        assert pooled_sweep.error_payload() == [{
            "design": "des_perf_a", "index": 1, "error": failed[0].error,
        }]

    def test_surviving_designs_complete(self, pooled_sweep):
        ok = [r for r in pooled_sweep.runs if r.ok]
        assert [r.design for r in ok] == ["des_perf_1", "des_perf_b"]
        assert [row["design"] for row in pooled_sweep.rows()] == \
            ["des_perf_1", "des_perf_b"]

    def test_merged_metrics_ordering_across_workers(self, pooled_sweep):
        """Segments land in input order even with jobs=2 racing."""
        events = pooled_sweep.events()
        validate_stream(events)
        starts = [e for e in events if e["kind"] == "run.start"]
        assert [s["design"] for s in starts] == DESIGNS
        # the faulted design still contributes a well-formed (short)
        # segment: run.start then run.end, nothing in between
        segments: list = []
        for event in events:
            if event["kind"] == "run.start":
                segments.append([])
            segments[-1].append(event)
        assert [seg[0]["design"] for seg in segments] == DESIGNS
        faulted = segments[1]
        assert [e["kind"] for e in faulted] == ["run.start", "run.end"]


class TestMergeHelpers:
    def _segment(self, design: str, n_body: int) -> list:
        seg = [{"v": 1, "seq": 0, "kind": "run.start", "design": design}]
        for k in range(n_body):
            seg.append({"v": 1, "seq": k + 1, "kind": "gp.guard",
                        "iter": k, "guard": "g", "detail": "d"})
        return seg

    def test_merge_restarts_sequences_per_segment(self):
        merged = merge_event_segments(
            [self._segment("a", 2), self._segment("b", 0), self._segment("c", 1)]
        )
        validate_stream(merged)
        assert [e.get("design") for e in merged if e["kind"] == "run.start"] == \
            ["a", "b", "c"]

    def test_write_events_jsonl_roundtrip(self, tmp_path):
        merged = merge_event_segments([self._segment("a", 1)])
        path = str(tmp_path / "nested" / "events.jsonl")
        write_events_jsonl(path, merged)
        assert read_jsonl(path) == merged
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_sweep_result_helpers(self):
        ok = DesignRun(design="a", index=0, rows=[{"design": "a"}])
        bad = DesignRun(design="b", index=1, error="boom")
        result = SweepResult(runs=[ok, bad], jobs=2, elapsed=1.0)
        assert result.rows() == [{"design": "a"}]
        assert result.errors() == [bad]
        assert not bad.ok and ok.ok


class TestSupervisedIdentity:
    """The supervised pool changes *where* designs run, never the output."""

    def _strip_timings(self, rows: list) -> list:
        # PT/RT are wall-clock metrics — nondeterministic on any path
        return [
            {**row, "metrics": {k: v for k, v in row["metrics"].items()
                                if k not in ("PT", "RT")}}
            for row in rows
        ]

    def test_no_fault_sweep_matches_in_process_bit_for_bit(self):
        seq = run_sweep(DESIGNS[:2], kind="table1", jobs=1, **FAST)
        sup = run_sweep(DESIGNS[:2], kind="table1", jobs=2, **FAST)
        # merged telemetry stream: bit-identical
        assert seq.events() == sup.events()
        # rows: identical up to wall-clock timings
        assert self._strip_timings(seq.rows()) == self._strip_timings(sup.rows())
        # supervisor lifecycle telemetry stays in its own stream
        assert seq.supervisor_events == []
        kinds = {e["kind"] for e in sup.supervisor_events}
        assert {"run.start", "job.submit", "job.start", "job.end",
                "run.end"} <= kinds
        validate_stream(sup.supervisor_events)
        assert all(r.job_state == "done" and r.attempts == 1
                   for r in sup.runs)


class TestSupervisionFlags:
    """Supervision depends on ``jobs`` alone; unenforceable flags fail."""

    def test_single_design_with_jobs_is_supervised(self):
        result = run_sweep(DESIGNS[:1], kind="table1", jobs=2, **FAST)
        assert [r.job_state for r in result.runs] == ["done"]
        starts = [e for e in result.supervisor_events
                  if e["kind"] == "job.start"]
        assert [s["job"] for s in starts] == ["des_perf_1@0"]

    @pytest.mark.parametrize("flag", ["job_timeout", "heartbeat_timeout"])
    def test_deadline_without_workers_rejected(self, flag):
        with pytest.raises(ValueError, match=f"{flag} needs jobs > 1"):
            run_sweep(DESIGNS[:1], kind="table1", jobs=1, **{flag: 5.0},
                      **FAST)

    @pytest.mark.parametrize("flag", ["--job-timeout", "--heartbeat-timeout"])
    def test_cli_deadline_without_workers_exits(self, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "--jobs", "1", flag, "5", "--designs",
                  "des_perf_1", "--scale", "0.12"])
        assert "needs jobs > 1" in str(exc.value.code)


@pytest.mark.faultinject
class TestInProcessFaults:
    def test_jobs1_fault_is_isolated_and_uninstalled(self):
        """The in-process path installs/uninstalls the injector cleanly."""
        from repro.utils import faults

        task = SweepTask(
            index=0, kind="table1", name="des_perf_1", scale=0.12,
            placers=("Xplace",), gp_config=GPConfig(max_iters=20),
            fault_plans=(FaultPlan("bench.design.des_perf_1", mode="raise"),),
        )
        run = run_sweep_task(task)
        assert not run.ok and "InjectedFault" in run.error
        assert faults.active() is None
        validate_stream(run.events)
