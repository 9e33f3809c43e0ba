"""The per-operation gate: a bad placement fails, it is not just slow."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run as bench  # noqa: E402
from repro.io import save_design  # noqa: E402
from repro.legalize import legalize  # noqa: E402
from repro.synth import toy_design  # noqa: E402


@pytest.fixture()
def legal(tmp_path):
    nl = toy_design(n_cells=60, seed=3, n_macros=0)
    legalize(nl)
    path = tmp_path / "legal.bl"
    save_design(nl, str(path))
    return nl, path


def test_legal_output_passes(legal):
    _, path = legal
    check = gate.check_output(str(path), 0)
    assert check.ok, check.reasons
    assert check.sha256 == gate.file_sha256(str(path))


def test_nonzero_exit_fails(legal):
    _, path = legal
    check = gate.check_output(str(path), 1)
    assert not check.ok and "exit code 1" in check.reasons[0]


def test_missing_output_fails(tmp_path):
    assert not gate.check_output(str(tmp_path / "none.bl"), 0).ok


def test_overlapping_cells_fail(legal, tmp_path):
    nl, _ = legal
    mv = np.flatnonzero(nl.movable & ~nl.cell_macro)
    nl.x[mv[1]], nl.y[mv[1]] = nl.x[mv[0]], nl.y[mv[0]]
    path = tmp_path / "overlap.bl"
    save_design(nl, str(path))
    check = gate.check_output(str(path), 0)
    assert not check.ok and "legality" in check.reasons[0]


def test_nonfinite_positions_fail(legal, tmp_path):
    nl, _ = legal
    nl.x[np.flatnonzero(nl.movable)[0]] = np.nan
    path = tmp_path / "nan.bl"
    save_design(nl, str(path))
    assert not gate.check_output(str(path), 0).ok


def test_unreadable_output_fails(tmp_path):
    path = tmp_path / "torn.bl"
    path.write_text("design x\ndie 0 0 10\n")
    check = gate.check_output(str(path), 0)
    assert not check.ok and "reload" in check.reasons[0]


def test_technique_check():
    assert gate.technique_check({"core.rd_rounds": 8, "core.netmove_calls": 5,
                                 "core.multipin_calls": 5, "core.dpa_bins": 9}) == []
    assert gate.technique_check({"core.rd_rounds": 2})
    assert gate.technique_check({"core.rd_rounds": 8, "core.dpa_bins": 0})


def test_illegal_flow_counts_as_failed_operation(legal, tmp_path, monkeypatch):
    nl, design = legal
    mv = np.flatnonzero(nl.movable & ~nl.cell_macro)
    nl.x[mv[1]], nl.y[mv[1]] = nl.x[mv[0]], nl.y[mv[0]]

    def fake_flow(cmd, log_path, timeout):
        save_design(nl, cmd[-1])  # the flow "succeeds" with an illegal result
        Path(log_path).write_text("routability rounds: 8 (best round 1)\n")
        return bench.Proc(0, 0.0, 0.5, 10.0, 0.5)

    monkeypatch.setattr(bench, "run_proc", fake_flow)
    run = bench.Run(bench.WORKLOADS["rd_congested"], seed=1, seconds=0.0,
                    trace=False, work=tmp_path)
    done = bench.run_ops(run, design)
    assert done == []
    assert (run.attempted, run.failed, run.correct) == (1, 1, False)


def test_too_few_rd_rounds_counts_as_failed_operation(legal, tmp_path, monkeypatch):
    _, design = legal

    def fake_flow(cmd, log_path, timeout):
        Path(cmd[-1]).write_bytes(design.read_bytes())
        Path(log_path).write_text("routability rounds: 2 (best round 1)\n")
        return bench.Proc(0, 0.0, 0.5, 10.0, 0.5)

    monkeypatch.setattr(bench, "run_proc", fake_flow)
    run = bench.Run(bench.WORKLOADS["rd_congested"], seed=1, seconds=0.0,
                    trace=False, work=tmp_path)
    assert bench.run_ops(run, design) == []
    assert run.failed == 1
