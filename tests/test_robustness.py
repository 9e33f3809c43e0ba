"""Fault injection, divergence guards, rollback and checkpoint/resume.

The `faultinject`-marked tests install deterministic
:class:`~repro.utils.faults.FaultPlan` entries at named sites inside
the flow and assert that every recovery path fires: the solver backs
off NaN gradients, the routability loop scrubs poisoned congestion
maps, a failing routing pass raises (and the routability loop rolls
that round back), and a crashed round rolls back to the best snapshot.  The checkpoint tests
pin down the acceptance criterion: a flow interrupted after round k
and resumed from disk produces bit-identical final positions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RDConfig, RoutabilityDrivenPlacer
from repro.geometry import Grid2D
from repro.place import GPConfig
from repro.route import GlobalRouter, RouterConfig
from repro.synth import toy_design
from repro.utils import faults
from repro.utils.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.utils.faults import FaultPlan, InjectedFault
from repro.utils.guards import (
    DivergenceSentinel,
    GuardConfig,
    all_finite,
    scrub_nonfinite,
)
from repro.utils.metrics import MemorySink, MetricsRegistry


def _rd_config(**kw):
    base = dict(
        gp=GPConfig(max_iters=40, seed=1),
        max_rounds=3,
        iters_per_round=8,
        patience=10,
        stop_mean_congestion=0.0,
    )
    base.update(kw)
    return RDConfig(**base)


def _assert_legal_positions(netlist):
    assert all_finite(netlist.x) and all_finite(netlist.y)
    die = netlist.die
    assert (netlist.x >= die.xlo - 1e-9).all()
    assert (netlist.x <= die.xhi + 1e-9).all()
    assert (netlist.y >= die.ylo - 1e-9).all()
    assert (netlist.y <= die.yhi + 1e-9).all()


# ---------------------------------------------------------------------------
# unit level: guards / faults / checkpoint primitives
# ---------------------------------------------------------------------------


class TestGuardPrimitives:
    def test_scrub_nonfinite(self):
        a = np.array([1.0, np.nan, np.inf, -np.inf, 2.0])
        out, n_bad = scrub_nonfinite(a, fill=0.5)
        assert n_bad == 3
        assert out is a  # in place
        assert np.array_equal(a, [1.0, 0.5, 0.5, 0.5, 2.0])

    def test_scrub_clean_is_noop(self):
        a = np.array([1.0, 2.0])
        out, n_bad = scrub_nonfinite(a)
        assert n_bad == 0 and out is a

    def test_sentinel_trips_on_blowup(self):
        s = DivergenceSentinel(GuardConfig(blowup_factor=10.0, warmup=2))
        assert s.observe(100.0) == "ok"
        assert s.observe(101.0) == "ok"
        assert s.observe(102.0) == "ok"
        assert s.observe(5000.0) == "diverging"
        # unhealthy values never enter the baseline
        assert s.observe(103.0) == "ok"

    def test_sentinel_nonfinite(self):
        s = DivergenceSentinel(GuardConfig(warmup=1))
        s.observe(1.0)
        s.observe(1.0)
        assert s.observe(float("nan")) == "nonfinite"

    def test_guard_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(blowup_factor=0.5)
        with pytest.raises(ValueError):
            GuardConfig(window=0)


class TestFaultPlans:
    def test_trigger_and_count_window(self):
        plan = FaultPlan("s", trigger=2, count=2)
        assert [plan.active_at(h) for h in range(5)] == [
            False, False, True, True, False,
        ]

    def test_forever(self):
        plan = FaultPlan("s", trigger=1, count=-1)
        assert not plan.active_at(0)
        assert plan.active_at(10_000)

    def test_fire_identity_without_injector(self):
        arr = np.ones(3)
        assert faults.fire("anything", arr) is arr

    def test_nan_injection_is_deterministic(self):
        with faults.injected(FaultPlan("s", mode="nan", stride=2)):
            out1 = faults.fire("s", np.ones(6))
        with faults.injected(FaultPlan("s", mode="nan", stride=2)):
            out2 = faults.fire("s", np.ones(6))
        assert np.array_equal(np.isnan(out1), np.isnan(out2))
        assert np.isnan(out1[::2]).all() and np.isfinite(out1[1::2]).all()

    def test_raise_mode(self):
        with faults.injected(FaultPlan("s", mode="raise")):
            with pytest.raises(InjectedFault, match="'s'"):
                faults.fire("s")


class TestCheckpointIO:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        path = str(tmp_path / "c.npz")
        arr = rng.standard_normal(100)
        meta = {"k": 1, "f": 0.1 + 0.2, "nested": {"a": [1, 2]}}
        write_checkpoint(path, meta, {"arr": arr})
        meta2, arrays = read_checkpoint(path)
        assert meta2 == meta
        assert np.array_equal(arrays["arr"], arr)

    def test_numpy_scalars_in_meta(self, tmp_path):
        path = str(tmp_path / "c.npz")
        write_checkpoint(
            path,
            {"a": np.float64(1.5), "b": np.int64(3), "c": np.bool_(True)},
            {},
        )
        meta, _ = read_checkpoint(path)
        assert meta == {"a": 1.5, "b": 3, "c": True}

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz payload")
        with pytest.raises(CheckpointError, match="bad.npz"):
            read_checkpoint(str(path))

    def test_foreign_npz_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, x=np.ones(3))
        with pytest.raises(CheckpointError, match="missing meta"):
            read_checkpoint(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "c.npz")
        write_checkpoint(path, {"v": 1}, {"a": np.ones(2)})
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]


# ---------------------------------------------------------------------------
# flow level: injected faults must be survived, recovery must be reported
# ---------------------------------------------------------------------------


@pytest.mark.faultinject
class TestGradientFaults:
    def test_nesterov_backs_off_nan_gradient(self):
        from repro.optim.nesterov import NesterovOptimizer

        def grad(p):
            return faults.fire("optim.gradient", 2.0 * p)

        opt = NesterovOptimizer(
            np.linspace(-1.0, 1.0, 10), grad, initial_step=0.1
        )
        with faults.injected(FaultPlan("optim.gradient", trigger=1, count=1)):
            opt.do_step()
            opt.do_step()  # corrupted gradient -> backoff + retry
            opt.do_step()
        assert all_finite(opt.u)
        assert len(opt.guard_log) >= 1
        assert any(e.action == "backoff" for e in opt.guard_log.events)

    def test_flow_survives_nan_gradients(self, inject_faults):
        nl = toy_design(150, seed=5)
        # skip the initial GP so the fault hits the flow's own solver
        # (the initial placement runs a separate placer instance whose
        # recovery would not show up in this flow's records)
        injector = inject_faults(
            FaultPlan("optim.gradient", mode="nan", trigger=3, count=2)
        )
        placer = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=2))
        result = placer.run(skip_initial_gp=True)
        assert injector.count_fired("optim.gradient") >= 1
        _assert_legal_positions(nl)
        assert result.n_rounds >= 1
        assert any(r.guard_trips > 0 for r in result.rounds) or result.guard_events


@pytest.mark.faultinject
class TestCongestionFaults:
    def test_poisoned_map_is_scrubbed_and_reported(self, inject_faults):
        nl = toy_design(150, seed=5)
        inject_faults(FaultPlan("rd.congestion", mode="poison", trigger=0))
        placer = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=2))
        result = placer.run()
        _assert_legal_positions(nl)
        assert any("congestion" in note for r in result.rounds for r_ in [r]
                   for note in r_.recovery)
        # inflation must have stayed in its legal range despite the poison
        rates = placer.inflation.rates
        assert all_finite(rates)
        assert (rates >= placer.config.inflation.r_min - 1e-12).all()
        assert (rates <= placer.config.inflation.r_max + 1e-12).all()

    def test_crashing_round_rolls_back(self, inject_faults):
        nl = toy_design(150, seed=5)
        # raising at the congestion site aborts round 1 itself ->
        # the loop must roll back and keep going
        inject_faults(FaultPlan("rd.congestion", mode="raise", trigger=1, count=1))
        placer = RoutabilityDrivenPlacer(nl, _rd_config())
        result = placer.run()
        _assert_legal_positions(nl)
        assert any(e["action"] == "rollback" for e in result.guard_events)
        # the flow continued past the failed round
        assert result.n_rounds >= 1

    def test_persistent_failure_returns_best_snapshot(self, inject_faults):
        nl = toy_design(150, seed=5)
        inject_faults(FaultPlan("rd.congestion", mode="raise", trigger=1, count=-1))
        placer = RoutabilityDrivenPlacer(nl, _rd_config())
        result = placer.run()
        _assert_legal_positions(nl)
        rollbacks = [e for e in result.guard_events if e["action"] == "rollback"]
        # gives up after max_round_failures consecutive failures
        assert len(rollbacks) == placer.config.max_round_failures


@pytest.mark.faultinject
class TestRouterFaults:
    """A failing routing pass is loud: no engine to fall back to."""

    def test_chunk_failure_raises(self, toy300):
        grid = Grid2D(toy300.die, 24, 24)
        plan = FaultPlan("route.batched_chunk", mode="raise", trigger=1)
        with faults.injected(plan) as injector:
            with pytest.raises(InjectedFault, match="route.batched_chunk"):
                GlobalRouter(grid, RouterConfig()).route(toy300)
        assert injector.count_fired("route.batched_chunk") == 1

    def test_flow_rolls_back_failed_route(self):
        nl = toy_design(150, seed=5)
        metrics = MetricsRegistry(sink=MemorySink())
        metrics.start_run(command="test")
        placer = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=2), metrics=metrics)
        orig = placer.router.route
        calls = {"n": 0}

        def route(netlist, *args, **kwargs):
            # pass 1 is the initial routing; pass 2 ends round 0
            calls["n"] += 1
            if calls["n"] != 2:
                return orig(netlist, *args, **kwargs)
            with faults.injected(FaultPlan("route.batched_chunk", mode="raise")):
                return orig(netlist, *args, **kwargs)

        placer.router.route = route
        result = placer.run()
        metrics.close()
        _assert_legal_positions(nl)
        recoveries = metrics.series.get("rd.recovery", [])
        assert [e["action"] for e in recoveries] == ["rollback"]
        assert recoveries[0]["round"] == 0
        assert "InjectedFault" in recoveries[0]["detail"]
        assert "route.batched_chunk" in recoveries[0]["detail"]
        # round 0 was recorded before its failed pass; the loop then
        # carried on with round 1 from the rolled-back state
        assert [r.round_id for r in result.rounds] == [0, 1]

    def test_cli_route_exits_nonzero(self, tmp_path, toy300):
        import subprocess
        import sys

        from repro.io.bookshelf import save_design

        design = tmp_path / "toy.bl"
        save_design(toy300, str(design))
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "from repro.utils import faults\n"
            "faults.install(faults.FaultInjector().add("
            "faults.FaultPlan('route.batched_chunk', mode='raise')))\n"
            f"sys.exit(main(['route', {str(design)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "InjectedFault" in proc.stderr
        assert "segments=" not in proc.stdout


# ---------------------------------------------------------------------------
# checkpoint / resume of the whole flow
# ---------------------------------------------------------------------------


class TestFlowCheckpoint:
    def _interrupt_after(self, placer, n_route_calls):
        """Kill the flow with KeyboardInterrupt at the n-th routing pass."""
        orig = placer.router.route
        calls = {"n": 0}

        def route(netlist):
            calls["n"] += 1
            if calls["n"] == n_route_calls:
                raise KeyboardInterrupt
            return orig(netlist)

        placer.router.route = route

    @staticmethod
    def _multi_round_cfg():
        # toy300 + these settings complete all 3 rounds (no early stop),
        # so an interruption mid-flow leaves real work to resume
        return _rd_config(
            gp=GPConfig(max_iters=60, seed=1), max_rounds=3, iters_per_round=15
        )

    def test_resume_is_bit_identical(self, tmp_path):
        from dataclasses import asdict

        path = str(tmp_path / "flow.npz")

        ref = toy_design(300, seed=3)
        ref_result = RoutabilityDrivenPlacer(ref, self._multi_round_cfg()).run()

        # routing passes: 1 = initial, 2 = end of round 0, 3 = end of
        # round 1 -> dying at pass 3 leaves only round 0's checkpoint
        nl = toy_design(300, seed=3)
        placer = RoutabilityDrivenPlacer(nl, self._multi_round_cfg())
        self._interrupt_after(placer, 3)
        with pytest.raises(KeyboardInterrupt):
            placer.run(checkpoint_path=path)

        nl2 = toy_design(300, seed=3)
        placer2 = RoutabilityDrivenPlacer(nl2, self._multi_round_cfg())
        result = placer2.run(checkpoint_path=path, resume=True)
        assert result.resumed_from_round == 0
        assert np.array_equal(ref.x, nl2.x)
        assert np.array_equal(ref.y, nl2.y)
        # per-round telemetry must also match the uninterrupted run:
        # n_deflated in particular only survives resume because the
        # inflation controller checkpoints last_n_deflated
        assert len(result.rounds) == len(ref_result.rounds)
        for got, want in zip(result.rounds, ref_result.rounds):
            assert asdict(got) == asdict(want)

    def test_resume_drops_retired_round_key(self, tmp_path):
        """Snapshots whose round records carry the retired
        ``router_fallbacks`` counter still resume bit-identically."""
        path = str(tmp_path / "flow.npz")
        ref = toy_design(300, seed=3)
        ref_result = RoutabilityDrivenPlacer(ref, self._multi_round_cfg()).run()

        nl = toy_design(300, seed=3)
        placer = RoutabilityDrivenPlacer(nl, self._multi_round_cfg())
        self._interrupt_after(placer, 3)
        with pytest.raises(KeyboardInterrupt):
            placer.run(checkpoint_path=path)
        # rewrite it in the older layout: one extra key per round record
        meta, arrays = read_checkpoint(path)
        assert meta["rounds"]
        for record in meta["rounds"]:
            record["router_fallbacks"] = 0
        write_checkpoint(path, meta, arrays)

        nl2 = toy_design(300, seed=3)
        placer2 = RoutabilityDrivenPlacer(nl2, self._multi_round_cfg())
        result = placer2.run(checkpoint_path=path, resume=True)
        assert result.resumed_from_round == 0
        assert np.array_equal(ref.x, nl2.x)
        assert np.array_equal(ref.y, nl2.y)
        assert result.rounds == ref_result.rounds

    def test_resume_rejects_other_design(self, tmp_path):
        path = str(tmp_path / "flow.npz")
        nl = toy_design(150, seed=5)
        RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=1)).run(
            checkpoint_path=path
        )
        other = toy_design(120, seed=7)
        placer = RoutabilityDrivenPlacer(other, _rd_config(max_rounds=1))
        with pytest.raises(CheckpointError, match="design"):
            placer.run(checkpoint_path=path, resume=True)

    def test_resume_rejects_other_config(self, tmp_path):
        path = str(tmp_path / "flow.npz")
        nl = toy_design(150, seed=5)
        RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=1)).run(
            checkpoint_path=path
        )
        nl2 = toy_design(150, seed=5)
        placer = RoutabilityDrivenPlacer(
            nl2, _rd_config(max_rounds=1, iters_per_round=9)
        )
        with pytest.raises(CheckpointError, match="config"):
            placer.run(checkpoint_path=path, resume=True)

    def test_fresh_run_when_no_checkpoint_exists(self, tmp_path):
        path = str(tmp_path / "missing.npz")
        nl = toy_design(150, seed=5)
        placer = RoutabilityDrivenPlacer(nl, _rd_config(max_rounds=1))
        result = placer.run(checkpoint_path=path, resume=True)
        assert result.resumed_from_round == -1
        assert result.n_rounds >= 1
        import os

        assert os.path.exists(path)
