"""Maze router tests: optimality, detours, fallback integration."""

import numpy as np
import pytest

from repro.geometry import Grid2D
from repro.route import GlobalRouter, RouterConfig
from repro.route.maze import maze_route
from repro.route.patterns import PatternRouter
from repro.synth import toy_design


class TestMazeBasics:
    def test_same_cell(self):
        p = maze_route(np.ones((8, 8)), np.ones((8, 8)), 3, 3, 3, 3)
        assert p.cost == 0.0 and p.runs == []

    def test_straight_line(self):
        p = maze_route(np.ones((8, 8)), np.ones((8, 8)), 1, 2, 6, 2)
        assert p.n_bends == 0
        assert p.cost == pytest.approx(5.0)  # 5 cells entered

    def test_connects_endpoints(self):
        rng = np.random.default_rng(0)
        h = rng.random((12, 12)) + 0.1
        v = rng.random((12, 12)) + 0.1
        for _ in range(20):
            i1, i2 = rng.integers(0, 12, 2)
            j1, j2 = rng.integers(0, 12, 2)
            p = maze_route(h, v, int(i1), int(j1), int(i2), int(j2))
            pos = (int(i1), int(j1))
            for kind, fixed, a, b in p.runs:
                if kind == "h":
                    assert pos == (a, fixed)
                    pos = (b, fixed)
                else:
                    assert pos == (fixed, a)
                    pos = (fixed, b)
            assert pos == (int(i2), int(j2))

    def test_never_worse_than_pattern_router(self):
        """Maze explores a superset of L/Z paths: cost <= pattern cost."""
        rng = np.random.default_rng(1)
        h = rng.random((14, 14)) * 3 + 0.1
        v = rng.random((14, 14)) * 3 + 0.1
        pattern = PatternRouter(h, v, via_cost=1.0, z_samples=64)
        for _ in range(15):
            i1, i2 = rng.integers(0, 14, 2)
            j1, j2 = rng.integers(0, 14, 2)
            pm = maze_route(h, v, int(i1), int(j1), int(i2), int(j2), via_cost=1.0)
            pp = pattern.route_batch([i1], [j1], [i2], [j2]).path(0)
            # maze charges entry cost of the start cell's first move
            # differently; allow a one-cell slack
            assert pm.cost <= pp.cost + max(h.max(), v.max()) + 1e-9

    def test_takes_detour_around_wall(self):
        h = np.ones((10, 10))
        v = np.ones((10, 10))
        # vertical wall at i=5 except a gap at j=8
        h[5, :] = 1000.0
        h[5, 8] = 1.0
        p = maze_route(h, v, 2, 2, 8, 2, via_cost=0.1, window=10)
        assert p.cost < 100.0  # found the gap instead of paying the wall
        crossed = [(kind, fixed) for kind, fixed, a, b in p.runs if kind == "h"]
        assert any(fixed == 8 for _, fixed in crossed)


class TestMazeFallback:
    def test_fallback_reduces_overflow(self):
        nl = toy_design(400, seed=6, utilization=0.8)
        grid = Grid2D(nl.die, 24, 24)
        cfg_off = RouterConfig(rrr_rounds=1, wire_pitch=0.4, maze_fallback=False)
        cfg_on = RouterConfig(rrr_rounds=1, wire_pitch=0.4, maze_fallback=True)
        off = GlobalRouter(grid, cfg_off).route(nl)
        on = GlobalRouter(grid, cfg_on).route(nl)
        assert on.total_overflow <= off.total_overflow + 1e-9

    def test_fallback_keeps_demand_nonnegative(self):
        nl = toy_design(300, seed=2, utilization=0.8)
        grid = Grid2D(nl.die, 16, 16)
        res = GlobalRouter(
            grid, RouterConfig(rrr_rounds=1, wire_pitch=0.5, maze_fallback=True)
        ).route(nl)
        assert (res.grid.h_demand >= -1e-9).all()
        assert (res.grid.v_demand >= -1e-9).all()
