"""Property-based tests of the routing stack (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Grid2D, Rect
from repro.route import GlobalRouter, RouterConfig, rudy_map
from repro.route.patterns import PatternRouter, RoutedPath
from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec
from tests.kernel_oracles import pattern_route


coords = st.integers(0, 15)


def _route(router: PatternRouter, i1, j1, i2, j2) -> RoutedPath:
    """One segment through :meth:`PatternRouter.route_batch`."""
    return router.route_batch([i1], [j1], [i2], [j2]).path(0)


class TestPatternRouterProperties:
    @given(coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_path_cost_lower_bounded_by_manhattan(self, i1, j1, i2, j2):
        """On a unit cost map, cost >= number of G-cells on any monotone path."""
        router = PatternRouter(np.ones((16, 16)), np.ones((16, 16)), via_cost=0.0)
        p = _route(router, i1, j1, i2, j2)
        if (i1, j1) == (i2, j2):
            assert p.cost == 0
            return
        manhattan_cells = abs(i2 - i1) + abs(j2 - j1) + 1
        assert p.cost >= manhattan_cells - 1.0 - 1e-9

    @given(coords, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, i1, j1, i2, j2):
        """Routing a->b and b->a must find equal-cost paths."""
        rng = np.random.default_rng(7)
        h = rng.random((16, 16)) + 0.1
        v = rng.random((16, 16)) + 0.1
        router = PatternRouter(h, v, via_cost=0.3)
        fwd = _route(router, i1, j1, i2, j2)
        rev = _route(router, i2, j2, i1, j1)
        assert fwd.cost == pytest.approx(rev.cost, rel=1e-9)

    @given(coords, coords, coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_bends_cost_money(self, i1, j1, i2, j2):
        """With enormous via cost, the router minimizes bends."""
        router = PatternRouter(np.ones((16, 16)), np.ones((16, 16)), via_cost=1e6)
        p = _route(router, i1, j1, i2, j2)
        if i1 == i2 or j1 == j2:
            assert p.n_bends == 0
        else:
            assert p.n_bends == 1  # an L, never a Z


    @given(coords, coords, coords, coords, st.integers(2, 20), st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_batch_path_matches_oracle(self, i1, j1, i2, j2, z_samples, seed):
        """route_batch picks the scalar oracle's path, ties included.

        Small integer costs make HVH/VHV and bend-position ties common,
        so the tie-breaking rules are exercised, not just the argmin.
        """
        rng = np.random.default_rng(seed)
        router = PatternRouter(
            rng.integers(1, 4, (16, 16)).astype(float),
            rng.integers(1, 4, (16, 16)).astype(float),
            via_cost=float(seed % 3),
            z_samples=z_samples,
        )
        got = _route(router, i1, j1, i2, j2)
        want = pattern_route(router, i1, j1, i2, j2)
        assert (got.runs, got.bends, got.cost) == (want.runs, want.bends, want.cost)

class TestRouterInvariants:
    def _mini_design(self, rng, n=30):
        die = Rect(0, 0, 12, 12)
        cells = [
            CellSpec(f"c{k}", 0.4, 0.8,
                     x=float(rng.uniform(0.5, 11.5)),
                     y=float(rng.uniform(0.5, 11.5)))
            for k in range(n)
        ]
        nets = []
        for k in range(n):
            a, b = rng.integers(0, n, 2)
            if a != b:
                nets.append(NetSpec(f"n{k}", [PinSpec(f"c{a}"), PinSpec(f"c{b}")]))
        return Netlist.from_specs("mini", die, cells, nets)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_demand_conservation(self, seed):
        """Total committed wire demand equals the sum of path run lengths."""
        rng = np.random.default_rng(seed)
        nl = self._mini_design(rng)
        grid = Grid2D(nl.die, 12, 12)
        router = GlobalRouter(grid, RouterConfig(rrr_rounds=0, pin_via_demand=0.0))
        res = router.route(nl)
        total_cells = res.grid.h_demand.sum() + res.grid.v_demand.sum()
        assert total_cells >= 0
        # wirelength = (cells crossed - 1 per run) * pitch; both derive
        # from the same committed runs, so they must be consistent:
        assert res.wirelength <= total_cells * max(grid.dx, grid.dy)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_nonnegative_demand_after_rrr(self, seed):
        """Rip-up must never leave negative demand anywhere."""
        rng = np.random.default_rng(seed)
        nl = self._mini_design(rng, n=60)
        grid = Grid2D(nl.die, 10, 10)
        res = GlobalRouter(grid, RouterConfig(rrr_rounds=3, wire_pitch=0.6)).route(nl)
        assert (res.grid.h_demand >= -1e-9).all()
        assert (res.grid.v_demand >= -1e-9).all()
        assert (res.grid.via_demand >= -1e-9).all()


class TestRudyProperties:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_rudy_mass_formula(self, seed):
        """Total RUDY mass = sum over nets of (w+h)/(w*h) * clipped box area."""
        rng = np.random.default_rng(seed)
        die = Rect(0, 0, 16, 16)
        cells = [
            CellSpec(f"c{k}", 0.1, 0.1,
                     x=float(rng.uniform(1, 15)), y=float(rng.uniform(1, 15)))
            for k in range(8)
        ]
        nets = [NetSpec("n", [PinSpec(f"c{k}") for k in range(8)])]
        nl = Netlist.from_specs("r", die, cells, nets)
        grid = Grid2D(die, 16, 16)
        r = rudy_map(nl, grid)
        px, py = nl.pin_positions()
        w = max(px.max() - px.min(), grid.dx)
        h = max(py.max() - py.min(), grid.dy)
        density = (w + h) / (w * h)
        # mass = density * area covered (in whole G-cells)
        i0, j0 = grid.index_of(px.min(), py.min())
        i1, j1 = grid.index_of(px.max(), py.max())
        n_cells = (i1 - i0 + 1) * (j1 - j0 + 1)
        assert r.sum() == pytest.approx(density * n_cells, rel=1e-9)
