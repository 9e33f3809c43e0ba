"""Hot kernels agree with their oracles from :mod:`tests.kernel_oracles`.

The WA tests run the public call site twice on one frozen scene: once
as shipped and once with the kernel swapped for its plain-numpy oracle.
The outputs must be equal at ``atol=0`` -- the golden suite and the
end-to-end determinism test rely on it.

The raster, net-moving, multi-pin and router tests compare each
vectorized kernel, through its public entry point, with a loop oracle
that handles one cell, net or segment at a time.  Selections (virtual
cell positions, active and selected masks) must match exactly;
accumulated sums to ``rtol=1e-12``.

``tests/test_property_kernels.py`` hunts for divergent scenes with
hypothesis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.congestion_field import CongestionField
from repro.core.multipin import multi_pin_cell_gradients
from repro.core.netmove import (
    NetMoveConfig,
    two_pin_net_gradients,
    virtual_cell_positions,
)
from repro.density.rasterize import CellRasterizer
from repro.geometry import Grid2D
from repro.place.initial import initial_placement
from repro.route.patterns import PatternRouter
from repro.synth import toy_design
from repro.wirelength.wa import wa_wirelength_and_grad
from tests.kernel_oracles import (
    best_pattern_cost,
    exact,
    multi_pin_selection,
    raster_weights,
    two_pin_gradients,
    virtual_cells,
    wa_oracle,
)

#: Placed toy designs on grids of different shape; the 32x20 grid makes
#: the macro span more bins than the vectorized raster path takes.
SCENES = [
    pytest.param((150, 5, (16, 16)), id="toy150-16x16"),
    pytest.param((120, 7, (8, 12)), id="toy120-8x12"),
    pytest.param((200, 3, (32, 20)), id="toy200-32x20"),
]


@pytest.fixture(scope="module")
def netlist():
    """Placed toy design (150 cells)."""
    nl = toy_design(150, seed=5)
    initial_placement(nl, 0)
    return nl


class TestWirelengthOracle:
    @pytest.mark.parametrize("gamma", [0.05, 1.0, 8.0])
    def test_matches_oracle(self, netlist, gamma):
        with wa_oracle():
            want = wa_wirelength_and_grad(netlist, gamma)
        # repeated calls reuse the cached scratch; none may leak state
        for _ in range(3):
            got = wa_wirelength_and_grad(netlist, gamma)
            assert got[0] == want[0]
            assert exact(got[1], want[1])
            assert exact(got[2], want[2])

    def test_weighted_matches_oracle(self, netlist):
        weights = np.linspace(0.5, 2.0, netlist.n_nets)
        with wa_oracle():
            want = wa_wirelength_and_grad(netlist, 0.7, weights)
        got = wa_wirelength_and_grad(netlist, 0.7, weights)
        assert got[0] == want[0]
        assert exact(got[1], want[1])
        assert exact(got[2], want[2])

    def test_copied_netlist_rebuilds_structure(self, netlist):
        copy = netlist.copy()
        copy.x += 0.25
        with wa_oracle():
            want = wa_wirelength_and_grad(copy, 1.0)
        got = wa_wirelength_and_grad(copy, 1.0)
        assert copy._wa_structure_cache is not netlist._wa_structure_cache
        assert got[0] == want[0]
        assert exact(got[1], want[1])
        assert exact(got[2], want[2])


@pytest.fixture(params=SCENES)
def scene(request):
    """Placed design, grid, random utilization, congestion and field."""
    n_cells, seed, shape = request.param
    nl = toy_design(n_cells, seed=seed)
    initial_placement(nl, 0)
    grid = Grid2D(nl.die, *shape)
    rng = np.random.default_rng(seed)
    util = 2.0 * rng.random(shape)
    return {
        "netlist": nl,
        "grid": grid,
        "congestion": np.maximum(util - 1.0, 0.0),
        "field": CongestionField(grid, util),
    }


def _assert_sums_match(got, want):
    np.testing.assert_allclose(
        got, want, rtol=1e-12, atol=1e-12 * float(np.abs(want).max(initial=1.0))
    )


class TestRasterOracle:
    @pytest.mark.parametrize("smooth", [True, False])
    def test_charge_map(self, scene, smooth):
        nl, grid = scene["netlist"], scene["grid"]
        raster = CellRasterizer(
            grid, nl.x, nl.y, nl.cell_width, nl.cell_height, smooth=smooth
        )
        weights = raster_weights(
            grid, nl.x, nl.y, nl.cell_width, nl.cell_height, smooth
        )
        _assert_sums_match(raster.charge_map(), weights.sum(axis=0))
        _assert_sums_match(raster.total_charge(), weights.sum())

    def test_gather(self, scene):
        nl, grid = scene["netlist"], scene["grid"]
        raster = CellRasterizer(grid, nl.x, nl.y, nl.cell_width, nl.cell_height)
        weights = raster_weights(grid, nl.x, nl.y, nl.cell_width, nl.cell_height)
        field = scene["field"].field_x
        _assert_sums_match(
            raster.gather(field), (weights * field[None]).sum(axis=(1, 2))
        )

    def test_large_cell_path(self):
        """A macro spanning many bins takes the per-cell slow path."""
        nl = toy_design(200, seed=3)
        initial_placement(nl, 0)
        grid = Grid2D(nl.die, 32, 20)
        raster = CellRasterizer(grid, nl.x, nl.y, nl.cell_width, nl.cell_height)
        assert len(raster._large_ids) > 0
        weights = raster_weights(grid, nl.x, nl.y, nl.cell_width, nl.cell_height)
        for cid in raster._large_ids:
            i, j, w = raster._cell_bin_overlaps(cid)
            full = np.zeros(grid.shape)
            full[np.ix_(i, j)] = w
            _assert_sums_match(full, weights[cid])


class TestNetmoveOracle:
    @pytest.mark.parametrize("max_samples", [1, 4, 48])
    def test_virtual_cells(self, scene, max_samples):
        cfg = NetMoveConfig(max_samples=max_samples, min_congestion=0.1)
        info = virtual_cell_positions(
            scene["netlist"], scene["grid"], scene["congestion"], cfg
        )
        xv, yv, cbest, active = virtual_cells(
            scene["netlist"], scene["grid"], scene["congestion"],
            max_samples, cfg.min_congestion,
        )
        assert len(xv) > 0
        assert exact(info["xv"], xv)
        assert exact(info["yv"], yv)
        assert exact(info["congestion"], cbest)
        assert exact(info["active"], active)

    @pytest.mark.parametrize("max_scale", [1.5, 8.0])
    def test_gradients(self, scene, max_scale):
        cfg = NetMoveConfig(max_scale=max_scale)
        args = (scene["netlist"], scene["grid"], scene["congestion"], scene["field"])
        gx, gy, info = two_pin_net_gradients(*args, 0.5, cfg)
        want_x, want_y = two_pin_gradients(*args, 0.5, cfg)
        assert info["active"].any()
        _assert_sums_match(gx, want_x)
        _assert_sums_match(gy, want_y)


class TestMultipinOracle:
    @pytest.mark.parametrize("threshold", [0.3, 0.7])
    def test_selection_and_gradients(self, scene, threshold):
        nl, grid, field = scene["netlist"], scene["grid"], scene["field"]
        gx, gy, selected = multi_pin_cell_gradients(
            nl, grid, scene["congestion"], field, threshold=threshold
        )
        want = multi_pin_selection(nl, grid, scene["congestion"], threshold)
        assert exact(selected, want)
        assert want.any()
        ids = np.flatnonzero(want)
        for cid in ids:
            wx, wy = field.gradient_at(
                np.array([nl.x[cid]]), np.array([nl.y[cid]]), nl.cell_area[cid]
            )
            assert gx[cid] == wx[0] and gy[cid] == wy[0]
        assert not gx[~want].any() and not gy[~want].any()


class TestRouterOracle:
    @pytest.mark.parametrize("via_cost", [0.0, 1.0, 3.5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_finds_cheapest_pattern(self, seed, via_cost):
        """With dense candidates the batch picks the exhaustive optimum."""
        rng = np.random.default_rng(seed)
        shape = (12, 9)
        h_cost = rng.random(shape) * 3.0
        v_cost = rng.random(shape) * 3.0
        router = PatternRouter(
            h_cost, v_cost, via_cost=via_cost, z_samples=16, detour_margin=2
        )
        i1, i2 = rng.integers(0, shape[0], 40), rng.integers(0, shape[0], 40)
        j1, j2 = rng.integers(0, shape[1], 40), rng.integers(0, shape[1], 40)
        batch = router.route_batch(i1, j1, i2, j2)
        for k in range(40):
            want = best_pattern_cost(
                h_cost, v_cost, int(i1[k]), int(j1[k]), int(i2[k]), int(j2[k]),
                via_cost, margin=2,
            )
            assert batch.cost[k] == pytest.approx(want, rel=1e-12, abs=1e-12)
