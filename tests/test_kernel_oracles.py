"""Hot kernels agree with their oracles from :mod:`tests.kernel_oracles`.

The WA, raster-stencil and HPWL tests run the public call site twice
on one frozen scene: once as shipped and once with the kernel swapped
for the plain-numpy form it was restructured from.  The outputs must be
equal at ``atol=0`` -- the golden suite and the end-to-end determinism
test rely on it.

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
from repro.density.electrostatic import ElectrostaticSystem
from repro.density.rasterize import _MAX_VECTOR_SPAN, CellRasterizer
from repro.geometry import Grid2D, Rect
from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec
from repro.place.initial import initial_placement
from repro.route.patterns import PatternRouter
from repro.synth import toy_design
from repro.wirelength.hpwl import hpwl_per_net
from repro.wirelength.wa import wa_wirelength_and_grad
from tests import kernel_oracles
from tests.kernel_oracles import (
    best_pattern_cost,
    exact,
    multi_pin_selection,
    raster_oracle,
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


def _mixed_cells(seed, grid, n=60):
    """Rectangles exercising every branch of the raster stencil.

    Sub-bin cells (smoothed to sqrt(2) bins, so straddling 2 or 3 bins
    depending on position), wide-short cells (``kx != ky``), cells hanging
    off every die edge, and two macros wider than ``_MAX_VECTOR_SPAN``
    bins next to the small ones.
    """
    rng = np.random.default_rng(seed)
    r = grid.region
    x = rng.uniform(r.xlo, r.xhi, n)
    y = rng.uniform(r.ylo, r.yhi, n)
    w = rng.uniform(0.1, 1.0, n) * grid.dx
    h = rng.uniform(0.1, 1.0, n) * grid.dy
    w[: n // 4] = rng.uniform(2.5, 4.5, n // 4) * grid.dx
    x[n // 4 : n // 2] = rng.choice([r.xlo, r.xhi], n // 4) + rng.normal(0, grid.dx, n // 4)
    y[n // 3 : n // 2] = rng.choice([r.ylo, r.yhi], n // 2 - n // 3)
    big = (_MAX_VECTOR_SPAN + 2) * max(grid.dx, grid.dy)
    x[-2:], y[-2:] = r.xlo + 0.4 * r.width, r.ylo + 0.5 * r.height
    w[-2:], h[-2:] = big, (big, 0.5 * grid.dy)
    return x, y, w, h


MIXED_GRIDS = [
    pytest.param((Rect(0, 0, 16, 8), 32, 16), id="square-bins"),
    pytest.param((Rect(-3, 2, 9, 20), 10, 24), id="offset-origin"),
    pytest.param((Rect(0, 0, 40, 10), 16, 16), id="wide-bins"),
]


def _raster_outputs(grid, x, y, w, h, smooth):
    raster = CellRasterizer(grid, x, y, w, h, smooth=smooth)
    field = np.cos(np.arange(grid.nx * grid.ny, dtype=float)).reshape(grid.shape)
    return raster, (raster.charge_map(), raster.gather(field), raster.total_charge())


def _assert_raster_exact(got, want):
    assert exact(got[0], want[0])
    assert exact(got[1], want[1])
    assert got[2] == want[2]


class TestRasterStencilOracle:
    """The broadcast stencil and row-sum gather vs the chunked di/dj
    build and bincount gather, at ``atol=0``."""

    @pytest.mark.parametrize("smooth", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("geometry", MIXED_GRIDS)
    def test_mixed_scene(self, geometry, seed, smooth):
        grid = Grid2D(*geometry)
        cells = _mixed_cells(seed, grid)
        with raster_oracle():
            ref, want = _raster_outputs(grid, *cells, smooth)
        got_raster, got = _raster_outputs(grid, *cells, smooth)
        assert len(got_raster._large_ids) == 2
        spans_x = got_raster._i1 - got_raster._i0
        spans_y = got_raster._j1 - got_raster._j0
        small = got_raster._small_ids
        # small cells straddle different bin counts (2 vs 3 when
        # smoothed), and the stencil is wider than it is tall
        assert len(np.unique(spans_y[small])) >= 2
        assert spans_x[small].max() != spans_y[small].max()
        assert exact(got_raster._bin_idx, ref._bin_idx)
        assert exact(got_raster._weights, ref._weights)
        _assert_raster_exact(got, want)

    def test_toy_design(self, scene):
        nl, grid = scene["netlist"], scene["grid"]
        args = (grid, nl.x, nl.y, nl.cell_width, nl.cell_height, True)
        with raster_oracle():
            _, want = _raster_outputs(*args)
        _, got = _raster_outputs(*args)
        _assert_raster_exact(got, want)

    def test_empty_input(self):
        grid = Grid2D(Rect(0, 0, 16, 8), 32, 16)
        z = np.zeros(0)
        with raster_oracle():
            _, want = _raster_outputs(grid, z, z, z, z, True)
        _, got = _raster_outputs(grid, z, z, z, z, True)
        _assert_raster_exact(got, want)
        assert got[1].shape == (0,)

    def test_footprint_reuse_matches_fresh_build(self):
        """A rasterizer handed an earlier footprint equals a fresh one bit
        for bit, and reuses the footprint only while the sizes match."""
        grid = Grid2D(Rect(0, 0, 16, 8), 32, 16)
        x, y, w, h = _mixed_cells(3, grid)
        prev = CellRasterizer(grid, x, y, w, h)
        field = np.sin(np.arange(grid.nx * grid.ny, dtype=float)).reshape(grid.shape)
        for step, (sw, sh) in enumerate([(1.0, 1.0), (1.0, 1.0), (1.3, 0.8)]):
            x2, y2 = x + 0.37 * (step + 1), y - 0.21 * step
            w2, h2 = w * sw, h * sh
            raster = CellRasterizer(grid, x2, y2, w2, h2, footprint=prev.footprint)
            assert (raster.footprint is prev.footprint) == (sw == sh == 1.0)
            fresh = CellRasterizer(grid, x2, y2, w2, h2)
            assert exact(raster.charge_map(), fresh.charge_map())
            assert exact(raster.gather(field), fresh.gather(field))
            assert raster.total_charge() == fresh.total_charge()
            prev = raster

    def test_footprint_rebuilt_on_any_mismatch(self):
        grid = Grid2D(Rect(0, 0, 16, 8), 32, 16)
        x, y, w, h = _mixed_cells(4, grid)
        fp = CellRasterizer(grid, x, y, w, h).footprint
        other_grid = Grid2D(Rect(0, 0, 16, 8), 16, 16)
        assert CellRasterizer(grid, x, y, w, h, smooth=False, footprint=fp).footprint is not fp
        assert CellRasterizer(other_grid, x, y, w, h, footprint=fp).footprint is not fp
        # an in-place edit of the caller's sizes is seen: the footprint
        # keeps its own copy
        w *= 1.5
        raster = CellRasterizer(grid, x, y, w, h, footprint=fp)
        assert raster.footprint is not fp
        assert exact(raster.charge_map(), CellRasterizer(grid, x, y, w, h).charge_map())

    def test_system_reuse_matches_fresh_system(self, scene):
        """Successive solves on one system equal a fresh system's solve."""
        nl, grid = scene["netlist"], scene["grid"]
        reused = ElectrostaticSystem(grid)
        reused.solve(nl.x, nl.y, nl.cell_width, nl.cell_height)
        x2, y2 = nl.x + 0.3, nl.y - 0.2
        got = reused.solve(x2, y2, nl.cell_width, nl.cell_height)
        want = ElectrostaticSystem(grid).solve(x2, y2, nl.cell_width, nl.cell_height)
        for name in ("density", "potential", "grad_x", "grad_y"):
            assert exact(getattr(got, name), getattr(want, name))
        assert got.energy == want.energy and got.overflow == want.overflow


def _hpwl_netlist(trailing_empty: int):
    """Nets of degree 0 and 1 between real ones, ending in a 3-pin net
    followed by ``trailing_empty`` empty nets."""
    rng = np.random.default_rng(trailing_empty)
    die = Rect(0.0, 0.0, 20.0, 20.0)
    cells = [
        CellSpec(f"c{k}", 1.0, 1.0, x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)))
        for k in range(10)
    ]
    nets = [
        NetSpec("empty_head", []),
        NetSpec("a", [PinSpec("c0", 0.2, 0.1), PinSpec("c1"), PinSpec("c2", -0.3, 0.0)]),
        NetSpec("lone", [PinSpec("c3")]),
        NetSpec("empty_mid", []),
        NetSpec("b", [PinSpec("c4"), PinSpec("c5", 0.1, 0.4)]),
        NetSpec("same", [PinSpec("c6"), PinSpec("c6", 0.25, -0.25)]),
        NetSpec("end", [PinSpec("c7"), PinSpec("c8"), PinSpec("c9", 0.3, 0.3)]),
    ]
    nets += [NetSpec(f"empty_tail{k}", []) for k in range(trailing_empty)]
    return Netlist.from_specs("hpwl", die, cells, nets)


class TestHpwlOracle:
    """The column-sweep HPWL vs ``reduceat``, at ``atol=0``."""

    @pytest.mark.parametrize("trailing_empty", [0, 1, 3])
    def test_degenerate_nets(self, trailing_empty):
        nl = _hpwl_netlist(trailing_empty)
        got = hpwl_per_net(nl)
        want = kernel_oracles.hpwl_per_net(nl)
        assert exact(got, want)
        # the last real net keeps its last pin despite the empty tail
        end = nl.net_names.index("end")
        assert got[end] > 0.0
        degrees = nl.net_degrees()
        assert not got[degrees < 2].any()

    def test_toy_design(self, netlist):
        weights = np.linspace(0.5, 2.0, netlist.n_nets)
        for w in (None, weights):
            assert exact(hpwl_per_net(netlist, w), kernel_oracles.hpwl_per_net(netlist, w))
        # the cached scratch is shared with WA; neither may disturb the other
        wa_wirelength_and_grad(netlist, 1.0)
        assert exact(hpwl_per_net(netlist), kernel_oracles.hpwl_per_net(netlist))


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
