"""Throughput benchmarks of the numerical kernels.

Not a paper artifact, but the quantities that determine whether the
framework scales: spectral Poisson solve, WA gradient, density
rasterization, one full routing pass, and one two-pin net-moving
gradient evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CongestionField, two_pin_net_gradients
from repro.density import CellRasterizer, PoissonSolver
from repro.geometry import Grid2D
from repro.place import GlobalPlacer, GPConfig, initial_placement
from repro.route import GlobalRouter, PatternRouter
from repro.synth import suite_design
from repro.wirelength import wa_wirelength_and_grad


@pytest.fixture(scope="module")
def placed_design():
    netlist = suite_design("des_perf_1", scale=0.5)
    initial_placement(netlist, 0)
    placer = GlobalPlacer(netlist, GPConfig(max_iters=300))
    placer.run()
    return netlist, placer


def test_poisson_solve_128(benchmark):
    rng = np.random.default_rng(0)
    from repro.geometry import Rect

    grid = Grid2D(Rect(0, 0, 64, 64), 128, 128)
    solver = PoissonSolver(grid)
    rho = rng.random(grid.shape)
    benchmark(solver.solve, rho)


def test_wa_gradient(benchmark, placed_design):
    netlist, _ = placed_design
    benchmark(wa_wirelength_and_grad, netlist, 0.5)


def test_rasterize_density(benchmark, placed_design):
    netlist, placer = placed_design

    def raster():
        r = CellRasterizer(
            placer.grid, netlist.x, netlist.y, netlist.cell_width, netlist.cell_height
        )
        return r.charge_map()

    benchmark(raster)


def test_full_routing_pass(benchmark, placed_design):
    netlist, placer = placed_design
    router = GlobalRouter(placer.grid)
    benchmark.pedantic(router.route, args=(netlist,), iterations=1, rounds=3)


@pytest.fixture(scope="module")
def pattern_segments():
    rng = np.random.default_rng(42)
    nx = ny = 128
    router = PatternRouter(
        rng.uniform(1.0, 4.0, size=(nx, ny)),
        rng.uniform(1.0, 4.0, size=(nx, ny)),
    )
    pts = rng.integers(0, nx, size=(4, 4096))
    return router, pts


def test_pattern_route_batched(benchmark, pattern_segments):
    router, (i1, j1, i2, j2) = pattern_segments
    benchmark(router.route_batch, i1, j1, i2, j2)


def test_netmove_gradient_eval(benchmark, placed_design):
    netlist, placer = placed_design
    routing = GlobalRouter(placer.grid).route(netlist)
    fld = CongestionField(placer.grid, routing.utilization_map)
    cong = routing.congestion_map

    benchmark(
        two_pin_net_gradients, netlist, placer.grid, cong, fld, 0.3
    )


def test_one_placer_iteration(benchmark, placed_design):
    netlist, placer = placed_design
    benchmark.pedantic(
        lambda: placer.run(max_iters=1, min_iters=1), iterations=1, rounds=5
    )
