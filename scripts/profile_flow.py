"""Profile one routability-driven round per synthetic design.

For each design this script

1. runs a single RD round (``RDConfig(max_rounds=1)``) under a
   :class:`~repro.utils.profile.StageProfiler` and records the per-stage
   wall-clock breakdown (rd.route / rd.inflate / rd.nesterov / ...);
2. re-routes the placed netlist with :class:`GlobalRouter` and with
   the one-segment-at-a-time oracle it is tested against
   (``tests/kernel_oracles.py::ScalarRouter``, reported as
   ``scalar``), checks that their demand maps are bit-identical, and
   records the speedup.

Everything lands in one JSON file (default ``results/BENCH_route.json``)
whose ``summary`` block carries the geometric-mean routing speedup.  See
EXPERIMENTS.md ("Stage profiling") for how to read the output.  Run from
the repo root: ``PYTHONPATH=src python scripts/profile_flow.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

# the scalar oracle lives in the test package at the repo root
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from repro.core.rd_placer import RDConfig, RoutabilityDrivenPlacer
from repro.geometry.grid import Grid2D
from repro.place.config import GPConfig, auto_grid_dim
from repro.route.config import RouterConfig
from repro.route.router import GlobalRouter
from repro.synth.suite import suite_design, suite_names
from repro.utils.profile import StageProfiler
from tests.kernel_oracles import ScalarRouter


def _route_once(netlist, grid: Grid2D, router_cls) -> tuple[float, object, dict]:
    """Route ``netlist`` with one router; return (seconds, result, profile)."""
    profiler = StageProfiler()
    router = router_cls(grid, RouterConfig(), profiler=profiler)
    t0 = time.perf_counter()
    result = router.route(netlist)
    return time.perf_counter() - t0, result, profiler.as_dict()


def profile_design(name: str, scale: float, seed: int, iters: int) -> dict:
    netlist = suite_design(name, scale=scale, seed=seed)

    # stage breakdown of one routability round
    profiler = StageProfiler()
    rd = RDConfig(gp=GPConfig(max_iters=iters), max_rounds=1)
    placer = RoutabilityDrivenPlacer(netlist, rd, profiler=profiler)
    placer.run()

    # router vs its scalar oracle on the placed netlist
    dim = auto_grid_dim(netlist.n_cells)
    grid = Grid2D(netlist.die, dim, dim)
    t_scalar, res_scalar, prof_scalar = _route_once(netlist, grid, ScalarRouter)
    t_batched, res_batched, prof_batched = _route_once(netlist, grid, GlobalRouter)

    exact = (
        np.array_equal(res_scalar.grid.h_demand, res_batched.grid.h_demand)
        and np.array_equal(res_scalar.grid.v_demand, res_batched.grid.v_demand)
        and np.array_equal(res_scalar.grid.via_demand, res_batched.grid.via_demand)
    )
    wl_close = bool(
        np.isclose(res_scalar.wirelength, res_batched.wirelength, rtol=1e-9)
    )
    return {
        "n_cells": netlist.n_cells,
        "n_nets": netlist.n_nets,
        "grid": dim,
        "rd_profile": profiler.as_dict(),
        "route": {
            "segments": res_batched.n_segments,
            "scalar_s": t_scalar,
            "batched_s": t_batched,
            "speedup": t_scalar / max(t_batched, 1e-12),
            "demand_maps_exact": exact,
            "wirelength_close": wl_close,
            "scalar_profile": prof_scalar,
            "batched_profile": prof_batched,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="*", default=None)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iters", type=int, default=200,
                        help="GP iterations for the profiled RD round")
    parser.add_argument("--out", default="results/BENCH_route.json")
    args = parser.parse_args()

    names = args.designs or suite_names()
    designs: dict = {}
    for name in names:
        t0 = time.time()
        designs[name] = profile_design(name, args.scale, args.seed, args.iters)
        r = designs[name]["route"]
        print(
            f"[{time.strftime('%H:%M:%S')}] {name}: scalar {r['scalar_s']:.2f}s "
            f"batched {r['batched_s']:.2f}s speedup {r['speedup']:.1f}x "
            f"exact={r['demand_maps_exact']} ({time.time() - t0:.0f}s total)",
            flush=True,
        )

    speedups = np.array([d["route"]["speedup"] for d in designs.values()])
    payload = {
        "bench": "route",
        "scale": args.scale,
        "seed": args.seed,
        "designs": designs,
        "summary": {
            "n_designs": len(designs),
            "geomean_speedup": float(np.exp(np.log(speedups).mean())),
            "min_speedup": float(speedups.min()),
            "max_speedup": float(speedups.max()),
            "all_demand_maps_exact": all(
                d["route"]["demand_maps_exact"] for d in designs.values()
            ),
        },
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
    s = payload["summary"]
    print(
        f"wrote {args.out}: geomean speedup {s['geomean_speedup']:.1f}x "
        f"(min {s['min_speedup']:.1f}x), exact={s['all_demand_maps_exact']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
