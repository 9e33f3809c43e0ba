"""Which public entry points the traced flow wraps, and what they count.

Each probe names a span (``<layer>.<what>``; the layer is the repo
module the entry point lives in) and the function or method it wraps.
:func:`install` replaces a module-level function wherever a loaded
``repro`` module binds it -- ``hpwl`` is looked up as ``hpwl`` in
``place.global_placer`` and as ``hpwl_of`` in ``core.rd_placer``, and a
wrapper placed only on its defining module would record nothing.

:func:`layer_metrics` turns the recorded spans and counts into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass

import spans as sp

#: modules the place / eco flows import (some lazily, inside function
#: bodies); importing them up front lets :func:`install` rebind every
#: alias before the flow runs
FLOW_MODULES = (
    "repro.cli",
    "repro.service.runner",
    "repro.core",
    "repro.core.rd_placer",
    "repro.place",
    "repro.eco",
    "repro.eco.flow",
    "repro.legalize",
    "repro.detail",
    "repro.io",
    "repro.netlist.validate",
)


def _count_route(counts, result) -> None:
    counts["route.segments"] += int(result.n_segments)
    counts["route.fallbacks"] += int(result.n_fallbacks)


def _count_legalize(counts, result) -> None:
    counts["legalize.max_disp"] = max(
        counts["legalize.max_disp"], float(result.max_displacement)
    )


def _count_detail(counts, result) -> None:
    counts["detail.moves"] += int(result.shifts_applied + result.swaps_applied)


def _count_rd(counts, result) -> None:
    rounds = result.rounds
    counts["core.rd_rounds"] += len(rounds)
    counts["core.best_round"] = int(result.best_round)
    counts["core.rollbacks"] += sum(
        1 for e in result.guard_events if e.get("action") == "rollback"
    )
    counts["core.dpa_bins"] += sum(int(r.dpa_bins) for r in rounds)
    counts["core.c_overflow_disagree"] += c_overflow_disagreements(rounds)


def _count_eco(counts, result) -> None:
    counts["eco.rounds"] += int(result.n_rounds)
    counts["eco.dirty_cells"] += int(result.region.n_dirty_cells)
    counts["eco.dirty_nets"] += int(result.region.n_dirty_nets)


def c_overflow_disagreements(rounds) -> int:
    """Rounds whose C value rose while the routed overflow fell.

    Those are the rounds where C-based stopping and the overflow-based
    best-round score pull in opposite directions.
    """
    return sum(
        1
        for prev, cur in zip(rounds, rounds[1:])
        if cur.c_value > prev.c_value and cur.total_overflow < prev.total_overflow
    )


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``attr`` is a module-level function or ``Class.method``.  A
    ``factory`` probe wraps the *callable the method returns* instead
    of the method (the RD loop builds its congestion-gradient closure
    once per round and the solver calls it every iteration).
    ``hook(counts, result)`` records counts after each call.
    """

    span: str
    module: str
    attr: str
    hook: object = None
    factory: bool = False


PROBES = (
    Probe("io.load", "repro.io.bookshelf", "load_design"),
    Probe("io.save", "repro.io.bookshelf", "save_design"),
    Probe("netlist.validate", "repro.netlist.validate", "validate_netlist"),
    Probe("place.converge", "repro.place.global_placer", "converge_placement"),
    Probe("place.gp_run", "repro.place.global_placer", "GlobalPlacer.run"),
    Probe("wirelength.wa", "repro.wirelength.wa", "WAWirelength.__call__"),
    Probe("wirelength.hpwl", "repro.wirelength.hpwl", "hpwl"),
    Probe("density.solve", "repro.density.electrostatic",
          "ElectrostaticSystem.solve"),
    Probe("density.raster", "repro.density.rasterize",
          "CellRasterizer.charge_map"),
    Probe("density.poisson", "repro.density.poisson", "PoissonSolver.solve"),
    Probe("optim.step", "repro.optim.nesterov", "NesterovOptimizer.do_step"),
    Probe("core.rd", "repro.core.rd_placer", "RoutabilityDrivenPlacer.run",
          _count_rd),
    Probe("core.cgrad", "repro.core.rd_placer",
          "RoutabilityDrivenPlacer._make_congestion_grad", factory=True),
    Probe("core.netmove", "repro.core.netmove", "two_pin_net_gradients"),
    Probe("core.multipin", "repro.core.multipin", "multi_pin_cell_gradients"),
    Probe("core.field", "repro.core.congestion_field", "CongestionField.__init__"),
    Probe("core.inflate", "repro.core.inflation", "MomentumInflation.update"),
    Probe("core.dpa", "repro.core.pinaccess", "pg_density_charge"),
    Probe("core.pgrails", "repro.core.pgrails", "select_pg_rails"),
    Probe("route.route", "repro.route.router", "GlobalRouter.route",
          _count_route),
    Probe("legalize.legalize", "repro.legalize.api", "legalize",
          _count_legalize),
    Probe("legalize.check", "repro.legalize.api", "check_legal"),
    Probe("detail.detail", "repro.detail.refine", "detailed_place",
          _count_detail),
    Probe("eco.place", "repro.eco.flow", "eco_place", _count_eco),
    Probe("eco.diff", "repro.eco.diff", "diff_netlists"),
    Probe("eco.warm", "repro.eco.warm", "apply_warm_start"),
    Probe("eco.region", "repro.eco.warm", "dirty_region"),
)


def _wrap_factory(tracer: sp.Tracer, probe: Probe, make):
    @functools.wraps(make)
    def wrapped_make(*args, **kwargs):
        return tracer.wrap(probe.span, make(*args, **kwargs), probe.hook)

    return wrapped_make


def install(tracer: sp.Tracer, probes=PROBES) -> None:
    """Wrap every probe's entry point.

    A function probe that no loaded module binds is an error, not a
    silent zero in the table.
    """
    for name in FLOW_MODULES:
        importlib.import_module(name)
    for probe in probes:
        module = importlib.import_module(probe.module)
        if "." in probe.attr:
            cls_name, meth = probe.attr.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, meth)
            if probe.factory:
                wrapped = _wrap_factory(tracer, probe, original)
            else:
                wrapped = tracer.wrap(probe.span, original, probe.hook)
            setattr(cls, meth, wrapped)
            continue
        original = getattr(module, probe.attr)
        wrapped = tracer.wrap(probe.span, original, probe.hook)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    hits += 1
        if hits == 0:
            raise RuntimeError(
                f"probe {probe.span}: {probe.module}.{probe.attr} unbound"
            )


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: layers whose shares the benchmark reports (repo module names)
LAYERS = (
    "startup", "io", "netlist", "place", "wirelength", "density", "optim",
    "core", "route", "legalize", "detail", "eco",
)


def layer_metrics(spans: list, counts: dict, t0: float, t1: float) -> dict:
    """Per-layer metrics of one traced flow.

    ``spans`` / ``counts`` are what the traced process recorded;
    ``[t0, t1]`` is its wall interval measured from outside.
    """
    def secs(name, **kw):
        return sp.inclusive(spans, name, **kw)[0]

    def calls(name, **kw):
        return sp.inclusive(spans, name, **kw)[1]

    by_name = sp.self_by_name(spans)
    by_layer = sp.self_by_layer(spans)
    wall = t1 - t0
    steps = calls("optim.step")
    initial_gp_s = secs("place.converge")
    rd_gp_s = secs("place.gp_run", not_under="place.converge")
    m = {
        "startup.import_s": secs("startup.import"),
        "io.load_s": secs("io.load"),
        "io.save_s": secs("io.save"),
        "netlist.validate_s": secs("netlist.validate"),
        "place.initial_gp_s": initial_gp_s,
        "place.initial_gp_self_s": by_name.get("place.converge", 0.0),
        "place.rd_gp_s": rd_gp_s,
        "place.gp_iters": steps,
        "place.iter_ms": 1e3 * (initial_gp_s + rd_gp_s) / steps if steps else 0.0,
        "wirelength.wa_s": secs("wirelength.wa"),
        "wirelength.wa_calls": calls("wirelength.wa"),
        "wirelength.hpwl_s": secs("wirelength.hpwl"),
        "wirelength.hpwl_calls": calls("wirelength.hpwl"),
        "density.solve_s": secs("density.solve"),
        "density.solve_self_s": by_name.get("density.solve", 0.0),
        "density.solve_calls": calls("density.solve"),
        "density.raster_s": secs("density.raster"),
        "density.poisson_s": secs("density.poisson"),
        "optim.step_s": secs("optim.step"),
        "optim.step_self_s": by_name.get("optim.step", 0.0),
        "optim.steps": steps,
        "core.rd_s": secs("core.rd"),
        "core.rd_self_s": by_name.get("core.rd", 0.0),
        "core.cgrad_s": secs("core.cgrad"),
        "core.cgrad_self_s": by_name.get("core.cgrad", 0.0),
        "core.netmove_s": secs("core.netmove"),
        "core.netmove_calls": calls("core.netmove"),
        "core.multipin_s": secs("core.multipin"),
        "core.multipin_calls": calls("core.multipin"),
        "core.field_s": secs("core.field"),
        "core.inflate_s": secs("core.inflate"),
        "core.dpa_s": secs("core.dpa"),
        "core.pgrails_s": secs("core.pgrails"),
        "route.s": secs("route.route"),
        "route.calls": calls("route.route"),
        "legalize.s": secs("legalize.legalize"),
        "detail.s": secs("detail.detail"),
        "detail.self_s": by_name.get("detail.detail", 0.0),
        "eco.place_s": secs("eco.place"),
        "eco.place_self_s": by_name.get("eco.place", 0.0),
        "eco.diff_s": secs("eco.diff"),
        "eco.warm_s": secs("eco.warm"),
        "eco.region_s": secs("eco.region"),
    }
    for key in (
        "core.rd_rounds", "core.best_round", "core.rollbacks", "core.dpa_bins",
        "core.c_overflow_disagree", "route.segments", "route.fallbacks",
        "legalize.max_disp", "detail.moves", "eco.rounds", "eco.dirty_cells",
        "eco.dirty_nets",
    ):
        m[key] = counts.get(key, 0)
    if "core.best_round" not in counts:
        m["core.best_round"] = -1
    for layer in LAYERS:
        m[f"share.{layer}"] = by_layer.get(layer, 0.0) / wall
    m["trace.wall_s"] = wall
    m["trace.unattributed_frac"] = sp.unattributed_frac(spans, t0, t1)
    return m
