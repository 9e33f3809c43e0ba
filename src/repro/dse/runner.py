"""Sweep execution: run grid units locally or on a service daemon.

Both paths share the same deterministic unit list from
:func:`repro.dse.grid.make_units`:

* :func:`run_grid` — each unit becomes a bench
  :class:`~repro.bench.parallel.SweepTask` (knobs bound onto its
  configs, labelled ``command="dse"`` and the sweep name) and runs
  through :func:`repro.bench.parallel.run_tasks`: a plain in-process
  loop for ``jobs <= 1``, the supervised job runtime for ``jobs > 1``;
* :func:`submit_grid` — units posted to a running ``repro serve``
  daemon as ``place`` jobs whose ``overrides`` payload field carries
  the unit's knob mapping.

Every unit produces a JSON payload (``dse_unit: 1``) that
:class:`repro.dse.store.RunDB` ingests; :func:`run_grid` writes the
payloads plus a sweep manifest under ``out_dir`` and, when ``db_path``
is given, ingests them immediately.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.parallel import SweepTask, run_sweep_task, run_tasks
from repro.dse.grid import DseUnit, GridSpec, apply_knobs, make_units


def _unit_filename(unit_id: str) -> str:
    """Filesystem-safe payload filename for a unit id."""
    return unit_id.replace(":", "__").replace("/", "_") + ".json"


def _sweep_name(unit: DseUnit) -> str:
    return unit.unit_id.split(":", 1)[0]


def _unit_task(unit: DseUnit) -> SweepTask:
    """The bench task that runs one unit: its knobs bound onto the
    configs, labelled ``command="dse"`` and the sweep name."""
    binding = apply_knobs(unit.knobs)
    return SweepTask(
        index=unit.index,
        kind="table1",
        name=unit.design,
        scale=unit.scale,
        seed=unit.seed,
        placers=tuple(unit.placers),
        gp_config=binding.gp_config,
        rd_config=binding.rd_config,
        command="dse",
        sweep=_sweep_name(unit),
    )


def _unit_payload(unit: DseUnit, run) -> dict:
    """The unit's JSON payload (``dse_unit: 1``) from its
    :class:`~repro.bench.parallel.DesignRun`."""
    return {
        "dse_unit": 1,
        "sweep": _sweep_name(unit),
        "unit_id": unit.unit_id,
        "unit_index": unit.index,
        "point": unit.point,
        "design": unit.design,
        "knobs": dict(unit.knobs),
        "placers": list(unit.placers),
        "rows": run.rows,
        "events": run.events,
        "error": run.error,
        "elapsed_s": run.elapsed,
    }


def run_unit(unit: DseUnit, ctx=None) -> dict:
    """Execute one sweep unit; never raises (except cancellation).

    A thin mapping over :func:`repro.bench.parallel.run_sweep_task`:
    telemetry rides back on the payload, exceptions become traceback
    strings, and :class:`~repro.jobs.spec.JobCancelled` is re-raised.
    """
    return _unit_payload(unit, run_sweep_task(_unit_task(unit), ctx=ctx))


@dataclass
class GridResult:
    """Everything a finished sweep produced."""

    spec: GridSpec
    units: list
    payloads: list
    events: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def errors(self) -> list:
        """``(unit_id, error)`` pairs for units that failed."""
        return [(p["unit_id"], p["error"]) for p in self.payloads
                if p["error"]]


def _sweep_events(spec: GridSpec, units: list) -> list:
    """Emit the sweep-level ``dse.*`` telemetry segment."""
    from repro.utils.metrics import MemorySink, MetricsRegistry

    sink = MemorySink()
    metrics = MetricsRegistry(sink=sink)
    metrics.start_run(command="dse.sweep", sweep=spec.name)
    n_points = len({u.point for u in units})
    metrics.emit("dse.sweep", sweep=spec.name, n_units=len(units),
                 n_points=n_points, n_designs=len(spec.designs))
    for unit in units:
        metrics.emit("dse.shard", sweep=spec.name, unit=unit.unit_id,
                     index=unit.index, design=unit.design)
    metrics.close()
    return [json.loads(line) for line in sink.lines]


def run_grid(spec: GridSpec, jobs: int = 1, out_dir=None, db_path=None,
             job_timeout: float | None = None,
             heartbeat_timeout: float | None = None,
             max_retries: int = 1) -> GridResult:
    """Run every unit of a grid spec; optionally persist and ingest.

    With ``jobs > 1`` the units run under the supervised job runtime
    (one worker process per unit, ``jobs`` at a time, job id = unit
    id); the supervisor's own ``job.*`` lifecycle segment
    (``dse.supervise``) is appended to the sweep events.  The deadlines
    need ``jobs > 1`` (``ValueError`` otherwise).  Unit payload order
    always matches unit order, independent of worker completion order.
    """
    t0 = time.perf_counter()
    units = make_units(spec)
    events = _sweep_events(spec, units)
    runs, sup_events = run_tasks(
        [_unit_task(unit) for unit in units],
        jobs,
        job_timeout=job_timeout,
        heartbeat_timeout=heartbeat_timeout,
        max_retries=max_retries,
        command="dse",
        job_ids=[unit.unit_id for unit in units],
    )
    payloads = [_unit_payload(unit, run) for unit, run in zip(units, runs)]
    events = events + sup_events

    result = GridResult(spec=spec, units=units, payloads=payloads,
                        events=events, elapsed_s=time.perf_counter() - t0)
    if out_dir is not None:
        _write_outputs(result, out_dir)
    if db_path is not None:
        from repro.dse.store import RunDB

        with RunDB(db_path) as db:
            for payload in payloads:
                db.ingest_unit_payload(payload, source=f"sweep:{spec.name}")
    return result


def _write_outputs(result: GridResult, out_dir) -> None:
    """Write unit payloads, the manifest, and the sweep event stream."""
    out = Path(out_dir)
    units_dir = out / "units"
    units_dir.mkdir(parents=True, exist_ok=True)
    for payload in result.payloads:
        path = units_dir / _unit_filename(payload["unit_id"])
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    manifest = {
        "spec": result.spec.as_dict(),
        "units": [u.as_dict() for u in result.units],
        "errors": [{"unit_id": u, "error": e} for u, e in result.errors],
        "elapsed_s": result.elapsed_s,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with (out / "sweep.jsonl").open("w") as fh:
        for event in result.events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


def submit_grid(spec: GridSpec, root: str, designs_dir=None,
                priority: int = 0) -> list:
    """Submit a grid's units as ``place`` jobs to a running daemon.

    Design files are generated (once per distinct design) under
    ``designs_dir`` (default ``<root>/designs``), then each unit is
    posted via :class:`~repro.service.client.ServiceClient` with its
    knob mapping in the request's ``overrides`` field and its unit id
    as the job id.  Returns the submitted queue entries.
    """
    from repro.io.bookshelf import save_design
    from repro.service.client import ServiceClient
    from repro.synth.suite import suite_design

    units = make_units(spec)
    designs = Path(designs_dir) if designs_dir is not None else Path(root) / "designs"
    designs.mkdir(parents=True, exist_ok=True)
    paths: dict = {}
    for unit in units:
        if unit.design not in paths:
            path = designs / f"{unit.design}_s{unit.scale:g}_r{unit.seed}.bl"
            if not path.exists():
                save_design(
                    suite_design(unit.design, scale=unit.scale, seed=unit.seed),
                    str(path))
            paths[unit.design] = path

    client = ServiceClient(root=root)
    entries = []
    for unit in units:
        request = {"input": str(paths[unit.design]), "routability": True}
        if unit.knobs:
            request["overrides"] = dict(unit.knobs)
        entries.append(client.submit(
            request, kind="place", priority=priority,
            job_id=_unit_filename(unit.unit_id)[:-5]))
    return entries
