"""Flow benchmark: end-to-end time and QoR of real ``repro`` CLI flows.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gp_large --seed 1 --seconds 15 --trace 0

Workloads (see :data:`WORKLOADS`):

* ``gp_large`` -- ``repro place --routability`` on the largest design;
  initial wirelength GP dominates and the RD loop stops early.
* ``rd_congested`` -- the same command on a congested design on which
  the RD loop runs all its rounds (route, MCI, DPA, DC net-moving).
* ``eco_edits`` -- a seeded sequence of single-cell resizes, each one a
  ``repro eco`` process against a placed baseline.

Load shape: one process drives a closed loop of one flow subprocess at
a time; the next flow starts when the previous one has been checked.
Flows run until the next one would overrun ``--seconds`` (at least one
runs); ``eco_edits`` runs whole passes over its pool of edits.

``--trace 0`` times the untraced CLI and prints the end-to-end metrics:
``flow_cpu_s`` (median CPU time, user plus system, of one flow process,
read from outside with ``wait4``), ``setup_s`` (median CPU time of
repeated set-ups), ``peak_rss_mb`` (highest peak RSS of any flow
process) and the QoR of the placed output -- ``hpwl`` and
``evaluate_routing``'s DRVs, routed wirelength and vias, computed
outside the timed window (means over edits on ``eco_edits``).

Times are CPU seconds, not wall seconds.  Every flow runs on one thread,
so on an idle machine the two agree; on a shared host the CPU time
leaves out the time the flow waited for a CPU -- behind other processes
or while the host ran another tenant on its virtual CPU -- which the
wall time counts.  Both still move with the speed of the host core
under the virtual CPU: on a busy 2-vCPU host, by a fifth from one flow
to the next and by up to half over minutes.  ``flow_cpu_s`` is a median
over flows for the first; nothing in a run can cancel the second (a
fixed reference job timed between flows drifted independently of them).
Each flow's wall time is printed beside its CPU time.

``--trace 1`` runs each flow twice -- untraced CLI, then
``traced_flow.py`` with every layer's entry point wrapped in a span --
and prints the per-layer metrics (means over flows).  The two outputs
must be byte-identical.

Every flow passes the gate in :mod:`gate` or counts as failed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: OpenBLAS would start one busy-waiting thread per core for the flow's
#: large vector operations: on two cores that doubles a flow's CPU time
#: for no gain in wall time and ties both to other tenants' load.  This
#: process and every flow it starts run BLAS single-threaded (set before
#: numpy loads).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: the whole run must end well inside the 180 s a run may take
DEADLINE_S = 165.0
#: set-ups per untraced run, by workload kind; ``setup_s`` is their
#: median (generating a design takes ~0.2 s, so it is repeated more
#: often than the ~4 s ECO baseline placement)
SETUP_REPS = {"place": 15, "eco": 3}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    kind: str  # "place" | "eco"
    design: str
    scale: float
    #: require the paper's techniques to run (RD rounds, DC, DPA)
    technique_check: bool = False


WORKLOADS = {
    "gp_large": Workload("place", "superblue14", 0.85),
    "rd_congested": Workload("place", "superblue12", 0.5, technique_check=True),
    "eco_edits": Workload("eco", "des_perf_1", 0.5),
}

UNITS = {
    "flow_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hpwl": "dbu",
    "eval_drvs": "count",
    "eval_drwl": "dbu",
    "eval_vias": "count",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("share.") or name.endswith("_frac"):
        return "ratio"
    if name == "legalize.max_disp":
        return "dbu"
    return "count"


# ----------------------------------------------------------------------
# subprocesses
# ----------------------------------------------------------------------
@dataclass
class Proc:
    """One finished subprocess, timed from outside."""

    exit_code: int
    t0: float
    t1: float
    peak_rss_mb: float
    #: user plus system CPU seconds of the process
    cpu_s: float

    @property
    def wall(self) -> float:
        """Wall time from spawn to reap."""
        return self.t1 - self.t0


def run_proc(cmd: list, log_path: Path, timeout: float) -> Proc:
    """Run ``cmd`` from the repository root and reap it with its rusage.

    The process is killed after ``timeout`` seconds; a killed process
    reports a negative exit code and counts as a failed operation.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: never leave the flow running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, t0, t1, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)


def cli(*args) -> list:
    """A ``repro`` CLI command line."""
    return [sys.executable, "-m", "repro", *map(str, args)]


def traced(spans_json: Path, cli_cmd: list) -> list:
    """The ``traced_flow.py`` command line running the same CLI arguments."""
    return [sys.executable, str(HERE / "traced_flow.py"), str(spans_json), "--",
            *cli_cmd[3:]]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@dataclass
class Run:
    """State and tallies of one benchmark run."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    work: Path
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def time_left(self) -> float:
        """Seconds until the run's hard deadline."""
        return DEADLINE_S - (time.perf_counter() - self.started)

    def fail(self, what: str, reasons: list) -> None:
        """Count one failed operation and say why."""
        self.failed += 1
        self.correct = False
        print(f"FAILED {what}: {'; '.join(reasons)}", flush=True)


def setup(run: Run) -> tuple:
    """Make the workload's inputs; returns ``(setup_s, inputs)``.

    Place workloads generate their design; ``eco_edits`` also places
    the baseline with ``repro place --routability``.  Untraced runs set
    up :data:`SETUP_REPS` times (the outputs must agree byte for byte);
    ``setup_s`` is the median CPU time of one set-up: this process's
    for generating the design plus the baseline placement process's.
    """
    import gate
    import inputs

    wl = run.workload
    reps = 1 if run.trace else SETUP_REPS[wl.kind]
    times, digests = [], set()
    for rep in range(reps):
        design = run.work / f"design{rep}.bl"
        t0 = time.process_time()
        inputs.write_design(wl.design, wl.scale, run.seed, str(design))
        if wl.kind == "place":
            times.append(time.process_time() - t0)
            digests.add(gate.file_sha256(design))
            continue
        baseline = run.work / f"baseline{rep}.bl"
        proc = run_proc(cli("place", design, "--routability", "--out", baseline),
                        run.work / f"baseline{rep}.log", run.time_left())
        times.append(time.process_time() - t0 + proc.cpu_s)
        check = gate.check_output(str(baseline), proc.exit_code)
        if not check.ok:
            run.attempted += 1
            run.fail("baseline placement", check.reasons)
            raise SystemExit(1)
        digests.add(check.sha256)
    if len(digests) != 1:
        run.correct = False
        print(f"FAILED set-up is not deterministic: {sorted(digests)}")
    first = run.work / ("design0.bl" if wl.kind == "place" else "baseline0.bl")
    return statistics.median(times), first


def op_input(run: Run, first: Path, baseline, index: int) -> Path:
    """Input file of operation ``index`` (outside the timed window).

    ``baseline`` is the parsed placed baseline of ``eco_edits``.
    """
    if run.workload.kind == "place":
        return first
    import inputs
    from repro.io import save_design

    edited, cell, width = inputs.resize_edit(baseline, run.seed, index)
    path = run.work / f"edit{index}.bl"
    save_design(edited, str(path))
    print(f"edit {index}: {cell} -> width {width:g}", flush=True)
    return path


def op_command(run: Run, first: Path, path: Path, out: Path) -> list:
    """The CLI command of one operation."""
    if run.workload.kind == "place":
        return cli("place", path, "--routability", "--out", out)
    return cli("eco", first, path, "--out", out)


def parse_rounds(log_path: Path) -> int:
    """RD rounds from ``repro place`` output (``routability rounds: N``)."""
    for line in log_path.read_text().splitlines():
        if line.startswith("routability rounds:"):
            return int(line.split()[2])
    return 0


def run_ops(run: Run, first: Path) -> list:
    """The closed loop: one checked flow at a time until time is up.

    Returns one record per operation that passed the gate.
    """
    import gate
    import inputs
    import probes
    import spans as sp

    from repro.io import load_design

    baseline = load_design(str(first)) if run.workload.kind == "eco" else None
    done, walls = [], []
    # eco_edits times whole passes over its edit pool, so that every run
    # takes its median over the same edits
    batch = inputs.ECO_POOL if run.workload.kind == "eco" else 1
    index = 0
    while True:
        path = op_input(run, first, baseline, index)
        out = run.work / f"out{index}.bl"
        cmd = op_command(run, first, path, out)
        log = run.work / f"op{index}.log"
        run.attempted += 1
        proc = run_proc(cmd, log, run.time_left())
        check = gate.check_output(str(out), proc.exit_code)
        rec = {"index": index, "proc": proc, "check": check}
        reasons = list(check.reasons)
        if check.ok and run.workload.technique_check and not run.trace:
            reasons += gate.technique_check({"core.rd_rounds": parse_rounds(log)})
        spent = proc.wall
        if check.ok and run.trace:
            spans_json = run.work / f"spans{index}.json"
            t_out = run.work / f"traced{index}.bl"
            tproc = run_proc(traced(spans_json, op_command(run, first, path, t_out)),
                             run.work / f"traced{index}.log", run.time_left())
            spent += tproc.wall
            tcheck = gate.check_output(str(t_out), tproc.exit_code)
            reasons += [f"traced: {r}" for r in tcheck.reasons]
            if tcheck.ok and tcheck.sha256 != check.sha256:
                reasons.append("traced output differs from the untraced CLI's")
            if tcheck.ok:
                doc = json.loads(spans_json.read_text())
                layer = probes.layer_metrics(
                    sp.load_spans(doc["spans"]), doc["counts"], tproc.t0, tproc.t1
                )
                layer["trace.overhead_frac"] = tproc.wall / proc.wall - 1.0
                rec["layer"] = layer
                if run.workload.technique_check:
                    reasons += gate.technique_check(layer)
        walls.append(spent)
        print(f"op {index}: wall={proc.wall:.3f}s cpu={proc.cpu_s:.3f}s "
              f"rss={proc.peak_rss_mb:.1f}MB sha256={check.sha256}", flush=True)
        if reasons:
            run.fail(f"op {index}", reasons)
        else:
            done.append(rec)
        index += 1
        if run.time_left() < 2 * max(walls):
            break
        if index % batch == 0 and (
            sum(walls) + batch * statistics.median(walls) > run.seconds
        ):
            break
    if run.workload.kind == "place":
        digests = {rec["check"].sha256 for rec in done}
        if len(digests) > 1:
            run.correct = False
            print(f"FAILED placed outputs of one input differ: {sorted(digests)}")
    return done


def qor(done: list) -> dict:
    """Mean QoR over the operations' placed outputs, outside the timed
    window (identical outputs are evaluated once)."""
    from repro.evalrt.evaluator import evaluate_routing
    from repro.wirelength import hpwl

    per_output = {}
    rows = []
    for rec in done:
        check = rec["check"]
        if check.sha256 not in per_output:
            ev = evaluate_routing(check.netlist)
            per_output[check.sha256] = {
                "hpwl": float(hpwl(check.netlist)),
                "eval_drvs": float(ev.n_drvs),
                "eval_drwl": float(ev.drwl),
                "eval_vias": float(ev.n_vias),
            }
        rows.append(per_output[check.sha256])
        print(f"qor {rec['index']}: " + " ".join(
            f"{k}={v:.6g}" for k, v in rows[-1].items()), flush=True)
    return {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}


def end_to_end(setup_s: float, done: list) -> dict:
    """The end-to-end metrics of an untraced run."""
    metrics = {
        "flow_cpu_s": statistics.median(rec["proc"].cpu_s for rec in done),
        "setup_s": setup_s,
        "peak_rss_mb": max(rec["proc"].peak_rss_mb for rec in done),
    }
    metrics.update(qor(done))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def per_layer(done: list) -> dict:
    """Per-layer metrics of a traced run: means over its flows."""
    keys = done[0]["layer"].keys()
    return {
        k: {"value": statistics.fmean(rec["layer"][k] for rec in done),
            "unit": per_layer_unit(k)}
        for k in keys
    }


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark unwinds, so run_proc can stop its flow
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), work)
    try:
        print("provenance " + json.dumps(gate.provenance(str(ROOT), args.seed)),
              flush=True)
        setup_s, first = setup(run)
        done = run_ops(run, first)
        if not done:
            print("FAILED no operation passed the gate", file=sys.stderr)
            return 1
        metrics = per_layer(done) if run.trace else end_to_end(setup_s, done)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
