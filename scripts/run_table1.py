"""Regenerate Table I over the full 20-design suite.

Writes per-design metric rows to ``results/table1.json`` and prints the
formatted table with the Avg. Ratio footer.  Pass ``--scale`` to shrink
designs for a quick run and ``--jobs N`` to fan designs across worker
processes (per-design failure isolation: a crashed design reports an
error and the sweep continues).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.parallel import check_supervision, run_sweep
from repro.evalrt.report import MetricRow, format_table
from repro.synth.suite import suite_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--designs", nargs="*", default=None)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the design sweep")
    parser.add_argument("--out", default="results/table1.json")
    parser.add_argument("--metrics-out", default=None,
                        help="write the merged telemetry stream (JSONL)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-design wall-clock deadline in seconds "
                             "(supervisor-enforced; needs --jobs > 1)")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        help="reap a pooled design after this many seconds "
                             "without a flow progress beat")
    parser.add_argument("--job-retries", type=int, default=1,
                        help="replacement attempts after an involuntary "
                             "worker death")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="checkpoint each design's flows here; retries "
                             "resume instead of recomputing")
    args = parser.parse_args()
    try:
        check_supervision(args.jobs, args.job_timeout, args.heartbeat_timeout)
    except ValueError as exc:
        parser.error(str(exc))

    names = args.designs or suite_names()
    t0 = time.time()
    result = run_sweep(
        names,
        kind="table1",
        jobs=args.jobs,
        scale=args.scale,
        metrics_path=args.metrics_out,
        job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.job_retries,
        checkpoint_dir=args.checkpoint_dir,
    )
    for run in result.runs:
        status = "done" if run.ok else "FAILED"
        retry = f" (attempts={run.attempts})" if run.attempts > 1 else ""
        print(f"[{time.strftime('%H:%M:%S')}] {run.design} {status} "
              f"in {run.elapsed:.0f}s{retry}", flush=True)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result.rows(), fh, indent=1)
    rows = [
        MetricRow(design=r["design"], placer=r["placer"], metrics=r["metrics"])
        for r in result.rows()
    ]
    if rows:
        print(format_table(rows, reference_placer="Ours"))
    for failed in result.errors():
        print(f"FAILED {failed.design}:\n{failed.error}")
    print(f"total wall {time.time() - t0:.0f}s (jobs={result.jobs})")
    return 1 if result.errors() else 0


if __name__ == "__main__":
    sys.exit(main())
