"""Regenerate the Measured tables in EXPERIMENTS.md from results/*.json.

The measured Table I / Table II / ECO / router / spectral blocks are
wrapped in ``<!-- fill:NAME -->`` / ``<!-- /fill:NAME -->`` markers;
this script recomputes each block from the results files
(:func:`blocks`) and rewrites the text in between (:func:`render`), so
EXPERIMENTS.md can be refreshed after any bench rerun with
``python scripts/fill_experiments.py``.  ``tests/test_docs.py`` renders
the same blocks in memory and fails when the committed file differs.

Both result shapes are accepted: the bare row list the early harness
wrote (``results/table1.json``) and the full ``repro bench --out``
payload (``{"rows": [...], "supervisor": {...}, ...}``) of the
supervised sweep era.
"""

from __future__ import annotations

import json
import os
import re
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.evalrt.report import MetricRow, ratio_row  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPERIMENTS = os.path.join(REPO, "EXPERIMENTS.md")


def load_rows(path: str) -> list:
    """Rows from either a bare list or a ``bench --out`` payload dict."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        rows = doc.get("rows")
        if rows is None:
            raise SystemExit(
                f"{path}: payload dict has no 'rows' key "
                f"(keys: {', '.join(sorted(doc))})"
            )
    else:
        rows = doc
    return [MetricRow(r["design"], r["placer"], r["metrics"]) for r in rows]


def _ordered_placers(rows: list) -> list:
    """Placer names in first-appearance order."""
    seen: list = []
    for row in rows:
        if row.placer not in seen:
            seen.append(row.placer)
    return seen


def ratio_table(rows: list, reference: str, keys: tuple,
                bold: str | None = None, label: str = "Placer") -> str:
    """Markdown ratio table (reference placer normalised to 1.00)."""
    ratios = ratio_row(rows, reference, keys=keys)
    lines = [
        f"| {label} | " + " | ".join(keys) + " |",
        "|" + "---|" * (len(keys) + 1),
    ]
    for placer in _ordered_placers(rows):
        cells = []
        for key in keys:
            value = f"{ratios[placer][key]:.2f}"
            if key == bold and placer != reference:
                value = f"**{value}**"
            cells.append(value)
        lines.append(f"| {placer} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def fill_block(text: str, name: str, body: str) -> str:
    """Replace the contents between the ``fill:name`` markers."""
    pattern = re.compile(
        rf"(<!-- fill:{re.escape(name)} -->\n).*?(\n<!-- /fill:{re.escape(name)} -->)",
        re.S,
    )
    if not pattern.search(text):
        raise SystemExit(f"EXPERIMENTS.md: missing <!-- fill:{name} --> markers")
    return pattern.sub(lambda m: m.group(1) + body + m.group(2), text)


def eco_table(path: str) -> str:
    """Markdown QoR-delta block from ``results/eco_qor.json``.

    Two rows (the incremental flow and the cold full re-place of the
    same edited design) over the comparable QoR axes, plus a context
    line describing the edit and the dirty region.
    """
    with open(path) as fh:
        doc = json.load(fh)
    eco, full = doc["eco"], doc["full"]
    lines = [
        f"Design `{doc['design']}` ({doc['n_cells']} cells, "
        f"util {doc['utilization']}), edit: {doc['edit']} "
        f"({doc['n_edits']} edit -> {doc['n_dirty_cells']} dirty cells, "
        f"{doc['n_dirty_nets']} dirty nets).",
        "",
        "| Flow | HPWL | overflow | RD rounds | wall-clock s | legal |",
        "|---|---|---|---|---|---|",
    ]
    for name, side in (("`repro eco`", eco), ("cold full re-place", full)):
        legal = "CLEAN" if side["legal_issues"] == 0 else f"{side['legal_issues']} issues"
        lines.append(
            f"| {name} | {side['hpwl']:.0f} | {side['total_overflow']:.2f} "
            f"| {side['rounds']} | {side['elapsed_s']:.3f} | {legal} |"
        )
    lines.append(
        f"\nHPWL ratio (eco / full): **{doc['hpwl_ratio']:.3f}**."
    )
    return "\n".join(lines)


def route_summary(path: str) -> str:
    """Router-vs-scalar-oracle summary from ``results/BENCH_route.json``."""
    with open(path) as fh:
        doc = json.load(fh)
    s = doc["summary"]
    names = ", ".join(f"`{name}`" for name in doc["designs"])
    plural = "" if s["n_designs"] == 1 else "s"
    exact = "true" if s["all_demand_maps_exact"] else "false"
    return (
        f"The committed run (scale {doc['scale']:g}, seed {doc['seed']}, "
        f"{s['n_designs']} design{plural}: {names}) gives **geomean speedup "
        f"{s['geomean_speedup']:.2f}x, min {s['min_speedup']:.2f}x, "
        f"max {s['max_speedup']:.2f}x, `all_demand_maps_exact: {exact}`**."
    )


def _ms(value: float) -> str:
    """Milliseconds with two decimals below 10 ms, one above."""
    return f"{value:.2f} ms" if value < 10 else f"{value:.1f} ms"


def spectral_table(path: str) -> str:
    """Per-grid spectral solve table from ``results/BENCH_spectral.json``."""
    with open(path) as fh:
        doc = json.load(fh)
    host, spectral = doc["host"], doc["spectral"]
    lines = [
        f"Host: {host['cpu_count']} CPU, Python {host['python']}, "
        f"numpy {host['numpy']}.",
        "",
        "| grid | ref solve | workspace solve | density | congestion | combined |",
        "|---|---|---|---|---|---|",
    ]
    for row in spectral["per_dim"]:
        lines.append(
            f"| {row['dim']}² | {_ms(row['reference_solve_ms'])} "
            f"| {_ms(row['workspace_solve_ms'])} "
            f"| {row['density_speedup']:.2f}x | {row['congestion_speedup']:.2f}x "
            f"| {row['combined_speedup']:.2f}x |"
        )
    lines.append(
        f"\nCombined geomean **{spectral['combined_geomean_speedup']:.2f}x** "
        f"(target {spectral['target_combined_speedup']:g}x)."
    )
    return "\n".join(lines)


def blocks(root: str = REPO) -> dict:
    """Body of every fill block, rendered from ``<root>/results``."""
    def results(name: str) -> str:
        return os.path.join(root, "results", name)

    return {
        "table1": ratio_table(
            load_rows(results("table1.json")), "Ours",
            keys=("DRWL", "#DRVias", "#DRVs", "PT", "RT"), bold="#DRVs"),
        "table2": ratio_table(
            load_rows(results("table2.json")), "+MCI+DC+DPA",
            keys=("DRWL", "#DRVias", "#DRVs"), label="Configuration"),
        "eco": eco_table(results("eco_qor.json")),
        "route": route_summary(results("BENCH_route.json")),
        "spectral": spectral_table(results("BENCH_spectral.json")),
    }


def render(text: str, root: str = REPO) -> str:
    """``text`` with every fill block re-rendered from the results."""
    for name, body in blocks(root).items():
        text = fill_block(text, name, body)
    return text


def main() -> int:
    """Recompute every measured block and rewrite EXPERIMENTS.md."""
    with open(EXPERIMENTS) as fh:
        text = fh.read()
    with open(EXPERIMENTS, "w") as fh:
        fh.write(render(text))
    print("EXPERIMENTS.md measured tables regenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
