"""Benchmark inputs, generated from the workload seed.

The program under test only ever sees the ``.bl`` files written here.

* Every workload uses one fixed suite design, so flow time and QoR
  compare across runs (a different generator seed changes the design,
  and with it the GP iteration count by 10-20 % and the evaluated DRVs
  by up to 50 %).  The seed renames every cell and net, so each seed is
  a distinct input file whose placement must come out identical.
* The ECO workload edits the placed design from a fixed pool of
  :data:`ECO_POOL` single-cell width resizes, in an order the seed
  draws.  Edits differ in cost by 2x, so with edits drawn per seed the
  median edit of a run moved by a fifth from seed to seed; with one pool
  every run times the same edits.
"""

from __future__ import annotations

import numpy as np

from repro.io import save_design
from repro.synth import suite_design

#: single-cell resizes in the ECO edit pool; a run of ``eco_edits`` times
#: whole passes over it
ECO_POOL = 12


def relabel(netlist, seed: int) -> None:
    """Rename every cell and net with a seed-derived prefix, in place."""
    tag = f"s{seed:x}_"
    netlist.cell_names = [f"{tag}c{i}" for i in range(netlist.n_cells)]
    netlist.net_names = [f"{tag}n{e}" for e in range(netlist.n_nets)]


def write_design(design: str, scale: float, seed: int, path: str) -> None:
    """Generate the workload's design, relabelled for ``seed``."""
    netlist = suite_design(design, scale=scale)
    relabel(netlist, seed)
    save_design(netlist, path)


def resize_edit(baseline, seed: int, index: int):
    """The ``index``-th edit of the seed's sequence, as a new netlist.

    The sequence cycles through the :data:`ECO_POOL` edits in an order
    drawn from ``seed``.  An edit grows one movable standard cell of the
    placed baseline by one to three sites; every other cell keeps its
    placed position, and pins keep their offsets (which stay inside the
    wider cell).  Returns ``(netlist, cell_name, new_width)``.
    """
    order = np.random.default_rng(seed).permutation(ECO_POOL)
    rng = np.random.default_rng([0, int(order[index % ECO_POOL])])
    candidates = np.flatnonzero(baseline.movable & ~baseline.cell_macro)
    cell = int(rng.choice(candidates))
    edited = baseline.copy()
    edited.cell_width = baseline.cell_width.copy()
    edited.cell_width[cell] += int(rng.integers(1, 4)) * baseline.site_width
    return edited, baseline.cell_names[cell], float(edited.cell_width[cell])
