"""Half-perimeter wirelength (HPWL).

The non-smooth ground-truth objective that the WA model approximates;
used for reporting, for the placer's divergence sentinel and density
weight feedback (once per iteration), and for testing the WA upper
bound property.

The per-net max/min reuse the column sweep of the netlist's cached WA
structure (:mod:`repro.wirelength.wa`) rather than four
``np.{maximum,minimum}.reduceat`` calls; max and min are exact, so the
result is bit-identical.  The plain ``reduceat`` formulation is kept in
``tests/kernel_oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.netlist import Netlist
from repro.wirelength.wa import _wa_structure


def hpwl_per_net(netlist: Netlist, net_weights: np.ndarray | None = None) -> np.ndarray:
    """HPWL of every net at the current cell positions.

    Nets with fewer than two pins have zero wirelength.
    """
    if netlist.n_nets == 0:
        return np.zeros(0, dtype=np.float64)
    struct = _wa_structure(netlist)
    wl = np.zeros(netlist.n_nets, dtype=np.float64)
    if struct.m:
        for coords in netlist.pin_positions():
            c = np.take(coords, struct.order, out=struct.c)
            mx, mn = struct.segment_max_min(c)
            k = struct.clipped_net
            if k >= 0:
                # the reduceat start clamp cut this net's last pin
                mx[k] = max(mx[k], c[-1])
                mn[k] = min(mn[k], c[-1])
            wl += np.subtract(mx, mn, out=mx)
        wl[~struct.valid] = 0.0
    if net_weights is not None:
        wl = wl * net_weights
    return wl


def hpwl(netlist: Netlist, net_weights: np.ndarray | None = None) -> float:
    """Total (optionally weighted) HPWL of the design."""
    return float(hpwl_per_net(netlist, net_weights).sum())
