"""Weighted-average (WA) smooth wirelength model [Hsu et al., DAC'11].

The paper (Sec. II-A) minimizes, per net ``e`` and direction ``x``::

    WA_e = sum_i x_i e^{x_i/gamma} / sum_i e^{x_i/gamma}
         - sum_i x_i e^{-x_i/gamma} / sum_i e^{-x_i/gamma}

which smoothly approximates ``max_i x_i - min_i x_i`` (HPWL per axis).
This module evaluates the objective and its analytic gradient with
respect to cell centers in a fully vectorized, numerically stable way
(exponentials are shifted by the per-net max/min before exponentiation).

Gradient formulas (derived by differentiating the quotient; the shift
cancels)::

    d WA+/d x_i = a_i (1 + (x_i - WA+)/gamma) / S,   a_i = e^{(x_i-mx)/gamma}
    d WA-/d x_i = b_i (1 - (x_i - WA-)/gamma) / T,   b_i = e^{-(x_i-mn)/gamma}
    d WA /d x_i = d WA+/d x_i - d WA-/d x_i

The per-axis pass works on the net-sorted pin layout, cached per
netlist (topology is immutable).  Two restructures keep it fast while
reproducing the textbook numpy formulation (``tests/kernel_oracles.py``)
bit for bit:

* the per-net max/min is a *column sweep* instead of
  ``np.{maximum,minimum}.reduceat`` (whose per-segment dispatch
  dominates on tens of thousands of tiny nets): column ``d`` updates
  the running max/min of every net with more than ``d`` pins in one
  vector step.  Max/min are exact, so the order cannot change a bit;
  the segment widths reproduce reduceat's start clamp, including the
  trailing-empty-net case;
* the exp / bincount / gradient chain runs through preallocated
  scratch with ``out=`` ufuncs.  The only reorderings are FP-exact:
  ``x + 1.0`` for ``1.0 + x``, ``(1+g)*a`` for ``a*(1+g)`` and
  ``(-x)/gamma`` for ``-(x/gamma)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.netlist import Netlist


class _WAStructure:
    """Net-sorted pin layout, column-sweep plan and scratch of a netlist.

    Everything here is a pure function of the immutable net topology,
    so it is built once per netlist (:func:`_wa_structure`) and reused
    every iteration; the scratch buffers are overwritten on each call.
    """

    def __init__(self, netlist: Netlist) -> None:
        order = netlist.net_pin_order
        self.order = order
        self.starts = netlist.net_pin_starts[:-1]
        self.degrees = netlist.net_degrees()
        self.seg = netlist.pin_net[order]
        self.n_nets = netlist.n_nets
        m = len(order)
        self.m = m
        # reduceat-equivalent segmentation: net i covers
        # [safe[i], safe[i+1]) and an empty segment yields c[safe[i]]
        # (numpy reduceat semantics) -- exactly one column of width >= 1
        safe = np.minimum(self.starts, max(m - 1, 0))
        ends = np.append(safe[1:], m)
        width = np.maximum(ends - safe, 1)
        self.safe = safe
        # column d (d >= 1) updates nets whose segment has > d entries
        self.columns = []
        for col in range(1, int(width.max(initial=1))):
            ids = np.flatnonzero(width > col)
            self.columns.append((ids, safe[ids] + col))
        # empty nets trailing the last non-empty one clamp its end to
        # m - 1, cutting its last pin from the sweep; WA only shifts by
        # the max/min, but HPWL (hpwl.py) must add that pin back
        last = int(np.flatnonzero(self.degrees)[-1]) if m else -1
        self.clipped_net = (
            last if 0 <= last < self.n_nets - 1 and self.degrees[last] >= 2 else -1
        )
        self.valid = self.degrees >= 2
        self.valid_seg = self.valid[self.seg]
        # m-sized scratch: coordinate gather, shifted exps, two temps,
        # and the two gradient accumulators
        self.c, self.a, self.b, self.t1, self.t2, self.ga, self.gb = (
            np.empty(m) for _ in range(7)
        )

    def segment_max_min(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-net max and min of net-sorted ``c`` via the column sweep."""
        mx = np.take(c, self.safe)
        mn = mx.copy()
        for ids, pos in self.columns:
            v = np.take(c, pos)
            cur = mx[ids]
            np.maximum(cur, v, out=cur)
            mx[ids] = cur
            cur = mn[ids]
            np.minimum(cur, v, out=cur)
            mn[ids] = cur
        return mx, mn


def _wa_structure(netlist: Netlist) -> _WAStructure:
    """The netlist's cached :class:`_WAStructure`.

    :meth:`Netlist.copy` creates a fresh object, which rebuilds the
    cache.  Reusing the identical arrays cannot change any numerics.
    """
    cache = getattr(netlist, "_wa_structure_cache", None)
    if cache is None:
        cache = netlist._wa_structure_cache = _WAStructure(netlist)
    return cache


def _axis_wa(
    coords: np.ndarray, struct: _WAStructure, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-net WA wirelength and per-pin gradient along one axis.

    Returns ``(wl_per_net, grad_per_pin)`` with the gradient in original
    pin order.  Nets with fewer than two pins yield zero wirelength and
    gradient.
    """
    n_nets = struct.n_nets
    if struct.m == 0:
        return np.zeros(n_nets), np.zeros(0)
    seg = struct.seg
    c = struct.c
    np.take(coords, struct.order, out=c)
    mx, mn = struct.segment_max_min(c)

    # a = exp((c - mx[seg]) / gamma)
    a = struct.a
    np.take(mx, seg, out=a)
    np.subtract(c, a, out=a)
    a /= gamma
    np.exp(a, out=a)
    # b = exp(-(c - mn[seg]) / gamma)
    b = struct.b
    np.take(mn, seg, out=b)
    np.subtract(c, b, out=b)
    np.negative(b, out=b)
    b /= gamma
    np.exp(b, out=b)

    t1 = struct.t1
    np.multiply(c, a, out=t1)
    s_plus = np.bincount(seg, weights=a, minlength=n_nets)
    p_plus = np.bincount(seg, weights=t1, minlength=n_nets)
    np.multiply(c, b, out=t1)
    s_minus = np.bincount(seg, weights=b, minlength=n_nets)
    p_minus = np.bincount(seg, weights=t1, minlength=n_nets)

    s_plus_safe = np.where(s_plus > 0, s_plus, 1.0)
    s_minus_safe = np.where(s_minus > 0, s_minus, 1.0)
    wa_plus = p_plus / s_plus_safe
    wa_minus = p_minus / s_minus_safe
    wl = np.where(struct.valid, wa_plus - wa_minus, 0.0)

    # grad_plus = a * (1 + (c - wa_plus[seg]) / gamma) / s_plus_safe[seg]
    ga = struct.ga
    np.take(wa_plus, seg, out=ga)
    np.subtract(c, ga, out=ga)
    ga /= gamma
    ga += 1.0
    np.multiply(ga, a, out=ga)
    t2 = struct.t2
    np.take(s_plus_safe, seg, out=t2)
    np.divide(ga, t2, out=ga)
    # grad_minus = b * (1 - (c - wa_minus[seg]) / gamma) / s_minus_safe[seg]
    gb = struct.gb
    np.take(wa_minus, seg, out=gb)
    np.subtract(c, gb, out=gb)
    gb /= gamma
    np.subtract(1.0, gb, out=gb)
    np.multiply(gb, b, out=gb)
    np.take(s_minus_safe, seg, out=t2)
    np.divide(gb, t2, out=gb)

    np.subtract(ga, gb, out=ga)
    grad_ordered = np.where(struct.valid_seg, ga, 0.0)
    grad = np.zeros(struct.m)
    grad[struct.order] = grad_ordered
    return wl, grad


def wa_wirelength_and_grad(
    netlist: Netlist,
    gamma: float,
    net_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total WA wirelength and its gradient w.r.t. cell centers.

    Returns ``(wl, grad_x, grad_y)`` with per-cell gradient arrays.
    Fixed cells receive zero gradient.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    px, py = netlist.pin_positions()
    struct = _wa_structure(netlist)
    wl_x, gpin_x = _axis_wa(px, struct, gamma)
    wl_y, gpin_y = _axis_wa(py, struct, gamma)

    if net_weights is not None:
        wl = float((net_weights * (wl_x + wl_y)).sum())
        wpin = net_weights[netlist.pin_net]
        gpin_x = gpin_x * wpin
        gpin_y = gpin_y * wpin
    else:
        wl = float(wl_x.sum() + wl_y.sum())

    grad_x = np.bincount(netlist.pin_cell, weights=gpin_x, minlength=netlist.n_cells)
    grad_y = np.bincount(netlist.pin_cell, weights=gpin_y, minlength=netlist.n_cells)
    grad_x[netlist.cell_fixed] = 0.0
    grad_y[netlist.cell_fixed] = 0.0
    return wl, grad_x, grad_y


@dataclass
class WAWirelength:
    """Stateful WA objective with the ePlace-style gamma schedule.

    ``gamma`` shrinks as density overflow decreases, tightening the
    HPWL approximation toward convergence:
    ``gamma = gamma_0 * base_unit * 10^(k*overflow + b)`` following the
    piecewise-linear schedule of ePlace.
    """

    base_unit: float
    gamma0: float = 0.5
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            self.gamma = 8.0 * self.gamma0 * self.base_unit

    def update_gamma(self, overflow: float) -> float:
        """Adapt gamma to the current density overflow (in [0, ~1])."""
        k, b = 20.0 / 9.0, -11.0 / 9.0
        coef = 10.0 ** (k * min(max(overflow, 0.0), 1.0) + b)
        self.gamma = self.gamma0 * self.base_unit * 8.0 * coef
        return self.gamma

    def __call__(
        self, netlist: Netlist, net_weights: np.ndarray | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        return wa_wirelength_and_grad(netlist, self.gamma, net_weights)
