"""Oracles for the hot kernels in ``src/``.

Two kinds:

* **restructured-kernel oracles** -- the plain numpy formulation a
  kernel was restructured from, kept verbatim as ground truth: the WA
  axis pass (:func:`axis_wa`), the chunked di/dj raster stencil and its
  bincount gather (:func:`small_overlaps`, :func:`gather`) and the
  ``reduceat`` HPWL (:func:`hpwl_per_net`).  The agreement tests swap
  them in at their call sites (:func:`wa_oracle`,
  :func:`raster_oracle`) or call them side by side, and require
  ``atol=0`` agreement of the public function's output;
* **loop oracles** -- one-item-at-a-time formulations of the vectorized
  kernels (charge rasterization, Alg. 1 virtual cells and gradients,
  Alg. 2 multi-pin selection, the router's bend search) written
  straight from their definitions: no CSR tricks, no prefix sums, no
  padded sample matrices.  Selections must agree exactly; sums, whose
  order differs, agree to a tight relative tolerance.

Both are used by ``tests/test_kernel_oracles.py`` and
``tests/test_property_kernels.py``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.density.rasterize import CellRasterizer
from repro.wirelength import wa


def _segment_sums(values: np.ndarray, seg_ids: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum ``values`` grouped by ``seg_ids`` (already net-sorted pins)."""
    return np.bincount(seg_ids, weights=values, minlength=n_segments)


def axis_wa(
    coords: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    seg_of_ordered: np.ndarray,
    degrees: np.ndarray,
    gamma: float,
    n_nets: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-net WA wirelength and per-pin gradient along one axis.

    Returns ``(wl_per_net, grad_per_pin)`` where ``grad_per_pin`` is in
    original pin order.
    """
    c = coords[order]
    safe_starts = np.minimum(starts, max(len(order) - 1, 0))
    if len(order):
        mx = np.maximum.reduceat(c, safe_starts)
        mn = np.minimum.reduceat(c, safe_starts)
    else:
        mx = np.zeros(n_nets)
        mn = np.zeros(n_nets)

    a = np.exp((c - mx[seg_of_ordered]) / gamma)
    b = np.exp(-(c - mn[seg_of_ordered]) / gamma)

    s_plus = _segment_sums(a, seg_of_ordered, n_nets)
    p_plus = _segment_sums(c * a, seg_of_ordered, n_nets)
    s_minus = _segment_sums(b, seg_of_ordered, n_nets)
    p_minus = _segment_sums(c * b, seg_of_ordered, n_nets)

    valid = degrees >= 2
    s_plus_safe = np.where(s_plus > 0, s_plus, 1.0)
    s_minus_safe = np.where(s_minus > 0, s_minus, 1.0)
    wa_plus = p_plus / s_plus_safe
    wa_minus = p_minus / s_minus_safe
    wl = np.where(valid, wa_plus - wa_minus, 0.0)

    grad_plus = a * (1.0 + (c - wa_plus[seg_of_ordered]) / gamma) / s_plus_safe[seg_of_ordered]
    grad_minus = b * (1.0 - (c - wa_minus[seg_of_ordered]) / gamma) / s_minus_safe[seg_of_ordered]
    grad_ordered = np.where(valid[seg_of_ordered], grad_plus - grad_minus, 0.0)

    grad = np.zeros_like(grad_ordered)
    grad[order] = grad_ordered
    return wl, grad


def _axis_wa_at_call_site(coords, struct, gamma):
    """:func:`axis_wa` behind the call-site signature of ``wa._axis_wa``."""
    return axis_wa(
        coords, struct.order, struct.starts, struct.seg, struct.degrees,
        gamma, struct.n_nets,
    )


def wa_oracle():
    """Context manager routing ``wa_wirelength_and_grad`` through :func:`axis_wa`."""
    return mock.patch.object(wa, "_axis_wa", _axis_wa_at_call_site)


def small_overlaps(raster):
    """Chunked di/dj form of ``CellRasterizer._build_small_overlaps``.

    Entries are ordered di outer, dj inner, cells within; the y overlap
    is recomputed for every (di, dj) chunk.  Also records the cell of
    every entry for :func:`gather`.
    """
    ids = raster._small_ids
    if len(ids) == 0:
        return np.empty(0, dtype=np.int64), np.empty((0,), dtype=np.float64)
    g = raster.grid
    i0 = raster._i0[ids]
    j0 = raster._j0[ids]
    kx = int((raster._i1[ids] - i0).max()) + 1
    ky = int((raster._j1[ids] - j0).max()) + 1

    idx_chunks = []
    w_chunks = []
    scale = raster._scale[ids]
    for di in range(kx):
        lx = raster._overlap_1d(
            raster._xlo[ids], raster._xhi[ids], g.region.xlo, g.dx, i0, di
        )
        col = np.clip(i0 + di, 0, g.nx - 1)
        for dj in range(ky):
            ly = raster._overlap_1d(
                raster._ylo[ids], raster._yhi[ids], g.region.ylo, g.dy, j0, dj
            )
            row = np.clip(j0 + dj, 0, g.ny - 1)
            idx_chunks.append(col * g.ny + row)
            w_chunks.append(lx * ly * scale)
    raster._small_cell_of_entry = np.tile(ids, kx * ky)
    return np.concatenate(idx_chunks), np.concatenate(w_chunks)


def gather(raster, field):
    """``CellRasterizer.gather`` as one bincount over the entries."""
    g = raster.grid
    if field.shape != g.shape:
        raise ValueError(f"field shape {field.shape} != grid {g.shape}")
    if len(raster._bin_idx):
        flat = field.reshape(-1)
        out = np.bincount(
            raster._small_cell_of_entry,
            weights=raster._weights * flat[raster._bin_idx],
            minlength=raster.n,
        )
    else:
        out = np.zeros(raster.n, dtype=np.float64)
    for cid in raster._large_ids:
        i, j, w = raster._cell_bin_overlaps(cid)
        out[cid] = float((w * field[np.ix_(i, j)]).sum())
    return out


@contextlib.contextmanager
def raster_oracle():
    """Context manager routing :class:`CellRasterizer` through
    :func:`small_overlaps` and :func:`gather`."""
    with mock.patch.object(CellRasterizer, "_build_small_overlaps", small_overlaps), \
            mock.patch.object(CellRasterizer, "gather", gather):
        yield


def hpwl_per_net(netlist, net_weights=None) -> np.ndarray:
    """Per-net HPWL via ``np.{maximum,minimum}.reduceat``.

    The reduceat runs over the starts of the non-empty nets only: they
    partition the net-sorted pins exactly, because empty nets own no
    pins.
    """
    if netlist.n_nets == 0:
        return np.zeros(0, dtype=np.float64)
    px, py = netlist.pin_positions()
    order = netlist.net_pin_order
    starts = netlist.net_pin_starts[:-1]
    degrees = netlist.net_degrees()

    ox = px[order]
    oy = py[order]
    wl = np.zeros(netlist.n_nets, dtype=np.float64)
    nonempty = degrees > 0
    if nonempty.any():
        idx = starts[nonempty]
        xspan = np.maximum.reduceat(ox, idx) - np.minimum.reduceat(ox, idx)
        yspan = np.maximum.reduceat(oy, idx) - np.minimum.reduceat(oy, idx)
        wl[nonempty] = xspan + yspan
    wl[degrees < 2] = 0.0
    if net_weights is not None:
        wl = wl * net_weights
    return wl


def exact(got, want) -> bool:
    """Bitwise equality of two arrays, shapes included."""
    got = np.asarray(got)
    want = np.asarray(want)
    return got.shape == want.shape and bool(np.array_equal(got, want))



# ----------------------------------------------------------------------
# loop oracles
# ----------------------------------------------------------------------
def raster_weights(grid, x, y, width, height, smooth=True) -> np.ndarray:
    """Charge of every cell in every bin, shape ``(n_cells, nx, ny)``.

    Brute force over the whole grid: each cell rectangle (ePlace-
    stretched to at least sqrt(2) bins when ``smooth``, then clipped to
    the region) is intersected with every bin, and the overlap area is
    scaled so the cell's charge equals its true area.
    """
    r = grid.region
    out = np.zeros((len(x), grid.nx, grid.ny))
    for c in range(len(x)):
        w, h = float(width[c]), float(height[c])
        if smooth:
            w_eff = max(w, np.sqrt(2.0) * grid.dx)
            h_eff = max(h, np.sqrt(2.0) * grid.dy)
        else:
            w_eff, h_eff = w, h
        scale = w * h / (w_eff * h_eff) if w_eff * h_eff > 0 else 0.0
        xlo = min(max(x[c] - 0.5 * w_eff, r.xlo), r.xhi)
        xhi = min(max(x[c] + 0.5 * w_eff, r.xlo), r.xhi)
        ylo = min(max(y[c] - 0.5 * h_eff, r.ylo), r.yhi)
        yhi = min(max(y[c] + 0.5 * h_eff, r.ylo), r.yhi)
        for i in range(grid.nx):
            bx = r.xlo + i * grid.dx
            lx = max(0.0, min(xhi, bx + grid.dx) - max(xlo, bx))
            if lx == 0.0:
                continue
            for j in range(grid.ny):
                by = r.ylo + j * grid.dy
                ly = max(0.0, min(yhi, by + grid.dy) - max(ylo, by))
                out[c, i, j] = lx * ly * scale
    return out


def virtual_cells(netlist, grid, congestion, max_samples, min_congestion):
    """Eq. (6)-(8) net by net: ``(xv, yv, cbest, active)`` per two-pin net.

    Each net gets ``k`` interior samples at ``t = s / (k + 1)``, ``k``
    the number of G-cells it traverses (clamped to ``[1,
    max_samples]``); the virtual cell is the first sample of highest
    congestion.
    """
    px, py = netlist.pin_positions()
    xv, yv, cbest, active = [], [], [], []
    for net in range(netlist.n_nets):
        pins = netlist.net_pins(net)
        if len(pins) != 2:
            continue
        x1, y1 = float(px[pins[0]]), float(py[pins[0]])
        x2, y2 = float(px[pins[1]]), float(py[pins[1]])
        k = int(max(np.floor(abs(x1 - x2) / grid.dx), np.floor(abs(y1 - y2) / grid.dy)))
        k = min(max(k, 1), max_samples)
        best = None
        for s in range(1, k + 1):
            t = s / (k + 1.0)
            sx = x1 + t * (x2 - x1)
            sy = y1 + t * (y2 - y1)
            value = float(congestion[grid.index_of(sx, sy)])
            if best is None or value > best[2]:
                best = (sx, sy, value)
        xv.append(best[0])
        yv.append(best[1])
        cbest.append(best[2])
        active.append(best[2] > min_congestion)
    return np.array(xv), np.array(yv), np.array(cbest), np.array(active, dtype=bool)


def two_pin_gradients(netlist, grid, congestion, field, virtual_area, cfg):
    """Alg. 1 net by net: per-cell ``(grad_x, grad_y)``.

    For every active two-pin net on two distinct cells, the virtual
    cell's field gradient is projected onto the segment normal and each
    endpoint cell receives it scaled by ``min(L / (2 d_iv), max_scale)``
    (Eq. 9).  Fixed cells get zero.
    """
    xv, yv, _, active = virtual_cells(
        netlist, grid, congestion, cfg.max_samples, cfg.min_congestion
    )
    px, py = netlist.pin_positions()
    gx_all = np.zeros(netlist.n_cells)
    gy_all = np.zeros(netlist.n_cells)
    two_pin = [n for n in range(netlist.n_nets) if len(netlist.net_pins(n)) == 2]
    for k, net in enumerate(two_pin):
        p1, p2 = netlist.net_pins(net)
        c1, c2 = int(netlist.pin_cell[p1]), int(netlist.pin_cell[p2])
        if not active[k] or c1 == c2:
            continue
        gvx, gvy = field.gradient_at(np.array([xv[k]]), np.array([yv[k]]), virtual_area)
        gvx, gvy = float(gvx[0]), float(gvy[0])
        dx, dy = px[p2] - px[p1], py[p2] - py[p1]
        length = float(np.hypot(dx, dy))
        nx, ny = -dy / max(length, 1e-12), dx / max(length, 1e-12)
        dot = gvx * nx + gvy * ny  # sign of the normal cancels here
        for pin, cell in ((p1, c1), (p2, c2)):
            d = float(np.hypot(xv[k] - px[pin], yv[k] - py[pin]))
            scale = min(length / (2.0 * max(d, 1e-12)), cfg.max_scale)
            gx_all[cell] += scale * dot * nx
            gy_all[cell] += scale * dot * ny
    gx_all[netlist.cell_fixed] = 0.0
    gy_all[netlist.cell_fixed] = 0.0
    return gx_all, gy_all


def multi_pin_selection(netlist, grid, congestion, threshold) -> np.ndarray:
    """Alg. 2 lines 9-11 cell by cell: movable, above-average pin count,
    on a G-cell whose congestion exceeds ``threshold``."""
    counts = [len(netlist.cell_pins(c)) for c in range(netlist.n_cells)]
    n_bar = sum(counts) / len(counts)
    return np.array(
        [
            counts[c] > n_bar
            and not netlist.cell_fixed[c]
            and congestion[grid.index_of(float(netlist.x[c]), float(netlist.y[c]))] > threshold
            for c in range(netlist.n_cells)
        ],
        dtype=bool,
    )


def best_pattern_cost(h_cost, v_cost, i1, j1, i2, j2, via_cost, margin) -> float:
    """Cheapest L/Z route between two G-cells by exhaustive search.

    Tries every HVH bend column and every VHV bend row within
    ``margin`` of the segment's bounding box; a run's cost is the sum
    of the cost map over the G-cells it covers (both ends included) and
    each bend adds ``via_cost``.
    """
    nx, ny = h_cost.shape

    def h_run(j, a, b):
        return sum(h_cost[i, j] for i in range(min(a, b), max(a, b) + 1))

    def v_run(i, a, b):
        return sum(v_cost[i, j] for j in range(min(a, b), max(a, b) + 1))

    if (i1, j1) == (i2, j2):
        return 0.0
    if j1 == j2:
        return h_run(j1, i1, i2)
    if i1 == i2:
        return v_run(i1, j1, j2)
    costs = []
    for m in range(max(min(i1, i2) - margin, 0), min(max(i1, i2) + margin, nx - 1) + 1):
        costs.append(
            h_run(j1, i1, m) + v_run(m, j1, j2) + h_run(j2, m, i2)
            + via_cost * ((m != i1) + (m != i2))
        )
    for r in range(max(min(j1, j2) - margin, 0), min(max(j1, j2) + margin, ny - 1) + 1):
        costs.append(
            v_run(i1, j1, r) + h_run(r, i1, i2) + v_run(i2, r, j2)
            + via_cost * ((r != j1) + (r != j2))
        )
    return min(costs)
