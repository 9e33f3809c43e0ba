"""Charge rasterization: scatter cell rectangles into a bin grid.

Implements the ePlace density model ingredients:

* each cell carries charge equal to its (possibly inflated) area;
* cells narrower/shorter than ``sqrt(2) x`` the bin pitch are stretched
  to that size with the charge preserved (local smoothing), which keeps
  the density function differentiable as cells cross bin boundaries;
* the same overlap weights used for scattering are reused to *gather*
  a field map back onto cells, yielding the electrostatic force
  ``F_i = q_i * average field over the cell footprint``.

Cells spanning few bins (after smoothing, standard cells span at most
3x3) share one ``(kx, ky)`` stencil built in a single broadcast pass:
per-cell x and y overlaps are computed once each and multiplied as
``(kx, ky, n)`` arrays.  The handful of macros and large fixed blocks
take an exact per-cell loop.

A rasterizer is built per set of positions (the electrostatic system
builds one per solve, and that build is part of the solve's own cost).
The size-only terms live in a :class:`Footprint` that the next
rasterizer of the same rectangles reuses, so they are recomputed only
when the sizes change, i.e. when inflation or the filler shrink moves.
Scatter, gather and total charge are bit-identical to the chunked
di/dj build with bincount gather kept in ``tests/kernel_oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.grid import Grid2D

_SQRT2 = math.sqrt(2.0)
_MAX_VECTOR_SPAN = 6  # cells spanning more bins than this go to the slow path


class Footprint:
    """Size-only terms of a set of rectangles on a grid.

    The smoothed half sizes and the charge-preserving scale depend on
    the sizes alone.  A caller that rasterizes the same rectangles at
    many positions keeps the :attr:`CellRasterizer.footprint` of one
    rasterizer and hands it to the next, which rebuilds it only if the
    sizes differ.
    """

    def __init__(
        self, grid: Grid2D, width: np.ndarray, height: np.ndarray, smooth: bool
    ) -> None:
        # copies: :meth:`fits` compares against them, so a caller
        # editing its arrays in place cannot get stale terms back
        width = np.array(width, dtype=np.float64)
        height = np.array(height, dtype=np.float64)
        self.grid, self.width, self.height, self.smooth = grid, width, height, smooth
        if smooth:
            w_eff = np.maximum(width, _SQRT2 * grid.dx)
            h_eff = np.maximum(height, _SQRT2 * grid.dy)
        else:
            w_eff = width
            h_eff = height
        area = width * height
        eff_area = w_eff * h_eff
        # charge-preserving density scale
        self.scale = np.where(eff_area > 0, area / np.maximum(eff_area, 1e-300), 0.0)
        self.half_w = 0.5 * w_eff
        self.half_h = 0.5 * h_eff

    def fits(
        self, grid: Grid2D, width: np.ndarray, height: np.ndarray, smooth: bool
    ) -> bool:
        """Whether these terms are the ones ``(grid, width, height, smooth)`` give."""
        return (
            grid == self.grid
            and smooth == self.smooth
            and np.array_equal(width, self.width)
            and np.array_equal(height, self.height)
        )


class CellRasterizer:
    """Overlap structure of a set of rectangles against a grid.

    Build once per set of positions/sizes, then call :meth:`charge_map`
    and :meth:`gather` any number of times.

    Parameters
    ----------
    grid:
        Target bin grid.
    x, y:
        Rectangle centers.
    width, height:
        Rectangle sizes *before* smoothing.
    smooth:
        Apply the ePlace small-cell stretch (default True).  Disable
        for exact-area accounting (e.g. utilization maps).
    footprint:
        The :attr:`footprint` of an earlier rasterizer of the same
        rectangles; reused when it fits the sizes, rebuilt otherwise.
    """

    def __init__(
        self,
        grid: Grid2D,
        x: np.ndarray,
        y: np.ndarray,
        width: np.ndarray,
        height: np.ndarray,
        smooth: bool = True,
        footprint: Footprint | None = None,
    ) -> None:
        self.grid = grid
        if footprint is None or not footprint.fits(grid, width, height, smooth):
            footprint = Footprint(grid, width, height, smooth)
        self.footprint = footprint
        self.n = len(footprint.width)
        self._scale = footprint.scale

        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        # clip to the region so off-die parts are not dropped silently,
        # they are squeezed to the boundary bins by the clip below.
        r = grid.region
        xlo = np.clip(x - footprint.half_w, r.xlo, r.xhi)
        xhi = np.clip(x + footprint.half_w, r.xlo, r.xhi)
        ylo = np.clip(y - footprint.half_h, r.ylo, r.yhi)
        yhi = np.clip(y + footprint.half_h, r.ylo, r.yhi)
        self._xlo, self._xhi, self._ylo, self._yhi = xlo, xhi, ylo, yhi

        eps = 1e-12
        self._i0 = np.clip(((xlo - r.xlo) / grid.dx).astype(np.int64), 0, grid.nx - 1)
        self._i1 = np.clip(
            np.ceil((xhi - r.xlo) / grid.dx - eps).astype(np.int64) - 1, 0, grid.nx - 1
        )
        self._j0 = np.clip(((ylo - r.ylo) / grid.dy).astype(np.int64), 0, grid.ny - 1)
        self._j1 = np.clip(
            np.ceil((yhi - r.ylo) / grid.dy - eps).astype(np.int64) - 1, 0, grid.ny - 1
        )
        self._i1 = np.maximum(self._i1, self._i0)
        self._j1 = np.maximum(self._j1, self._j0)

        span_x = self._i1 - self._i0 + 1
        span_y = self._j1 - self._j0 + 1
        small = (span_x <= _MAX_VECTOR_SPAN) & (span_y <= _MAX_VECTOR_SPAN)
        self._small_ids = np.flatnonzero(small)
        self._large_ids = np.flatnonzero(~small)

        self._bin_idx, self._weights = self._build_small_overlaps()

    # ------------------------------------------------------------------
    def _overlap_1d(self, lo, hi, base, pitch, k0, offset):
        """Overlap length of [lo, hi] with bin (k0 + offset) along one axis."""
        left = base + (k0 + offset) * pitch
        return np.clip(np.minimum(hi, left + pitch) - np.maximum(lo, left), 0.0, pitch)

    def _build_small_overlaps(self):
        """Flattened bin indices and charge weights for the vectorized set.

        One broadcast pass: the x overlaps ``(kx, n)`` and y overlaps
        ``(ky, n)`` are computed once each and combined as ``(kx, ky,
        n)`` arrays flattened in C order, i.e. entries are ordered di
        outer, dj inner, cells within; the scatter bincount and the
        row sum of :meth:`gather` add in that order.
        """
        ids = self._small_ids
        if len(ids) == 0:
            return np.empty(0, dtype=np.int64), np.empty((0,), dtype=np.float64)
        g = self.grid
        r = g.region
        # all cells small (the common case): views instead of gathers
        sub = slice(None) if len(ids) == self.n else ids
        i0 = self._i0[sub]
        j0 = self._j0[sub]
        kx = int((self._i1[sub] - i0).max()) + 1
        ky = int((self._j1[sub] - j0).max()) + 1

        di = np.arange(kx)[:, None]
        dj = np.arange(ky)[:, None]
        lx = self._overlap_1d(self._xlo[sub], self._xhi[sub], r.xlo, g.dx, i0, di)
        ly = self._overlap_1d(self._ylo[sub], self._yhi[sub], r.ylo, g.dy, j0, dj)
        col = np.clip(i0 + di, 0, g.nx - 1)
        col *= g.ny
        row = np.clip(j0 + dj, 0, g.ny - 1)
        idx = col[:, None, :] + row[None, :, :]
        weights = lx[:, None, :] * ly[None, :, :]
        weights *= self._scale[sub]
        return idx.reshape(-1), weights.reshape(-1)

    # ------------------------------------------------------------------
    def charge_map(self) -> np.ndarray:
        """Total charge per bin (area units), shape = grid shape."""
        g = self.grid
        flat = np.bincount(self._bin_idx, weights=self._weights, minlength=g.nx * g.ny)
        out = flat.astype(np.float64, copy=False).reshape(g.nx, g.ny)
        for cid in self._large_ids:
            self._scatter_large(out, cid)
        return out

    def density_map(self) -> np.ndarray:
        """Charge normalized by bin area (a pure occupancy ratio)."""
        return self.charge_map() / self.grid.bin_area

    def _cell_bin_overlaps(self, cid: int):
        """Exact (i, j, overlap_charge) arrays for one large cell."""
        g = self.grid
        i = np.arange(self._i0[cid], self._i1[cid] + 1)
        j = np.arange(self._j0[cid], self._j1[cid] + 1)
        lx = self._overlap_1d(
            self._xlo[cid], self._xhi[cid], g.region.xlo, g.dx, i, 0
        )
        ly = self._overlap_1d(
            self._ylo[cid], self._yhi[cid], g.region.ylo, g.dy, j, 0
        )
        w = np.outer(lx, ly) * self._scale[cid]
        return i, j, w

    def _scatter_large(self, out: np.ndarray, cid: int) -> None:
        i, j, w = self._cell_bin_overlaps(cid)
        out[np.ix_(i, j)] += w

    # ------------------------------------------------------------------
    def gather(self, field: np.ndarray) -> np.ndarray:
        """Charge-weighted field sum per cell: ``sum_b q_ib * field_b``.

        With ``field`` the electric field map this is the force; with
        the potential map it is twice the cell's electrostatic energy
        contribution.
        """
        g = self.grid
        if field.shape != g.shape:
            raise ValueError(f"field shape {field.shape} != grid {g.shape}")
        ids = self._small_ids
        if len(ids) == 0:
            out = np.zeros(self.n, dtype=np.float64)
        else:
            # per-entry products as (stencil rows, cells), summed row by
            # row from zero: the addition order of a bincount over the
            # entries
            vals = np.take(field.reshape(-1), self._bin_idx)
            vals *= self._weights
            acc = np.zeros(len(ids), dtype=np.float64)
            for row in vals.reshape(-1, len(ids)):
                acc += row
            if len(ids) == self.n:
                out = acc
            else:
                out = np.zeros(self.n, dtype=np.float64)
                out[ids] = acc
        for cid in self._large_ids:
            i, j, w = self._cell_bin_overlaps(cid)
            out[cid] = float((w * field[np.ix_(i, j)]).sum())
        return out

    def total_charge(self) -> float:
        """Sum of all scattered charge (equals total clipped cell area)."""
        total = float(self._weights.sum())
        for cid in self._large_ids:
            _, _, w = self._cell_bin_overlaps(cid)
            total += float(w.sum())
        return total
