"""Spectral solver for Poisson's equation with Neumann boundaries.

Solves Eq. (1) of the paper on a uniform grid::

    laplacian(psi) = -rho   in R,
    n . grad(psi)  = 0      on dR,
    integral(rho) = integral(psi) = 0

following ePlace [15]: expand ``rho`` in the cosine basis (DCT-II over
bin centers, which satisfies the Neumann condition), divide by the
Laplacian eigenvalues ``w_u^2 + w_v^2`` and transform back.  The
electric field ``E = -grad(psi)`` is obtained by spectral
differentiation: the x-derivative of the cosine basis is a sine series,
evaluated by a DST-III based "IDXST" transform.

All transforms use unnormalized scipy conventions; correctness of the
bookkeeping is pinned by tests against a brute-force basis evaluation
and against finite differences.

Two code paths produce **bit-identical** results (asserted by
``tests/test_spectral_workspace.py`` at ``atol=0``):

* the *reference* path — the original straight-line implementation,
  kept as :meth:`PoissonSolver.solve_reference` for equivalence tests
  and before/after benchmarking;
* the *workspace* path — :class:`SpectralWorkspace`, one cached
  instance per grid geometry, which memoizes the eigenvalue
  denominators, reuses preallocated scratch buffers for every
  elementwise step (the transforms' outputs are the only per-solve
  allocations, and two of them *are* the returned arrays), and
  optionally fans the 1-D transforms out over ``scipy.fft`` worker
  threads.

Every fusion trick in the workspace preserves the exact floating-point
operation sequence of the reference: ``out=`` variants of the same
ufuncs, slice copies instead of ``np.roll``, in-place division into
scipy-owned output arrays.  Nothing reorders a reduction or merges a
transform, which is why the golden suite passes unchanged.  Each stage
runs in the reference's own layout (one ``dctn`` forward, the x-field
DST along axis 0, the y-field IDCT along axis 0): transposed layouts
of the same transforms are bitwise equal but measured no faster on the
flow's grids, where the Poisson step is ~5% of a routability run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from repro.geometry.grid import Grid2D

# The workspace path calls straight into scipy's pocketfft backend when
# available, skipping the public API's uarray dispatch layer (~8us per
# call — a measurable slice of a small-grid solve that issues seven
# transforms).  The backend functions are the exact implementations the
# public wrappers dispatch to, so results are bitwise unchanged; the
# reference path keeps the public API either way.
try:  # pragma: no cover — depends on scipy internals
    from scipy.fft._pocketfft.realtransforms import dctn as _dctn
    from scipy.fft._pocketfft.realtransforms import dst as _dst
    from scipy.fft._pocketfft.realtransforms import idct as _idct
    from scipy.fft._pocketfft.realtransforms import idctn as _idctn
except ImportError:  # pragma: no cover — scipy moved its internals
    _dctn, _dst, _idct, _idctn = sfft.dctn, sfft.dst, sfft.idct, sfft.idctn


def _idxst(coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Inverse sine transform matching scipy's unnormalized ``idct``.

    Given DCT-style coefficients ``c`` along ``axis``, returns::

        out[i] = (1/M) * sum_{u=1}^{M-1} c[u] sin(pi u (2i+1) / (2M))

    which is exactly the series obtained by differentiating the
    ``idct``-normalized cosine expansion term-by-term (the ``u = 0``
    term vanishes).
    """
    m = coeffs.shape[axis]
    shifted = np.roll(coeffs, -1, axis=axis)
    # zero the (now trailing) former u=0 slot
    idx = [slice(None)] * coeffs.ndim
    idx[axis] = m - 1
    shifted[tuple(idx)] = 0.0
    return sfft.dst(shifted, type=3, axis=axis) / (2.0 * m)


class SpectralWorkspace:
    """Reusable spectral scratch space bound to one grid geometry.

    Holds everything a Poisson solve needs that does not depend on the
    charge map: the Laplacian eigenvalue denominators ``w_u^2 + w_v^2``
    (the expensive part of solver construction), the frequency row and
    column vectors, and six preallocated scratch arrays for the
    elementwise stages between transforms.  One workspace per grid
    geometry is cached process-wide (:meth:`for_grid`), so the density
    engine and the per-round congestion field share buffers instead of
    each reallocating and recomputing them.

    Thread safety: a workspace's scratch buffers make :meth:`solve`
    non-reentrant.  The flow is single-threaded per process (the
    parallel experiment runner isolates designs in worker *processes*),
    so this costs nothing; callers that do want concurrent solves on
    one grid must construct private instances instead of
    :meth:`for_grid`.

    Parameters
    ----------
    nx, ny:
        Grid dimensions (bins).
    dx, dy:
        Bin pitches.  Together with ``nx``/``ny`` they form the cache
        key: two grids with equal geometry share one workspace.
    """

    def __init__(self, nx: int, ny: int, dx: float, dy: float) -> None:
        self.key = (nx, ny, float(dx), float(dy))
        self.shape = (nx, ny)
        wu = np.pi * np.arange(nx) / (nx * dx)
        wv = np.pi * np.arange(ny) / (ny * dy)
        self._wu = wu[:, None]
        self._wv = wv[None, :]
        denom = self._wu**2 + self._wv**2
        denom[0, 0] = 1.0  # the DC mode is projected out, value unused
        self._inv_denom = 1.0 / denom
        # scratch for the elementwise stages; reused across solves
        self._bal = np.empty((nx, ny))
        self._coef = np.empty((nx, ny))
        self._cx = np.empty((nx, ny))
        self._cy = np.empty((nx, ny))
        self._shift_x = np.empty((nx, ny))
        self._shift_y = np.empty((nx, ny))
        self.n_solves = 0

    # ------------------------------------------------------------- cache
    @classmethod
    def for_grid(cls, grid: Grid2D) -> "SpectralWorkspace":
        """Return the process-wide cached workspace for ``grid``.

        The cache is keyed on ``(nx, ny, dx, dy)``; distinct grid
        objects with equal geometry (e.g. the placement grid rebuilt
        each round) resolve to the same workspace, so denominators and
        scratch are computed once per process and shape.
        """
        key = (grid.nx, grid.ny, float(grid.dx), float(grid.dy))
        ws = _WORKSPACES.get(key)
        if ws is None:
            ws = _WORKSPACES[key] = cls(grid.nx, grid.ny, grid.dx, grid.dy)
        return ws

    # ------------------------------------------------------------- solve
    def solve(
        self, rho: np.ndarray, workers: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve Eq. (1) for ``rho``; returns fresh ``(psi, ex, ey)``.

        Bit-identical to :meth:`PoissonSolver.solve_reference` — same
        transforms, same ufuncs, same operation order — but every
        elementwise intermediate lands in workspace scratch, and the
        transforms whose outputs feed straight back into scratch run
        in-place (``overwrite_x=True``; scipy then returns the input
        buffer itself).  Only the returned arrays allocate:
        ``psi``/``ex``/``ey`` are fresh and owned by the caller —
        deliberately **not** aliased to scratch, so a later solve on
        the same workspace never mutates them (asserted by the
        cache-reuse test).

        ``workers`` is forwarded to ``scipy.fft`` and parallelizes the
        independent 1-D transforms across threads (identical results —
        each line is computed by the same kernel).  ``None`` keeps
        scipy's single-threaded default.
        """
        if rho.shape != self.shape:
            raise ValueError(f"rho shape {rho.shape} != grid {self.shape}")
        self.n_solves += 1
        nx, ny = self.shape
        np.subtract(rho, rho.mean(), out=self._bal)
        a = _dctn(self._bal, type=2, overwrite_x=True, workers=workers)
        coef = np.multiply(a, self._inv_denom, out=self._coef)
        coef[0, 0] = 0.0

        # E = -grad(psi): differentiating cos(w_u x)cos(w_v y) gives
        # -w_u sin cos (x) and -w_v cos sin (y); the minus signs cancel.
        np.multiply(coef, self._wu, out=self._cx)
        psi = _idctn(coef, type=2, workers=workers)

        bx = _idct(self._cx, type=2, axis=1, overwrite_x=True, workers=workers)
        # IDXST shift: slice copy instead of the reference's np.roll
        self._shift_x[:-1, :] = bx[1:, :]
        self._shift_x[-1, :] = 0.0
        ex = _dst(self._shift_x, type=3, axis=0, workers=workers)
        np.divide(ex, 2.0 * nx, out=ex)

        np.multiply(coef, self._wv, out=self._cy)
        by = _idct(self._cy, type=2, axis=0, overwrite_x=True, workers=workers)
        self._shift_y[:, :-1] = by[:, 1:]
        self._shift_y[:, -1] = 0.0
        ey = _dst(self._shift_y, type=3, axis=1, workers=workers)
        np.divide(ey, 2.0 * ny, out=ey)
        return psi, ex, ey


#: Process-wide workspace cache, keyed on grid geometry.
_WORKSPACES: dict = {}


def clear_spectral_cache() -> None:
    """Drop every cached :class:`SpectralWorkspace` (tests, long runs)."""
    _WORKSPACES.clear()


def spectral_cache_size() -> int:
    """Number of grid geometries currently cached."""
    return len(_WORKSPACES)


@dataclass
class PoissonSolver:
    """Reusable spectral Poisson solver bound to one grid.

    By default delegates to the process-wide cached
    :class:`SpectralWorkspace` for the grid's geometry; construct with
    ``use_workspace=False`` for a self-contained instance running the
    original reference implementation (used by the equivalence tests
    and the before/after benchmark).
    """

    grid: Grid2D
    use_workspace: bool = True
    workers: int | None = None
    _ws: SpectralWorkspace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.use_workspace:
            self._ws = SpectralWorkspace.for_grid(self.grid)
        else:
            g = self.grid
            self._ws = SpectralWorkspace(g.nx, g.ny, g.dx, g.dy)
        # kept as attributes for the reference path and introspection
        self._wu = self._ws._wu
        self._wv = self._ws._wv
        self._inv_denom = self._ws._inv_denom

    def solve(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve for potential and field.

        Parameters
        ----------
        rho:
            Charge density map of the grid's shape.  Its mean is
            removed internally (compatibility condition of Eq. 1).

        Returns
        -------
        (psi, ex, ey):
            Potential and the field components ``E = -grad(psi)``,
            all of the grid's shape.  ``psi`` has zero mean.
        """
        if self.use_workspace:
            return self._ws.solve(rho, workers=self.workers)
        return self.solve_reference(rho)

    def solve_reference(
        self, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Original straight-line solve (fresh temporaries every call).

        The numeric ground truth the workspace path is pinned against:
        ``tests/test_spectral_workspace.py`` asserts exact (``atol=0``)
        agreement, and ``scripts/bench_spectral.py`` uses it as the
        "before" timing.
        """
        if rho.shape != self.grid.shape:
            raise ValueError(f"rho shape {rho.shape} != grid {self.grid.shape}")
        balanced = rho - rho.mean()
        a = sfft.dctn(balanced, type=2)
        coef = a * self._inv_denom
        coef[0, 0] = 0.0
        psi = sfft.idctn(coef, type=2)

        # E = -grad(psi): differentiating cos(w_u x)cos(w_v y) gives
        # -w_u sin cos (x) and -w_v cos sin (y); the minus signs cancel.
        cx = coef * self._wu
        cy = coef * self._wv
        ex = _idxst(sfft.idct(cx, type=2, axis=1), axis=0)
        ey = _idxst(sfft.idct(cy, type=2, axis=0), axis=1)
        return psi, ex, ey


def solve_poisson_fd(grid: Grid2D, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference solve: spectral potential + finite-difference field.

    Used in tests to cross-check the spectral differentiation path.
    """
    psi, _, _ = PoissonSolver(grid).solve(rho)
    gy, gx = None, None
    gx, gy = np.gradient(psi, grid.dx, grid.dy, edge_order=2)
    return psi, -gx, -gy
