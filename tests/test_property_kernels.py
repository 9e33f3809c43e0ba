"""Hypothesis properties: hot kernels agree with their oracles on random scenes.

``tests/test_kernel_oracles.py`` pins frozen scenarios; this module
lets hypothesis hunt for a scene where the restructured WA kernel
diverges from the plain-numpy oracle, or the charge rasterizer and the
Alg. 1 virtual-cell search from their loop oracles
(:mod:`tests.kernel_oracles`).
Scenes deliberately include the degenerate structure the column sweep
is most sensitive to:

* **same-cell nets** -- both pins on one cell, so per-net max == min and
  the shifted exponentials all collapse to ``e^0``;
* **fixed cells** -- which must receive exactly zero gradient;
* **single-pin nets** -- degree < 2 nets interleaved between real ones,
  shifting the CSR segment boundaries (the regime where the oracle's
  ``reduceat`` start-clamp quirk is live).

WA, the raster stencil against its chunked build, HPWL against
``reduceat`` and virtual-cell selection agree bit for bit; charge sums
against the brute-force loop oracle agree to ``rtol=1e-12``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netmove import NetMoveConfig, virtual_cell_positions
from repro.density.rasterize import CellRasterizer
from repro.geometry import Grid2D, Rect
from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec
from repro.wirelength.hpwl import hpwl_per_net
from repro.wirelength.wa import wa_wirelength_and_grad
from tests import kernel_oracles
from tests.kernel_oracles import (
    exact,
    raster_oracle,
    raster_weights,
    virtual_cells,
    wa_oracle,
)


def _scene(positions, fixed_mask, tail=()):
    """Random 8-cell scene with degenerate nets mixed into the CSR.

    Cells land anywhere on (and slightly past) the die; nets cover
    two-pin, same-cell two-pin, single-pin and a hub net over every
    cell.  ``tail`` appends one net per entry with that many pins (0-3,
    on cells 5-7), so the CSR may end in empty nets.
    """
    die = Rect(0.0, 0.0, 12.0, 12.0)
    cells = []
    n = len(positions) // 2
    for k in range(n):
        x = die.xlo + 13.0 * positions[2 * k] - 0.5
        y = die.ylo + 13.0 * positions[2 * k + 1] - 0.5
        cells.append(
            CellSpec(
                f"c{k}", 0.75, 0.5, x=x, y=y, fixed=bool(fixed_mask[k])
            )
        )
    nets = [
        NetSpec("pair01", [PinSpec("c0", 0.1, 0.0), PinSpec("c1", -0.1, 0.0)]),
        # degenerate: both pins on the same cell (max == min per axis)
        NetSpec("same2", [PinSpec("c2"), PinSpec("c2", 0.05, -0.05)]),
        # degree-1 net between real ones shifts every later CSR start
        NetSpec("lone3", [PinSpec("c3")]),
        NetSpec("pair45", [PinSpec("c4"), PinSpec("c5", 0.0, 0.2)]),
        NetSpec("hub", [PinSpec(f"c{k}") for k in range(n)]),
        # trailing degree-1 net: starts[-1] near the pin-count boundary,
        # the regime the reference reduceat clamp actually changes
        NetSpec("tail", [PinSpec("c6")]),
    ]
    nets += [
        NetSpec(f"t{k}", [PinSpec(f"c{5 + j}", 0.1 * j) for j in range(d)])
        for k, d in enumerate(tail)
    ]
    return Netlist.from_specs("prop", die, cells, nets)


coords16 = st.lists(
    st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=16, max_size=16
)
fixed8 = st.lists(st.booleans(), min_size=8, max_size=8)
gammas = st.floats(0.05, 8.0, allow_nan=False)


class TestOracleAgreement:
    @given(positions=coords16, fixed_mask=fixed8, gamma=gammas)
    @settings(max_examples=60, deadline=None)
    def test_wa_wirelength_and_grad(self, positions, fixed_mask, gamma):
        netlist = _scene(positions, fixed_mask)
        with wa_oracle():
            ref = wa_wirelength_and_grad(netlist, gamma)
        wl, gx, gy = wa_wirelength_and_grad(netlist, gamma)
        assert wl == ref[0]
        assert exact(gx, ref[1])
        assert exact(gy, ref[2])
        assert np.all(gx[netlist.cell_fixed] == 0.0)
        assert np.all(gy[netlist.cell_fixed] == 0.0)

    @given(positions=coords16, fixed_mask=fixed8)
    @settings(max_examples=30, deadline=None)
    def test_rasterized_density(self, positions, fixed_mask):
        netlist = _scene(positions, fixed_mask)
        grid = Grid2D(netlist.die, 12, 12)
        args = (grid, netlist.x, netlist.y, netlist.cell_width, netlist.cell_height)
        raster = CellRasterizer(*args)
        weights = raster_weights(*args)
        charge = weights.sum(axis=0)
        field = np.sin(charge)
        np.testing.assert_allclose(raster.charge_map(), charge, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            raster.gather(field), (weights * field[None]).sum(axis=(1, 2)),
            rtol=1e-12, atol=1e-14,
        )

    @given(
        rects=st.lists(
            st.tuples(
                st.floats(-2.0, 18.0), st.floats(-2.0, 10.0),
                st.floats(0.0, 9.0), st.floats(0.0, 5.0),
            ),
            max_size=24,
        ),
        shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        smooth=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_raster_stencil_exact(self, rects, shape, smooth):
        """Any mix of sub-bin cells, off-die cells and macros wider than
        the vector span gives the chunked build's bits."""
        grid = Grid2D(Rect(0.0, 0.0, 16.0, 8.0), *shape)
        x, y, w, h = np.array(rects, dtype=float).reshape(-1, 4).T
        field = np.cos(np.arange(grid.nx * grid.ny, dtype=float)).reshape(grid.shape)
        with raster_oracle():
            ref = CellRasterizer(grid, x, y, w, h, smooth=smooth)
            want = (ref.charge_map(), ref.gather(field), ref.total_charge())
        raster = CellRasterizer(grid, x, y, w, h, smooth=smooth)
        assert exact(raster.charge_map(), want[0])
        assert exact(raster.gather(field), want[1])
        assert raster.total_charge() == want[2]

    @given(
        positions=coords16,
        fixed_mask=fixed8,
        tail=st.lists(st.integers(0, 3), max_size=3),
        last=st.integers(1, 3),
        empty_after=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_hpwl_exact(self, positions, fixed_mask, tail, last, empty_after):
        """Degree-0/1 nets anywhere; the last real net (of degree
        ``last``) may be followed by empty nets."""
        netlist = _scene(positions, fixed_mask, tail + [last] + [0] * empty_after)
        assert exact(hpwl_per_net(netlist), kernel_oracles.hpwl_per_net(netlist))

    @given(
        positions=coords16,
        fixed_mask=fixed8,
        congestion=st.lists(
            st.floats(0.0, 2.0, allow_nan=False), min_size=64, max_size=64
        ),
        max_samples=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_virtual_cell_positions(self, positions, fixed_mask, congestion, max_samples):
        netlist = _scene(positions, fixed_mask)
        grid = Grid2D(netlist.die, 8, 8)
        cmap = np.array(congestion).reshape(8, 8)
        cfg = NetMoveConfig(max_samples=max_samples, min_congestion=0.5)
        info = virtual_cell_positions(netlist, grid, cmap, cfg)
        xv, yv, cbest, active = virtual_cells(
            netlist, grid, cmap, max_samples, cfg.min_congestion
        )
        assert exact(info["xv"], xv)
        assert exact(info["yv"], yv)
        assert exact(info["congestion"], cbest)
        assert exact(info["active"], active)
