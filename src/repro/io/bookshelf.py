"""Bookshelf-lite design serialization.

Format (line-oriented, ``#`` comments)::

    design <name>
    die <xlo> <ylo> <xhi> <yhi>
    rows <row_height> <site_width>
    cell <name> <width> <height> <x> <y> <flags>   # flags: m=macro f=fixed -
    net <name> <pin_count>
    pin <cell> <offset_x> <offset_y>               # pin_count times
    rail <xlo> <ylo> <xhi> <yhi> <h|v>

All coordinates are cell centers, matching the in-memory convention.

Malformed input raises :class:`BookshelfParseError` naming the source
(file path when known), the 1-based line number, the offending line and
what went wrong — enough to fix the file without reading this parser.
"""

from __future__ import annotations

import io

from repro.geometry.rect import Rect
from repro.netlist.data import CellSpec, NetSpec, PGRailSpec, PinSpec
from repro.netlist.netlist import Netlist


class BookshelfParseError(ValueError):
    """Malformed Bookshelf-lite input, located by source and line."""

    def __init__(self, source: str, line_no: int, line: str, reason: str) -> None:
        self.source = source
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"{source}:{line_no}: {reason} (in line {line!r})")


def dumps_design(netlist: Netlist) -> str:
    """Serialize a netlist to the Bookshelf-lite text format."""
    out = io.StringIO()
    out.write(f"design {netlist.name}\n")
    d = netlist.die
    out.write(f"die {float(d.xlo)!r} {float(d.ylo)!r} {float(d.xhi)!r} {float(d.yhi)!r}\n")
    out.write(f"rows {float(netlist.row_height)!r} {float(netlist.site_width)!r}\n")
    for i in range(netlist.n_cells):
        flags = ""
        if netlist.cell_macro[i]:
            flags += "m"
        if netlist.cell_fixed[i]:
            flags += "f"
        out.write(
            f"cell {netlist.cell_names[i]} {float(netlist.cell_width[i])!r} "
            f"{float(netlist.cell_height[i])!r} {float(netlist.x[i])!r} "
            f"{float(netlist.y[i])!r} {flags or '-'}\n"
        )
    for e in range(netlist.n_nets):
        pins = netlist.net_pins(e)
        out.write(f"net {netlist.net_names[e]} {len(pins)}\n")
        for p in pins:
            out.write(
                f"pin {netlist.cell_names[netlist.pin_cell[p]]} "
                f"{float(netlist.pin_offset_x[p])!r} {float(netlist.pin_offset_y[p])!r}\n"
            )
    for rail in netlist.pg_rails:
        r = rail.rect
        out.write(
            f"rail {float(r.xlo)!r} {float(r.ylo)!r} {float(r.xhi)!r} {float(r.yhi)!r} "
            f"{'h' if rail.horizontal else 'v'}\n"
        )
    return out.getvalue()


def loads_design(text: str, source: str = "<string>") -> Netlist:
    """Parse a Bookshelf-lite string back into a :class:`Netlist`.

    ``source`` names the input in error messages (the file path when
    called through :func:`load_design`).
    """
    name = "design"
    die: Rect | None = None
    row_height, site_width = 1.0, 0.25
    cells: list[CellSpec] = []
    nets: list[NetSpec] = []
    rails: list[PGRailSpec] = []
    pending_net: NetSpec | None = None
    pending_pins = 0
    line_no = 0
    raw = ""

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "pin":
                if pending_net is None or pending_pins <= 0:
                    raise ValueError("pin line outside a net block")
                pending_net.pins.append(
                    PinSpec(tokens[1], float(tokens[2]), float(tokens[3]))
                )
                pending_pins -= 1
                continue
            if pending_pins > 0:
                raise ValueError(
                    f"expected {pending_pins} more pin lines for net {pending_net.name}"
                )
            if kind == "design":
                name = tokens[1]
            elif kind == "die":
                die = Rect(*(float(tokens[k]) for k in range(1, 5)))
            elif kind == "rows":
                row_height, site_width = float(tokens[1]), float(tokens[2])
            elif kind == "cell":
                flags = tokens[6]
                cells.append(
                    CellSpec(
                        name=tokens[1],
                        width=float(tokens[2]),
                        height=float(tokens[3]),
                        x=float(tokens[4]),
                        y=float(tokens[5]),
                        macro="m" in flags,
                        fixed="f" in flags,
                    )
                )
            elif kind == "net":
                pending_net = NetSpec(name=tokens[1])
                pending_pins = int(tokens[2])
                nets.append(pending_net)
            elif kind == "rail":
                rails.append(
                    PGRailSpec(
                        rect=Rect(*(float(tokens[k]) for k in range(1, 5))),
                        horizontal=tokens[5] == "h",
                    )
                )
            else:
                raise ValueError(f"unknown record {kind!r}")
        except IndexError as exc:
            raise BookshelfParseError(
                source, line_no, raw, f"too few fields for {kind!r} record"
            ) from exc
        except ValueError as exc:
            raise BookshelfParseError(source, line_no, raw, str(exc)) from exc

    if pending_pins > 0:
        raise BookshelfParseError(
            source,
            line_no,
            raw,
            f"net {pending_net.name} missing {pending_pins} pins at end of input",
        )
    if die is None:
        raise BookshelfParseError(source, line_no, raw, "missing die record")
    try:
        return Netlist.from_specs(
            name=name,
            die=die,
            cells=cells,
            nets=nets,
            row_height=row_height,
            site_width=site_width,
            pg_rails=rails,
        )
    except ValueError as exc:
        # construction-level inconsistencies (e.g. duplicate cell
        # names, pins naming unknown cells) have no single line — name
        # the source at least
        raise ValueError(f"{source}: {exc}") from exc


def save_design(netlist: Netlist, path: str) -> None:
    """Write a design file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_design(netlist))


def load_design(path: str) -> Netlist:
    """Read a design file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_design(handle.read(), source=path)
