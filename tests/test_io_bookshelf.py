"""Round-trip and error tests for the Bookshelf-lite format."""

import numpy as np
import pytest

from repro.io import (
    BookshelfParseError,
    dumps_design,
    load_design,
    loads_design,
    save_design,
)
from repro.netlist import validate_netlist


class TestRoundTrip:
    def test_tiny_roundtrip(self, tiny_netlist):
        text = dumps_design(tiny_netlist)
        back = loads_design(text)
        validate_netlist(back)
        assert back.name == tiny_netlist.name
        assert back.n_cells == tiny_netlist.n_cells
        assert back.n_nets == tiny_netlist.n_nets
        assert np.allclose(back.x, tiny_netlist.x)
        assert np.allclose(back.pin_offset_x, tiny_netlist.pin_offset_x)
        assert list(back.cell_fixed) == list(tiny_netlist.cell_fixed)
        assert list(back.cell_macro) == list(tiny_netlist.cell_macro)

    def test_generated_roundtrip_exact(self, toy120):
        back = loads_design(dumps_design(toy120))
        assert np.array_equal(back.x, toy120.x)
        assert np.array_equal(back.cell_width, toy120.cell_width)
        assert back.net_names == toy120.net_names
        assert len(back.pg_rails) == len(toy120.pg_rails)
        assert back.pg_rails[0].horizontal == toy120.pg_rails[0].horizontal

    def test_file_roundtrip(self, tiny_netlist, tmp_path):
        path = tmp_path / "design.bl"
        save_design(tiny_netlist, str(path))
        back = load_design(str(path))
        assert back.n_pins == tiny_netlist.n_pins

    def test_comments_and_blank_lines(self, tiny_netlist):
        text = "# header comment\n\n" + dumps_design(tiny_netlist) + "\n# trailing\n"
        back = loads_design(text)
        assert back.n_cells == tiny_netlist.n_cells


class TestErrors:
    def test_missing_die(self):
        with pytest.raises(ValueError, match="die"):
            loads_design("design d\n")

    def test_unknown_record(self):
        with pytest.raises(BookshelfParseError, match=r"<string>:2"):
            loads_design("die 0 0 1 1\nbogus stuff\n")

    def test_pin_outside_net(self):
        with pytest.raises(BookshelfParseError, match="outside a net block"):
            loads_design("die 0 0 1 1\npin a 0 0\n")

    def test_missing_pins(self):
        text = "die 0 0 4 4\ncell a 1 1 1 1 -\nnet n 2\npin a 0 0\n"
        with pytest.raises(ValueError, match="missing"):
            loads_design(text)

    def test_truncated_cell_line(self):
        for text, line_no in (
            ("die 0 0 4 4\ncell a 1 1\n", 2),
            ("die 0 0 4\n", 1),
            ("die 0 0 4 4\nrail 0 0 4\n", 2),
        ):
            with pytest.raises(BookshelfParseError, match="too few fields") as info:
                loads_design(text, source="cut.bl")
            assert f"cut.bl:{line_no}" in str(info.value)

    def test_error_locates_line_and_content(self):
        with pytest.raises(BookshelfParseError) as info:
            loads_design("die 0 0 4 4\ncell a 1 1 oops 1 -\n", source="bad.bl")
        err = info.value
        assert err.source == "bad.bl"
        assert err.line_no == 2
        assert "cell a 1 1 oops 1 -" in str(err)
        assert "bad.bl:2" in str(err)

    def test_load_design_names_the_file(self, tmp_path):
        path = tmp_path / "broken.bl"
        path.write_text("die 0 0 4 4\ncell a 1 1\n")
        with pytest.raises(BookshelfParseError, match="broken.bl:2"):
            load_design(str(path))

    def test_duplicate_cells_name_source(self):
        text = "die 0 0 4 4\ncell a 1 1 1 1 -\ncell a 1 1 2 2 -\n"
        with pytest.raises(ValueError, match="<string>.*duplicate"):
            loads_design(text)
