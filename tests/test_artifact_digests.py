"""The cell comparison of tools/artifact_digests.py on small CSV and SVG texts."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
_SPEC = importlib.util.spec_from_file_location("artifact_digests", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)

OLD = "k,f\n#seed,0\n0,1.0\n1,0.5\n2,0.25\n"


def test_identical_texts_move_no_cell():
    assert digests.cell_moves(OLD, OLD) == (0, 0.0)


def test_moved_cells_are_counted_with_their_largest_relative_move():
    new = "k,f\n#seed,0\n0,1.0000000000000002\n1,0.5\n2,0.2500000000000001\n"
    moved, largest = digests.cell_moves(OLD, new)
    assert moved == 2
    assert largest == pytest.approx(abs(0.2500000000000001 - 0.25) / 0.25, rel=1e-12)


@pytest.mark.parametrize("new, moved", [
    ("k,f\n#seed,1\n0,1.0\n1,0.5\n2,0.25\n", 1),      # a comment cell
    ("k,f\n#seed,0\n0,1.0\n1,0.5\n2,nan\n", 1),       # a number turned NaN
    ("k,f\n#seed,0\n0,1.0\n1,0.5\n", 2),              # a row missing
    ("k,f\n#seed,0\n0,1.0\n1,0.5\n2,0.25,x\n", 1),    # a cell added
])
def test_a_cell_that_is_not_a_number_on_both_sides_moves_by_inf(new, moved):
    assert digests.cell_moves(OLD, new) == (moved, math.inf)


def test_a_cell_moving_off_zero_moves_by_inf():
    assert digests.cell_moves("x\n0.0\n", "x\n1e-300\n") == (1, math.inf)


SVG = ('<svg xmlns="http://www.w3.org/2000/svg">\n<!--\ndata\nexact mu=0.1,0.0,1.0\n'
       'exact mu=0.1,0.1,0.5\n-->\n<polyline points="80.000,60.000 880.000,560.000"/>\n</svg>\n')


def test_an_svg_moves_by_the_rows_of_its_data_comment():
    new = SVG.replace("0.1,0.5\n", "0.1,0.5000000000000001\n").replace("560.000", "560.001")
    moved, largest = digests.label_moves("momentum/momentum_dynamics.svg", SVG, new)
    assert moved == 1
    assert largest == pytest.approx(abs(0.5000000000000001 - 0.5) / 0.5, rel=1e-12)
    # the drawing alone moved: no data cell did
    assert digests.label_moves("x.svg", SVG, SVG.replace("560.000", "560.001")) == (0, 0.0)


def test_a_csv_label_moves_by_its_cells_and_another_label_has_no_cells():
    assert digests.label_moves("x.csv", OLD, OLD.replace("0.25", "0.5")) == (1, 1.0)
    assert digests.label_moves("figures-t1/stdout", "a\n", "b\n") is None
