"""The CSV writers' number format: shortest round-trip repr, re before im."""

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.output import write_complex_grid_csv, write_matrix_csv, write_samples_csv
from focklab.toeplitz import OperatorMatrix

ODD = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, float("nan")]


def _line(*values):
    return ",".join(repr(float(v)) for v in values)


def test_matrix_csv_pins_the_format(tmp_path):
    a, b, c, d, e, f = ODD
    entries = np.array([[complex(a, b), complex(c, d)], [complex(e, f), complex(f, a)]])
    matrix_path, legend_path = write_matrix_csv(OperatorMatrix(enumerate_basis(1, 1), entries), tmp_path / "t")
    assert matrix_path.read_text() == "\n".join([_line(a, b, c, d), _line(e, f, f, a)]) + "\n"
    assert legend_path.read_text() == "position,degree,multi_index\n0,0,0\n1,1,1\n"


def test_samples_csv_pins_the_format(tmp_path):
    a, b, c, d, e, f = ODD
    grid = np.array([[a, b], [c, d], [e, f]])
    values = np.array([complex(f, e), complex(d, c), complex(b, a)])
    path = write_samples_csv(grid, values, tmp_path / "s.csv")
    assert path.read_text() == "\n".join(
        ["x1,x2,re,im", _line(a, b, f, e), _line(c, d, d, c), _line(e, f, b, a)]) + "\n"


def test_complex_grid_csv_pins_the_format(tmp_path):
    a, b, c, d, e, f = ODD
    z = np.array([[complex(a, b), complex(c, d)], [complex(e, f), complex(b, c)]])
    values = np.array([complex(d, e), complex(f, a)])
    path = write_complex_grid_csv(z, values, tmp_path / "b.csv")
    assert path.read_text() == "\n".join(
        ["x1,x2,y1,y2,re,im", _line(a, c, b, d, d, e), _line(e, b, f, c, f, a)]) + "\n"


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_samples_csv(np.zeros((3, 1)), np.zeros(2), tmp_path / "s.csv")
