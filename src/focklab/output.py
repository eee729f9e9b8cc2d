"""CSV and summary writers: plot-ready, diff-able, bit-stable across reruns.

Complex values are written as re,im pairs using shortest round-trip float
repr, so identical computations reproduce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .toeplitz import OperatorMatrix


def _write_rows(path: Path, header: list[str], columns) -> Path:
    """Write the header lines, then the repr values of each row of the float columns (1-d or 2-d, one length)."""
    rows = np.column_stack(columns).tolist()
    path.write_text("\n".join(header + [",".join(map(repr, row)) for row in rows]) + "\n")
    return path


def write_matrix_csv(op: OperatorMatrix, stem: Path) -> tuple[Path, Path]:
    """Write entries as rows of re,im pairs plus a sidecar index legend.

    Row/column i corresponds to the multi-index on line i of the legend
    (graded-lex order).
    """
    stem = Path(stem)
    matrix_path = stem.with_suffix(".csv")
    legend_path = stem.parent / (stem.name + "_legend.csv")
    # a C-ordered complex array viewed as floats holds re, im of each entry side by side
    _write_rows(matrix_path, [], [np.ascontiguousarray(op.entries, dtype=complex).view(float)])
    legend = ["position,degree,multi_index"]
    for i, alpha in enumerate(op.basis.indices):
        legend.append(f"{i},{sum(alpha)},{' '.join(str(a) for a in alpha)}")
    legend_path.write_text("\n".join(legend) + "\n")
    return matrix_path, legend_path


def write_samples_csv(grid: np.ndarray, values: np.ndarray, path: Path) -> Path:
    """Spectral-function table: x grid columns, then Re and Im of the values."""
    path = Path(path)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n = grid.shape[1]
    header = ",".join([f"x{j + 1}" for j in range(n)] + ["re", "im"])
    values = np.asarray(values, dtype=complex)
    return _write_rows(path, [header], [grid, values.real, values.imag])


def write_complex_grid_csv(z: np.ndarray, values: np.ndarray, path: Path) -> Path:
    """Berezin-transform table over a complex lattice: per-axis re/im, then value."""
    path = Path(path)
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    n = z.shape[1]
    header = ",".join(
        [f"x{j + 1}" for j in range(n)] + [f"y{j + 1}" for j in range(n)] + ["re", "im"]
    )
    values = np.asarray(values, dtype=complex)
    return _write_rows(path, [header], [z.real, z.imag, values.real, values.imag])


def write_summary(path: Path, items: list[tuple[str, object]]) -> Path:
    """Stable-key structured-text summary, one ``key: value`` line per item."""
    path = Path(path)
    lines = [f"{key}: {value}" for key, value in items]
    path.write_text("\n".join(lines) + "\n")
    return path
