"""CSV serialization of trajectories and stable distributions.

In memory a table is named float columns, built from a trajectory or a
stable distribution or parsed from a file; NaN marks a blank cell, such as an
undefined S. `write_csv` writes every table, each number with 17 significant
digits so files round-trip losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .esd import EsdResult
from .integrator import Trajectory


@dataclass(frozen=True)
class Table:
    """Named float columns of equal length, in file order; NaN marks a blank cell."""

    columns: dict[str, np.ndarray]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ParseError(f"missing column '{name}'", field=name)
        return self.columns[name]

    def numeric(self, name: str) -> np.ndarray:
        col = self.column(name)
        if np.any(np.isnan(col)):
            raise ParseError(f"column '{name}' has blank cells", field=name)
        return col


def trajectory_table(traj: Trajectory) -> Table:
    """The columns t, f_1..f_N, R_1..R_N, mass, S, Q, F, H of a trajectory."""
    d = traj.diagnostics
    traits = range(1, traj.params.N + 1)
    header = ["t", *(f"f_{j}" for j in traits), *(f"R_{k}" for k in traits),
              "mass", "S", "Q", "F", "H"]
    columns = [traj.times, *traj.f.T, *traj.R.T, d.mass, d.S, d.Q, d.F, d.H]
    return Table(dict(zip(header, columns)))


def esd_table(trait: np.ndarray, esd: EsdResult) -> Table:
    """The columns trait, f_tilde, R_tilde of a stable distribution."""
    return Table({"trait": trait, "f_tilde": esd.f_tilde, "R_tilde": esd.R_tilde})


def write_csv(path: Path, table: Table) -> None:
    """Write a table to path a row at a time: the text of a long run never
    sits in memory whole, nor does its encoded copy."""
    block = np.column_stack(list(table.columns.values()))
    pattern = ",".join(["%.17g"] * len(table.columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.columns) + "\n")
        # row by row: converting the whole block at once would hold every cell as a
        # Python float; %.17g spells NaN, the blank, "nan", as it spells no number
        fh.writelines((pattern % tuple(row.tolist())).replace("nan", "") for row in block)


def read_csv(text: str) -> Table:
    """Parse CSV text produced by this package."""
    # blank lines are skipped, but errors name the line of the file
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty CSV", line=1)
    header_lineno, header_line = lines[0]
    header = header_line.split(",")
    if len(header) < 2:
        raise ParseError("CSV header must name at least two columns", line=header_lineno)
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names", line=header_lineno)
    if len(lines) == 1:
        raise ParseError("CSV has a header but no data rows", line=header_lineno)
    block = np.empty((len(lines) - 1, len(header)))
    for row, (lineno, line) in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(cells)}", line=lineno)
        try:
            block[row] = [float(cell) if cell else math.nan for cell in cells]
        except ValueError as err:
            raise ParseError(f"not a number: {err}", line=lineno) from err
        # float alone also reads " 2", "+2", "1E5", "nan", "1_0", other Unicode
        # digits, and "1e400" as inf
        if _misspelt(line, block[row]):
            raise ParseError("numbers must be ASCII text as %.17g writes them", line=lineno)
    return Table({name: block[:, j] for j, name in enumerate(header)})


def _misspelt(line: str, values: np.ndarray) -> bool:
    """Whether the line of values holds a character that %.17g does not write,
    a '+' not after 'e', or an infinite value not spelled inf."""
    rest = line.encode("ascii", "replace").translate(None, b"0123456789.-,einf")
    n_inf = np.count_nonzero(np.isinf(values))
    return bool(rest.strip(b"+") or (rest and len(rest) > line.count("e+"))
                or (n_inf and n_inf > line.count("inf")))
