"""CSV serialization of trajectories and stable distributions.

In memory a table is named float columns, built from a trajectory or a
stable distribution or parsed from a file; NaN marks a blank cell, such as an
undefined S. `write_csv` writes every table, each number with 17 significant
digits so files round-trip losslessly.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .esd import EsdResult
from .integrator import Trajectory

# rows stacked at a time by write_csv: bounds its copy of the columns
_BLOCK = 64


@dataclass(frozen=True)
class Table:
    """Named float columns of equal length, in file order; NaN marks a blank cell."""

    columns: dict[str, np.ndarray]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ParseError(f"missing column '{name}'", field=name)
        return self.columns[name]

    def numeric(self, name: str) -> np.ndarray:
        """The column, which must hold a finite number in every cell."""
        col = self.column(name)
        if not np.all(np.isfinite(col)):
            what = "blank cells" if np.any(np.isnan(col)) else "infinite values"
            raise ParseError(f"column '{name}' has {what}", field=name)
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
    sits in memory whole, nor does its encoded copy or a stacked copy of its
    columns."""
    columns = list(table.columns.values())
    pattern = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table.columns) + "\n")
        for start in range(0, len(columns[0]), _BLOCK):
            block = np.column_stack([col[start:start + _BLOCK] for col in columns])
            # row by row: converting a block at once would hold each cell as a Python
            # float; %.17g spells NaN, the blank, "nan", as it spells no number
            fh.writelines((pattern % tuple(row.tolist())).replace("nan", "") for row in block)


def read_csv(lines: Iterable[str]) -> Table:
    """Parse the lines of a CSV produced by this package, such as an open file,
    one at a time: only the parsed floats are held, 8 bytes a cell."""
    # blank lines are skipped, but errors name the line of the file
    numbered = ((n, ln.rstrip("\n")) for n, ln in enumerate(lines, start=1) if ln.strip())
    header_lineno, header_line = next(numbered, (1, None))
    if header_line is None:
        raise ParseError("empty CSV", line=1)
    header = header_line.split(",")
    if len(header) < 2:
        raise ParseError("CSV header must name at least two columns", line=header_lineno)
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names", line=header_lineno)
    cells_read = array("d")
    for lineno, line in numbered:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(cells)}", line=lineno)
        try:
            row = [float(cell) if cell else math.nan for cell in cells]
        except ValueError as err:
            raise ParseError(f"not a number: {err}", line=lineno) from err
        # float alone also reads " 2", "+2", "1E5", "nan", "1_0", other Unicode
        # digits, and "1e400" as inf
        if _misspelt(line, row):
            raise ParseError("numbers must be ASCII text as %.17g writes them", line=lineno)
        cells_read.fromlist(row)
    if not cells_read:
        raise ParseError("CSV has a header but no data rows", line=header_lineno)
    block = np.frombuffer(cells_read).reshape(-1, len(header))
    return Table({name: block[:, j] for j, name in enumerate(header)})


def _misspelt(line: str, values: list[float]) -> bool:
    """Whether the line of values holds a character that %.17g does not write,
    a '+' not after 'e', or an infinite value not spelled inf."""
    rest = line.encode("ascii", "replace").translate(None, b"0123456789.-,einf")
    n_inf = values.count(math.inf) + values.count(-math.inf)
    return bool(rest.strip(b"+") or (rest and len(rest) > line.count("e+"))
                or (n_inf and n_inf > line.count("inf")))
