"""CSV serialization of trajectories and stable distributions.

All numbers are written with 17 significant digits so files round-trip
losslessly. In memory a table is named float columns, built from a trajectory
or parsed from a file; NaN marks a blank cell, such as an undefined S.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .esd import EsdResult
from .integrator import Trajectory


@dataclass(frozen=True)
class Table:
    """Named float columns of equal length; NaN marks a blank cell."""

    header: list[str]
    columns: dict[str, np.ndarray]

    @property
    def n_rows(self) -> int:
        return len(self.columns[self.header[0]])

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
    return Table(header=header, columns=dict(zip(header, columns)))


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV: t, f_1..f_N, R_1..R_N, mass, S, Q, F, H."""
    return "".join(_lines(trajectory_table(traj)))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Write trajectory_csv(traj) to path a row at a time: the text of a long
    run never sits in memory whole, nor does its encoded copy."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(trajectory_table(traj)))


def esd_csv(trait: np.ndarray, esd: EsdResult) -> str:
    """Render a stable distribution as CSV: trait, f_tilde, R_tilde."""
    header = ["trait", "f_tilde", "R_tilde"]
    columns = [trait, esd.f_tilde, esd.R_tilde]
    return "".join(_lines(Table(header=header, columns=dict(zip(header, columns)))))


def _lines(table: Table) -> Iterator[str]:
    block = np.column_stack([table.columns[name] for name in table.header])
    pattern = ",".join(["%.17g"] * len(table.header)) + "\n"
    # row by row: converting the whole block at once would hold every cell as a
    # Python float; %.17g spells NaN, the blank, "nan", as it spells no number
    yield ",".join(table.header) + "\n"
    for row in block:
        yield (pattern % tuple(row.tolist())).replace("nan", "")


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
            raise ParseError(
                f"expected {len(header)} cells, got {len(cells)}", line=lineno
            )
        # float alone would also read other Unicode digits and underscores
        if not line.isascii() or "_" in line:
            raise ParseError("numbers must be ASCII decimal text without '_'", line=lineno)
        try:
            block[row] = [float(cell) if cell else math.nan for cell in cells]
        except ValueError as err:
            raise ParseError(f"not a number: {err}", line=lineno) from err
    return Table(header=header, columns={name: block[:, j] for j, name in enumerate(header)})
