"""CSV serialization of trajectories and stable distributions.

In memory a table is named float columns, built from a trajectory or a
stable distribution or parsed from a file; NaN marks a blank cell, such as an
undefined S. `write_csv` writes every table, each number with 17 significant
digits so files round-trip losslessly: the bytes of `%.17g`, spelled with array
arithmetic a block of about 2,048 cells at a time. `read_csv` parses them back
with array arithmetic too, a block of lines at a time, into the bits `float` gives.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError, ValidationError

if TYPE_CHECKING:  # annotations only: plot and simulate need not load the ESD solver
    from .esd import EsdResult
    from .integrator import Trajectory

# rows stacked at a time by write_csv: bounds its copy of the columns
_BLOCK = 64
# cells spelled at a time by write_csv: bounds its text arrays
_CELLS = 2048
# lines read at a time by read_csv: about 8,192 cells of 64 columns or more, else 32
_WIDE = 64
_READ_CELLS = 8192
_ROWS = 32
# by the count c of a word's last bytes that are a number's digits, a mask of
# their low nibbles, in row c + 16: rows up to 16 keep none, rows from 24 all 8
_KEEP = np.array([(2**64 - 2**(64 - 8 * min(max(c, 0), 8))) & 0x0F0F0F0F0F0F0F0F
                  for c in range(-16, 26)], np.uint64)
# by the count p of digits after a point, 10^(p+1); 2^64 - 1 for none and past 18
_DIVISOR = np.array([2**64 - 1, *(10**(p + 1) for p in range(1, 19)), 2**64 - 1], np.uint64)

_EXTENDED = np.finfo(np.longdouble).nmant >= 63  # a 64-bit significand, as x87's, or more
_EPS = float(np.finfo(np.longdouble).eps)
_SUBNORMAL_ULP = np.ldexp(np.longdouble(1), -1074)
# the tables by exponent keep decimal exponent X in row X + _X0, and 10^k is in row k + _K0
_X0 = 330
_K0 = 350
_MISSPELT = "numbers must be ASCII text as %.17g writes them"


@dataclass(frozen=True)
class Table:
    """Named float columns of equal length, in file order; NaN marks a blank cell.
    The columns are read-only, a view of a copy of the mapping the table was built from.
    A column read at some rows of a file only (see `read_csv`) has in `unread` a value
    for the rows it does not hold: NaN if one is blank, else inf if one is infinite."""

    columns: Mapping[str, np.ndarray]
    unread: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))
        object.__setattr__(self, "unread", MappingProxyType(dict(self.unread)))
        if not self.columns:
            raise ValidationError("columns", "a table needs at least one column")
        first = next(iter(self.columns))
        for name, col in self.columns.items():
            if np.ndim(col) != 1 or len(col) != len(self.columns[first]):
                raise ValidationError(name, f"got shape {np.shape(col)}; every column must "
                                            f"be 1-D and as long as '{first}'")

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ParseError(f"missing column '{name}'", field=name)
        return self.columns[name]

    def numeric(self, name: str) -> np.ndarray:
        """The column, which must hold a finite number in every cell, also in its unread rows."""
        col = self.column(name)
        rest = self.unread.get(name, 0.0)
        if not (np.all(np.isfinite(col)) and math.isfinite(rest)):
            blank = math.isnan(rest) or np.any(np.isnan(col))
            what = "blank cells" if blank else "infinite values"
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
    """Write a table to path, each cell as `%.17g` spells it and NaN as a blank.

    The bytes are those of `(pattern % tuple(row)).replace("nan", "")` for each row,
    but rows are stacked 64 at a time and spelled about 2,048 cells at a time, so
    neither the text nor a copy of the columns is ever held whole. A number's 17
    digits D and exponent e are rint(|x| 10^(16-e)) in extended precision, which is
    off by at most eps(longdouble) of that product. Where the product lies within
    that of a midpoint, the exact path reads D and e from `"%.16e" % x`, which rounds
    as `%.17g` does: about 1 % of a trajectory's cells, and all where longdouble is double.
    """
    columns = list(table.columns.values())
    rows = max(1, _CELLS // len(columns))
    stacked = max(rows, _BLOCK)
    with open(path, "wb") as fh:
        fh.write((",".join(table.columns) + "\n").encode())
        for start in range(0, len(columns[0]), stacked):
            block = np.stack([col[start:start + stacked] for col in columns], axis=1, dtype=float)
            for sub in range(0, len(block), rows):
                fh.write(_spell(block[sub:sub + rows].ravel(), len(columns)))


@cache
def _pow10() -> np.ndarray:
    """10^k for k = -350..349, parsed from text, so correctly rounded, on first use."""
    return np.array([f"1e{k}" for k in range(-_K0, 350)]).astype(np.longdouble)


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """The tables of `_spell`, built on first use: each 4-digit group's text and its
    digits to the last nonzero one; by row the exponent's text, the mask of the slots
    around the digits and the digits before the point (0 for none, as in 0.0001 <= |x| < 1)."""
    n4 = np.arange(10000)
    quad = sum((n4 // 10**(3 - j) % 10 + 48) << 8 * j for j in range(4)).astype(np.int32)
    sig = np.where(n4 > 0, 4 - sum(n4 % 10**k == 0 for k in (1, 2, 3)), -99).astype(np.int8)
    x = np.arange(-_X0, _X0 + 1)
    eform = (x < -4) | (x > 16)  # %g switches to exponent notation
    tail = (101 << 8 | (43 + 2 * (x < 0)) << 16 | (abs(x) // 100 + 48) << 24  # "e+ddd,"
            | (abs(x) // 10 % 10 + 48) << 32 | (abs(x) % 10 + 48) << 40 | 44 << 48)
    # "0." and zeros, or the exponent with its hundreds only if nonzero
    around = np.where(eform, 0b11011 << 49 | (abs(x) >= 100) << 51,
                      np.where(x < 0, (2 << np.clip(1 - x, 0, 5)) - 2, 0))
    point = np.where(eform, 1, np.where(x >= 0, x + 1, 0))
    # rows 0, 1, 2 (exponents no double has) spell 0, inf and NaN
    tail[1] = int.from_bytes(b"inf", "little") << 8 | 44 << 48
    around[:3], point[:3] = [1 << 1, 0b111 << 49, 0], 0
    return quad, sig, tail, around, point


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits D and the decimal exponent e of each number in x,
    rounded as %.17g rounds them; D is 0 for 0, inf and NaN."""
    num = np.isfinite(x) & (x != 0)
    a = np.where(num & _EXTENDED, np.abs(x), 1.0)  # 1.0 stands in for the rest
    e = np.floor(np.log10(a)).astype(np.int64)
    # a cast of a subnormal is slow: k 2^-1074 has the bits of k, which cast exactly
    tiny = np.flatnonzero(a < 2.0**-1022)
    k = a[tiny].view(np.uint64)
    a[tiny] = 1.0
    a = a.astype(np.longdouble)
    a[tiny] = k * _SUBNORMAL_ULP
    pow10 = _pow10()
    scaled = a * pow10[16 - e + _K0]
    off = np.flatnonzero((scaled < 1e16) | (scaled >= 1e17))  # log10 misses by one near 10^k
    e[off] += np.where(scaled[off] < 1e16, -1, 1)
    scaled[off] = a[off] * pow10[16 - e[off] + _K0]
    rounded = np.rint(scaled)
    # scaled is off by at most eps of itself, so within that of a midpoint rint may misround
    near_midpoint = (np.abs((scaled - rounded).astype(float))
                     >= 0.5 - scaled.astype(float) * _EPS)
    D = rounded.astype(np.int64) * num
    carry = D == 10**17  # 17 nines and more round up to one more digit before the point
    D[carry], e[carry] = 10**16, e[carry] + 1
    exact = np.flatnonzero(num & (near_midpoint | (not _EXTENDED)))
    spelt = ["%.16e" % v for v in np.abs(x[exact]).tolist()]
    D[exact] = [int(t[0] + t[2:18]) for t in spelt]
    e[exact] = [int(t[19:]) for t in spelt]
    return D, e


def _spell(x: np.ndarray, ncols: int) -> np.ndarray:
    """The text of whole rows of cells x. A cell fills seven little-endian words,
    and a bit mask keeps the bytes %.17g writes: "-0.000", 17 digits and a point,
    the 17 digits again (those after the point), "e", the sign and 3 digits of the
    exponent (or "inf"), and the separator."""
    quad_text, quad_sig, tail, around, point = _tables()
    D, e = _digits(x)
    row = np.where(D > 0, e + _X0, np.isinf(x) + 2 * np.isnan(x))
    words = np.full((len(x), 7), int.from_bytes(b"-0.000", "little"), "<i8")
    last = D % 10
    words[:, 3] = ord(".") << 8 | last + 48
    words[:, 6] = tail[row] | last + 48
    sig = np.where(last > 0, 17, 0)  # significant digits: up to the last nonzero one
    hi, lo = D // 10**9, D // 10 % 10**8
    quads = words.view("<i4")
    for k, quad in enumerate((hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4)):
        quads[:, k + 2] = quads[:, k + 8] = quad_text[quad]
        sig = np.maximum(sig, quad_sig[quad] + 4 * k)
    p = point[row]
    # the sign, "0." or the exponent, p digits of the first copy, the separator, a point
    # if a digit follows it, and those digits, to the last significant one, of the second
    mask = (around[row] | np.signbit(x) & ~np.isnan(x) | ((1 << p) - 1) << 8 | 1 << 54
            | ((0 < p) & (p < sig)) << 25 | ((1 << np.maximum(sig, p)) - (1 << p)) << 32)
    text = words.view(np.uint8)
    text[ncols - 1::ncols, 54] = ord("\n")
    keep = np.unpackbits(mask.astype("<i8").view(np.uint8).reshape(-1, 8)[:, :7], axis=1,
                         bitorder="little")
    return text.ravel()[keep.view(bool).ravel()]


def read_csv(lines: Iterable[str],
             select: Callable[[list[str]], tuple[Collection[str], bool]] | None = None) -> Table:
    """Parse the lines of a CSV produced by this package, such as an open file, a
    block at a time by `_read_block`: about 8,192 cells of a table of 64 columns or
    more, 32 lines of a narrower one. Only the parsed floats are held, 8 bytes a
    cell. The header names each column once, none blank. Each cell is blank, [-]inf
    or `-?D+(.D+)?(e[+-]D{1,3})` in ASCII; the first line that is not, or has
    another count of cells, fails naming its file line.

    `select`, given the header, names the columns to keep and whether to keep only
    the first and last data rows; it keeps every column when it names none in the
    header. Every line is checked all the same, and every number that may overflow
    is read, but only the kept cells are held. A table of the end rows notes in
    `Table.unread` the blank and infinite cells of its columns in the other rows.
    """
    numbered = enumerate(lines, start=1)
    header_lineno, header_line = next(((n, ln) for n, ln in numbered if ln.strip()), (1, None))
    if header_line is None:
        raise ParseError("empty CSV", line=1)
    header = header_line.rstrip("\n").split(",")
    if "" in header:
        raise ParseError(f"column {header.index('') + 1} has no name", line=header_lineno)
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names", line=header_lineno)
    ncols = len(header)
    # blank lines are skipped, but errors name the line of the file; in a table of
    # one column a blank line is a blank cell
    rows = ((n, ln) for n, ln in numbered if ncols == 1 or ln.strip())
    size = max(1, _READ_CELLS // ncols) if ncols >= _WIDE else _ROWS
    names, end_rows = select(header) if select is not None else (header, False)
    names = set(names)
    keep = np.array([name in names for name in header])
    if not keep.any():  # every cell, for the caller to name the columns it misses
        keep[:], end_rows = True, False
    kept = [name for name, k in zip(header, keep) if k]
    cols = np.flatnonzero(keep)
    held, unread, last = array("d"), np.zeros(len(kept)), None
    # of the end rows, the first is read alone, the others only checked and noted,
    # and the last read again once no line is left
    if end_rows and (first := next(rows, None)):
        held.frombytes(_read_block([first], ncols, keep)[cols].view(np.uint8))
    while block := list(islice(rows, size)):
        if end_rows:
            cells = _read_block(block, ncols, False).reshape(-1, ncols)[:, cols]
            unread, last = np.maximum(unread, np.max(np.abs(cells), axis=0)), block[-1]
        elif keep.all():
            held.frombytes(_read_block(block, ncols).view(np.uint8))
        else:
            cells = _read_block(block, ncols, np.tile(keep, len(block))).reshape(-1, ncols)
            held.frombytes(cells[:, cols].ravel().view(np.uint8))
    if last:
        held.frombytes(_read_block([last], ncols, keep)[cols].view(np.uint8))
    if not held:
        raise ParseError("CSV has a header but no data rows", line=header_lineno)
    block = np.frombuffer(held).reshape(-1, len(kept))
    return Table({name: block[:, j] for j, name in enumerate(kept)},
                 dict(zip(kept, unread.tolist())) if end_rows else {})


def _read_block(block: list[tuple[int, str]], ncols: int,
                keep: np.ndarray | bool | None = None) -> np.ndarray:
    """The cells of a block of numbered lines, bit for bit as `float` reads them;
    a ParseError names the first line without ncols cells of the form `read_csv`
    names, or with one that overflows. Given a mask keep of the cells in file order,
    it converts only the kept cells and those that may overflow (more than 24 bytes,
    or an exponent of +DDD); each other cell reads as NaN if blank, inf if infinite,
    else 0.

    The bytes that are not digits place each cell's sign, point and exponent. Its
    digits D, the point read as a 0 that is taken out after, are three 8-byte words
    ending at the mantissa, each masked to the cell's bytes and read by three
    multiply-shift-mask steps; so is the exponent E. D 10^E in extended precision
    is off by at most eps of itself; where the doubles nearest it times 1 - 2 eps
    and 1 + 2 eps differ, a midpoint may lie between, and `float` reads the cell
    again, as it does every cell the arithmetic cannot decide.
    """
    # a character that is not ASCII becomes "?", which no cell holds
    lines = [ln if ln[-1:] == "\n" else ln + "\n" for _, ln in block]
    data = "".join(lines).encode("ascii", "replace")
    buf = np.concatenate((np.zeros(24, np.uint8), np.frombuffer(data, np.uint8)))
    text = buf[24:]  # the bytes before it are the start of the first words
    pos = np.flatnonzero(text - 48 > 9)  # the bytes that are not digits, in order
    b = text[pos]
    sep = (b == 44) | (b == 10)
    seps = np.flatnonzero(sep)
    gap = np.diff(pos, append=len(text))  # to the next of them
    after = np.concatenate(([pos[0] == 0], gap[:-1] == 1))  # right after one, or the start
    prev, nxt = np.concatenate(([10], b[:-1])), np.concatenate((b[1:], [10]))
    dot = b == 46
    lead = (b == 45) & after & ((prev == 44) | (prev == 10))
    opens = np.concatenate(([True], (sep | lead)[:-1]))  # the first in its mantissa
    before_sep = np.concatenate((sep[1:], [False]))
    ok = (sep | lead & ((gap > 1) | (nxt == 105)) | dot & ~after & (gap > 1) & opens
          | (b == 101) & ~after & (gap == 1) & ((nxt == 43) | (nxt == 45))
          & (opens | np.concatenate(([False], dot[:-1])))
          # a sign after e, then 1 to 3 digits and the separator
          | ((b == 43) | (b == 45)) & after & (prev == 101)
          & before_sep & (gap >= 2) & (gap <= 4)
          # or inf, all of the cell but its sign
          | (b == 105) & after & opens & (gap == 1) & (nxt == 110)
          | (b == 110) & after & (prev == 105) & (gap == 1) & (nxt == 102)
          | (b == 102) & after & (prev == 110) & (gap == 1) & before_sep)
    if (len(seps) != len(lines) * ncols or np.count_nonzero(b == 10) != len(lines)
            or np.any(b[seps[ncols - 1::ncols]] != 10) or not ok.all()):
        # the line of each byte: a comma parts its cells, a newline only ends it
        line_end = np.cumsum([len(ln) for ln in lines]) - 1
        line = np.searchsorted(line_end, pos)
        cells = np.bincount(line[b == 44], minlength=len(lines)) + 1
        bad = cells != ncols
        bad[line[~ok | (b == 10) & (pos != line_end[line])]] = True
        i = int(np.argmax(bad))
        if i:  # a cell that overflows before that line fails first
            _read_block(block[:i], ncols)
        message = _MISSPELT if cells[i] == ncols else f"expected {ncols} cells, got {cells[i]}"
        raise ParseError(message, line=block[i][0])
    # so a cell is [-]D[.D][e sign D] or [-]inf, and its separator
    ends = pos[seps]
    starts = np.concatenate(([0], ends[:-1] + 1))
    if keep is not None:
        skipped = np.zeros(len(seps))
        skipped[starts == ends], skipped[b[seps - 1] == 102] = math.nan, math.inf
        # a number may overflow only past 24 bytes or with an exponent of +DDD, whose
        # "+" is 4 bytes before the separator (buf holds the text 24 bytes on)
        keep = np.flatnonzero(keep | (ends - starts > 24) | (buf[ends + 20] == 43))
        if not keep.size:
            return skipped
        seps, ends, starts = seps[keep], ends[keep], starts[keep]
    has_e = b.take(seps - 2, mode="wrap") == 101  # b may hold one item
    exp_neg, inf = b[seps - 1] == 45, b[seps - 1] == 102
    mant = np.where(has_e, seps - 2, seps)  # what ends the mantissa, and before it
    mant_end, point, has_point = pos[mant], pos[mant - 1], b[mant - 1] == 46
    del pos, b, sep, gap, after, prev, nxt, dot, lead, opens, before_sep, ok  # bound the peak
    neg = text[starts] == 45
    after_point = np.where(has_point, mant_end - point - 1, 0)
    # the mantissa's bytes, 25 for more than the words hold; inf and a blank read as 0
    length = np.minimum(mant_end - starts - neg, 25) * ~inf
    buf[np.where(has_point, point + 24, 0)] = 48  # a point reads as 0; buf[0] is padding
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # words[i] is buf[i:i+8]
    w = words[np.stack([mant_end, mant_end, mant_end, ends], axis=1) + [16, 8, 0, 16]]
    w &= _KEEP[np.stack([length, length, length, (ends - mant_end - 2) * has_e], axis=1)
               + [16, 8, 0, 16]]
    w = w * 2561 >> 8 & 0x00FF00FF00FF00FF  # pairs of digits,
    w = w * 6553601 >> 16 & 0x0000FFFF0000FFFF  # fours,
    w = w * 42949672960001 >> 32  # eights
    D = w[:, 0] + w[:, 1] * 10**8 + w[:, 2] * 10**16
    # D = q 10^(p+1) + 0 10^p + the p digits after the point: take 9 q 10^p out
    cut = _DIVISOR[np.minimum(after_point, 19)]
    D -= D // cut * cut // 10 * 9
    at = np.where(exp_neg, -1, 1) * w[:, 3].astype(np.int64) - after_point + _K0
    # float reads 19 digits or more, a mantissa past 24 bytes and every number where
    # longdouble is double; 10^E past the table reads as 10^-350 or 10^349, so that
    # D 10^E rounds to 0 below it, as the cell does, and overflows above it
    redo = (w[:, 2] >= 1000) | (length > 24 * _EXTENDED)
    x = (D.astype(np.longdouble) * _pow10().take(at, mode="clip") if _EXTENDED
         else np.zeros(len(D), np.longdouble))
    huge = x >= np.finfo(float).max  # float reads it, or finds that it overflows
    x[huge] = 0
    below, above = 1 - 2 * np.longdouble(_EPS), 1 + 2 * np.longdouble(_EPS)
    # a subnormal double k 2^-1074 has the bits of k, and a cast to one is slow
    tiny = np.flatnonzero(x < 2.0**-1022)
    scaled = np.ldexp(x[tiny], 1074)
    x[tiny] = 1.0
    lower, r = (x * below).astype(float), (x * above).astype(float)
    lower[tiny] = np.rint(scaled * below).astype(np.uint64).view(float)
    r[tiny] = np.rint(scaled * above).astype(np.uint64).view(float)
    redo = np.flatnonzero(redo | huge | (lower != r))
    again = [float(data[s:t]) for s, t in zip((starts + neg)[redo].tolist(), ends[redo].tolist())]
    if math.inf in again:
        cell = redo[again.index(math.inf)]
        raise ParseError(_MISSPELT, line=block[(cell if keep is None else keep[cell]) // ncols][0])
    r[redo] = again
    r[starts == ends], r[inf] = math.nan, math.inf
    np.negative(r, out=r, where=neg)
    if keep is None:
        return r
    skipped[keep] = r
    return skipped
