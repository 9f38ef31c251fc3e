"""Properties of the CSV format on random input."""

import functools
import math
import subprocess
import sys
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (line_parser_csv, n1_instance, oracle_csv, render_read_both_ways,
                     subprocess_env)
from rclab import (Diagnostics, ModelParams, ParseError, Scheme, State, StepConfig,
                   ValidationError, csvio, simulate, svgplot)
from rclab.csvio import Table, read_csv, trajectory_table, write_csv
from rclab.integrator import Trajectory

PROPERTY = settings(max_examples=40)

# 17 significant digits must carry subnormals, signed zeros and infinities
SPECIAL = [5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0, math.inf, -math.inf]
cells = st.floats(allow_nan=False) | st.sampled_from(SPECIAL)


@st.composite
def trajectories(draw):
    n, rows = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def column(blank_allowed=False):
        cell = cells | st.just(math.nan) if blank_allowed else cells
        return np.array(draw(st.lists(cell, min_size=rows, max_size=rows)), dtype=float)

    params = ModelParams(N=n, h=1.0, a=np.zeros(n), K=np.eye(n), m=np.ones(n),
                         Rstar=np.ones(n))
    return Trajectory(
        params=params, config=StepConfig(dt=0.1), times=column(),
        f=np.array([column() for _ in range(n)]).T, R=np.array([column() for _ in range(n)]).T,
        diagnostics=Diagnostics(mass=column(), S=column(blank_allowed=True), Q=column(),
                                F=column(), H=column()),
        fp_iteration_counts=[],
    )


def test_written_trajectories_read_back_bit_for_bit(tmp_path):
    path = tmp_path / "trajectory.csv"

    @PROPERTY
    @given(trajectories())
    def check(traj):
        expected = trajectory_table(traj)
        write_csv(path, expected)
        with open(path, encoding="utf-8") as fh:
            table = read_csv(fh)
        assert list(table.columns) == list(expected.columns)
        for name in expected.columns:
            got, want = table.column(name), expected.columns[name]
            assert np.array_equal(np.isnan(got), np.isnan(want))
            # bits, not values: 0.0 == -0.0 would hide a lost sign
            assert np.array_equal(got[~np.isnan(got)].view(np.int64),
                                  want[~np.isnan(want)].view(np.int64))

    check()


def _small_csv_lines():
    params, state0 = n1_instance()
    traj = simulate(params, state0, 0.1, StepConfig(dt=0.1, scheme=Scheme.FULLY_IMPLICIT),
                    reference=State(f=np.ones(1), R=np.full(1, 0.5)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        write_csv(path, trajectory_table(traj))
        return path.read_text(encoding="utf-8").splitlines()


SMALL_CSV = _small_csv_lines()
HEADER = SMALL_CSV[0].split(",")
values = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "1_0", "0x1p-3", "x", "1,2",
                     "t", "f_1", ",", "٣"]),
    st.text(max_size=6),
)
edits = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 10)),
    st.tuples(st.just("duplicate"), st.integers(0, 10)),
    st.tuples(st.just("cell"), st.integers(0, 10), st.integers(0, 10), values),
    st.tuples(st.just("insert"), st.integers(0, 10), st.text(max_size=12)),
)


def apply(lines, edit):
    lines = list(lines)
    i = edit[1] % (len(lines) + 1)
    if edit[0] == "drop" and i < len(lines):
        del lines[i]
    elif edit[0] == "duplicate" and i < len(lines):
        lines.insert(i, lines[i])
    elif edit[0] == "cell" and i < len(lines):
        row = lines[i].split(",")
        row[edit[2] % len(row)] = edit[3]
        lines[i] = ",".join(row)
    elif edit[0] == "insert":
        lines.insert(i, edit[2])
    return lines


@settings(PROPERTY, max_examples=300)
@given(st.lists(edits, min_size=1, max_size=3))
@example([("drop", 0)] * 3)  # empty
@example([("drop", 1)] * 2)  # a header alone
def test_edited_csv_fails_only_with_a_located_parse_error(edit_list):
    lines = SMALL_CSV
    for edit in edit_list:
        lines = apply(lines, edit)
    try:
        table = read_csv(("\n".join(lines) + "\n").splitlines())
        for name in HEADER:
            if name == "S":  # blank where the entropy is undefined
                table.column(name)
            else:
                table.numeric(name)
    except ParseError as err:
        assert err.line is not None or err.field is not None


def test_errors_name_the_line_of_the_file():
    with pytest.raises(ParseError) as err:
        read_csv("t,f_1\n\n0,1\n\n0,x\n".splitlines())
    assert err.value.line == 5


# write_csv spells numbers as %.17g does, in ASCII; float alone would
# read "٣" as 3.0, "1_0" as 10.0, " 2" as 2.0, "1e400" as inf and "nan" as a blank
misspellings = st.sampled_from(["٣", "1_0", "1_000.5", "٣.5e1", "0.１", "-1e1_0",
                                " 2", "+2", "Infinity", "1e400", "nan", "NaN", "1E5",
                                ".5", "5.", "1e5", "-.5", "1e0001"])


@pytest.mark.parametrize("csv", ["narrow", "wide"])
@PROPERTY
@given(st.integers(0), st.integers(0), misspellings)
def test_numbers_in_other_spellings_fail_with_their_line(csv, row, col, spelling):
    lines = SMALL_CSV if csv == "narrow" else WIDE_CSV
    row = 1 + row % (len(lines) - 1)
    lines = apply(lines, ("cell", row, col, spelling))
    with pytest.raises(ParseError, match="ASCII") as err:
        read_csv(("\n".join(lines) + "\n").splitlines())
    assert err.value.line == row + 1


def _sweep_cells() -> np.ndarray:
    """About 1.23 M cells that probe every path of the speller, in a fixed order."""
    rng = np.random.default_rng(20231)
    bits = rng.integers(0, 2**64, size=700_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(0, 2**52, size=100_000, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # each power of ten and its 64 neighbours on either side, ulp by ulp
    near_powers = (np.maximum(powers.view(np.int64)[:, None] + np.arange(-64, 65), 0)
                   .view(np.float64).ravel())
    integers = np.concatenate([np.arange(10**16 - 2**14, 10**16 + 2**14),
                               np.arange(10**17 - 2**18, 10**17 + 2**18, 16)]).astype(float)
    # odd multiples of 2^-j with 18 significant digits, the last a 5: exact ties at 17
    j = rng.integers(3, 18, size=20_000)
    low = 10.0 ** (17 - j) * 2.0**j
    ties = (2 * np.floor(rng.uniform(low / 2, 5 * low)) + 1) / 2.0**j
    special = np.array([0.0, math.inf, math.nan] * 100)
    unsigned = np.concatenate([subnormal, near_powers, integers, ties, special])
    cells = np.concatenate([bits, unsigned, -unsigned])
    return rng.permutation(np.concatenate([cells, np.full(-len(cells) % 100, math.nan)]))


@pytest.fixture(scope="module")
def sweep():
    cells = _sweep_cells()
    table = Table({f"c{j}": col for j, col in enumerate(cells.reshape(-1, 100).T)})
    return table, oracle_csv(table)


def test_sweep_is_spelled_as_by_the_percent_operator(sweep, tmp_path):
    table, expected = sweep
    assert len(table.columns) * len(table.columns["c0"]) >= 1_000_000
    write_csv(tmp_path / "sweep.csv", table)
    assert (tmp_path / "sweep.csv").read_bytes() == expected


# a bound of at least 0.5, or a longdouble that is a plain double, sends every number
# through "%.16e"
@pytest.mark.parametrize("name, value", [("_EPS", 1.0), ("_EXTENDED", False)])
def test_sweep_through_the_exact_path_alone(sweep, tmp_path, monkeypatch, name, value):
    monkeypatch.setattr(csvio, name, value)
    table, expected = sweep
    write_csv(tmp_path / "sweep.csv", table)
    assert (tmp_path / "sweep.csv").read_bytes() == expected


def _read_counting_blocks(lines, monkeypatch):
    """The table read from lines, and how many blocks the array reader read whole,
    asked to convert every cell and returning all of them, and how many it read
    otherwise."""
    counts = {"whole": 0, "masked": 0}
    read_block = csvio._read_block

    def counted(block, ncols, mask):
        values = read_block(block, ncols, mask)
        whole = mask.all() and values.shape == (len(block) * ncols,)
        counts["whole" if whole else "masked"] += 1
        return values

    monkeypatch.setattr(csvio, "_read_block", counted)
    return read_csv(lines), counts


# the array reader reads every block of the sweep (inf and blanks included), and
# so it does where longdouble is a plain double, with `float` reading every cell
@pytest.mark.parametrize("extended", [True, False])
def test_sweep_reads_back_bit_for_bit(sweep, tmp_path, monkeypatch, extended):
    table, text = sweep
    (tmp_path / "sweep.csv").write_bytes(text)
    monkeypatch.setattr(csvio, "_EXTENDED", extended)
    with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
        got, counts = _read_counting_blocks(fh, monkeypatch)
    assert counts["whole"] > 0 and counts["masked"] == 0
    # %.17g round-trips, so the columns are float of each cell, NaN for a blank
    for name, col in table.columns.items():
        nan = np.isnan(col)
        assert np.array_equal(np.isnan(got.columns[name]), nan)
        assert np.array_equal(got.columns[name][~nan].view(np.int64), col[~nan].view(np.int64))


def test_cells_near_a_midpoint_read_as_float_reads_them(monkeypatch):
    # spellings of %.17g never come within eps of a midpoint between two doubles;
    # these do, as do 21 digits, more than the words hold
    rng = np.random.default_rng(11)
    bits = np.concatenate([rng.integers(0, 0x7FEF_FFFF_FFFF_FFFF, 1000),
                           rng.integers(0, 2**52, 300), np.arange(4)]).astype(np.uint64)
    doubles = bits.view(np.float64)
    with localcontext() as exact:
        exact.prec = 800
        mids = [Decimal(a) + (Decimal(b) - Decimal(a)) / 2
                for a, b in zip(doubles.tolist(), np.nextafter(doubles, math.inf).tolist())]
        spelt = [format(m, f".{d}e") for m in mids for d in (15, 16, 18, 20)]
    spelt += [f"-{c}" for c in spelt[::7]]
    spelt += ["0"] * (-len(spelt) % 64)
    rows = [",".join(spelt[i:i + 64]) for i in range(0, len(spelt), 64)]
    got, counts = _read_counting_blocks([",".join(f"c{j}" for j in range(64)), *rows],
                                        monkeypatch)
    assert counts["whole"] > 0 and counts["masked"] == 0
    want = np.array([float(c) for c in spelt]).reshape(-1, 64)
    for j, col in enumerate(got.columns.values()):
        assert np.array_equal(col.view(np.int64), want[:, j].view(np.int64))


@st.composite
def wide_tables(draw):
    rows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 700))
    block = draw(arrays(np.float64, (rows, ncols), elements=cells | st.just(math.nan)))
    block[:, draw(st.integers(0, ncols - 1))] = math.nan  # a blank S, say
    return Table({f"c{j}": block[:, j] for j in range(ncols)})


def test_tables_of_any_width_are_spelled_as_by_the_percent_operator(tmp_path):
    @PROPERTY
    @given(wide_tables())
    def check(table):
        write_csv(tmp_path / "table.csv", table)
        assert (tmp_path / "table.csv").read_bytes() == oracle_csv(table)

    check()


# with _WIDE at 1 a table of any width, one column included, is read about 8,192
# cells a block rather than 32 lines
@pytest.mark.parametrize("wide", [csvio._WIDE, 1])
def test_tables_of_any_width_read_back_bit_for_bit(tmp_path, monkeypatch, wide):
    monkeypatch.setattr(csvio, "_WIDE", wide)

    @PROPERTY
    @given(wide_tables())
    def check(table):
        write_csv(tmp_path / "table.csv", table)
        with open(tmp_path / "table.csv", encoding="utf-8") as fh:
            got = read_csv(fh)
        assert list(got.columns) == list(table.columns)
        for name, col in table.columns.items():
            assert np.array_equal(got.columns[name].view(np.int64), col.view(np.int64))

    check()


def test_a_table_of_one_column_round_trips(tmp_path):
    table = Table({"t": np.array([0.0, 1.0, math.nan, 2.5])})
    write_csv(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text() == "t\n0\n1\n\n2.5\n"
    with open(tmp_path / "t.csv", encoding="utf-8") as fh:
        got = read_csv(fh)
    assert np.array_equal(got.columns["t"], table.columns["t"], equal_nan=True)


def _wide_csv_lines():
    """A CSV of 70 columns and 60 rows of random bits, with a tenth of the cells
    special (subnormal, signed zero, infinite or blank): wide enough for the array
    reader."""
    rng = np.random.default_rng(5)
    cells = rng.integers(0, 2**64, size=(60, 70), dtype=np.uint64).view(np.float64)
    special = rng.random(cells.shape) < 0.1
    cells[special] = rng.choice([*SPECIAL, math.nan], size=np.count_nonzero(special))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.csv"
        write_csv(path, Table({f"c{j}": cells[:, j] for j in range(70)}))
        return path.read_text(encoding="utf-8").splitlines()


WIDE_CSV = _wide_csv_lines()


def _read_or_error(read, lines):
    try:
        table = read(lines)
    except ParseError as err:
        return str(err), err.line, err.field
    return [(name, col.view(np.int64).tolist()) for name, col in table.columns.items()]


# the array reader reads a table as the line parser did: the same bits, or the same
# error on the same line, also where longdouble is a plain double
@settings(PROPERTY, max_examples=200)
@given(st.lists(edits | st.tuples(st.just("cell"), st.integers(0, 60), st.integers(0, 69),
                                  misspellings | values), min_size=1, max_size=3))
@example([("cell", 1, 3, "1.7976931348623158e+308")])  # rounds to the largest double
@example([("cell", 1, 3, "-1.7976931348623159e+308")])  # overflows
@example([("cell", 1, 3, "1.7976931348623157e+308")])  # the largest double
@example([("cell", 1, 3, "1000000000000000000000000")])  # more bytes than the words hold
@example([("cell", 1, 3, "1e-999")])  # 10^E below the table
@example([("cell", 1, 3, "1e+999")])  # above it
@example([("cell", 1, 3, "0e+999")])
@example([("cell", 1, 3, "-1e400")])  # no sign after e
@example([("cell", 5, 3, "-1e+400"), ("cell", 9, 3, "x")])  # an overflow before a misspelling
def test_array_reader_agrees_with_the_line_parser(edit_list):
    lines = WIDE_CSV
    for edit in edit_list:
        lines = apply(lines, edit)
    lines = ("\n".join(lines) + "\n").splitlines()
    want = _read_or_error(line_parser_csv, lines)
    assert _read_or_error(read_csv, lines) == want
    with mock.patch.object(csvio, "_EXTENDED", False):
        assert _read_or_error(read_csv, lines) == want


# a wide table is read 14 lines a block here, so rows 29 to 42 are its third block;
# a line with a wrong count and a misspelling reports the count
@pytest.mark.parametrize("cells, message", [
    ("1E5,0", "ASCII"), ("0.٣,0", "ASCII"), ("0", "expected 70 cells, got 69"),
    ("x,1,2", "expected 70 cells, got 71"),
])
def test_errors_of_a_wide_table_name_their_file_line(monkeypatch, cells, message):
    monkeypatch.setattr(csvio, "_READ_CELLS", 14 * 70)
    lines = list(WIDE_CSV)
    row = lines[35].split(",")
    row[5:7] = cells.split(",")
    lines[35] = ",".join(row)
    lines[38] = lines[38].replace(",", ",x", 1)  # a later error does not hide it
    lines[1:1] = ["", "  "]  # blank lines still count
    with pytest.raises(ParseError, match=message) as err:
        read_csv(lines)
    assert err.value.line == 38


def _trajectory_header(n):
    traits = range(1, n + 1)
    return ["t", *(f"f_{j}" for j in traits), *(f"R_{j}" for j in traits),
            "mass", "S", "Q", "F", "H"]


# the tables plot draws: a stable distribution, and trajectories of 8 to 12 columns
# and of 64 to 74, in any cells %.17g writes and in spellings it never writes
@st.composite
def plotted_csvs(draw):
    shape = draw(st.sampled_from(["esd", "narrow", "wide"]))
    if shape == "esd":
        header = ["trait", "f_tilde", "R_tilde"]
    else:
        header = _trajectory_header(draw(st.integers(1, 3) if shape == "narrow"
                                         else st.integers(29, 34)))
    rows = draw(st.integers(1, 6))
    finite = (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL[:5])
              | st.floats(1e307, 1.7976931348623157e308) | st.floats(-1.0, 1.0))
    block = draw(arrays(np.float64, (rows, len(header)), elements=finite))
    for row, col, value in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, 99),
                                                   st.sampled_from([math.nan, math.inf,
                                                                    -math.inf])), max_size=3)):
        block[row, col % len(header)] = value
    lines = oracle_csv(Table(dict(zip(header, block.T)))).decode().splitlines()
    spellings = st.sampled_from([
        "1e+999", "1" + "0" * 400, "-1e+400", "1.7976931348623159e+308", "1e999",
        "1.7976931348623157e+308", "0e+999", "1e-999", "1" + "0" * 29, "1." + "0" * 30, "x",
        "", "inf"])
    spelt = st.tuples(st.just("cell"), st.integers(1, 7), st.integers(0, 99), spellings)
    for edit in draw(st.lists(spelt, max_size=3)) + draw(st.lists(edits, max_size=1)):
        lines = apply(lines, edit)
    return lines


def _kept_or_error(lines, chosen, select):
    """The bits of the cells a selection chooses from a read with select (a one-row
    table's end row once), and what `numeric` makes of each of their columns; or
    the type, message and line of the read's error."""
    try:
        table = read_csv(lines, select)
    except ParseError as err:
        return type(err), str(err), err.line
    header = next(line for line in lines if line.strip()).split(",")
    names, ends = chosen(header)
    kept = []
    for name in (name for name in names if name in table.columns):
        col = table.column(name)
        col = col[[0, -1]][:len(col)] if ends else col
        try:
            table.numeric(name)
        except ParseError as err:
            kept.append((name, col.view(np.int64).tolist(), str(err), err.field))
        else:
            kept.append((name, col.view(np.int64).tolist()))
    return kept


def _plotted(n, *cells):
    """The lines of a 5-row trajectory CSV of n traits, with cells (line, column, text)
    spelt anew."""
    header = _trajectory_header(n)
    rng = np.random.default_rng(n)
    lines = oracle_csv(Table({name: rng.uniform(0.1, 2.0, 5) for name in header}))
    lines = lines.decode().splitlines()
    for line, col, text in cells:
        lines = apply(lines, ("cell", line, col, text))
    return lines


LONG = "1" + "0" * 400  # overflows, past 24 bytes


# the read of what a kind draws converts fewer cells, but it holds their bits, checks
# every line and fails as the whole read with `numeric` does, naming the same line;
# each draw reads 1 to 3 lines a block, so an end row may lie in a block of its own
@pytest.mark.parametrize("kind, log", [("profile", False), ("waterfall", False),
                                       ("entropy", False), ("entropy", True)])
def test_a_read_of_what_a_kind_draws_agrees_with_the_whole_read(kind, log):
    select = functools.partial(svgplot.drawn, kind)

    def every_column(header):
        return header, False

    @settings(PROPERTY, max_examples=100)
    @given(plotted_csvs(), st.integers(1, 3), st.just(select))
    @example(_plotted(2, (3, 1, "")), 2, select)  # a blank f_1 between the end rows
    @example(_plotted(2, (3, 4, "-inf")), 2, select)  # an infinite R_2 there
    @example(_plotted(2, (3, 5, LONG)), 3, select)  # an overflow in mass, not drawn
    @example(_plotted(2, (3, 1, LONG)), 1, select)  # in f_1 between the end rows
    @example(_plotted(30, (3, 62, "1e+999")), 2, select)  # in a wide table
    @example(_plotted(30, (3, 1, "inf"), (4, 3, "")), 2, select)
    @example(_plotted(2, (2, 5, "-1e+400"), (4, 1, "x")), 3, select)  # the overflow fails first
    @example(_plotted(2)[:2], 1, select)  # one data row, the first end row and the last
    @example(_plotted(30, (3, 1, "inf"), (4, 3, "")), 2, every_column)  # the whole read's bits
    def check(lines, per_block, chosen):
        lines = ("\n".join(lines) + "\n").splitlines()
        ncols = len(lines[0].split(",")) if lines else 1
        with mock.patch.object(csvio, "_ROWS", per_block), \
                mock.patch.object(csvio, "_READ_CELLS", per_block * ncols):
            assert _kept_or_error(lines, chosen, chosen) == _kept_or_error(lines, chosen, None)
            whole, selected = render_read_both_ways(lines, kind, log)
            assert selected == whole

    check()


@pytest.mark.parametrize("csv", ["narrow", "wide"])
def test_a_column_without_a_name_fails_naming_the_header_line(csv):
    lines = list(SMALL_CSV if csv == "narrow" else WIDE_CSV)
    header = lines[0].split(",")
    header[2] = ""
    lines[0] = ",".join(header)
    lines[0:0] = ["", "  "]  # blank lines before the header still count
    with pytest.raises(ParseError, match="^column 3 has no name") as err:
        read_csv(lines)
    assert err.value.line == 3


def test_a_newline_within_a_line_is_out_of_place():
    # lines that do not come from a file may hold one; splitting there would shift rows
    with pytest.raises(ParseError, match="ASCII") as err:
        read_csv(["a,b", "1,2", "3\n,4", "5,6"])
    assert err.value.line == 3


@pytest.mark.parametrize("columns, field", [
    ({"t": np.zeros(3), "f_1": np.zeros(2)}, "f_1"),
    ({"t": np.zeros((3, 2))}, "t"),
    ({"t": np.zeros(2), "S": np.float64(1.0)}, "S"),
    ({}, "columns"),
])
def test_a_table_is_checked_when_built(columns, field, tmp_path):
    with pytest.raises(ValidationError) as err:
        write_csv(tmp_path / "t.csv", Table(columns))
    assert err.value.field == field
    assert not (tmp_path / "t.csv").exists()


def test_a_table_cannot_change_after_it_is_checked(tmp_path):
    built = {"t": np.arange(3.0)}
    table = Table(built)
    with pytest.raises(TypeError):
        table.columns["f_1"] = np.zeros(2)
        write_csv(tmp_path / "t.csv", table)
    assert not (tmp_path / "t.csv").exists()
    built["f_1"] = np.zeros(2)  # nor through the mapping it was built from
    assert list(table.columns) == ["t"]


def test_reading_a_csv_does_not_import_numpy_ma(tmp_path):
    # the array reader too, so the table is wide enough for it and holds a subnormal
    write_csv(tmp_path / "t.csv", Table({f"c{j}": np.array([j, 5e-324, -0.5, np.nan])
                                         for j in range(csvio._WIDE)}))
    code = ("import sys\n"
            "from rclab.csvio import read_csv\n"
            "with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "    assert read_csv(fh).columns['c3'][1] == 5e-324\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv")], env=subprocess_env(),
                   check=True)


def test_writing_a_csv_does_not_import_numpy_ma(tmp_path):
    # np.unique, for one, imports numpy.ma on its first call: half a megabyte at start-up
    code = ("import sys, numpy as np\n"
            "from rclab.csvio import Table, write_csv\n"
            "write_csv(sys.argv[1], Table({'t': np.arange(3.0), 'S': np.full(3, np.nan)}))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv")], env=subprocess_env(),
                   check=True)
    assert (tmp_path / "t.csv").read_text() == "t,S\n0,\n1,\n2,\n"
