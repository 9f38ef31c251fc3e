"""Properties of the CSV format on random input."""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rclab
from helpers import n1_instance, oracle_csv
from rclab import (Diagnostics, ModelParams, ParseError, Scheme, State, StepConfig,
                   ValidationError, csvio, simulate)
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
@PROPERTY
@given(st.integers(1, len(SMALL_CSV) - 1), st.integers(0, len(HEADER) - 1),
       st.sampled_from(["٣", "1_0", "1_000.5", "٣.5e1", "0.１", "-1e1_0",
                        " 2", "+2", "Infinity", "1e400", "nan", "NaN", "1E5"]))
def test_numbers_in_other_spellings_fail_with_their_line(row, col, spelling):
    lines = apply(SMALL_CSV, ("cell", row, col, spelling))
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


def test_writing_a_csv_does_not_import_numpy_ma(tmp_path):
    # np.unique, for one, imports numpy.ma on its first call: half a megabyte at start-up
    code = ("import sys, numpy as np\n"
            "from rclab.csvio import Table, write_csv\n"
            "write_csv(sys.argv[1], Table({'t': np.arange(3.0), 'S': np.full(3, np.nan)}))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    src = str(Path(rclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv")], env=env, check=True)
    assert (tmp_path / "t.csv").read_text() == "t,S\n0,\n1,\n2,\n"
