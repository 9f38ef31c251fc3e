"""Properties of the CSV format on random input."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import n1_instance
from rclab import Diagnostics, ModelParams, ParseError, Scheme, State, StepConfig, simulate
from rclab.csvio import read_csv, trajectory_csv, trajectory_table, write_trajectory_csv
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
        write_trajectory_csv(path, traj)
        table = read_csv(path.read_text(encoding="utf-8"))
        expected = trajectory_table(traj)
        assert table.header == expected.header
        for name in expected.header:
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
    return trajectory_csv(traj).splitlines()


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
        table = read_csv("\n".join(lines) + "\n")
        for name in HEADER:
            if name == "S":  # blank where the entropy is undefined
                table.column(name)
            else:
                table.numeric(name)
    except ParseError as err:
        assert err.line is not None or err.field is not None


def test_errors_name_the_line_of_the_file():
    with pytest.raises(ParseError) as err:
        read_csv("t,f_1\n\n0,1\n\n0,x\n")
    assert err.value.line == 5


# write_trajectory_csv spells numbers as %.17g does, in ASCII; float alone would
# read "٣" as 3.0, "1_0" as 10.0, " 2" as 2.0, "1e400" as inf and "nan" as a blank
@PROPERTY
@given(st.integers(1, len(SMALL_CSV) - 1), st.integers(0, len(HEADER) - 1),
       st.sampled_from(["٣", "1_0", "1_000.5", "٣.5e1", "0.１", "-1e1_0",
                        " 2", "+2", "Infinity", "1e400", "nan", "NaN", "1E5"]))
def test_numbers_in_other_spellings_fail_with_their_line(row, col, spelling):
    lines = apply(SMALL_CSV, ("cell", row, col, spelling))
    with pytest.raises(ParseError, match="ASCII") as err:
        read_csv("\n".join(lines) + "\n")
    assert err.value.line == row + 1
