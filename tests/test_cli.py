"""CLI subcommands: outputs, exit codes, determinism."""

import json
import platform
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rclab.cli
from helpers import random_stack, render_read_both_ways, subprocess_env, traced_peak
from rclab import builtin_presets, load_scenario, save_scenario, trait_grid
from rclab.cli import main
from rclab.csvio import Table, esd_table, read_csv, trajectory_table, write_csv
from rclab.errors import NewtonFailed, ParseError, RclabError
from rclab.svgplot import render, render_entropy, render_profile, render_waterfall


def run(args):
    return main(args)


def read_table(path):
    with open(path, encoding="utf-8") as fh:
        return read_csv(fh)


def _long_n1_csv(tmp_path):
    """The trajectory.csv of a 4,000-step n1-closedform run, about 0.6 MB."""
    out = tmp_path / "long"
    assert run(["simulate", "--preset", "n1-closedform", "--T", "400", "--out", str(out)]) == 0
    return out / "trajectory.csv"


# a fresh process's minor page faults in plot, from after its imports
_PLOT_FAULTS = """
import resource, sys
from rclab.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(["plot", "--csv", sys.argv[1], "--kind", "profile", "--out-svg", sys.argv[2]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# finite numbers of every magnitude: subnormals, 2^53, the largest double
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 2.0**53, 1e308,
             -1e308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def drawable_tables(draw):
    """A stable distribution or a trajectory of 1 to 3 traits, 1 to 5 rows, its
    columns finite or constant numbers of any magnitude."""
    if draw(st.booleans()):
        header = ["trait", "f_tilde", "R_tilde"]
    else:
        traits = range(1, draw(st.integers(1, 3)) + 1)
        header = ["t", *(f"f_{j}" for j in traits), *(f"R_{j}" for j in traits), "S", "Q"]
    rows = draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES)
    cells = st.lists(finite, min_size=rows, max_size=rows) | finite.map(lambda x: [x] * rows)
    return Table({name: np.array(draw(cells)) for name in header})


_FRAME = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" fill="none"')


def assert_points_in_their_frames(svg):
    """Every polyline point lies inside its panel's frame, to the 0.01 the SVG spells:
    the polylines fall evenly to the frames in order (a profile draws f, then R)."""
    frames = [[float(v) for v in frame] for frame in _FRAME.findall(svg)]
    lines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert frames and len(lines) % len(frames) == 0
    for i, points in enumerate(lines):
        x, y, w, h = frames[i // (len(lines) // len(frames))]
        for point in points.split():
            px, py = (float(v) for v in point.split(","))
            assert x - 0.01 <= px <= x + w + 0.01 and y - 0.01 <= py <= y + h + 0.01, point


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def _n1_scenario(initial_f: str) -> str:
    """The n1-closedform scenario text with initial_f.kind gaussian or zero."""
    text = save_scenario(builtin_presets()["n1-closedform"])
    if initial_f == "gaussian":
        return text
    text = text.replace("initial_f.kind = gaussian\n", f"initial_f.kind = {initial_f}\n")
    return "\n".join(
        ln for ln in text.splitlines()
        if not ln.startswith(("initial_f.amp", "initial_f.sigma"))
    ) + "\n"


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_unknown_scheme_is_refused_naming_the_schemes(tmp_path, capsys, command):
    # the parser leaves --scheme to ScenarioSpec, which holds the schemes' names
    out = tmp_path / "out"
    assert run([command, "--preset", "n1-closedform", "--scheme", "bogus",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid value for 'scheme': must be one of ('semi', 'implicit')\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_run_derives_its_constants_once(tmp_path, monkeypatch, command):
    # at every binding of validate_params: simulate returns the constants it derived
    import rclab.model

    calls = []
    original = rclab.model.validate_params

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "rclab"]:
        if getattr(module, "validate_params", None) is original:
            monkeypatch.setattr(module, "validate_params", counted)
    assert run([command, "--preset", "n1-closedform", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


class TestVerify:
    def test_n1_all_verdicts_pass(self, tmp_path):
        out = tmp_path / "v"
        assert run(["verify", "--preset", "n1-closedform", "--out", str(out)]) == 0
        report = read_report(out)
        verdict_keys = {k for k in report if k.startswith("verdicts.")}
        assert verdict_keys == {
            "verdicts.mass_bound", "verdicts.esd_convergence",
            "verdicts.persistence_sum", "verdicts.entropy_monotone",
        }
        assert all(report[k] for k in verdict_keys)
        assert report["comparison.L1_distance_f"] < 1e-6
        for name in ("trajectory.csv", "esd.csv", "report.json",
                     "profile.svg", "entropy.svg"):
            assert (out / name).exists()

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["verify", "--preset", "n1-closedform", "--out", str(out1)]) == 0
        assert run(["verify", "--preset", "n1-closedform", "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "esd.csv", "report.json",
                     "profile.svg", "entropy.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_example1_implicit_all_verdicts(self, tmp_path):
        out = tmp_path / "e1"
        assert run(["verify", "--preset", "example1", "--scheme", "implicit",
                    "--out", str(out)]) == 0
        report = read_report(out)
        assert report["verdicts.entropy_monotone"]
        assert report["verdicts.esd_convergence"]
        assert report["comparison.L1_distance_f"] < 1e-3
        assert report["comparison.Linf_distance_R"] < 1e-3
        assert report["esd.persistence_count"] == 2

    def test_example2_extinction_verdicts(self, tmp_path):
        out = tmp_path / "e2"
        assert run(["verify", "--preset", "example2", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["verdicts.esd_convergence"]
        assert report["verdicts.persistence_sum"]

    def test_failed_verdict_exits_1_but_writes_report(self, tmp_path):
        out = tmp_path / "f"
        assert run(["verify", "--preset", "n1-closedform", "--tol", "1e-30",
                    "--out", str(out)]) == 1
        report = read_report(out)
        assert report["verdicts.esd_convergence"] is False
        assert (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("initial_f", ["gaussian", "zero"])
    def test_svgs_match_plot_of_own_csv(self, tmp_path, initial_f):
        # with zero initial species the entropy is undefined: S stays blank
        path = tmp_path / "n1.rc"
        path.write_text(_n1_scenario(initial_f), encoding="utf-8")
        out = tmp_path / "v"
        run(["verify", "--scenario", str(path), "--out", str(out)])
        for kind in ("profile", "entropy"):
            svg = tmp_path / f"plot-{kind}.svg"
            assert run(["plot", "--csv", str(out / "trajectory.csv"), "--kind", kind,
                        "--out-svg", str(svg)]) == 0
            assert svg.read_bytes() == (out / f"{kind}.svg").read_bytes()

    def test_implicit_undefined_entropy_fails_its_verdict(self, tmp_path):
        # no species at t = 0, but the stable distribution lives on trait 0
        path = tmp_path / "zero.rc"
        path.write_text(_n1_scenario("zero"), encoding="utf-8")
        out = tmp_path / "z"
        assert run(["verify", "--scenario", str(path), "--scheme", "implicit",
                    "--T", "5", "--out", str(out)]) == 1
        report = read_report(out)
        assert report["verdicts.entropy_monotone"] is False
        assert report["trajectory.S_undefined_at_t"] == 0.0

    def test_entropy_is_computed_once_per_run(self, tmp_path, monkeypatch):
        # at every binding of lyapunov_S, as `from .model import lyapunov_S` makes one
        import rclab.model

        calls = []
        original = rclab.model.lyapunov_S

        def counted(*args):
            calls.append(1)
            return original(*args)

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "rclab"]:
            if getattr(module, "lyapunov_S", None) is original:
                monkeypatch.setattr(module, "lyapunov_S", counted)
        assert run(["verify", "--preset", "n1-closedform", "--scheme", "implicit",
                    "--out", str(tmp_path)]) == 0
        assert read_report(tmp_path)["verdicts.entropy_monotone"] is True
        assert len(calls) == 1

    def test_each_svg_is_drawn_through_render(self, tmp_path, monkeypatch):
        # so verify's SVGs pass the request check and overflow guard that plot's do
        from rclab import svgplot

        kinds = []
        original = svgplot.render

        def recording(table, kind, **options):
            kinds.append(kind)
            return original(table, kind, **options)

        monkeypatch.setattr(svgplot, "render", recording)
        assert run(["verify", "--preset", "n1-closedform", "--out", str(tmp_path)]) == 0
        assert kinds == ["profile", "entropy"]

    def test_semi_implicit_report_has_no_entropy_verdict(self, tmp_path):
        path = tmp_path / "zero.rc"
        path.write_text(_n1_scenario("zero"), encoding="utf-8")
        out = tmp_path / "z"
        run(["verify", "--scenario", str(path), "--scheme", "semi", "--T", "5",
             "--out", str(out)])
        report = read_report(out)
        assert "verdicts.entropy_monotone" not in report
        assert "trajectory.S_undefined_at_t" not in report

    def test_enforce_mu0_surfaces_as_error(self, tmp_path):
        from rclab import builtin_presets, save_scenario
        from dataclasses import replace

        spec = replace(builtin_presets()["example1"], enforce_mu0=True)
        path = tmp_path / "strict.rc"
        path.write_text(save_scenario(spec), encoding="utf-8")
        assert run(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2


class TestSimulate:
    def test_trajectory_row_count_and_columns(self, tmp_path):
        out = tmp_path / "s"
        assert run(["simulate", "--preset", "n1-closedform", "--T", "2.0",
                    "--out", str(out)]) == 0
        table = read_table(out / "trajectory.csv")
        report = read_report(out)
        assert len(table.column("t")) == report["trajectory.steps"] + 1
        f = table.numeric("f_1")
        assert np.all(np.isfinite(f)) and np.all(f >= 0)
        assert np.all(np.isfinite(table.numeric("R_1")))
        # S has no reference in plain simulate: blank cells throughout
        assert np.all(np.isnan(table.column("S")))

    def test_example1_final_profile_has_two_local_maxima(self, tmp_path):
        out = tmp_path / "e1"
        assert run(["simulate", "--preset", "example1", "--out", str(out)]) == 0
        table = read_table(out / "trajectory.csv")
        final_f = np.array([table.numeric(f"f_{j}")[-1] for j in range(1, 41)])
        interior = final_f[1:-1]
        local_max = (interior > final_f[:-2]) & (interior > final_f[2:])
        assert int(np.sum(local_max & (interior > 1e-6))) == 2

    def test_csv_round_trip_is_lossless(self, tmp_path):
        from rclab import StepConfig, simulate
        from rclab.csvio import trajectory_table, write_csv
        from helpers import n1_instance

        params, state0 = n1_instance()
        traj = simulate(params, state0, 2.0, StepConfig(dt=0.1))
        path = tmp_path / "trajectory.csv"
        write_csv(path, trajectory_table(traj))
        table = read_table(path)
        assert np.array_equal(table.numeric("t"), traj.times)
        assert np.array_equal(table.numeric("f_1"), traj.f[:, 0])
        assert np.array_equal(table.numeric("R_1"), traj.R[:, 0])
        assert np.array_equal(table.numeric("H"), traj.diagnostics.H)

    def test_written_csv_is_never_held_whole(self, tmp_path):
        import tracemalloc

        from rclab import StepConfig, simulate
        from rclab.csvio import trajectory_table, write_csv
        from helpers import n1_instance

        params, state0 = n1_instance()
        traj = simulate(params, state0, 400.0, StepConfig(dt=0.1))  # S blank throughout
        path = tmp_path / "trajectory.csv"
        tracemalloc.start()
        try:
            write_csv(path, trajectory_table(traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size  # rows are written as they are rendered, never joined

    def test_read_csv_holds_only_the_parsed_floats(self, tmp_path):
        import tracemalloc

        path = _long_n1_csv(tmp_path)
        with open(path, encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                table = read_csv(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        floats = sum(col.nbytes for col in table.columns.values())
        assert peak < 1.5 * floats  # neither the text nor a list of its lines is held

    def test_misspelt_cell_late_in_the_file_names_its_file_line(self, tmp_path):
        path = _long_n1_csv(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = lines[3900].split(",")
        row[1] = "1E5"
        lines[3900] = ",".join(row)
        lines[1:1] = ["", "  "]  # blank lines still count
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError, match="ASCII") as err:
            read_csv(fh)
        assert err.value.line == 3903

    def test_non_utf8_byte_past_the_first_read_rejected_naming_the_file(self, tmp_path, capsys):
        path = _long_n1_csv(tmp_path)
        data = bytearray(path.read_bytes())
        at = data.index(b"1", 100_000)  # past the first 64 KB
        data[at] = 0xFF
        path.write_bytes(bytes(data))
        assert run(["plot", "--csv", str(path), "--kind", "profile",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and "utf-8" in err

    def test_zero_species_scenario(self, tmp_path):
        path = tmp_path / "zero.rc"
        path.write_text(_n1_scenario("zero"), encoding="utf-8")
        out = tmp_path / "z"
        assert run(["simulate", "--scenario", str(path), "--T", "15",
                    "--out", str(out)]) == 0
        table = read_table(out / "trajectory.csv")
        f = table.numeric("f_1")
        assert np.array_equal(f, np.zeros_like(f))
        assert abs(table.numeric("R_1")[-1] - 1.0) < 1e-3  # relaxes to Rstar

    def test_a_warning_is_one_line_without_its_source(self, tmp_path):
        # so stderr does not change with the checkout's path or the warning's source line
        argv = [sys.executable, "-m", "rclab.cli", "simulate", "--preset", "example1",
                "--T", "4", "--out", str(tmp_path)]
        done = subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, (
            "warning: dt = 0.4 exceeds the guaranteed-stable bound mu0 = 0.00215159; "
            "proceeding (the bound is sufficient, not necessary)\n"))


class TestEsd:
    def test_extinction_preset(self, tmp_path):
        out = tmp_path / "e"
        assert run(["esd", "--preset", "example2", "--out", str(out)]) == 0
        table = read_table(out / "esd.csv")
        f = table.numeric("f_tilde")
        assert np.array_equal(f, np.zeros_like(f))
        report = read_report(out)
        assert report["esd.persistence_count"] == 0
        assert report["verdicts.restart_agreement"]

    def test_example1_dimorphic(self, tmp_path):
        out = tmp_path / "d"
        assert run(["esd", "--preset", "example1", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["esd.persistence_count"] >= 2
        table = read_table(out / "esd.csv")
        f = table.numeric("f_tilde")
        on = f > 1e-8
        clusters = int(np.sum(on[1:] & ~on[:-1]) + (1 if on[0] else 0))
        assert clusters == 2


    def test_no_svd_of_K_per_command(self, tmp_path, monkeypatch):
        # each solve certifies uniqueness on its support: a 2 x 40 factor
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert run(["esd", "--preset", "example1", "--out", str(tmp_path)]) == 0
        assert shapes == [(2, 40), (2, 40)]

    def test_restart_disagreement_fails_its_verdict(self, tmp_path, monkeypatch):
        solve = rclab.esd.solve_esd

        def shifted_restart(params, f_init=None, **kwargs):
            esd = solve(params, f_init=f_init, **kwargs)
            if f_init is None:
                return esd
            return replace(esd, f_tilde=esd.f_tilde + 1e-3)

        monkeypatch.setattr("rclab.esd.solve_esd", shifted_restart)
        assert run(["esd", "--preset", "n1-closedform", "--out", str(tmp_path)]) == 1
        assert read_report(tmp_path)["verdicts.restart_agreement"] is False

    def test_restart_start_is_sparse_and_seeded(self, tmp_path, monkeypatch):
        starts = []
        solve = rclab.esd.solve_esd

        def recording_solve(params, f_init=None, **kwargs):
            if f_init is not None:
                starts.append(f_init)
            return solve(params, f_init=f_init, **kwargs)

        monkeypatch.setattr("rclab.esd.solve_esd", recording_solve)
        for seed in ("5", "5", "6"):
            assert run(["esd", "--preset", "example1", "--seed", seed,
                        "--out", str(tmp_path)]) == 0
        assert all(0 < np.count_nonzero(f) <= 4 and np.all(f >= 0) for f in starts)
        assert np.array_equal(starts[0], starts[1])
        assert not np.array_equal(starts[0], starts[2])


class TestAnalyze:
    def test_example2_extinction_no_candidates(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run(["analyze", "--preset", "example2", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["analysis.extinction_predicate"] == "extinction"
        assert report["analysis.positive_steady_state_excluded"] is True
        assert report["analysis.dirac_count"] == 0

    def test_n1_dirac(self, tmp_path):
        out = tmp_path / "a1"
        assert run(["analyze", "--preset", "n1-closedform", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["analysis.extinction_predicate"] == "survival"
        assert report["analysis.dirac_rho_0"] == pytest.approx(1.0, abs=1e-10)

    def test_example1_all_growing_traits_have_dirac(self, tmp_path, example1):
        params, _ = example1
        out = tmp_path / "a2"
        assert run(["analyze", "--preset", "example1", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["analysis.extinction_predicate"] == "survival"
        assert report["analysis.dirac_count"] == int(np.sum(params.a > 0))
        assert "analysis.two_peak" in report

    def test_two_peak_newton_failure_is_recorded(self, tmp_path, monkeypatch):
        def fail(params, i, l):
            raise NewtonFailed("no convergence")

        monkeypatch.setattr(rclab.steady, "two_peak_steady_state", fail)
        out = tmp_path / "a3"
        assert run(["analyze", "--preset", "example1", "--out", str(out)]) == 0
        assert read_report(out)["analysis.two_peak"] == "failed: no convergence"

    def test_report_has_no_verdicts(self, tmp_path):
        # analyze computes candidates, it checks no claim that could fail
        for preset in ("example1", "example2"):
            out = tmp_path / preset
            assert run(["analyze", "--preset", preset, "--out", str(out)]) == 0
            assert not [k for k in read_report(out) if k.startswith("verdicts.")]


@pytest.fixture(scope="module")
def plot_csvs(tmp_path_factory, example1_traj_implicit, example1_esd):
    """The CSVs plot draws: simulate-plot-wide's 14 MB trajectory (N = 320, T = 400,
    semi-implicit), the flagship's 7,501 rows, an n1-closedform run's and example1's ESD."""
    out = tmp_path_factory.mktemp("plot")
    example1 = builtin_presets()["example1"]
    (out / "wide.rc").write_text(save_scenario(replace(example1, N=320, T_final=400.0,
                                                       scheme="semi")), encoding="utf-8")
    assert run(["simulate", "--scenario", str(out / "wide.rc"), "--out", str(out / "wide")]) == 0
    assert run(["simulate", "--preset", "n1-closedform", "--out", str(out / "n1")]) == 0
    write_csv(out / "flagship.csv", trajectory_table(example1_traj_implicit))
    write_csv(out / "esd.csv", esd_table(trait_grid(example1), example1_esd))
    return {"wide": out / "wide" / "trajectory.csv", "flagship": out / "flagship.csv",
            "n1": out / "n1" / "trajectory.csv", "esd": out / "esd.csv"}


class TestPlot:
    # every kind draws the same bytes from the cells it draws as from the whole table
    # (an ESD fails alike for waterfall and entropy)
    @pytest.mark.parametrize("csv", ["wide", "flagship", "n1", "esd"])
    def test_svgs_drawn_from_the_drawn_cells_are_byte_identical(self, plot_csvs, csv):
        lines = plot_csvs[csv].read_text(encoding="utf-8").splitlines(keepends=True)
        for kind, log in [("profile", False), ("waterfall", False), ("entropy", False),
                          ("entropy", True)]:
            whole, selected = render_read_both_ways(lines, kind, log)
            assert isinstance(whole, str) == (csv != "esd" or kind == "profile")
            assert selected == whole

    def _trajectory(self, tmp_path):
        out = tmp_path / "t"
        run(["simulate", "--preset", "n1-closedform", "--T", "5", "--out", str(out)])
        return out / "trajectory.csv"

    def test_kinds_render(self, tmp_path):
        csv = self._trajectory(tmp_path)
        for kind in ("profile", "entropy", "waterfall"):
            svg = tmp_path / f"{kind}.svg"
            assert run(["plot", "--csv", str(csv), "--kind", kind,
                        "--out-svg", str(svg)]) == 0
            content = svg.read_text(encoding="utf-8")
            assert content.startswith("<svg") and content.rstrip().endswith("</svg>")

    def test_profile_of_esd_csv(self, tmp_path):
        out = tmp_path / "e"
        run(["esd", "--preset", "n1-closedform", "--out", str(out)])
        svg = tmp_path / "esd.svg"
        assert run(["plot", "--csv", str(out / "esd.csv"), "--kind", "profile",
                    "--out-svg", str(svg)]) == 0

    def test_log_scale_entropy(self, tmp_path):
        csv = self._trajectory(tmp_path)
        svg = tmp_path / "log.svg"
        assert run(["plot", "--csv", str(csv), "--kind", "entropy", "--log",
                    "--out-svg", str(svg)]) == 0
        assert "log10" in svg.read_text(encoding="utf-8")

    def test_log_scale_draws_only_positive_values(self, tmp_path):
        # Q = 0 at t = 0 of this run; drawn at 1e-300, it set the axis at -315
        csv = self._trajectory(tmp_path)
        svg = tmp_path / "log.svg"
        assert run(["plot", "--csv", str(csv), "--kind", "entropy", "--log",
                    "--out-svg", str(svg)]) == 0
        y_ticks = re.findall(r'text-anchor="end"[^>]* font-size="10">([^<]*)<',
                             svg.read_text(encoding="utf-8"))
        assert len(y_ticks) == 5
        assert min(float(v) for v in y_ticks) > -100

    def test_log_scale_without_a_positive_value_names_the_columns(self):
        table = read_csv("t,S,Q\n0,-1,0\n1,-2,0\n".splitlines())
        assert "log10(Q)" not in render_entropy(table)
        with pytest.raises(ParseError, match="columns S, Q"):
            render_entropy(table, log_scale=True)

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert run(["plot", "--csv", str(empty), "--kind", "profile",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2
        with pytest.raises(ParseError):
            read_csv("".splitlines())

    def test_unknown_kind_rejected(self, tmp_path):
        csv = self._trajectory(tmp_path)
        assert run(["plot", "--csv", str(csv), "--kind", "sparkline",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2

    def test_unknown_kind_is_refused_before_the_csv_is_read(self, tmp_path, capsys):
        assert run(["plot", "--csv", str(tmp_path / "ghost.csv"), "--kind", "sparkline",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2
        assert "unknown plot kind 'sparkline'" in capsys.readouterr().err

    def test_waterfall_of_esd_csv_rejected(self, tmp_path, capsys):
        # esd.csv has f_tilde but no numbered f_1..f_N columns
        out = tmp_path / "e"
        run(["esd", "--preset", "n1-closedform", "--out", str(out)])
        capsys.readouterr()
        assert run(["plot", "--csv", str(out / "esd.csv"), "--kind", "waterfall",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2
        assert "waterfall needs a trajectory CSV" in capsys.readouterr().err

    def test_missing_csv_rejected(self, tmp_path):
        assert run(["plot", "--csv", str(tmp_path / "ghost.csv"), "--kind", "profile",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2

    @pytest.mark.parametrize("series, missing", [("f_1", "R_*"), ("R_1", "f_*")])
    def test_profile_without_one_series_names_it(self, tmp_path, capsys, series, missing):
        csv = tmp_path / "half.csv"
        csv.write_text(f"t,{series}\n0,1\n1,2\n", encoding="utf-8")
        assert run(["plot", "--csv", str(csv), "--kind", "profile",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2
        assert f"needs {missing} columns" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, text, column", [
        pytest.param("profile", "trait,f_tilde,R_tilde\n0,inf,1\n1,1,1\n", "f_tilde", id="esd"),
        pytest.param("profile", "t,f_1,R_1\n0,1,1\n1,1,-inf\n", "R_1", id="profile"),
        pytest.param("entropy", "t,Q\n0,1\n1,inf\n", "Q", id="Q"),
        pytest.param("entropy", "t,S,Q\n0,inf,1\n1,1,1\n", "S", id="S"),
        pytest.param("entropy --log", "t,Q\n0,1\n1,inf\n", "Q", id="log-Q"),
        pytest.param("entropy --log", "t,S,Q\n0,inf,1\n1,1,1\n", "S", id="log-S"),
        pytest.param("waterfall", "t,f_1,f_2\n0,1,1\n1,inf,1\n", "f_1", id="waterfall"),
    ])
    def test_infinite_drawn_value_rejected_naming_its_column(self, tmp_path, capsys,
                                                             kind, text, column):
        csv, svg = tmp_path / "inf.csv", tmp_path / "no.svg"
        csv.write_text(text, encoding="utf-8")
        assert run(["plot", "--csv", str(csv), "--kind", *kind.split(),
                    "--out-svg", str(svg)]) == 2
        assert capsys.readouterr().err == (
            f"error: column '{column}' has infinite values (field '{column}')\n")
        assert not svg.exists()

    @pytest.mark.parametrize("kind", ["profile", "waterfall"])
    def test_log_scale_refused_for_other_kinds_before_reading(self, tmp_path, capsys, kind):
        svg = tmp_path / "no.svg"
        assert run(["plot", "--csv", str(tmp_path / "ghost.csv"), "--kind", kind, "--log",
                    "--out-svg", str(svg)]) == 2
        assert capsys.readouterr().err == (
            f"error: --log applies to --kind entropy only, not {kind}\n")
        assert not svg.exists()

    @pytest.mark.parametrize("kind", ["profile", "waterfall"])
    def test_log_scale_refused_by_the_library_for_other_kinds(self, kind):
        table = read_csv("t,f_1,R_1,Q\n0,1,1,1\n1,2,1,0.5\n".splitlines())
        assert "log10" in render(table, "entropy", log_scale=True)
        with pytest.raises(RclabError, match=f"entropy only, not {kind}$"):
            render(table, kind, log_scale=True)

    # one t at 2^53, where t + 1 == t, and an S axis whose width overflows
    @pytest.mark.parametrize("text", ["t,S,Q\n9007199254740992,1,1\n",
                                      "t,S,Q\n0,-1e+308,1\n1,1e+308,1\n"])
    def test_an_axis_without_a_finite_positive_width_is_refused(self, tmp_path, capsys, text):
        csv, svg = tmp_path / "axis.csv", tmp_path / "no.svg"
        csv.write_text(text, encoding="utf-8")
        assert run(["plot", "--csv", str(csv), "--kind", "entropy", "--out-svg", str(svg)]) == 2
        assert re.fullmatch(r"error: an axis from \S+ to \S+ has no finite positive width\n",
                            capsys.readouterr().err)
        assert not svg.exists()

    # plot draws a table of finite drawn values, whatever their magnitude, with finite
    # numbers only, or refuses it with a message; it never fails otherwise, nor warns
    def test_finite_values_of_any_magnitude_are_drawn_finite_or_refused(self, tmp_path):
        csv, svg = tmp_path / "table.csv", tmp_path / "plot.svg"

        @settings(max_examples=80)
        @given(drawable_tables(), st.sampled_from(["profile", "waterfall", "entropy",
                                                   "entropy --log"]))
        @example(Table({"t": np.array([2.0**53]), "S": np.ones(1), "Q": np.ones(1)}), "entropy")
        @example(Table({"t": np.arange(2.0), "S": np.array([-1e308, 1e308]), "Q": np.ones(2)}),
                 "entropy")
        # a t and a trait that do not increase, and a negative f: each was once drawn off its
        # frame, and off the canvas
        @example(Table({"t": np.array([0.0, 5.0, 1.0]), "S": np.arange(1.0, 4.0),
                        "Q": np.arange(1.0, 4.0)}), "entropy")
        @example(Table({"trait": np.array([0.5, -0.5, 0.0]), "f_tilde": np.arange(1.0, 4.0),
                        "R_tilde": np.arange(1.0, 4.0)}), "profile")
        @example(Table({"t": np.zeros(1), "f_1": np.array([1.4]), "f_2": np.array([-5.0])}),
                 "waterfall")
        def check(table, kind):
            write_csv(csv, table)
            svg.unlink(missing_ok=True)
            status = run(["plot", "--csv", str(csv), "--kind", *kind.split(),
                          "--out-svg", str(svg)])
            assert status in (0, 2)
            assert svg.exists() == (status == 0)
            if status == 0:
                text = svg.read_text(encoding="utf-8")
                assert not re.search(r"\b(nan|inf)\b", text)
                assert_points_in_their_frames(text)

        check()

    # so a wrapper put in a renderer's place, as a timing harness does, runs
    @pytest.mark.parametrize("kind", ["profile", "entropy", "waterfall"])
    def test_render_calls_the_renderer_the_module_holds(self, monkeypatch, kind):
        table = read_csv("t,f_1,R_1,S,Q\n0,1,1,1,1\n1,2,1,0.5,0.5\n".splitlines())
        monkeypatch.setattr(f"rclab.svgplot.render_{kind}", lambda table, **options: kind)
        assert render(table, kind) == kind

    def test_waterfall_without_f_columns_is_a_parse_error(self):
        with pytest.raises(ParseError, match="waterfall needs a trajectory CSV"):
            render_waterfall(read_csv("trait,f_tilde,R_tilde\n0,1,1\n".splitlines()))

    @pytest.mark.parametrize("render_kind", [render_profile, render_waterfall])
    def test_long_trajectory_drawn_without_copying_its_columns(self, example1, render_kind):
        params, _ = example1
        stack = random_stack(np.random.default_rng(6), params, 40_000)
        traits = range(params.N)
        table = Table({"t": np.arange(40_000.0),
                       **{f"f_{j + 1}": stack.f[:, j] for j in traits},
                       **{f"R_{j + 1}": stack.R[:, j] for j in traits}})
        peak = traced_peak(lambda: render_kind(table))
        assert peak < (stack.f.nbytes + stack.R.nbytes) / 4  # copied columns: 0.5x to 1.0x

    def test_column_without_a_name_rejected_naming_the_header_line(self, tmp_path, capsys):
        csv, svg = tmp_path / "unnamed.csv", tmp_path / "no.svg"
        csv.write_text("\nt,f_1,,R_1\n0,1,2,1\n1,1,2,1\n", encoding="utf-8")
        assert run(["plot", "--csv", str(csv), "--kind", "profile", "--out-svg", str(svg)]) == 2
        assert capsys.readouterr().err == "error: column 3 has no name (line 2)\n"
        assert not svg.exists()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_reading_a_wide_csv_keeps_its_heap(self, tmp_path):
        # 321 columns by 500 rows, 3.1 MB: where glibc trims each block's temporaries
        # and faults them back in, plot takes 9,000 to 11,000 minor faults, else about 740
        rng = np.random.default_rng(8)
        columns = {"t": np.arange(500.0), **{f"{s}_{j}": rng.uniform(0, 2, 500)
                                             for s in "fR" for j in range(1, 161)}}
        csv = tmp_path / "wide.csv"
        write_csv(csv, Table(columns))
        argv = [sys.executable, "-c", _PLOT_FAULTS, str(csv), str(tmp_path / "p.svg")]
        done = subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True,
                              check=True)
        assert int(done.stdout.split()[-1]) < 3000

    def test_non_utf8_csv_rejected_naming_the_file(self, tmp_path, capsys):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(b"t,f_1,R_1\n0,1,\xff\n")
        assert run(["plot", "--csv", str(csv), "--kind", "profile",
                    "--out-svg", str(tmp_path / "no.svg")]) == 2
        assert str(csv) in capsys.readouterr().err


class TestErrors:
    def test_unknown_preset(self, tmp_path):
        assert run(["simulate", "--preset", "nope", "--out", str(tmp_path)]) == 2

    def test_scenario_path_with_equals_sign(self, tmp_path):
        path = tmp_path / "N=1.txt"
        path.write_text(_n1_scenario("gaussian"), encoding="utf-8")
        out = tmp_path / "eq"
        assert run(["esd", "--scenario", str(path), "--out", str(out)]) == 0
        assert read_report(out)["scenario_name"] == "N=1"

    def test_bad_scenario_file(self, tmp_path):
        path = tmp_path / "bad.rc"
        path.write_text("N = -3\n", encoding="utf-8")
        assert run(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_non_utf8_scenario_file_is_a_parse_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.rc"
        path.write_bytes(_n1_scenario("gaussian").encode("utf-8") + b"# caf\xe9\n")
        assert run(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert str(path) in capsys.readouterr().err
        with pytest.raises(ParseError, match="latin1.rc"):
            load_scenario(path)

    def test_bad_override_fails_before_the_output_directory_is_made(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run(["simulate", "--preset", "n1-closedform", "--T", "-1",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid value for 'T_final': must be positive and finite\n")
        assert not out.exists()

    def test_unwritable_svg_path_is_an_error_naming_it(self, tmp_path, capsys):
        run(["simulate", "--preset", "n1-closedform", "--T", "2", "--out", str(tmp_path)])
        capsys.readouterr()
        svg = tmp_path / "missing" / "p.svg"
        assert run(["plot", "--csv", str(tmp_path / "trajectory.csv"), "--kind", "profile",
                    "--out-svg", str(svg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(svg) in err

    def test_output_directory_that_is_a_file_is_an_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert run(["esd", "--preset", "n1-closedform", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err

    def test_step_failure_names_the_step(self, tmp_path, capsys):
        assert run(["simulate", "--preset", "n1-closedform", "--dt", "3", "--scheme", "semi",
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: step 0: nonpositive update denominator")

    def test_invalid_state_names_the_step(self, tmp_path, capsys):
        # the semi-implicit step overflows f; the implicit one recovers from this start
        path = tmp_path / "huge.rc"
        path.write_text(_n1_scenario("gaussian").replace("initial_f.amp = 1.0\n",
                                                         "initial_f.amp = 1.75e308\n"),
                        encoding="utf-8")
        assert run(["simulate", "--scenario", str(path), "--scheme", "semi",
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: step 0: invalid state after the step\n"

    @pytest.mark.parametrize("args", [
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "inf"],
    ])
    def test_tolerances_must_be_positive_and_finite(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            run([*args, "--preset", "n1-closedform", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "must be a positive finite number" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_rclab_out_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RCLAB_OUT", str(tmp_path / "envout"))
        assert run(["analyze", "--preset", "n1-closedform"]) == 0
        assert (tmp_path / "envout" / "report.json").exists()
