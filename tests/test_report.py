"""report.json: flat keys, strict JSON and the exit status."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from helpers import n1_instance
from rclab import (ModelParams, Scheme, State, StepConfig, builtin_presets, save_scenario,
                   simulate, validate_params)
from rclab.cli import _trajectory_summary, _write_report, main


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def test_infinite_step_bound_serializes_to_valid_json(tmp_path):
    params = ModelParams(N=1, h=1.0, a=np.array([-1.0]), K=np.zeros((1, 1)),
                         m=np.ones(1), Rstar=np.ones(1))
    constants = validate_params(params, State(f=np.ones(1), R=np.ones(1)))
    assert _write_report(tmp_path, "x", {"ok": True}, constants) == 0
    parsed = read_report(tmp_path)
    assert parsed["constants.mu0"] == "inf"  # a string: no bare Infinity
    assert parsed["verdicts.ok"] is True
    assert sorted(k for k in parsed if k.startswith("constants.")) == [
        f"constants.{name}"
        for name in sorted(("gamma", "K_M", "m_lower", "m_upper", "beta", "M0", "M_tilde", "mu0"))
    ]


def test_flat_keys_and_all_passed(tmp_path, capsys):
    status = _write_report(tmp_path, "y", {"a": True, "b": False},
                           trajectory={"steps": 3}, comparison={"L1_distance_f": 0.5})
    flat = read_report(tmp_path)
    assert flat == {"scenario_name": "y", "trajectory.steps": 3,
                    "comparison.L1_distance_f": 0.5, "verdicts.a": True, "verdicts.b": False}
    assert status == 1
    assert capsys.readouterr().out == "a: pass\nb: FAIL\n"


def test_implicit_runs_report_their_fixed_point_sweeps(tmp_path):
    params, state0 = n1_instance()
    for scheme in Scheme:  # at fp_tol = 1e300 every implicit step is one sweep
        traj = simulate(params, state0, 1.0, StepConfig(dt=0.1, scheme=scheme, fp_tol=1e300))
        _write_report(tmp_path, "x", {}, trajectory=_trajectory_summary(traj))
        flat = read_report(tmp_path)
        sweeps = [flat.get(f"trajectory.fp_sweeps_{k}") for k in ("mean", "max")]
        assert sweeps == ([1, 1] if scheme is Scheme.FULLY_IMPLICIT else [None, None])


def readme_keys():
    """README's table of report.json keys: {key: (commands that write it, when)}."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | written by | when | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \|", table, re.MULTILINE)
    return {key: (set(commands.strip().split(", ")), when.strip()) for key, commands, when in rows}


def test_every_key_written_is_in_the_readme_table(tmp_path):
    # both schemes of each stepper on both presets, and an n1 run with no species at t = 0,
    # whose entropy is undefined
    table = readme_keys()
    zero = tmp_path / "zero.rc"
    zero.write_text(save_scenario(replace(builtin_presets()["n1-closedform"], initial_f_kind="zero",
                                          initial_f_amp=None, initial_f_sigma=None)),
                    encoding="utf-8")
    runs = [[command, "--preset", preset, "--T", "4", "--scheme", scheme]
            for preset in ("n1-closedform", "example1") for command in ("simulate", "verify")
            for scheme in ("semi", "implicit")]
    runs += [[command, "--preset", preset] for preset in ("n1-closedform", "example1")
             for command in ("esd", "analyze")]
    runs.append(["verify", "--scenario", str(zero), "--T", "4", "--scheme", "implicit"])
    seen = set()
    for i, argv in enumerate(runs):
        out = tmp_path / str(i)
        assert main([*argv, "--out", str(out)]) in (0, 1)
        written = {re.sub(r"_\d+$", "_<j>", key) if key.startswith("analysis.dirac_rho_")
                   else key for key in read_report(out)}
        mine = {key: when for key, (commands, when) in table.items() if argv[0] in commands}
        assert written <= mine.keys(), argv
        assert {key for key, when in mine.items() if when == "always"} <= written, argv
        if "semi" in argv:
            assert not {key for key in written if "implicit" in mine[key]}, argv
        seen |= written
    assert seen == table.keys() and len(table) == 35
