"""report.json: flat keys, strict JSON and the exit status."""

import json

import numpy as np

from helpers import n1_instance
from rclab import ModelParams, Scheme, State, StepConfig, simulate, validate_params
from rclab.cli import _trajectory_summary, _write_report


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
