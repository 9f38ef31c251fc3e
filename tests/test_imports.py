"""Start-up: each command loads only the modules it runs, and the package
namespace resolves its public names on first use."""

import json
import subprocess
import sys

import pytest

from helpers import subprocess_env
from rclab.cli import main

# the public names of rclab, by the submodule that defines them
PUBLIC = {
    "errors": ["AssumptionViolation", "DimensionMismatch", "FixedPointDiverged", "Mu0Violation",
               "NegativeInput", "NewtonFailed", "NotApplicable", "NotConverged", "ParseError",
               "RclabError", "StepRejected", "UndefinedEntropy", "UnknownKind",
               "ValidationError"],
    "esd": ["EsdReport", "EsdResult", "solve_esd", "verify_esd"],
    "integrator": ["EntropyTrace", "StepConfig", "Trajectory", "entropy_trace",
                   "simulate", "step_fully_implicit", "step_semi_implicit"],
    "model": ["DerivedConstants", "Diagnostics", "H_gradient", "H_hessian", "H_value",
              "ModelParams", "Scheme", "State", "compute_diagnostics", "extinction_F",
              "growth_rate", "lyapunov_S", "q_value", "reconstruct_R", "rhs", "total_mass",
              "validate_params"],
    "scenarios": ["ScenarioSpec", "build_params", "builtin_presets", "load_scenario",
                  "parse_scenario", "save_scenario", "trait_grid"],
    "steady": ["Persistence", "TwoPeakSteadyState", "dirac_weights", "extinction_predicate",
               "persistence_sum", "positive_steady_state_excluded", "two_peak_steady_state"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in [module, *names]}

# runs code in a fresh interpreter, then prints the rclab submodules it loaded
_LOADED = ("import json, sys\n"
           "{code}\n"
           "print(json.dumps(sorted(m[6:] for m in sys.modules if m.startswith('rclab.'))))\n")
_RUN_COMMAND = "from rclab.cli import main\nassert main(sys.argv[1:]) == 0"


def _loaded(code: str, *argv: str) -> set[str]:
    done = subprocess.run([sys.executable, "-c", _LOADED.format(code=code), *argv],
                          env=subprocess_env(), capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import rclab") == set()


def test_importing_the_cli_loads_only_the_cli_and_its_errors():
    assert _loaded("import rclab.cli") == {"cli", "errors"}


def test_a_model_build_loads_no_integrator():
    assert _loaded("from rclab.scenarios import build_params") == {"errors", "model", "scenarios"}


def test_the_schemes_have_one_definition():
    import rclab
    import rclab.integrator
    import rclab.model

    assert rclab.Scheme is rclab.integrator.Scheme is rclab.model.Scheme


@pytest.mark.parametrize("command, skipped", [
    (["analyze", "--preset", "n1-closedform"], {"csvio", "svgplot", "integrator"}),
    (["simulate", "--preset", "n1-closedform", "--T", "1"], {"esd", "steady", "svgplot"}),
    (["esd", "--preset", "n1-closedform"], {"svgplot", "integrator"}),
])
def test_a_command_does_not_load_what_it_does_not_run(command, skipped, tmp_path):
    loaded = _loaded(_RUN_COMMAND, *command, "--out", str(tmp_path))
    assert "cli" in loaded and not loaded & skipped


def test_plot_does_not_load_the_esd_solver(tmp_path):
    assert main(["simulate", "--preset", "n1-closedform", "--T", "1", "--out", str(tmp_path)]) == 0
    loaded = _loaded(_RUN_COMMAND, "plot", "--csv", str(tmp_path / "trajectory.csv"),
                     "--kind", "profile", "--out-svg", str(tmp_path / "p.svg"))
    # nor the model, its integrator or the scenarios: plot only parses and renders
    assert "svgplot" in loaded
    assert not loaded & {"integrator", "model", "scenarios", "esd", "steady"}


_NAMESPACE = """
import importlib, json, sys
import rclab
home = json.loads(sys.argv[1])
mismatched = []
for name in rclab.__all__:
    value = getattr(rclab, name)
    module = importlib.import_module("rclab." + home[name])
    if value is not (module if name == home[name] else getattr(module, name)):
        mismatched.append(name)
star, unknown = {}, None
exec("from rclab import *", star)
try:
    rclab.no_such_name
except AttributeError as err:
    unknown = str(err)
print(json.dumps({"all": rclab.__all__, "mismatched": mismatched,
                  "star": sorted(set(star) - {"__builtins__"}), "dir": dir(rclab),
                  "unknown": unknown, "version": rclab.__version__}))
"""


def test_the_public_namespace_resolves_each_name_to_its_submodule():
    done = subprocess.run([sys.executable, "-c", _NAMESPACE, json.dumps(HOME)],
                          env=subprocess_env(), capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["all"] == sorted(HOME) and len(got["all"]) == 62
    assert got["mismatched"] == []
    assert got["star"] == sorted(HOME)
    assert set(HOME) <= set(got["dir"])
    assert "no_such_name" in got["unknown"]
    assert got["version"] == "0.1.0"
