"""Resource-competition dynamics: integration, stable distributions, analysis.

A public name is imported from its submodule on first use (PEP 562), so a
process loads only the modules it runs.
"""

from importlib import import_module as _import_module

# each submodule, and the public names it defines
_NAMES = {
    "errors": "AssumptionViolation DimensionMismatch FixedPointDiverged Mu0Violation"
              " NegativeInput NewtonFailed NotApplicable NotConverged ParseError RclabError"
              " StepRejected UndefinedEntropy UnknownKind ValidationError",
    "esd": "EsdReport EsdResult solve_esd verify_esd",
    "integrator": "EntropyTrace StepConfig Trajectory entropy_trace simulate"
                  " step_fully_implicit step_semi_implicit",
    "model": "DerivedConstants Diagnostics H_gradient H_hessian H_value ModelParams Scheme"
             " State compute_diagnostics extinction_F growth_rate lyapunov_S q_value"
             " reconstruct_R rhs total_mass validate_params",
    "scenarios": "ScenarioSpec build_params builtin_presets load_scenario parse_scenario"
                 " save_scenario trait_grid",
    "steady": "Persistence TwoPeakSteadyState dirac_weights extinction_predicate"
              " persistence_sum positive_steady_state_excluded two_peak_steady_state",
}
# each public name, submodules included, to the submodule it comes from
_HOME = {name: module for module, names in _NAMES.items() for name in (module, *names.split())}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = module if name == _HOME[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
