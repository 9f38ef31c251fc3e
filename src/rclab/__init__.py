"""Resource-competition dynamics: integration, stable distributions, analysis."""

from .errors import (
    AssumptionViolation,
    DimensionMismatch,
    FixedPointDiverged,
    Mu0Violation,
    NegativeInput,
    NewtonFailed,
    NotApplicable,
    NotConverged,
    ParseError,
    RclabError,
    StepRejected,
    UndefinedEntropy,
    UnknownKind,
    ValidationError,
)
from .esd import (
    EsdReport,
    EsdResult,
    solve_esd,
    verify_esd,
)
from .integrator import (
    EntropyTrace,
    Scheme,
    StepConfig,
    Trajectory,
    entropy_trace,
    simulate,
    step_fully_implicit,
    step_semi_implicit,
)
from .model import (
    DerivedConstants,
    Diagnostics,
    H_gradient,
    H_hessian,
    H_value,
    ModelParams,
    State,
    compute_diagnostics,
    extinction_F,
    growth_rate,
    lyapunov_S,
    q_value,
    reconstruct_R,
    rhs,
    total_mass,
    validate_params,
)
from .scenarios import (
    ScenarioSpec,
    build_params,
    builtin_presets,
    load_scenario,
    parse_scenario,
    save_scenario,
    trait_grid,
)
from .steady import (
    Persistence,
    TwoPeakSteadyState,
    dirac_weights,
    extinction_predicate,
    persistence_sum,
    positive_steady_state_excluded,
    two_peak_steady_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
