"""Time discretization of the competition system.

One closed-form sweep advances (f, R) by a step dt:

  f'_j = f_j / (1 - dt*G_j(R~)),  then
  R'_k = (R_k + dt*m_k*Rstar_k) / (1 + dt*m_k + dt*h*sum_j K_jk f'_j)

where R~ is the current R in the first sweep and the previous sweep's R'
after it. The semi-implicit scheme is the first sweep. The fully implicit
scheme, which has R' inside G, repeats the sweep until R' stops changing.

Both keep f >= 0 and R > 0 while every 1 - dt*G_j > 0, as dt < mu0 guarantees.
Both public steps, and so simulate, raise StepRejected otherwise, and for any
result that is not a state (f negative or not finite, R nonpositive or not finite).
The fully implicit scheme additionally dissipates the relative entropy
against the ESD at a quantified per-step rate; `entropy_trace` checks this on
the S column of a trajectory recorded against a reference, which it keeps.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FixedPointDiverged, Mu0Violation, StepRejected, UndefinedEntropy
from .errors import ValidationError
from .model import (
    Diagnostics,
    ModelParams,
    State,
    _check_dims,
    _check_state,
    _growth,
    compute_diagnostics,
    validate_params,
)


class Scheme(enum.Enum):
    SEMI_IMPLICIT = "semi"
    FULLY_IMPLICIT = "implicit"


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping configuration.

    fp_tol / fp_maxit control the fixed-point sweep of the implicit scheme;
    enforce_mu0 turns the sufficient step bound from a warning into an error.
    """

    dt: float
    scheme: Scheme = Scheme.SEMI_IMPLICIT
    fp_tol: float = 1e-12
    fp_maxit: int = 200
    enforce_mu0: bool = False

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ValidationError("scheme", f"must be a Scheme, got {self.scheme!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError("dt", "must be positive and finite")
        if not (self.fp_tol > 0):
            raise ValidationError("fp_tol", "must be positive")
        if not isinstance(self.fp_maxit, (int, np.integer)) or self.fp_maxit < 1:
            raise ValidationError("fp_maxit", f"must be an integer >= 1, got {self.fp_maxit!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded time series in columns: row n of f and R is the state at
    times[n], t = 0 first; diagnostics has one column per functional, with S
    measured against reference (all NaN when there is none)."""

    params: ModelParams
    config: StepConfig
    times: np.ndarray
    f: np.ndarray
    R: np.ndarray
    diagnostics: Diagnostics
    fp_iteration_counts: list[int]
    reference: State | None = None

    @property
    def final_state(self) -> State:
        return State(f=self.f[-1], R=self.R[-1])


@dataclass(frozen=True)
class EntropyTrace:
    """The per-step dissipation bound of a trajectory's relative entropy S.

    bounds[n] is the guaranteed (nonpositive) bound on S[n+1] - S[n] for the
    fully implicit scheme; flagged_steps lists the step indices where the
    recorded decrement exceeded the bound beyond floating round-off.
    """

    bounds: np.ndarray
    flagged_steps: tuple[int, ...]


# an overflow or NaN in the sweeps is reported by the state test after them, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def _sweep(
    params: ModelParams, f: np.ndarray, R: np.ndarray, dt: float,
    fp_tol: float, max_sweeps: int, R_start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(f, R, sweeps) one step of dt later, as read-only arrays, or StepRejected
    if that is not a state: sweeps from R_start (default R) until successive
    resource iterates agree to fp_tol in the max norm."""
    _check_dims(params, f, R)
    num = R + dt * params.m * params.Rstar
    den = 1.0 + dt * params.m
    R_iter = R if R_start is None else R_start
    for sweep in range(1, max_sweeps + 1):
        dtG = dt * _growth(params, R_iter)
        if dtG.max() >= 1.0:
            j = int(np.argmax(dtG >= 1.0))
            raise StepRejected(f"nonpositive update denominator for species {j} "
                               f"(dt*G = {dtG[j]:.6g} >= 1); reduce dt")
        f_new = f / (1.0 - dtG)
        R_new = num / (den + dt * params.h * (params.K.T @ f_new))
        change = float(np.abs(R_new - R_iter).max())
        if not change > fp_tol:  # a NaN change ends the sweeps too, and fails below
            break
        R_iter = R_new
    else:
        raise FixedPointDiverged("fixed-point iteration did not contract within "
                                 f"{max_sweeps} sweeps (last update {change:.3e})")
    if not (f_new.min() >= 0 and R_new.min() > 0
            and f_new.max() < math.inf and R_new.max() < math.inf):
        raise StepRejected("invalid state after the step")
    f_new.flags.writeable = R_new.flags.writeable = False  # so State keeps them uncopied
    return f_new, R_new, sweep


def step_semi_implicit(params: ModelParams, state: State, dt: float) -> State:
    """One semi-implicit step: the first sweep, f updated with the current resources."""
    f, R, _ = _sweep(params, state.f, state.R, dt, math.inf, 1)
    return State(f=f, R=R)


def step_fully_implicit(
    params: ModelParams, state: State, dt: float, fp_tol: float = 1e-12, fp_maxit: int = 200,
    R_start: np.ndarray | None = None,
) -> tuple[State, int]:
    """One fully implicit step: sweeps until successive resource iterates
    agree to fp_tol in the max norm. Returns the new state and the sweep count.

    The first iterate is R_start, or state.R when it is None. A step that
    fails from R_start (StepRejected, which FixedPointDiverged is) is retaken
    from state.R, and that outcome, with its sweep count, stands: a start never
    rejects a step that state.R accepts. (The converse is not checked: beyond
    mu0, a good start can carry a step whose sweeps from state.R reject it.)
    """
    if R_start is not None:
        _check_dims(params, R_start)
        try:
            f, R, sweeps = _sweep(params, state.f, state.R, dt, fp_tol, fp_maxit, R_start)
            return State(f=f, R=R), sweeps
        except StepRejected:
            pass
    f, R, sweeps = _sweep(params, state.f, state.R, dt, fp_tol, fp_maxit)
    return State(f=f, R=R), sweeps


def _plan_steps(T_final: float, dt: float) -> list[float]:
    """Uniform steps of dt, shrinking the last one so the sum is T_final. A
    remainder below 1e-12 * dt is dropped, unless it is the only step."""
    n_exact = T_final / dt
    n_round = round(n_exact)
    if n_round >= 1 and abs(n_exact - n_round) <= 1e-9 * n_round:
        return [dt] * n_round
    n_full = int(math.floor(n_exact))
    steps = [dt] * n_full
    rem = T_final - n_full * dt
    if rem > 1e-12 * dt or not steps:
        steps.append(rem)
    return steps


def simulate(
    params: ModelParams,
    state0: State,
    T_final: float,
    config: StepConfig,
    reference: State | None = None,
) -> Trajectory:
    """Advance state0 to T_final, recording the states, then the diagnostics.

    From the third step on, each implicit fixed point starts from the
    quadratic extrapolation max(3 R^n - 3 R^{n-1} + R^{n-2}, R^n / 2) of the
    recorded resources (the first two start at R^n); the step still converges
    to fp_tol, and is retaken from R^n if it fails from the prediction.
    The entropy diagnostic S is recorded only when a reference state is
    supplied (and defined); one that is not a state of the model (f >= 0,
    R > 0, all finite, N traits) fails before the first step. A step the
    kernel rejects or cannot converge aborts the run with its index.
    """
    if not (T_final > 0 and math.isfinite(T_final)):
        raise ValidationError("T_final", "must be positive and finite")
    constants = validate_params(params, state0)
    if reference is not None:
        _check_state(params, reference, "reference")
    if math.isfinite(constants.mu0) and config.dt >= constants.mu0:
        msg = (
            f"dt = {config.dt:.6g} exceeds the guaranteed-stable bound "
            f"mu0 = {constants.mu0:.6g}"
        )
        if config.enforce_mu0:
            raise Mu0Violation(msg)
        warnings.warn(msg + "; proceeding (the bound is sufficient, not necessary)",
                      stacklevel=2)

    steps = _plan_steps(T_final, config.dt)
    times = np.empty(len(steps) + 1)
    f = np.empty((len(steps) + 1, params.N))
    R = np.empty((len(steps) + 1, params.N))
    sweep_counts: list[int] = []
    t = 0.0
    state = state0
    times[0], f[0], R[0] = t, state.f, state.R
    for i, dt in enumerate(steps):
        try:
            if config.scheme is Scheme.FULLY_IMPLICIT:
                R_start = (None if i < 2 else np.maximum(
                    3.0 * (R[i] - R[i - 1]) + R[i - 2], 0.5 * R[i]))
                state, sweeps = step_fully_implicit(
                    params, state, dt, config.fp_tol, config.fp_maxit, R_start
                )
                sweep_counts.append(sweeps)
            else:
                state = step_semi_implicit(params, state, dt)
        except StepRejected as err:
            err.step_index = i
            raise
        t += dt
        times[i + 1], f[i + 1], R[i + 1] = t, state.f, state.R

    times.flags.writeable = f.flags.writeable = R.flags.writeable = False
    return Trajectory(
        params=params, config=config, times=times, f=f, R=R,
        diagnostics=compute_diagnostics(params, State(f=f, R=R), reference),
        fp_iteration_counts=sweep_counts, reference=reference,
    )


def entropy_trace(trajectory: Trajectory) -> EntropyTrace:
    """The per-step decay bound of the S column recorded against the trajectory's reference.

    bounds[n] = -dt_n * sum_k m_k Rstar_k (R_k^{n+1} - Rt_k)^2 / (R_k^{n+1} Rt_k).
    Steps of a fully implicit trajectory whose entropy increment exceeds the
    bound by more than 1e-10 * (1 + |S^n|) are flagged; the bound is not
    asserted for semi-implicit trajectories. Raises UndefinedEntropy without a
    reference, or naming the first time where S is undefined.
    """
    if trajectory.reference is None:
        raise UndefinedEntropy("entropy needs a trajectory recorded against a reference")
    S, Rt = trajectory.diagnostics.S, trajectory.reference.R
    if np.any(np.isnan(S)):
        row = int(np.flatnonzero(np.isnan(S))[0])
        raise UndefinedEntropy(f"entropy undefined at t = {trajectory.times[row]:.6g}")
    params, R1 = trajectory.params, trajectory.R[1:]
    bounds = -np.diff(trajectory.times) * np.sum(
        params.m * params.Rstar * (R1 - Rt) ** 2 / (R1 * Rt), axis=-1
    )
    flagged: tuple[int, ...] = ()
    if trajectory.config.scheme is Scheme.FULLY_IMPLICIT:
        slack = 1e-10 * (1.0 + np.abs(S[:-1]))
        flagged = tuple(np.flatnonzero(np.diff(S) > bounds + slack).tolist())
    return EntropyTrace(bounds=bounds, flagged_steps=flagged)
