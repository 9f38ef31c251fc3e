"""Core model data types and evaluations for the resource-competition system.

The system couples N species abundances f_j to N resource levels R_k:

    df_j/dt = f_j * G_j(R),          G_j(R) = a_j + h * sum_k K_jk (R_k - Rstar_k)
    dR_k/dt = m_k (Rstar_k - R_k) - h R_k * sum_j K_jk f_j

A model is checked when it is built: K >= 0, m, Rstar, h > 0, and every net
rate a*_j = a_j - h * sum_k K_jk Rstar_k < 0, with margin gamma = -max_j a*_j.
The module also evaluates the convex objective

    H(f) = -sum_j a*_j f_j - sum_k m_k Rstar_k ln(m_k + h sum_j K_jk f_j)

whose minimizer over f >= 0 is the evolutionarily stable distribution, the
resources Rhat(f) in equilibrium with a species vector, with dH/df =
-G(Rhat(f)), the Hessian of H (in factored form), and the diagnostic
functionals used to monitor trajectories. H, the uptake rates
b = m + h K^T f, the gradient of H and its Hessian factor are written once,
for f held at 0 off a support S (`restricted_*`); the full forms are the case
where S is every trait.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolation,
    DimensionMismatch,
    NegativeInput,
    UndefinedEntropy,
)


def _freeze(arr: np.ndarray) -> np.ndarray:
    if np.asarray(arr, dtype=float) is arr and arr.flags.owndata and not arr.flags.writeable:
        return arr  # already a read-only float array that owns its data: kept, not copied
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ModelParams:
    """One instance of the competition system. Building one (also by
    `dataclasses.replace`) checks the standing assumptions, and raises
    AssumptionViolation naming the one that fails, or DimensionMismatch.

    N: number of traits (species and resources share the grid size)
    h: trait-cell width / resource weight
    a: intrinsic growth rates, shape (N,)
    K: consumption probabilities, shape (N, N); K[j, k] couples species j
       to resource k
    m: resource relaxation rates, shape (N,)
    Rstar: resource carrying capacities, shape (N,)
    a_star: net rates a* = a - h * K @ Rstar, derived, read-only, all < 0
    """

    N: int
    h: float
    a: np.ndarray
    K: np.ndarray
    m: np.ndarray
    Rstar: np.ndarray
    a_star: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "K", "m", "Rstar"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        n = self.N
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise AssumptionViolation(f"N must be a positive integer, got {n}")
        if self.a.shape != (n,) or self.m.shape != (n,) or self.Rstar.shape != (n,):
            raise DimensionMismatch(f"coefficient vectors must have shape ({n},)")
        if self.K.shape != (n, n):
            raise DimensionMismatch(f"K must have shape ({n}, {n}), got {self.K.shape}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise AssumptionViolation(f"h must be positive and finite, got {self.h}")
        if not np.all(np.isfinite(self.a)):
            raise AssumptionViolation("growth rates a must be finite")
        if not np.all(np.isfinite(self.K)):
            raise AssumptionViolation("consumption matrix K must be finite")
        if np.any(self.K < 0):
            j, k = np.argwhere(self.K < 0)[0]
            raise AssumptionViolation(f"K[{j}][{k}] = {self.K[j, k]} is negative")
        if not np.all(np.isfinite(self.m)) or np.any(self.m <= 0):
            raise AssumptionViolation("relaxation rates m must be positive and finite")
        if not np.all(np.isfinite(self.Rstar)) or np.any(self.Rstar <= 0):
            raise AssumptionViolation("carrying capacities Rstar must be positive and finite")
        astar = _freeze(self.a - self.h * self.K @ self.Rstar)
        object.__setattr__(self, "a_star", astar)
        if not np.max(astar) < 0:
            j = int(np.argmax(astar))
            raise AssumptionViolation(f"net rate a*[{j}] = {astar[j]:.6g} is not negative; "
                                      "every a_j - h*sum_k K_jk*Rstar_k must be < 0")


@dataclass(frozen=True)
class State:
    """Species abundances f >= 0 and resource levels R > 0 at one instant,
    or, for the diagnostic functionals, a stack of instants of shape (rows, N)."""

    f: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _freeze(self.f))
        object.__setattr__(self, "R", _freeze(self.R))


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from validated model data and the initial state.

    beta = min(gamma, min_k m_k) is the uniform decay rate of the total
    mass surplus; M_tilde = M0 + max_k m_k * ||Rstar||_1 / beta bounds the
    total mass of every discrete trajectory; mu0 = 1 / (K_M * M_tilde -
    gamma)_+ is a sufficient step bound for positivity of the implicit
    scheme (math.inf when the positive part vanishes).
    """

    gamma: float
    K_M: float
    m_lower: float
    m_upper: float
    beta: float
    M0: float
    M_tilde: float
    mu0: float


@dataclass(frozen=True)
class Diagnostics:
    """Trajectory diagnostics: floats for one state, columns for a stack. Where
    S is undefined it is None for one state, NaN on those rows of a stack."""

    mass: float | np.ndarray
    S: float | np.ndarray | None
    Q: float | np.ndarray
    F: float | np.ndarray
    H: float | np.ndarray


def _check_dims(params: ModelParams, *vectors: np.ndarray, stacked: bool = False) -> None:
    for v in vectors:
        shape = v.shape[1:] if stacked and v.ndim == 2 else v.shape
        if shape != (params.N,):
            raise DimensionMismatch(f"expected shape ({params.N},), got {v.shape}")


def _per_row(x: np.ndarray) -> float | np.ndarray:
    """A float for one state, a column for a stack. The functionals reduce over
    the last axis, so each row of a C-contiguous stack gets that state's bits."""
    return float(x) if np.ndim(x) == 0 else x


def _check_state(params: ModelParams, state: State, name: str) -> None:
    """Raise AssumptionViolation, its message led by name, unless state is one state of
    the model with f >= 0, R > 0, all finite; or DimensionMismatch for its shapes."""
    _check_dims(params, state.f, state.R)
    if np.any(state.f < 0):
        raise AssumptionViolation(f"{name} species abundances must be nonnegative")
    if np.any(state.R <= 0):
        raise AssumptionViolation(f"{name} resource levels must be positive")
    if not (np.all(np.isfinite(state.f)) and np.all(np.isfinite(state.R))):
        raise AssumptionViolation(f"{name} state must be finite")


def validate_params(params: ModelParams, initial: State) -> DerivedConstants:
    """Check the initial state against the model, whose standing assumptions were checked
    when it was built, and return all derived constants. Raises AssumptionViolation naming
    the failing condition of the state, or DimensionMismatch for its shapes."""
    _check_state(params, initial, "initial")
    gamma = float(-np.max(params.a_star))
    K_M = float(np.max(params.K))
    m_lower = float(np.min(params.m))
    m_upper = float(np.max(params.m))
    beta = min(gamma, m_lower)
    M0 = float(total_mass(initial))
    M_tilde = M0 + m_upper * float(np.sum(params.Rstar)) / beta
    denom = K_M * M_tilde - gamma
    mu0 = math.inf if denom <= 0 else 1.0 / denom
    return DerivedConstants(
        gamma=gamma,
        K_M=K_M,
        m_lower=m_lower,
        m_upper=m_upper,
        beta=beta,
        M0=M0,
        M_tilde=M_tilde,
        mu0=mu0,
    )


def growth_rate(params: ModelParams, R: np.ndarray) -> np.ndarray:
    """Per-capita growth G_j = a_j + h * sum_k K_jk (R_k - Rstar_k)."""
    R = np.asarray(R, dtype=float)
    _check_dims(params, R)
    return _growth(params, R)


def _growth(params: ModelParams, R: np.ndarray) -> np.ndarray:
    """growth_rate for a float vector R whose shape the caller has checked."""
    return params.a + params.h * (params.K @ (R - params.Rstar))


def rhs(params: ModelParams, state: State) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (df/dt, dR/dt) of the coupled system."""
    _check_dims(params, state.f, state.R)
    G = growth_rate(params, state.R)
    # supply m Rstar minus uptake R b
    dR = params.m * params.Rstar - state.R * restricted_uptake(params, _ALL, state.f)
    return state.f * G, dR


def total_mass(state: State) -> float | np.ndarray:
    """||f||_1 + ||R||_1."""
    return _per_row(np.sum(np.abs(state.f), axis=-1) + np.sum(np.abs(state.R), axis=-1))


def lyapunov_S(state: State, reference: State) -> float | np.ndarray:
    """Relative entropy of `state` against a reference steady state.

    S = sum_j (-fr_j ln f_j + f_j) + sum_k (-Rr_k ln R_k + R_k), where
    terms with fr_j = 0 contribute only f_j. Undefined when the reference
    supports a species that is extinct in `state`, or when any resource
    level is nonpositive: one state raises, a stack gets NaN on those rows.
    A reference of another trait count raises DimensionMismatch.
    """
    f, R = state.f, state.R
    fr, Rr = reference.f, reference.R
    if fr.shape[-1:] != f.shape[-1:] or Rr.shape[-1:] != R.shape[-1:]:
        raise DimensionMismatch(f"reference {fr.shape}/{Rr.shape} for states {f.shape}/{R.shape}")
    support = fr > 0
    extinct = support & (f <= 0)
    undefined = np.any(extinct, axis=-1) | np.any(R <= 0, axis=-1) | np.any(Rr <= 0)
    if np.ndim(undefined) == 0 and undefined:
        if np.any(extinct):
            j = int(np.flatnonzero(extinct)[0])
            raise UndefinedEntropy(f"species {j} is extinct but the reference supports it")
        raise UndefinedEntropy("resource levels must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        # compress keeps the selected entries C-contiguous, so each row sums
        # pairwise exactly as a single state does
        s = np.sum(f, axis=-1) - np.sum(
            fr[support] * np.log(np.compress(support, f, axis=-1)), axis=-1
        )
        s += np.sum(R - Rr * np.log(R), axis=-1)
    return _per_row(np.where(undefined, np.nan, s))


def extinction_F(state: State, params: ModelParams) -> float | np.ndarray:
    """Extinction functional F = -sum_k Rstar_k ln R_k + sum_j f_j + sum_k R_k,
    for a state or a stack of states of the model's trait count.

    When all a_j <= 0 it is non-increasing along the exact flow and the fully
    implicit scheme; a semi-implicit step can raise it, even for dt < mu0.
    """
    _check_dims(params, state.f, state.R, stacked=True)
    if np.any(state.R <= 0):
        raise UndefinedEntropy("resource levels must be positive")
    return _per_row(
        -np.sum(params.Rstar * np.log(state.R), axis=-1)
        + np.sum(state.f, axis=-1) + np.sum(state.R, axis=-1)
    )


def q_value(state: State, reference_R: np.ndarray) -> float | np.ndarray:
    """Quadratic resource deviation Q = 1/2 sum_k (R_k - ref_k)^2."""
    if np.shape(reference_R)[-1:] != state.R.shape[-1:]:
        raise DimensionMismatch(f"reference {np.shape(reference_R)} for states {state.R.shape}")
    return _per_row(0.5 * np.sum((state.R - reference_R) ** 2, axis=-1))


def _species(params: ModelParams, f: np.ndarray, stacked: bool = False) -> np.ndarray:
    """f as a float array, checked for shape and to lie in the nonnegative orthant."""
    f = np.asarray(f, dtype=float)
    _check_dims(params, f, stacked=stacked)
    if np.any(f < 0):
        raise NegativeInput("species vector f must be nonnegative")
    return f


def H_value(params: ModelParams, f: np.ndarray) -> float | np.ndarray:
    """Objective H(f) = -a*.f - sum_k m_k Rstar_k ln(m_k + h sum_j K_jk f_j),
    one value per row for a stack of rows f."""
    return restricted_H(params, _ALL, _species(params, f, stacked=True))[0]


def _resources(params: ModelParams, b: np.ndarray) -> np.ndarray:
    return params.m * params.Rstar / b


def reconstruct_R(params: ModelParams, f: np.ndarray) -> np.ndarray:
    """Resource levels Rhat_k = m_k Rstar_k / (m_k + h sum_j K_jk f_j) in
    equilibrium with a fixed species vector f >= 0."""
    return _resources(params, restricted_uptake(params, _ALL, _species(params, f)))


def H_gradient(params: ModelParams, f: np.ndarray) -> np.ndarray:
    """Gradient of H; component i equals -G_i(Rhat(f))."""
    return restricted_gradient(params, _ALL, restricted_uptake(params, _ALL, _species(params, f)))


def H_hessian(params: ModelParams, f: np.ndarray) -> np.ndarray:
    """Hessian of H in factored form M M^T (see `restricted_hessian_factor`);
    symmetric positive semidefinite, and definite when K is nonsingular."""
    b = restricted_uptake(params, _ALL, _species(params, f))
    M = restricted_hessian_factor(params, _ALL, b)
    return M @ M.T


Support = np.ndarray | slice  # trait indices, or slice(None) for every trait
_ALL = slice(None)
# a stack of states, or of supports (rows of indices, x likewise), gives one row each with
# the bits of that row alone: the trailing unit axes make matmul take each row's own product


def restricted_uptake(params: ModelParams, support: Support, x: np.ndarray) -> np.ndarray:
    """Uptake rates b_k = m_k + h sum_{j in S} x_j K_jk at f_S = x, f = 0 off S."""
    return params.m + params.h * np.matmul(x[..., None, :], params.K[support])[..., 0, :]


def restricted_H(
    params: ModelParams, support: Support, x: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """H at f_S = x, f = 0 off S, and the uptake rates b there. The linear term
    is a row-by-row dot product, as -a*_S @ x computes for a single state."""
    b = restricted_uptake(params, support, x)
    linear = np.matmul(x[..., None, :], -params.a_star[support][..., None])[..., 0, 0]
    return _per_row(linear - np.sum(params.m * params.Rstar * np.log(b), axis=-1)), b


def restricted_gradient(params: ModelParams, support: Support, b: np.ndarray) -> np.ndarray:
    """dH/df_S = -a*_S - h K_S Rhat at the uptake rates b, with Rhat = m Rstar / b."""
    Rhat = _resources(params, b)[..., None]
    return -params.a_star[support] - params.h * np.matmul(params.K[support], Rhat)[..., 0]


def restricted_hessian_factor(params: ModelParams, support: Support, b: np.ndarray) -> np.ndarray:
    """M_S = K_S * (h sqrt(m Rstar) / b); the Hessian of H in f_S is M_S M_S^T."""
    return params.K[support] * (params.h * np.sqrt(params.m * params.Rstar) / b)[..., None, :]


def compute_diagnostics(
    params: ModelParams, state: State, reference: State | None = None
) -> Diagnostics:
    """All diagnostics at one state, or their columns over a stack of states.

    S is computed only when a reference is supplied; Q is measured against
    the reference resources when given, else against Rstar.
    """
    mass = total_mass(state)
    s = None if np.ndim(mass) == 0 else np.full(np.shape(mass), np.nan)
    if reference is not None:
        _check_dims(params, reference.f, reference.R)
        try:
            s = lyapunov_S(state, reference)
        except UndefinedEntropy:
            pass
    return Diagnostics(
        mass=mass,
        S=s,
        Q=q_value(state, reference.R if reference is not None else params.Rstar),
        F=extinction_F(state, params),
        H=H_value(params, state.f),
    )
