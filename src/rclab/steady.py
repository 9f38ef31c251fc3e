"""Threshold predicates and constructive special steady states.

Extinction happens exactly when every intrinsic growth rate is nonpositive;
a trait i with a_i > 0 supports a unique single-peak steady state whose
weight rho solves the strictly decreasing scalar equation g(rho) = 0, and
pairs of growing traits may support a two-peak steady state found as a zero
of a coupled 2x2 system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NewtonFailed, NotApplicable
from .esd import EsdResult
from .model import ModelParams

_ROOT_RTOL = 1e-12
_NEWTON_TOL = 1e-13
_NEWTON_MAXIT = 100


class Persistence(enum.Enum):
    EXTINCTION = "extinction"
    SURVIVAL = "survival"


@dataclass(frozen=True)
class DiracSteadyState:
    """Steady state concentrated on one trait: f = (rho_bar/h) e_i."""

    trait_index: int
    rho_bar: float
    f_tilde: np.ndarray
    R_tilde: np.ndarray


@dataclass(frozen=True)
class TwoPeakSteadyState:
    """Steady state carried by two distinct traits with weights rho1, rho2."""

    indices: tuple[int, int]
    rho1: float
    rho2: float
    f_tilde: np.ndarray
    R_tilde: np.ndarray


def extinction_predicate(params: ModelParams) -> Persistence:
    """EXTINCTION iff a_j <= 0 for every trait, else SURVIVAL."""
    if np.all(params.a <= 0):
        return Persistence.EXTINCTION
    return Persistence.SURVIVAL


def positive_steady_state_excluded(params: ModelParams) -> bool:
    """True when sum_j a_j < 0, which rules out an all-positive steady state."""
    return float(np.sum(params.a)) < 0


def persistence_sum(esd: EsdResult, params: ModelParams) -> float:
    """Sum of intrinsic growth rates over the surviving traits.

    Nonnegative (up to round-off) at every verified ESD.
    """
    idx = list(esd.persistence_set)
    return float(np.sum(params.a[idx])) if idx else 0.0


def _dirac_growth_rows(params: ModelParams, indices: np.ndarray):
    """g of the traits `indices` as fun(rows, rho): entry k is g(rho[k]) for
    trait indices[rows[k]], with the bits of the one-trait expression (each
    constant a_i - h K_i.Rstar is its own dot product, the in-place terms are
    the same elementwise operations, and each C-contiguous row sums along the
    last axis as a 1-D array does)."""
    base = np.array([params.a[i] - params.h * params.K[i] @ params.Rstar for i in indices])
    supply = params.m * params.Rstar

    def g(rows: np.ndarray, rho: np.ndarray) -> np.ndarray:
        terms = params.K[indices[rows]]
        denom = rho[:, None] * terms
        denom += params.m
        terms *= supply
        terms /= denom
        return base[rows] + params.h * np.sum(terms, axis=1)

    return g


def dirac_growth(params: ModelParams, i: int, rho: float) -> float:
    """g(rho): net growth of trait i when it alone carries weight rho.

    g(0) = a_i, g(inf) = a*_i < 0; strictly decreasing whenever row i of K
    has a positive entry.
    """
    g = _dirac_growth_rows(params, np.array([i]))
    return float(g(np.zeros(1, dtype=int), np.array([rho]))[0])


def _bisect_decreasing(fun, count: int, max_doubling: int = 200) -> np.ndarray:
    """Roots of `count` strictly decreasing functions, each with a positive
    value at 0 and a nonpositive one at infinity, bisected in lockstep.

    fun(rows, rho) evaluates the functions numbered `rows` at the points rho.
    Each root takes exactly the bracket doublings and bisection steps that a
    bisection of its function alone would take: a function leaves the loop
    once its own bracket stops changing, and only its own values move it.
    """
    lo = np.zeros(count)
    hi = np.ones(count)
    rows = np.arange(count)
    doublings = 0
    while True:
        rows = rows[fun(rows, hi[rows]) >= 0]
        if not rows.size:
            break
        if doublings == max_doubling:
            raise NotApplicable("no sign change found while expanding the bracket")
        lo[rows] = hi[rows]
        hi[rows] *= 2.0
        doublings += 1
    rows = np.arange(count)
    for _ in range(200):
        mid = 0.5 * (lo[rows] + hi[rows])
        width = hi[rows] - lo[rows]
        going = (mid > lo[rows]) & (mid < hi[rows]) & (width > _ROOT_RTOL * mid)
        rows, mid = rows[going], mid[going]
        if not rows.size:
            break
        up = fun(rows, mid) > 0
        lo[rows[up]] = mid[up]
        hi[rows[~up]] = mid[~up]
    return 0.5 * (lo + hi)


def _check_growing(params: ModelParams, i: int, what: str) -> None:
    if not (0 <= i < params.N):
        raise NotApplicable(f"trait index {i} out of range")
    if params.a[i] <= 0:
        raise NotApplicable(f"trait {i} has a_i = {params.a[i]:.6g} <= 0{what}")


def dirac_weights(params: ModelParams, indices) -> np.ndarray:
    """Weights rho_bar of the single-peak steady states on the traits
    `indices`, all found by one lockstep bisection; each needs a_i > 0."""
    indices = np.asarray(indices, dtype=int)
    for i in indices:
        _check_growing(params, int(i), ", no single-peak steady state")
    return _bisect_decreasing(_dirac_growth_rows(params, indices), indices.size)


def dirac_steady_state(params: ModelParams, i: int) -> DiracSteadyState:
    """Unique single-peak steady state on trait i; requires a_i > 0."""
    rho = float(dirac_weights(params, [i])[0])
    f = np.zeros(params.N)
    f[i] = rho / params.h
    R = params.m * params.Rstar / (params.m + rho * params.K[i])
    return DiracSteadyState(trait_index=i, rho_bar=rho, f_tilde=f, R_tilde=R)


def two_peak_system(
    params: ModelParams, i: int, l: int, rho1: float, rho2: float
) -> tuple[float, float]:
    """Residuals (F1, F2) of the coupled two-peak equilibrium equations."""
    astar = params.a_star
    D = params.m + rho1 * params.K[i] + rho2 * params.K[l]
    common = params.m * params.Rstar / D
    F1 = float(astar[i] + params.h * params.K[i] @ common)
    F2 = float(astar[l] + params.h * params.K[l] @ common)
    return F1, F2


def _two_peak_jacobian(
    params: ModelParams, i: int, l: int, rho1: float, rho2: float
) -> np.ndarray:
    D = params.m + rho1 * params.K[i] + rho2 * params.K[l]
    w = params.m * params.Rstar / D**2
    Ki, Kl = params.K[i], params.K[l]
    return -params.h * np.array(
        [[np.sum(Ki * Ki * w), np.sum(Ki * Kl * w)],
         [np.sum(Kl * Ki * w), np.sum(Kl * Kl * w)]]
    )


def _axis_root(fun_axis, limit_value: float | None = None) -> float | None:
    """Root of the scalar fun_axis on [0, inf), bisected as a batch of one.

    fun_axis(0) > 0 is assumed. Without limit_value the root must exist. With
    it, its value at infinity, the bracket grows at most 60 times and None
    means that the function never changes sign.
    """
    try:
        return float(_bisect_decreasing(
            lambda _rows, r: np.array([fun_axis(r[0])]), 1,
            max_doubling=200 if limit_value is None else 60,
        )[0])
    except NotApplicable:
        if limit_value is not None and limit_value >= 0:
            return None
        raise


def two_peak_steady_state(
    params: ModelParams, i: int, l: int
) -> TwoPeakSteadyState | None:
    """Two-peak steady state on distinct traits i, l, or None.

    Axis roots of F1 and F2 locate where each zero curve meets the
    coordinate axes; the curves must cross when F2 changes sign between the
    two ends of the F1 curve. A missing cross-axis root means that curve
    escapes to infinity, where F2 tends to a*_l < 0, so the limit value
    substitutes for the endpoint sample. When the sign condition holds the
    crossing is located by damped Newton from the midpoint of the axis
    estimates, projected onto the closed positive quadrant.
    """
    if i == l:
        raise NotApplicable("the two peak traits must be distinct")
    for idx in (i, l):
        _check_growing(params, idx, "; both peaks must grow")
    astar = params.a_star

    # own-axis roots always exist: F1(., 0) and F2(0, .) fall from a_i > 0 to a* < 0
    rho1_i = _axis_root(lambda r: two_peak_system(params, i, l, r, 0.0)[0])
    rho2_l = _axis_root(lambda r: two_peak_system(params, i, l, 0.0, r)[1])
    # cross-axis roots may not exist when one kernel row misses the other's resources
    lim_F1 = float(astar[i] + params.h * np.sum(
        np.where(params.K[l] == 0, params.K[i] * params.Rstar, 0.0)))
    lim_F2 = float(astar[l] + params.h * np.sum(
        np.where(params.K[i] == 0, params.K[l] * params.Rstar, 0.0)))
    rho2_i = _axis_root(lambda r: two_peak_system(params, i, l, 0.0, r)[0], lim_F1)
    rho1_l = _axis_root(lambda r: two_peak_system(params, i, l, r, 0.0)[1], lim_F2)

    end_a = two_peak_system(params, i, l, rho1_i, 0.0)[1]
    if rho2_i is not None:
        end_b = two_peak_system(params, i, l, 0.0, rho2_i)[1]
    else:
        # the F1 curve escapes to rho2 = inf with rho1 bounded, where F2 -> a*_l
        end_b = float(astar[l])
    if end_a * end_b >= 0:
        return None

    start1 = 0.5 * (rho1_i + rho1_l) if rho1_l is not None else rho1_i
    start2 = 0.5 * (rho2_i + rho2_l) if rho2_i is not None else rho2_l
    rho = np.array([start1, start2])
    res = np.array(two_peak_system(params, i, l, rho[0], rho[1]))
    for _ in range(_NEWTON_MAXIT):
        if float(np.max(np.abs(res))) <= _NEWTON_TOL:
            break
        J = _two_peak_jacobian(params, i, l, rho[0], rho[1])
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as err:
            raise NewtonFailed(f"singular Jacobian at rho = {rho}") from err
        lam = 1.0
        norm0 = float(np.max(np.abs(res)))
        while lam > 1e-12:
            trial = np.maximum(0.0, rho + lam * delta)
            res_t = np.array(two_peak_system(params, i, l, trial[0], trial[1]))
            if float(np.max(np.abs(res_t))) < norm0:
                rho, res = trial, res_t
                break
            lam *= 0.5
        else:
            raise NewtonFailed(f"no descent step at rho = {rho}, residual {norm0:.3e}")
    else:
        raise NewtonFailed(
            f"did not converge in {_NEWTON_MAXIT} iterations, residual "
            f"{float(np.max(np.abs(res))):.3e}"
        )
    if rho[0] <= 0 or rho[1] <= 0:
        return None

    f = np.zeros(params.N)
    f[i] = rho[0] / params.h
    f[l] = rho[1] / params.h
    R = params.m * params.Rstar / (params.m + rho[0] * params.K[i] + rho[1] * params.K[l])
    return TwoPeakSteadyState(
        indices=(i, l), rho1=float(rho[0]), rho2=float(rho[1]), f_tilde=f, R_tilde=R
    )
