"""Threshold predicates and constructive special steady states.

Extinction happens exactly when every intrinsic growth rate is nonpositive.
The special steady states zero the growth -dH/df on a support of one or two
traits, with weights rho = h f: a trait with a_i > 0 has a unique single-peak
weight, a root of the strictly decreasing g(rho), and two such traits have a
two-peak state when their mutual invasion rates at those weights share a
sign; damped Newton on the coupled 2x2 system then finds it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NewtonFailed, NotApplicable
from .esd import EsdResult
from .model import ModelParams, reconstruct_R

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


def _growth_rows(params: ModelParams, rows: np.ndarray, carriers: np.ndarray):
    """Growth with one carrier as fun(sel, rho): entry k is the growth of trait
    rows[sel[k]] when trait carriers[sel[k]] alone carries the weight rho[k].
    Each entry has the bits of the one-trait expression (each constant
    a_r - h K_r.Rstar is its own dot product, the in-place terms are the same
    elementwise operations, and each C-contiguous row sums along the last axis
    as a 1-D array does)."""
    base = np.array([params.a[r] - params.h * params.K[r] @ params.Rstar for r in rows])
    supply = params.m * params.Rstar

    def g(sel: np.ndarray, rho: np.ndarray) -> np.ndarray:
        denom = params.K[carriers[sel]]
        denom *= rho[:, None]
        denom += params.m
        terms = params.K[rows[sel]]
        terms *= supply
        terms /= denom
        return base[sel] + params.h * np.sum(terms, axis=1)

    return g


def dirac_growth(params: ModelParams, i: int, rho: float) -> float:
    """g(rho): net growth of trait i when it alone carries weight rho.

    g(0) = a_i, g(inf) = a*_i < 0; strictly decreasing whenever row i of K
    has a positive entry.
    """
    g = _growth_rows(params, np.array([i]), np.array([i]))
    return float(g(np.zeros(1, dtype=int), np.array([rho]))[0])


def _bisect_decreasing(fun, count: int) -> np.ndarray:
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
        if doublings == 200:
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


def dirac_weights(params: ModelParams, indices) -> np.ndarray:
    """Weights rho_bar of the single-peak steady states on the traits
    `indices`, all found by one lockstep bisection; each needs a_i > 0."""
    indices = np.asarray(indices, dtype=int)
    for i in indices:
        if not (0 <= i < params.N):
            raise NotApplicable(f"trait index {i} out of range")
        if params.a[i] <= 0:
            raise NotApplicable(f"trait {i} has a_i = {params.a[i]:.6g} <= 0, "
                                "no single-peak steady state")
    return _bisect_decreasing(_growth_rows(params, indices, indices), indices.size)


def dirac_steady_state(params: ModelParams, i: int) -> DiracSteadyState:
    """Unique single-peak steady state on trait i; requires a_i > 0."""
    rho = float(dirac_weights(params, [i])[0])
    f = np.zeros(params.N)
    f[i] = rho / params.h
    R = reconstruct_R(params, f)
    return DiracSteadyState(trait_index=i, rho_bar=rho, f_tilde=f, R_tilde=R)


def _two_peak_uptake(params: ModelParams, i: int, l: int, rho1: float, rho2: float):
    """The uptake rates m + rho1 K_i + rho2 K_l of the two carriers."""
    return params.m + rho1 * params.K[i] + rho2 * params.K[l]


def two_peak_system(
    params: ModelParams, i: int, l: int, rho1: float, rho2: float
) -> tuple[float, float]:
    """Residuals (F1, F2) of the coupled two-peak equilibrium equations."""
    astar = params.a_star
    common = params.m * params.Rstar / _two_peak_uptake(params, i, l, rho1, rho2)
    F1 = float(astar[i] + params.h * params.K[i] @ common)
    F2 = float(astar[l] + params.h * params.K[l] @ common)
    return F1, F2


def _two_peak_jacobian(
    params: ModelParams, i: int, l: int, rho1: float, rho2: float
) -> np.ndarray:
    w = params.m * params.Rstar / _two_peak_uptake(params, i, l, rho1, rho2) ** 2
    Ki, Kl = params.K[i], params.K[l]
    return -params.h * np.array(
        [[np.sum(Ki * Ki * w), np.sum(Ki * Kl * w)],
         [np.sum(Kl * Ki * w), np.sum(Kl * Kl * w)]]
    )


def two_peak_steady_state(
    params: ModelParams, i: int, l: int
) -> TwoPeakSteadyState | None:
    """Two-peak steady state on distinct growing traits i, l, or None.

    The zero curve of F1 runs from (rho_i, 0) to the rho2 axis or to
    infinity, and F2 changes sign along it exactly when the invasion rates of
    l at rho_i e_i and of i at rho_l e_l share a sign: F1(0, .) and F2(0, .)
    fall, so F2 where the curve ends has the sign of -F1(0, rho_l). Damped
    Newton, projected onto the closed positive quadrant, then locates the
    crossing from half the two single-peak weights.
    """
    if i == l:
        raise NotApplicable("the two peak traits must be distinct")
    rho_dirac = dirac_weights(params, [i, l])
    invade = _growth_rows(params, np.array([l, i]), np.array([i, l]))
    invasion = invade(np.arange(2), rho_dirac)
    if invasion[0] * invasion[1] <= 0:
        return None

    rho = 0.5 * rho_dirac
    res = np.array(two_peak_system(params, i, l, rho[0], rho[1]))
    for _ in range(_NEWTON_MAXIT):
        norm0 = float(np.max(np.abs(res)))
        if norm0 <= _NEWTON_TOL:
            break
        J = _two_peak_jacobian(params, i, l, rho[0], rho[1])
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as err:
            raise NewtonFailed(f"singular Jacobian at rho = {rho}") from err
        lam = 1.0
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
    R = reconstruct_R(params, f)
    return TwoPeakSteadyState(
        indices=(i, l), rho1=float(rho[0]), rho2=float(rho[1]), f_tilde=f, R_tilde=R
    )
