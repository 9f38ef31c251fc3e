"""Threshold predicates and constructive special steady states.

Extinction happens exactly when every intrinsic growth rate is nonpositive.
The special steady states minimize the convex objective H with f held at 0
off one or two traits; the projected Newton of the ESD solver
(`esd.newton_on_support`) finds that minimizer from below each single-peak
weight, and the weights are rho = h f. A trait with a_i > 0 > a*_i has a
unique single-peak weight, the root of its strictly decreasing growth
g(rho). Two such traits have a two-peak state exactly when both weights of
the minimizer on the pair are positive: H is convex, so a coexistence state
is that minimizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NegativeInput, NewtonFailed, NotApplicable
from .esd import EsdResult, newton_on_support
from .model import ModelParams, reconstruct_R, restricted_gradient, restricted_H

# the restricted solves stop at a complementarity residual of _TOL max|a*_S|
_TOL = 1e-13
_MAXIT = 100


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


def _checked_growing(params: ModelParams, indices) -> np.ndarray:
    """The trait indices as an array, each checked to have a single-peak state."""
    indices = np.asarray(indices, dtype=int)
    for i in indices:
        if not (0 <= i < params.N):
            raise NotApplicable(f"trait index {i} out of range")
        if not params.a[i] > 0 > params.a_star[i]:
            raise NotApplicable(f"trait {i} has a_i = {params.a[i]:.6g}, a*_i = "
                                f"{params.a_star[i]:.6g}; a single peak needs a_i > 0 > a*_i")
    return indices


def _restricted_weights(params: ModelParams, support: np.ndarray) -> np.ndarray:
    """Weights rho = h f of the minimizer of H over f >= 0 with f = 0 off
    `support`, by projected Newton from below each single-peak weight: by
    Jensen's inequality a single peak's growth is at most -a*_i - h K_i.Rstar
    / (1 + cbar_i f_i), cbar_i the K_ik Rstar_k-weighted mean of h K_ik / m_k."""
    w = params.K[support] * params.Rstar
    cbar = np.sum(w * (params.h * params.K[support] / params.m), axis=1) / np.sum(w, axis=1)
    tol = _TOL * float(np.max(np.abs(params.a_star[support])))
    x, steps, residual = newton_on_support(
        params, support, params.a[support] / (-params.a_star[support] * cbar), tol, _MAXIT)
    if residual > tol:
        raise NewtonFailed(f"traits {support.tolist()}: residual {residual:.3e}, {steps} steps")
    return params.h * x


def _growth(params: ModelParams, support: np.ndarray, rho) -> np.ndarray:
    """Net growth -dH/df of the traits `support` when they alone carry the weights rho."""
    x = np.asarray(rho, dtype=float) / params.h
    if np.any(x < 0):
        raise NegativeInput("weights rho must be nonnegative")
    return -restricted_gradient(params, support, restricted_H(params, support, x)[1])


def dirac_growth(params: ModelParams, i: int, rho: float) -> float:
    """g(rho): net growth of trait i when it alone carries weight rho.

    g(0) = a_i, g(inf) = a*_i < 0; strictly decreasing whenever row i of K
    has a positive entry.
    """
    return float(_growth(params, np.array([i]), [rho])[0])


def dirac_weights(params: ModelParams, indices) -> np.ndarray:
    """Weights rho_bar of the single-peak steady states on the traits
    `indices`, one restricted solve each; each needs a_i > 0 > a*_i."""
    return np.array([_restricted_weights(params, np.array([i]))[0]
                     for i in _checked_growing(params, indices)])


def _carried(params: ModelParams, support, rho) -> tuple[np.ndarray, np.ndarray]:
    """The state (f, Rhat(f)) whose traits `support` carry the weights rho."""
    f = np.zeros(params.N)
    f[support] = np.asarray(rho) / params.h
    return f, reconstruct_R(params, f)


def dirac_steady_state(params: ModelParams, i: int) -> DiracSteadyState:
    """Unique single-peak steady state on trait i; requires a_i > 0."""
    rho = float(dirac_weights(params, [i])[0])
    f, R = _carried(params, [i], rho)
    return DiracSteadyState(trait_index=i, rho_bar=rho, f_tilde=f, R_tilde=R)


def two_peak_system(
    params: ModelParams, i: int, l: int, rho1: float, rho2: float
) -> tuple[float, float]:
    """Residuals (F1, F2) of the coupled two-peak equilibrium equations: the
    net growth of traits i and l when they alone carry the weights rho1, rho2."""
    F1, F2 = _growth(params, np.array([i, l]), [rho1, rho2])
    return float(F1), float(F2)


def two_peak_steady_state(params: ModelParams, i: int, l: int) -> TwoPeakSteadyState | None:
    """Two-peak steady state on distinct growing traits i, l, or None when
    the minimizer of H on the pair leaves one of them at weight 0."""
    if i == l:
        raise NotApplicable("the two peak traits must be distinct")
    rho = _restricted_weights(params, _checked_growing(params, [i, l]))
    if rho[0] <= 0 or rho[1] <= 0:
        return None
    f, R = _carried(params, [i, l], rho)
    return TwoPeakSteadyState(indices=(i, l), rho1=float(rho[0]), rho2=float(rho[1]),
                              f_tilde=f, R_tilde=R)
