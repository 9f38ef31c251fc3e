"""Threshold predicates and constructive special steady states.

Extinction happens exactly when every intrinsic growth rate is nonpositive.
The special steady states minimize the convex objective H with f = 0 off one
or two traits; their weights are rho = h f. The single-peak weight of a
trait with a_i > 0 is the root of dH/df_i(x e_i), which rises from -a_i to
-a*_i > 0 (a model's net rates are all negative) and is concave in x, so
Newton from below rises to it without overshooting (Fourier's condition):
one Newton iteration steps every trait at once, with no line search and no
projection. A two-peak state exists exactly when the minimizer of H on the
pair (`esd.newton_on_support`) weighs both traits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NewtonFailed, NotApplicable
from .esd import EsdResult, newton_on_support
from .model import ModelParams, reconstruct_R, restricted_gradient, restricted_hessian_factor
from .model import restricted_uptake

# the restricted solves stop at a complementarity residual of _TOL max|a*_S|
_TOL = 1e-13
_MAXIT = 100
# traits per single-peak Newton block: bounds its (traits x N) work arrays
_BLOCK = 64


class Persistence(enum.Enum):
    EXTINCTION = "extinction"
    SURVIVAL = "survival"


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
    return Persistence.EXTINCTION if np.all(params.a <= 0) else Persistence.SURVIVAL


def positive_steady_state_excluded(params: ModelParams) -> bool:
    """True when sum_j a_j < 0, which rules out an all-positive steady state."""
    return float(np.sum(params.a)) < 0


def persistence_sum(esd: EsdResult, params: ModelParams) -> float:
    """Sum of a_j over the surviving traits; nonnegative (up to round-off) at a verified ESD."""
    return float(np.sum(params.a[list(esd.persistence_set)]))


def _checked_growing(params: ModelParams, indices) -> np.ndarray:
    """The trait indices as an array, checked to be a 1-D list of integers in range
    whose traits each have a single-peak state (a_i > 0)."""
    traits = np.asarray(indices)
    if (traits.ndim != 1 or (traits.size and not np.issubdtype(traits.dtype, np.integer))
            or np.any((traits < 0) | (traits >= params.N))):
        raise NotApplicable(f"trait indices {indices!r} are not 1-D integers in [0, {params.N})")
    for i in traits:
        if not params.a[i] > 0:
            raise NotApplicable(f"trait {i} has a_i = {params.a[i]:.6g} <= 0: no single peak")
    return traits.astype(int)


def _below(params: ModelParams, traits: np.ndarray) -> np.ndarray:
    """Below each single-peak weight (Jensen): the root of -a*_i - h K_i.Rstar/(1 + cbar_i x)."""
    w = params.K[traits] * params.Rstar
    cbar = np.sum(w * (params.h * params.K[traits] / params.m), axis=1) / np.sum(w, axis=1)
    return params.a[traits] / (-params.a_star[traits] * cbar)


def dirac_weights(params: ModelParams, indices) -> np.ndarray:
    """Single-peak weights h x on the traits `indices` (a_i > 0): Newton on the stack
    of their supports, _BLOCK at a time; a trait freezes once |min(x_i, g_i)| <= _TOL |a*_i|."""
    traits = _checked_growing(params, indices)
    x, tol = np.empty(traits.size), _TOL * np.abs(params.a_star[traits])
    for start in range(0, traits.size, _BLOCK):
        live = np.arange(start, min(start + _BLOCK, traits.size))
        x[live] = _below(params, traits[live])
        for steps in range(_MAXIT + 1):
            b = restricted_uptake(params, traits[live, None], x[live, None])
            g = restricted_gradient(params, traits[live, None], b)[:, 0]
            going = ~(np.abs(np.minimum(x[live], g)) <= tol[live])  # NaN goes on, to fail
            live, b, g = live[going], b[going], g[going]
            if live.size == 0:
                break
            if steps == _MAXIT:
                raise NewtonFailed(f"trait {traits[live[0]]}: not converged in {steps} steps")
            M = restricted_hessian_factor(params, traits[live, None], b)
            x[live] -= g / np.matmul(M, M.swapaxes(1, 2))[:, 0, 0]
    return params.h * x


def two_peak_steady_state(params: ModelParams, i: int, l: int) -> TwoPeakSteadyState | None:
    """Two-peak steady state on distinct growing traits i, l, or None when
    the minimizer of H on the pair leaves one of them at weight 0."""
    if i == l:
        raise NotApplicable("the two peak traits must be distinct")
    support = _checked_growing(params, [i, l])
    tol = _TOL * float(np.max(np.abs(params.a_star[support])))
    x, steps, residual = newton_on_support(params, support, _below(params, support), tol, _MAXIT)
    if residual > tol:
        raise NewtonFailed(f"traits {support.tolist()}: residual {residual:.3e}, {steps} steps")
    rho1, rho2 = map(float, params.h * x)
    if rho1 <= 0 or rho2 <= 0:
        return None
    f = np.zeros(params.N)
    f[[i, l]] = np.array([rho1, rho2]) / params.h
    return TwoPeakSteadyState((i, l), rho1, rho2, f, reconstruct_R(params, f))
