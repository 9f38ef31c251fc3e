"""Computation and certification of the evolutionarily stable distribution.

The ESD species vector is the minimizer of the convex objective H over the
nonnegative orthant; the resource levels are the reconstructed resources
Rhat(f) of the model core (`model.reconstruct_R`).

The solver is projected gradient descent with a Barzilai-Borwein spectral
step and Armijo backtracking. A plain constant initial step stalls well
above tight tolerances on clustered-kernel instances (the per-step decrease
of H falls below double-precision evaluation noise), while the spectral
step adapts to the nearly flat valleys those kernels create.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NegativeInput, NotConverged
from .model import H_gradient, H_value, ModelParams, growth_rate, reconstruct_R

SUPPORT_EPS = 1e-8

_ARMIJO_C = 1e-4
_SHRINK = 0.5
_BB_MIN = 1e-10
_BB_MAX = 1e10


@dataclass(frozen=True)
class EsdResult:
    """Converged minimizer of H with its reconstructed resources.

    persistence_set holds the indices with f_tilde above the numerical
    support threshold; k_nonsingular is False when the consumption matrix is
    numerically rank-deficient, in which case f_tilde may be non-unique
    although R_tilde still is.
    """

    f_tilde: np.ndarray
    R_tilde: np.ndarray
    H_at_min: float
    kkt_residual: float
    persistence_set: tuple[int, ...]
    iterations: int
    k_nonsingular: bool


@dataclass(frozen=True)
class EsdReport:
    """verify_esd outcome; worst_violation is the largest raw check value."""

    is_steady: bool
    is_esd: bool
    worst_violation: float
    persistence_set: tuple[int, ...]
    support_growth: float
    offsupport_growth: float
    resource_mismatch: float


def kkt_residual(params: ModelParams, f: np.ndarray) -> float:
    """Complementarity residual max_i |min(f_i, dH/df_i)|; zero at KKT points."""
    f = np.asarray(f, dtype=float)
    g = H_gradient(params, f)
    return float(np.max(np.abs(np.minimum(f, g))))


def check_K_nonsingular(params: ModelParams) -> tuple[bool, float]:
    """SVD-based singularity test.

    Returns (nonsingular, condition_estimate); the matrix counts as singular
    when its smallest singular value is below 1e-12 times the largest.
    """
    s = params.singular_values_K
    smax = float(s[0])
    smin = float(s[-1])
    if smax == 0.0:
        return False, np.inf
    cond = np.inf if smin == 0.0 else smax / smin
    return smin > 1e-12 * smax, cond


def solve_esd(
    params: ModelParams,
    f_init: np.ndarray | None = None,
    tol: float = 1e-10,
    maxit: int = 100000,
) -> EsdResult:
    """Minimize H over {f >= 0} and assemble the certified ESD.

    Projected gradient descent: f <- max(0, f - s * grad H(f)) with the
    trial s from a safeguarded Barzilai-Borwein estimate and monotone
    Armijo backtracking (sufficient decrease 1e-4, shrink 0.5). Stops when
    the complementarity residual drops to `tol`; raises NotConverged if the
    iteration budget runs out or progress hits the floating-point floor.
    """
    nonsingular, _cond = check_K_nonsingular(params)
    if not nonsingular:
        warnings.warn(
            "consumption matrix is numerically singular; the minimizer of H "
            "may be non-unique (the reconstructed resources are still unique)",
            stacklevel=2,
        )

    if f_init is None:
        f = np.full(params.N, 1.0 / (params.h * params.N))
    else:
        f = np.array(f_init, dtype=float, copy=True)
        if np.any(f < 0):
            raise NegativeInput("f_init must be nonnegative")

    g = H_gradient(params, f)
    h_val = H_value(params, f)
    s_bb = 1.0
    residual = float(np.max(np.abs(np.minimum(f, g))))
    for it in range(maxit):
        if residual <= tol:
            return _assemble(params, f, h_val, residual, it, nonsingular)
        s = s_bb
        # near the minimizer the sufficient decrease is below the evaluation
        # noise of H; the slack keeps the line search from starving there
        noise = 1e-14 * (1.0 + abs(h_val))
        while True:
            f_new = np.maximum(0.0, f - s * g)
            d = f_new - f
            h_new = H_value(params, f_new)
            if h_new <= h_val + _ARMIJO_C * float(g @ d) + noise or s <= _BB_MIN:
                break
            s *= _SHRINK
        if not np.any(d):
            # no representable descent step exists at this precision
            raise NotConverged(it, residual)
        g_new = H_gradient(params, f_new)
        df, dg = f_new - f, g_new - g
        curv = float(df @ dg)
        s_bb = float(df @ df) / curv if curv > 0 else 1.0
        s_bb = min(max(s_bb, _BB_MIN), _BB_MAX)
        f, g, h_val = f_new, g_new, h_new
        residual = float(np.max(np.abs(np.minimum(f, g))))
    if residual <= tol:
        return _assemble(params, f, h_val, residual, maxit, nonsingular)
    raise NotConverged(maxit, residual)


def _assemble(
    params: ModelParams,
    f: np.ndarray,
    h_val: float,
    residual: float,
    iterations: int,
    nonsingular: bool,
) -> EsdResult:
    persistence = tuple(int(j) for j in np.flatnonzero(f > SUPPORT_EPS))
    return EsdResult(
        f_tilde=f,
        R_tilde=reconstruct_R(params, f),
        H_at_min=h_val,
        kkt_residual=residual,
        persistence_set=persistence,
        iterations=iterations,
        k_nonsingular=nonsingular,
    )


def verify_esd(
    params: ModelParams,
    f: np.ndarray,
    R: np.ndarray,
    tol: float,
    support_eps: float = SUPPORT_EPS,
) -> EsdReport:
    """Check the defining conditions of a steady state / ESD at (f, R).

    (a) growth vanishes on the support, (b) growth is nonpositive off the
    support, (c) R matches the reconstructed equilibrium resources. A
    steady state needs (a), (c) and f_j * G_j ~ 0; an ESD needs all three.
    """
    f = np.asarray(f, dtype=float)
    R = np.asarray(R, dtype=float)
    G = growth_rate(params, R)
    on = f > support_eps
    support_growth = float(np.max(np.abs(G[on]))) if np.any(on) else 0.0
    offsupport_growth = float(np.max(G[~on])) if np.any(~on) else -np.inf
    resource_mismatch = float(np.max(np.abs(R - reconstruct_R(params, f))))
    complementarity = float(np.max(np.abs(f * G)))

    a_ok = support_growth <= tol
    b_ok = offsupport_growth <= tol
    c_ok = resource_mismatch <= tol
    steady_ok = complementarity <= tol * (1.0 + float(np.max(f, initial=0.0)))
    worst = max(support_growth, max(offsupport_growth, 0.0), resource_mismatch)
    return EsdReport(
        is_steady=a_ok and c_ok and steady_ok,
        is_esd=a_ok and b_ok and c_ok,
        worst_violation=worst,
        persistence_set=tuple(int(j) for j in np.flatnonzero(on)),
        support_growth=support_growth,
        offsupport_growth=offsupport_growth,
        resource_mismatch=resource_mismatch,
    )


def brute_force_esd(
    params: ModelParams, grid_max: float, grid_step: float
) -> np.ndarray:
    """Exhaustive minimization of H over the grid {0, step, ...}^N.

    Independent oracle for the optimizer at tiny N; refuses N > 3. The last
    axis is vectorized and the leading axes are enumerated.
    """
    if params.N > 3:
        raise DimensionTooLarge(f"exhaustive search supports N <= 3, got N = {params.N}")
    npts = int(round(grid_max / grid_step)) + 1
    grid = np.linspace(0.0, grid_max, npts)
    astar = params.a_star
    h, K, m, Rstar = params.h, params.K, params.m, params.Rstar

    best_val = np.inf
    best: np.ndarray | None = None
    lead_shape = (npts,) * (params.N - 1)
    for idx in np.ndindex(*lead_shape):
        head = grid[list(idx)] if idx else np.empty(0)
        # b has shape (npts, N): consumption for each value of the last coordinate
        b = m[None, :] + h * (head @ K[: params.N - 1, :])[None, :] if idx else m[None, :]
        b = b + h * np.outer(grid, K[params.N - 1, :])
        lin = astar[: params.N - 1] @ head if idx else 0.0
        vals = -(lin + astar[params.N - 1] * grid) - np.sum(
            m * Rstar * np.log(b), axis=1
        )
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best = np.append(head, grid[j])
    assert best is not None
    return best
