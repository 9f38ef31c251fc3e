"""Computation and certification of the evolutionarily stable distribution.

The ESD species vector is the minimizer of the convex objective H over the
nonnegative orthant; the resource levels are the reconstructed resources
Rhat(f) of the model core (`model.reconstruct_R`).

The solver adds the fittest invader to the support one outer step at a
time and solves the restricted problem by projected Newton (`solve_esd`),
then certifies that the minimizer is unique from the rows of K on its
support.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NegativeInput, NotConverged, ValidationError
from .model import H_gradient, ModelParams, _check_dims, _growth, _resources, _setting
from .model import reconstruct_R, restricted_gradient, restricted_H, restricted_hessian_factor

SUPPORT_EPS = 1e-8


@dataclass(frozen=True)
class EsdResult:
    """Converged minimizer of H with its reconstructed resources.

    persistence_set holds the indices with f_tilde above the numerical
    support threshold. f_unique is True when f_tilde is proved to be the only
    minimizer (see `solve_esd`); when it is False, f_tilde may be one of
    many, although R_tilde is unique regardless.
    """

    f_tilde: np.ndarray
    R_tilde: np.ndarray
    H_at_min: float
    kkt_residual: float
    persistence_set: tuple[int, ...]
    iterations: int
    f_unique: bool


@dataclass(frozen=True)
class EsdReport:
    """verify_esd outcome with the raw value of each check."""

    is_steady: bool
    is_esd: bool
    persistence_set: tuple[int, ...]
    support_growth: float
    offsupport_growth: float
    resource_mismatch: float


def _complementarity(f: np.ndarray, g: np.ndarray) -> float:
    return float(np.max(np.abs(np.minimum(f, g))))


def solve_esd(
    params: ModelParams,
    f_init: np.ndarray | None = None,
    tol: float = 1e-10,
    maxit: int = 100000,
) -> EsdResult:
    """Minimize H over {f >= 0} and assemble the certified ESD.

    Invasion (active-set) method: each outer step evaluates g = grad H(f)
    once and stops when the complementarity residual max|min(f, g)| is at
    most `tol`. Otherwise the off-support trait with the most negative g_j,
    the fittest invader of the resident community, joins the support S, and
    projected Newton solves the problem restricted to S; traits it drives to
    0 leave S. The start is f = 0, or `f_init`, whose support seeds S.
    `iterations` counts outer plus Newton steps and `maxit` bounds that
    total; NotConverged is raised when it runs out or a step stalls.

    Uniqueness: all minimizers share b = m + h K^T f (H is strictly convex
    in b), so R_tilde and g, and vanish where g_j > 0; two differ by a d with
    K_Z^T d = 0 on Z = {j : f_j > 0 or g_j <= tol}. So f_tilde is unique when
    Z is empty or the rows of K on Z are independent (the second-order
    condition on the critical cone, Nocedal & Wright 2006, Thm. 12.6):
    f_unique tests the singular values of the Hessian factor on Z, in
    O(|Z|^2 N), and a warning gives their condition estimate when it fails.
    """
    _setting("tol", tol, "float", positive=True)
    _setting("maxit", maxit, "int")
    f = np.zeros(params.N) if f_init is None else np.array(f_init, dtype=float, copy=True)
    if np.any(f < 0):
        raise NegativeInput("f_init must be nonnegative")
    if not np.all(np.isfinite(f)):
        raise ValidationError("f_init", "must be finite")

    iterations = 0
    while True:
        g = H_gradient(params, f)
        residual = _complementarity(f, g)
        if residual <= tol:
            break
        if iterations >= maxit:
            raise NotConverged(iterations, residual)
        on = f > 0
        invader = int(np.argmin(np.where(on, np.inf, g)))
        invades = not on[invader] and g[invader] < 0
        on[invader] |= invades
        support = np.flatnonzero(on)
        # a tenth of tol, so that the restricted and the full gradient,
        # summed in different orders, agree on convergence
        x, steps, _ = newton_on_support(params, support, f[support], 0.1 * tol,
                                        maxit - iterations - 1)
        if steps == 0 and not invades:
            raise NotConverged(iterations, residual)
        iterations += 1 + steps
        f[support] = x

    h_val, b = restricted_H(params, slice(None), f)  # H_value's bits, and b at f_tilde for R_tilde
    # degenerate traits (g_j <= tol off the support) go into Z, never out of it
    Z = np.flatnonzero((f > 0) | (g <= tol))
    s = np.linalg.svd(restricted_hessian_factor(params, Z, b), compute_uv=False)
    f_unique = bool(s.size == 0 or s[-1] > 1e-12 * s[0])
    if not f_unique:
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
        warnings.warn(f"consumption rows on the ESD support are numerically singular "
                      f"(condition estimate {cond:.3e}); the minimizer of H may be "
                      "non-unique (the reconstructed resources are still unique)", stacklevel=2)
    return EsdResult(
        f_tilde=f, R_tilde=_resources(params, b), H_at_min=h_val,
        kkt_residual=residual, iterations=iterations, f_unique=f_unique,
        persistence_set=tuple(int(j) for j in np.flatnonzero(f > SUPPORT_EPS)),
    )


def newton_on_support(
    params: ModelParams, support: np.ndarray, x: np.ndarray, tol: float, budget: int
) -> tuple[np.ndarray, int, float]:
    """Projected Newton for H over {f >= 0, f = 0 off `support`}, from f_S = x.

    Gradient and Hessian factor are `model.restricted_*`; traits at 0 with an
    outward gradient stay. Armijo backtracking on H tries the Newton step,
    then a gradient step. Returns x, the steps taken and the complementarity
    residual at x: once it is `tol`, after `budget` steps, or when neither
    step moves x.
    """
    h_val, b = restricted_H(params, support, x)
    for steps in range(budget + 1):  # returns at the latest when steps == budget
        g = restricted_gradient(params, support, b)
        residual = _complementarity(x, g)
        if residual <= tol or steps == budget:
            return x, steps, residual
        M = restricted_hessian_factor(params, support, b)
        hess = M @ M.T
        free = (x > 0) | (g < 0)
        newton = np.zeros_like(x)
        with contextlib.suppress(np.linalg.LinAlgError):
            newton[free] = np.linalg.solve(hess[np.ix_(free, free)], -g[free])
        curv = float(g @ hess @ g)
        gradient = -g * (float(g @ g) / curv if curv > 0 else 1.0)
        directions = (newton, gradient) if np.all(np.isfinite(newton)) else (gradient,)
        # near the minimizer the sufficient decrease is below the evaluation
        # noise of H; the slack keeps the line search from starving there
        noise = 1e-14 * (1.0 + abs(h_val))
        for step, d in ((s, d) for d in directions for s in 0.5 ** np.arange(60.0)):
            x_new = np.maximum(0.0, x + step * d)
            h_new, b_new = restricted_H(params, support, x_new)
            # Armijo's sufficient decrease, with a step that moves x
            if (h_new <= h_val + 1e-4 * float(g @ (x_new - x)) + noise
                    and not np.array_equal(x_new, x)):
                break
        else:
            return x, steps, residual
        x, h_val, b = x_new, h_new, b_new


def verify_esd(params: ModelParams, f: np.ndarray, R: np.ndarray, tol: float) -> EsdReport:
    """Check the defining conditions of a steady state / ESD at (f, R).

    (a) growth vanishes on the support, (b) growth is nonpositive off the
    support, (c) R matches the reconstructed equilibrium resources. A
    steady state needs (a), (c) and f_j * G_j ~ 0; an ESD needs all three.
    """
    _setting("tol", tol, "float", positive=True)
    f = np.asarray(f, dtype=float)
    R = np.asarray(R, dtype=float)
    _check_dims(params, f, R)
    G = _growth(params, R)
    on = f > SUPPORT_EPS
    support_growth = float(np.max(np.abs(G[on]))) if np.any(on) else 0.0
    offsupport_growth = float(np.max(G[~on])) if np.any(~on) else -np.inf
    resource_mismatch = float(np.max(np.abs(R - reconstruct_R(params, f))))
    complementarity = float(np.max(np.abs(f * G)))

    a_ok = support_growth <= tol
    b_ok = offsupport_growth <= tol
    c_ok = resource_mismatch <= tol
    steady_ok = complementarity <= tol * (1.0 + float(np.max(f, initial=0.0)))
    return EsdReport(
        is_steady=a_ok and c_ok and steady_ok,
        is_esd=a_ok and b_ok and c_ok,
        persistence_set=tuple(int(j) for j in np.flatnonzero(on)),
        support_growth=support_growth,
        offsupport_growth=offsupport_growth,
        resource_mismatch=resource_mismatch,
    )
