"""Shared test utilities: instance generators and independent oracles."""

from __future__ import annotations

import math
import os
import re
import tracemalloc
from collections.abc import Iterable
from pathlib import Path

import numpy as np

import rclab
from rclab import (
    FixedPointDiverged,
    H_gradient,
    H_value,
    ModelParams,
    NotApplicable,
    NotConverged,
    State,
    growth_rate,
)
from rclab.csvio import Table, read_csv
from rclab.errors import ParseError, RclabError, StepRejected
from rclab.integrator import _plan_steps
from rclab.svgplot import drawn, render

_ROOT_RTOL = 1e-12


def n1_instance() -> tuple[ModelParams, State]:
    """Single-trait instance with closed-form stable distribution (1, 1/2)."""
    params = ModelParams(
        N=1, h=1.0, a=np.array([0.5]), K=np.array([[1.0]]),
        m=np.array([1.0]), Rstar=np.array([1.0]),
    )
    return params, State(f=np.array([1.0]), R=np.array([1.0]))


def n2_decoupled() -> ModelParams:
    """Two independent copies of the single-trait instance (diagonal K)."""
    return ModelParams(
        N=2, h=1.0, a=np.array([0.5, 0.5]), K=np.eye(2),
        m=np.ones(2), Rstar=np.ones(2),
    )


def n2_coupled() -> ModelParams:
    """Symmetric pair with kernel overlap 0.3; two-peak weights solve
    1.3/(1 + 1.3 rho) = 0.8, i.e. rho = 0.625/1.3."""
    return ModelParams(
        N=2, h=1.0, a=np.array([0.5, 0.5]),
        K=np.array([[1.0, 0.3], [0.3, 1.0]]),
        m=np.ones(2), Rstar=np.ones(2),
    )


def random_instance(rng: np.random.Generator, n_max: int = 10) -> ModelParams:
    """Random valid instance: a is built from a target net rate so the
    negativity assumption holds by construction."""
    n = int(rng.integers(1, n_max + 1))
    h = float(rng.uniform(0.1, 1.0))
    K = rng.uniform(0.0, 1.0, size=(n, n))
    m = rng.uniform(0.5, 2.0, size=n)
    Rstar = rng.uniform(0.5, 2.0, size=n)
    astar_target = rng.uniform(-2.0, -0.1, size=n)
    a = astar_target + h * K @ Rstar
    return ModelParams(N=n, h=h, a=a, K=K, m=m, Rstar=Rstar)


def random_state(rng: np.random.Generator, params: ModelParams) -> State:
    return State(
        f=rng.uniform(0.0, 3.0, size=params.N),
        R=rng.uniform(0.1, 3.0, size=params.N),
    )


def random_stack(rng: np.random.Generator, params: ModelParams, rows: int) -> State:
    """rows random states of the model, stacked read-only so the State keeps them uncopied."""
    f = rng.uniform(0.1, 2.0, size=(rows, params.N))
    R = rng.uniform(0.5, 2.0, size=(rows, params.N))
    f.flags.writeable = R.flags.writeable = False
    return State(f=f, R=R)


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def subprocess_env() -> dict[str, str]:
    """The environment for a child Python that imports this rclab: its source
    directory first on PYTHONPATH."""
    src = str(Path(rclab.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def oracle_csv(table: Table) -> bytes:
    """The bytes of a table with each row spelled by the `%` operator, NaN as a
    blank: the row renderer `write_csv` once was, and the oracle for its speller."""
    columns = list(table.columns.values())
    pattern = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = np.column_stack(columns).tolist()
    return "".join([",".join(table.columns) + "\n",
                    *((pattern % tuple(row)).replace("nan", "") for row in rows)]).encode()


# a cell is blank, [-]inf or -?D+(.D+)?(e[+-]D{1,3}) in ASCII digits
_CELL = r"(?:-?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]{1,3})?|inf))?"
_CSV_LINE = re.compile(rf"{_CELL}(?:,{_CELL})*")


def line_parser_csv(lines: Iterable[str]) -> Table:
    """A CSV read a line at a time: split at commas, the cell count, the grammar as
    a regular expression, `float` for each cell, and inf only where spelled inf.
    The line parser `read_csv` once was, and the oracle for its array reader."""
    numbered = enumerate(lines, start=1)
    header_lineno, header_line = next(((n, ln) for n, ln in numbered if ln.strip()), (1, None))
    if header_line is None:
        raise ParseError("empty CSV", line=1)
    header = header_line.rstrip("\n").split(",")
    if "" in header:
        raise ParseError(f"column {header.index('') + 1} has no name", line=header_lineno)
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names", line=header_lineno)
    rows = []
    for lineno, line in numbered:
        if len(header) > 1 and not line.strip():
            continue
        line = line.rstrip("\n")
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(cells)}", line=lineno)
        misspelt = ParseError("numbers must be ASCII text as %.17g writes them", line=lineno)
        if not _CSV_LINE.fullmatch(line):
            raise misspelt
        row = [float(cell) if cell else math.nan for cell in cells]
        if sum(map(math.isinf, row)) > line.count("inf"):
            raise misspelt
        rows.append(row)
    if not rows:
        raise ParseError("CSV has a header but no data rows", line=header_lineno)
    return Table(dict(zip(header, np.array(rows).T)))


def render_read_both_ways(lines: list[str], kind: str, log_scale: bool = False) -> list:
    """What `plot` makes of a CSV's lines, read whole and read as the kind selects
    (`svgplot.drawn`): for each, the SVG, or the type, message and line of the error."""
    outcomes = []
    for select in (None, lambda header: drawn(kind, header)):
        try:
            outcomes.append(render(read_csv(lines, select), kind, log_scale))
        # huge or equal values can fail the drawing arithmetic too (an overflow warns,
        # which tests make an error)
        except (RclabError, ArithmeticError, RuntimeWarning) as err:
            outcomes.append((type(err), str(err), getattr(err, "line", None)))
    return outcomes


def fd_gradient(params: ModelParams, f: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of H, componentwise."""
    out = np.empty(params.N)
    for i in range(params.N):
        step = eps * max(1.0, abs(f[i]))
        fp = f.copy()
        fm = f.copy()
        fp[i] += step
        fm[i] = max(0.0, fm[i] - step)  # stay feasible near the boundary
        out[i] = (H_value(params, fp) - H_value(params, fm)) / (fp[i] - fm[i])
    return out


def fd_hessian(params: ModelParams, f: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the analytic gradient, column by column."""
    out = np.empty((params.N, params.N))
    for i in range(params.N):
        step = eps * max(1.0, abs(f[i]))
        fp = f.copy()
        fm = f.copy()
        fp[i] += step
        fm[i] = max(0.0, fm[i] - step)
        out[:, i] = (H_gradient(params, fp) - H_gradient(params, fm)) / (fp[i] - fm[i])
    return out


def support_clusters(f: np.ndarray, eps: float = 1e-8) -> int:
    """Number of contiguous runs of entries above eps."""
    on = np.asarray(f) > eps
    return int(np.sum(on[1:] & ~on[:-1]) + (1 if on[0] else 0))


def dirac_growth_scalar(
    params: ModelParams, i: int, rho: float, carrier: int | None = None
) -> float:
    """Net growth of trait i when trait `carrier` (by default i itself) alone
    carries the weight rho, evaluated for that one trait."""
    Ki = params.K[i]
    Kc = Ki if carrier is None else params.K[carrier]
    terms = params.m * params.Rstar * Ki / (params.m + rho * Kc)
    return float(params.a[i] - params.h * Ki @ params.Rstar + params.h * np.sum(terms))


def bisect_decreasing(fun, max_doubling: int = 200) -> float:
    """Root of a strictly decreasing function with fun(0) > 0 >= fun(inf),
    bisected on its own: the oracle for the Dirac weights."""
    lo = 0.0
    hi = 1.0
    doublings = 0
    while fun(hi) >= 0:
        lo = hi
        hi *= 2.0
        doublings += 1
        if doublings > max_doubling:
            raise NotApplicable("no sign change found while expanding the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or (hi - lo) <= _ROOT_RTOL * mid:
            break
        if fun(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mutual_invasion(params: ModelParams, i: int, l: int) -> bool:
    """Whether each of the growing traits i, l invades the single-peak state of
    the other, with weights from bisect_decreasing: the oracle for two-peak
    existence. (Both rates negative would make both single-peak states
    minimizers of the convex H on the pair, so a sign test is the same rule.)"""
    rho_i = bisect_decreasing(lambda r: dirac_growth_scalar(params, i, r))
    rho_l = bisect_decreasing(lambda r: dirac_growth_scalar(params, l, r))
    return (dirac_growth_scalar(params, l, rho_i, carrier=i) > 0
            and dirac_growth_scalar(params, i, rho_l, carrier=l) > 0)


def new_f(params: ModelParams, f: np.ndarray, R: np.ndarray, dt: float) -> np.ndarray:
    """Species half of the closed-form update, with G evaluated at R."""
    denom = 1.0 - dt * growth_rate(params, R)
    if np.any(denom <= 0):
        raise StepRejected("nonpositive update denominator")
    return f / denom


def new_R(params: ModelParams, R: np.ndarray, f_new: np.ndarray, dt: float) -> np.ndarray:
    """Resource half of the closed-form update, from the current R and the new f."""
    num = R + dt * params.m * params.Rstar
    den = 1.0 + dt * params.m + dt * params.h * (params.K.T @ f_new)
    return num / den


def semi_implicit_step(params: ModelParams, state: State, dt: float) -> State:
    """The semi-implicit step written out on its own: the oracle for the sweep kernel."""
    f_new = new_f(params, state.f, state.R, dt)
    return State(f=f_new, R=new_R(params, state.R, f_new, dt))


def fully_implicit_step(
    params: ModelParams, state: State, dt: float, fp_tol: float, fp_maxit: int
) -> tuple[State, int]:
    """The fixed-point loop of the fully implicit step written out on its own."""
    R_iter = state.R
    for sweep in range(1, fp_maxit + 1):
        f_new = new_f(params, state.f, R_iter, dt)
        R_new = new_R(params, state.R, f_new, dt)
        if float(np.max(np.abs(R_new - R_iter))) <= fp_tol:
            return State(f=f_new, R=R_new), sweep
        R_iter = R_new
    raise FixedPointDiverged(f"no contraction within {fp_maxit} sweeps")


@np.errstate(over="ignore", invalid="ignore")
def frozen_sweep(
    params: ModelParams, f: np.ndarray, R: np.ndarray, dt: float,
    fp_tol: float, max_sweeps: int, R_start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The sweep kernel's arithmetic and messages, spelled out with every term
    computed afresh in each sweep: the oracle for the terms the kernel keeps
    across steps and hoists out of its loop."""
    num = R + dt * params.m * params.Rstar
    den = 1.0 + dt * params.m
    R_iter = R if R_start is None else R_start
    for sweep in range(1, max_sweeps + 1):
        dtG = dt * (params.a + params.h * (params.K @ (R_iter - params.Rstar)))
        if dtG.max() >= 1.0:
            j = int(np.argmax(dtG >= 1.0))
            raise StepRejected(f"nonpositive update denominator for species {j} "
                               f"(dt*G = {dtG[j]:.6g} >= 1); reduce dt")
        f_new = f / (1.0 - dtG)
        R_new = num / (den + dt * params.h * (params.K.T @ f_new))
        change = float(np.abs(R_new - R_iter).max())
        if not change > fp_tol:
            break
        R_iter = R_new
    else:
        raise FixedPointDiverged("fixed-point iteration did not contract within "
                                 f"{max_sweeps} sweeps (last update {change:.3e})")
    if not (f_new.min() >= 0 and R_new.min() > 0
            and f_new.max() < math.inf and R_new.max() < math.inf):
        raise StepRejected("invalid state after the step")
    return f_new, R_new, sweep


def frozen_simulate(
    params: ModelParams, state0: State, T_final: float, config: rclab.StepConfig
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """simulate's step loop spelled out, without its checks and diagnostics: the
    rows of f and R and the sweep counts, or the StepRejected of the failing step
    with its index. Each implicit step from the third starts from
    max(3 (R^n - R^{n-1}) + R^{n-2}, R^n / 2), and is retaken from R^n
    if that start fails."""
    f_rows, R_rows, counts = [state0.f], [state0.R], []
    for i, dt in enumerate(_plan_steps(T_final, config.dt)):
        f, R = f_rows[-1], R_rows[-1]
        try:
            if config.scheme is rclab.Scheme.SEMI_IMPLICIT:
                f, R, _ = frozen_sweep(params, f, R, dt, math.inf, 1)
            else:
                swept = None
                if i >= 2:
                    R_start = np.maximum(3.0 * (R - R_rows[i - 1]) + R_rows[i - 2], 0.5 * R)
                    try:
                        swept = frozen_sweep(params, f, R, dt, config.fp_tol, config.fp_maxit,
                                             R_start)
                    except StepRejected:
                        pass
                f, R, sweeps = swept or frozen_sweep(params, f, R, dt, config.fp_tol,
                                                     config.fp_maxit)
                counts.append(sweeps)
        except StepRejected as err:
            err.step_index = i
            raise
        f_rows.append(f)
        R_rows.append(R)
    return np.array(f_rows), np.array(R_rows), counts


def bb_esd(params: ModelParams, tol: float = 1e-10, maxit: int = 100000) -> np.ndarray:
    """Minimizer of H over {f >= 0} by projected gradient descent with a
    safeguarded Barzilai-Borwein step and Armijo backtracking, from the
    uniform f = 1/(h N): the oracle for the invasion solver."""
    f = np.full(params.N, 1.0 / (params.h * params.N))
    g = H_gradient(params, f)
    h_val = H_value(params, f)
    s_bb = 1.0
    for it in range(maxit):
        residual = float(np.max(np.abs(np.minimum(f, g))))
        if residual <= tol:
            return f
        s = s_bb
        # slack for the evaluation noise of H near the minimizer
        noise = 1e-14 * (1.0 + abs(h_val))
        while True:
            f_new = np.maximum(0.0, f - s * g)
            h_new = H_value(params, f_new)
            if h_new <= h_val + 1e-4 * float(g @ (f_new - f)) + noise or s <= 1e-10:
                break
            s *= 0.5
        if not np.any(f_new - f):
            raise NotConverged(it, residual)
        g_new = H_gradient(params, f_new)
        df, dg = f_new - f, g_new - g
        curv = float(df @ dg)
        s_bb = min(max(float(df @ df) / curv if curv > 0 else 1.0, 1e-10), 1e10)
        f, g, h_val = f_new, g_new, h_new
    raise NotConverged(maxit, float(np.max(np.abs(np.minimum(f, g)))))


def brute_force_esd(params: ModelParams, grid_max: float, grid_step: float) -> np.ndarray:
    """Exhaustive minimization of H over the grid {0, step, ...}^N: the oracle for
    the invasion solver at tiny N; refuses N > 3. The last axis is vectorized and
    the leading axes are enumerated, with H written out on its own."""
    if params.N > 3:
        raise ValueError(f"exhaustive search supports N <= 3, got N = {params.N}")
    grid = np.linspace(0.0, grid_max, int(round(grid_max / grid_step)) + 1)
    astar, h, K, m, Rstar = params.a_star, params.h, params.K, params.m, params.Rstar
    best_val, best = np.inf, grid[:0]
    for idx in np.ndindex(*(grid.size,) * (params.N - 1)):
        head = grid[list(idx)]
        # consumption for each value of the last coordinate, shape (npts, N)
        b = m + h * (head @ K[:-1]) + h * np.outer(grid, K[-1])
        vals = -(astar[:-1] @ head + astar[-1] * grid) - np.sum(m * Rstar * np.log(b), axis=1)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best = float(vals[j]), np.append(head, grid[j])
    return best
