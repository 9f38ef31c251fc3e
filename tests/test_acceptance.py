"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 4 is known to fail on its resource-recovery tolerance: the exact
dynamics of the extinction scenario still has a resource deficit of about
6.9e-2 at T = 20 (the species decay near the growth apex is algebraically
slow, so consumption keeps the central resources measurably below carrying
capacity until T of order 100). The check is asserted as stated anyway; see
the test docstring and README for the analysis.
"""

import warnings

import numpy as np
import pytest

from helpers import (
    brute_force_esd,
    fd_gradient,
    fd_hessian,
    n2_decoupled,
    random_instance,
    support_clusters,
)
from rclab import (
    H_gradient,
    H_hessian,
    Persistence,
    Scheme,
    State,
    StepConfig,
    build_params,
    builtin_presets,
    dirac_weights,
    entropy_trace,
    extinction_predicate,
    persistence_sum,
    positive_steady_state_excluded,
    reconstruct_R,
    rhs,
    simulate,
    solve_esd,
    validate_params,
)
from rclab.cli import main


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} {label}: {detail}"


def test_criterion_01_positivity_and_mass_bound(example1, example1_traj_implicit):
    params, state0 = example1
    constants = validate_params(params, state0)
    traj = example1_traj_implicit
    fmat, rmat = traj.f, traj.R
    cap = constants.M_tilde
    masses = traj.diagnostics.mass
    ok = bool(np.all(fmat >= 0) and np.all(rmat > 0) and np.all(masses <= cap + 1e-9))
    _verdict(1, "positivity and mass bound", ok,
             f"max mass {masses.max():.6g} vs cap {cap:.6g}")


def test_criterion_02_discrete_entropy_dissipation(example1_traj_implicit):
    trace = entropy_trace(example1_traj_implicit)
    S = example1_traj_implicit.diagnostics.S
    increments = np.diff(S)
    slack = 1e-10 * (1.0 + np.abs(S[:-1]))
    worst = float(np.max(increments - trace.bounds - slack))
    ok = len(trace.flagged_steps) == 0 and bool(np.all(increments <= trace.bounds + slack))
    _verdict(2, "discrete entropy dissipation", ok,
             f"worst slack excess {worst:.3e}, flagged {len(trace.flagged_steps)}")


def test_criterion_03_esd_convergence_and_dimorphism(example1_traj_implicit, example1_esd):
    esd = example1_esd
    final = example1_traj_implicit.final_state
    rel_l1 = float(np.sum(np.abs(final.f - esd.f_tilde))) / float(np.sum(esd.f_tilde))
    linf_r = float(np.max(np.abs(final.R - esd.R_tilde)))
    clusters = support_clusters(esd.f_tilde)
    sym = float(np.max(np.abs(esd.f_tilde - esd.f_tilde[::-1])))
    ok = rel_l1 <= 1e-3 and linf_r <= 1e-3 and clusters == 2 and sym <= 1e-6
    _verdict(3, "convergence to the dimorphic stable distribution", ok,
             f"relL1 {rel_l1:.3e}, LinfR {linf_r:.3e}, clusters {clusters}, sym {sym:.3e}")


def test_criterion_04_extinction_scenario(example2):
    """Extinction run at T = 20, dt = 0.4.

    The species-mass decay and the extinction predicate hold comfortably.
    The resource-recovery tolerance of 1e-2 does not: with the growth
    profile vanishing quadratically at the apex, the surviving central
    traits decay only algebraically, and their residual consumption holds
    the central resource levels about 6.9e-2 below carrying capacity at
    T = 20 (dt-refinement and both schemes give the same value, so this is
    a property of the exact dynamics, not of the discretization). The
    deficit first drops below 1e-2 near T = 97.
    """
    params, state0 = example2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = simulate(params, state0, 20.0, StepConfig(dt=0.4))
    final = traj.final_state
    mass_ratio = float(np.sum(final.f)) / float(np.sum(state0.f))
    r_gap = float(np.max(np.abs(final.R - params.Rstar)))
    predicate = extinction_predicate(params)
    ok = (mass_ratio <= 1e-2 and r_gap <= 1e-2
          and predicate is Persistence.EXTINCTION)
    _verdict(4, "extinction at T=20", ok,
             f"mass ratio {mass_ratio:.3e} (<=1e-2), "
             f"resource gap {r_gap:.3e} (<=1e-2), predicate {predicate.value}")


def test_criterion_05_gradient_hessian_correctness():
    rng = np.random.default_rng(12345)
    worst_g = worst_h = 0.0
    min_eig = np.inf
    for _ in range(100):
        params = random_instance(rng)
        f = rng.uniform(0.0, 3.0, params.N)
        g = H_gradient(params, f)
        worst_g = max(worst_g, float(
            np.max(np.abs(g - fd_gradient(params, f))) / max(1.0, np.max(np.abs(g)))
        ))
        hess = H_hessian(params, f)
        worst_h = max(worst_h, float(
            np.max(np.abs(hess - fd_hessian(params, f)))
            / max(1e-12, np.max(np.abs(hess)))
        ))
        s = np.linalg.svd(params.K, compute_uv=False)
        if s[-1] > 1e-12 * s[0]:  # K nonsingular: the Hessian is definite
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(hess))))
    ok = worst_g <= 1e-6 and worst_h <= 1e-5 and min_eig > 0
    _verdict(5, "gradient/hessian against finite differences", ok,
             f"grad {worst_g:.3e}, hess {worst_h:.3e}, min eig {min_eig:.3e}")


def test_criterion_06_oracle_equivalence_and_restarts():
    params1, _ = build_params(builtin_presets()["n1-closedform"])
    params2 = n2_decoupled()
    agree = []
    pairwise = []
    for params in (params1, params2):
        grid_best = brute_force_esd(params, grid_max=5.0, grid_step=1e-3)
        esd = solve_esd(params)
        agree.append(float(np.max(np.abs(grid_best - esd.f_tilde))))
        rng = np.random.default_rng(0)
        sols = [
            solve_esd(params, f_init=rng.uniform(0.0, 2.0 / params.h, params.N)).f_tilde
            for _ in range(10)
        ]
        pairwise.append(max(
            float(np.max(np.abs(a - b)))
            for i, a in enumerate(sols) for b in sols[i + 1:]
        ))
    ok = max(agree) <= 1e-3 + 1e-12 and max(pairwise) <= 1e-6
    _verdict(6, "grid-search oracle and restart agreement", ok,
             f"grid gap {max(agree):.3e}, pairwise {max(pairwise):.3e}")


def test_criterion_07_closed_form_esd():
    params, _ = build_params(builtin_presets()["n1-closedform"])
    esd = solve_esd(params)
    err_f = abs(float(esd.f_tilde[0]) - 1.0)
    err_r = abs(float(esd.R_tilde[0]) - 0.5)
    ok = err_f <= 1e-10 and err_r <= 1e-10 and esd.kkt_residual <= 1e-10
    _verdict(7, "closed-form stable distribution", ok,
             f"|f-1| {err_f:.3e}, |R-1/2| {err_r:.3e}, kkt {esd.kkt_residual:.3e}")


def test_criterion_08_dirac_steady_state():
    params, _ = build_params(builtin_presets()["n1-closedform"])
    rho = float(dirac_weights(params, [0])[0])
    f = np.zeros(params.N)
    f[0] = rho / params.h
    df, dR = rhs(params, State(f=f, R=reconstruct_R(params, f)))
    residual = max(float(np.max(np.abs(df))), float(np.max(np.abs(dR))))
    # the growth of trait 0 at weight 0 is -dH/df_0 at f = 0
    exact_at_zero = -H_gradient(params, np.zeros(params.N))[0] == params.a[0]
    ok = abs(rho - 1.0) <= 1e-10 and residual <= 1e-10 and exact_at_zero
    _verdict(8, "single-peak steady state", ok,
             f"|rho-1| {abs(rho - 1.0):.3e}, rhs {residual:.3e}, "
             f"g(0)==a {exact_at_zero}")


def test_criterion_09_persistence_sums(example1, example1_esd, example2):
    params1, _ = example1
    params2, _ = example2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        esd2 = solve_esd(params2)
    params_n1, _ = build_params(builtin_presets()["n1-closedform"])
    esd_n1 = solve_esd(params_n1)
    sums = [
        persistence_sum(example1_esd, params1),
        persistence_sum(esd2, params2),
        persistence_sum(esd_n1, params_n1),
    ]
    excluded = positive_steady_state_excluded(params2)
    ok = min(sums) >= -1e-8 and excluded
    _verdict(9, "persistence sums and exclusion", ok,
             f"sums {['%.4g' % s for s in sums]}, excluded {excluded}")


def test_criterion_10_scheme_consistency_and_first_order(example1):
    params, state0 = example1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        semi = simulate(params, state0, 3000.0, StepConfig(dt=0.05))
        impl = simulate(params, state0, 3000.0,
                        StepConfig(dt=0.05, scheme=Scheme.FULLY_IMPLICIT))
    gap = float(
        np.sum(np.abs(semi.final_state.f - impl.final_state.f))
        / np.sum(np.abs(impl.final_state.f))
    )

    params_n1, state_n1 = build_params(builtin_presets()["n1-closedform"])

    def final_at(dt: float, scheme: Scheme) -> np.ndarray:
        traj = simulate(params_n1, state_n1, 1.0, StepConfig(dt=dt, scheme=scheme))
        return np.concatenate([traj.final_state.f, traj.final_state.R])

    ratios = []
    for scheme in (Scheme.SEMI_IMPLICIT, Scheme.FULLY_IMPLICIT):
        ref = final_at(1e-4, scheme)
        e_coarse = float(np.sum(np.abs(final_at(0.02, scheme) - ref)))
        e_fine = float(np.sum(np.abs(final_at(0.01, scheme) - ref)))
        ratios.append(e_coarse / e_fine)
    ok = gap <= 1e-2 and all(1.75 <= r <= 2.25 for r in ratios)
    _verdict(10, "scheme consistency and first-order error decay", ok,
             f"scheme gap {gap:.3e}, halving ratios {['%.3f' % r for r in ratios]}")


def test_criterion_11_determinism(tmp_path):
    outputs = ("trajectory.csv", "esd.csv", "report.json", "profile.svg", "entropy.svg")
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        code = main(["verify", "--preset", "n1-closedform", "--out", str(d)])
        assert code == 0
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in outputs
    )
    _verdict(11, "byte-identical repeated verify outputs", identical,
             f"{len(outputs)} artifacts compared")
