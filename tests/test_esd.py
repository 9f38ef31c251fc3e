"""ESD solver: closed forms, oracles, certification, uniqueness."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import rclab.esd
from helpers import brute_force_esd, n1_instance, n2_coupled, n2_decoupled
from rclab import (
    H_gradient,
    H_value,
    ModelParams,
    NegativeInput,
    NotConverged,
    State,
    build_params,
    builtin_presets,
    reconstruct_R,
    rhs,
    solve_esd,
    verify_esd,
)
from rclab.model import restricted_H, restricted_hessian_factor


def extinction_instance() -> ModelParams:
    return ModelParams(
        N=2, h=1.0, a=np.array([-0.2, -1.0]),
        K=np.array([[1.0, 0.2], [0.2, 1.0]]), m=np.ones(2), Rstar=np.ones(2),
    )


class TestReconstructR:
    def test_zero_species_gives_carrying_capacity(self):
        params, _ = n1_instance()
        assert np.array_equal(reconstruct_R(params, np.zeros(1)), params.Rstar)

    def test_n1_hand_value(self):
        params, _ = n1_instance()
        assert reconstruct_R(params, np.ones(1)) == pytest.approx([0.5], rel=1e-15)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(10)
        params = n2_coupled()
        for _ in range(50):
            f = rng.uniform(0.0, 5.0, 2)
            R = reconstruct_R(params, f)
            assert np.all(R > 0) and np.all(R <= params.Rstar)
            bumped = f.copy()
            bumped[0] += 0.5
            assert np.all(reconstruct_R(params, bumped) < R)

    def test_negative_input(self):
        params, _ = n1_instance()
        with pytest.raises(NegativeInput):
            reconstruct_R(params, np.array([-1.0]))


class TestKktResidual:
    """The complementarity residual max_i |min(f_i, dH/df_i)| that solve_esd stops on."""

    def test_zero_at_origin_when_rates_nonpositive(self):
        # dH/df = -a at f = 0, so the start is already the minimizer
        esd = solve_esd(extinction_instance())
        assert esd.kkt_residual == 0.0 and esd.iterations == 0

    def test_zero_at_interior_stationary_point(self):
        params, _ = n1_instance()
        assert H_gradient(params, np.ones(1)) == pytest.approx([0.0], abs=1e-15)

    def test_hand_value_off_optimum(self):
        # dH/df = 1/2 - 1/(1 + f) = 1/6 at f = 2, and min(2, 1/6) = 1/6
        params, _ = n1_instance()
        assert H_gradient(params, np.array([2.0])) == pytest.approx([1 / 6], rel=1e-12)
        with pytest.raises(NotConverged) as err:
            solve_esd(params, f_init=np.array([2.0]), maxit=0)
        assert err.value.residual == pytest.approx(1 / 6, rel=1e-12)


class TestSolveEsd:
    def test_n1_closed_form(self):
        params, _ = n1_instance()
        esd = solve_esd(params)
        assert esd.f_tilde == pytest.approx([1.0], abs=1e-10)
        assert esd.R_tilde == pytest.approx([0.5], abs=1e-10)
        assert esd.kkt_residual <= 1e-10
        assert esd.persistence_set == (0,)

    def test_extinction_kkt_point(self):
        params = extinction_instance()
        esd = solve_esd(params)
        assert np.array_equal(esd.f_tilde, np.zeros(2))
        assert np.array_equal(esd.R_tilde, params.Rstar)
        assert esd.persistence_set == ()

    @pytest.mark.parametrize("name", ["example1", "example2", "n1-closedform"])
    def test_R_tilde_has_the_bits_of_reconstruct_R(self, name):
        # R_tilde comes from the uptake b that H_at_min was computed with
        params, _ = build_params(builtin_presets()[name])
        esd = solve_esd(params)
        R = reconstruct_R(params, esd.f_tilde)
        assert np.array_equal(esd.R_tilde.view(np.int64), R.view(np.int64))

    def test_not_converged_raises(self):
        params, _ = n1_instance()
        with pytest.raises(NotConverged):
            solve_esd(params, f_init=np.array([3.0]), tol=1e-30, maxit=2)

    def test_restart_uniqueness_n2_coupled(self):
        params = n2_coupled()
        rng = np.random.default_rng(7)
        sols = [solve_esd(params, f_init=rng.uniform(0, 2, 2)).f_tilde for _ in range(10)]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                assert np.max(np.abs(sols[i] - sols[j])) < 1e-6

    def test_example1_support_is_two_symmetric_singletons(self, example1_esd):
        esd = example1_esd
        assert len(esd.persistence_set) >= 2
        assert np.max(np.abs(esd.f_tilde - esd.f_tilde[::-1])) < 1e-6

    def test_rhs_vanishes_at_verified_esd(self, example1, example1_esd):
        params, _ = example1
        for p, esd in ((n1_instance()[0], solve_esd(n1_instance()[0], tol=1e-12)),
                       (params, example1_esd)):
            df, dR = rhs(p, State(f=esd.f_tilde, R=esd.R_tilde))
            assert max(np.max(np.abs(df)), np.max(np.abs(dR))) < 1e-10

    def test_local_minimality_under_feasible_perturbations(self, example1, example1_esd):
        params, _ = example1
        esd = example1_esd
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = rng.uniform(-1.0, 1.0, params.N)
            d *= 0.1 / np.linalg.norm(d)
            cand = np.maximum(0.0, esd.f_tilde + d)
            assert H_value(params, cand) >= esd.H_at_min - 1e-9

    @pytest.mark.parametrize("n", [40, 160, 640])
    def test_example1_takes_at_most_ten_outer_steps(self, n, monkeypatch):
        gradients = []
        gradient = rclab.esd.H_gradient
        monkeypatch.setattr(rclab.esd, "H_gradient",
                            lambda p, f: gradients.append(1) or gradient(p, f))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params, _ = build_params(replace(builtin_presets()["example1"], N=n))
            esd = solve_esd(params)
        assert len(gradients) - 1 <= 10  # one gradient per outer step, plus the final test
        assert len(esd.persistence_set) == 2

    def test_negative_start_rejected(self):
        params, _ = n1_instance()
        with pytest.raises(NegativeInput):
            solve_esd(params, f_init=np.array([-1.0]))


class TestVerifyEsd:
    def test_extinction_state_is_esd(self):
        params = extinction_instance()
        report = verify_esd(params, np.zeros(2), params.Rstar, tol=1e-9)
        assert report.is_esd and report.is_steady
        assert report.persistence_set == ()

    def test_n1_closed_form_is_esd(self):
        params, _ = n1_instance()
        report = verify_esd(params, np.array([1.0]), np.array([0.5]), tol=1e-9)
        assert report.is_esd

    def test_wrong_resources_fail_reconstruction_check(self):
        params, _ = n1_instance()
        report = verify_esd(params, np.array([1.0]), np.array([0.6]), tol=1e-9)
        assert not report.is_esd
        assert report.resource_mismatch == pytest.approx(0.1, rel=1e-12)

    def test_dirac_on_suboptimal_trait_is_steady_not_esd(self):
        # two decoupled copies with different rates: a Dirac on the weaker
        # trait is a steady state but violates the off-support condition
        params = ModelParams(
            N=2, h=1.0, a=np.array([0.5, 0.3]), K=np.eye(2),
            m=np.ones(2), Rstar=np.ones(2),
        )
        # weight on trait 1 solving 0.3 - 1 + 1/(1+rho) = 0 -> rho = 3/7
        rho = 0.3 / 0.7
        f = np.array([0.0, rho])
        R = reconstruct_R(params, f)
        report = verify_esd(params, f, R, tol=1e-9)
        assert report.is_steady
        assert not report.is_esd  # trait 0 still has positive growth
        assert report.offsupport_growth == pytest.approx(0.5, rel=1e-12)

    def test_solver_output_verifies(self, example1, example1_esd):
        params, _ = example1
        report = verify_esd(params, example1_esd.f_tilde, example1_esd.R_tilde,
                            tol=10 * 1e-12)
        assert report.is_esd


def solve_without_warning(params: ModelParams):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_esd(params)


def equal_rows_instance() -> ModelParams:
    """Two identical traits: every (x, 1 - x), 0 <= x <= 1, minimizes H."""
    return ModelParams(N=2, h=1.0, a=np.array([1.0, 1.0]), K=np.ones((2, 2)),
                       m=np.ones(2), Rstar=np.ones(2))


class TestCheckKNonsingular:
    """The uniqueness certificate of solve_esd: K's rows on Z = {j : f_j > 0 or
    g_j <= tol} must be nonsingular; the rest of K does not matter."""

    def test_identity(self):
        esd = solve_without_warning(n2_decoupled())
        assert np.allclose(esd.f_tilde, 1.0, atol=1e-10)
        assert esd.f_unique

    def test_extinct_esd_is_unique_for_a_singular_K(self):
        params = ModelParams(N=2, h=1.0, a=np.array([-1.0, -1.0]),
                             K=np.array([[1.0, 0.5], [1.0, 0.5]]),
                             m=np.ones(2), Rstar=np.ones(2))
        esd = solve_without_warning(params)
        assert np.array_equal(esd.f_tilde, np.zeros(2))
        assert esd.f_unique

    def test_equal_rows_singular(self):
        # the solver picks f = (1, 0); trait 1 is off the support at g = 0,
        # a degenerate trait that the certificate must count in Z
        with pytest.warns(UserWarning):
            esd = solve_esd(equal_rows_instance())
        assert esd.persistence_set == (0,)
        assert not esd.f_unique

    def test_example1_condition_estimate_is_finite(self, example1):
        # K itself is singular to working precision (cond ~1e18), but its
        # two support rows are far from dependent
        params, _ = example1
        esd = solve_without_warning(params)
        assert esd.f_unique
        b = restricted_H(params, slice(None), esd.f_tilde)[1]
        support = np.array(esd.persistence_set)
        s = np.linalg.svd(restricted_hessian_factor(params, support, b), compute_uv=False)
        assert s[0] / s[-1] < 2.0

    def test_singular_kernel_warns_in_solver(self):
        with pytest.warns(UserWarning, match="condition estimate") as record:
            solve_esd(equal_rows_instance())
        assert len(record) == 1


class TestBruteForce:
    def test_n1_grid_minimizer(self):
        params, _ = n1_instance()
        best = brute_force_esd(params, grid_max=5.0, grid_step=1e-3)
        assert abs(best[0] - 1.0) <= 1e-3 + 1e-12

    def test_extinction_grid_minimizer_at_origin(self):
        params = extinction_instance()
        best = brute_force_esd(params, grid_max=2.0, grid_step=0.01)
        assert np.array_equal(best, np.zeros(2))

    def test_n2_decoupled_minimizer(self):
        params = n2_decoupled()
        best = brute_force_esd(params, grid_max=5.0, grid_step=1e-3)
        assert np.max(np.abs(best - 1.0)) <= 1e-3 + 1e-12

    def test_n3_coarse_grid(self):
        params = ModelParams(N=3, h=1.0, a=np.full(3, 0.5), K=np.eye(3),
                             m=np.ones(3), Rstar=np.ones(3))
        best = brute_force_esd(params, grid_max=2.0, grid_step=0.05)
        assert np.max(np.abs(best - 1.0)) <= 0.05 + 1e-12

    def test_dimension_guard(self):
        params = ModelParams(N=4, h=1.0, a=np.full(4, -1.0), K=np.eye(4),
                             m=np.ones(4), Rstar=np.ones(4))
        with pytest.raises(ValueError, match="N <= 3"):
            brute_force_esd(params, grid_max=1.0, grid_step=0.5)

    def test_agreement_with_solver_on_decoupled_pair(self):
        params = n2_decoupled()
        grid_best = brute_force_esd(params, grid_max=5.0, grid_step=1e-3)
        esd = solve_esd(params)
        assert np.max(np.abs(grid_best - esd.f_tilde)) <= 1e-3 + 1e-12
