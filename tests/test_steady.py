"""Threshold predicates and constructive steady states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bisect_decreasing,
    dirac_growth_scalar,
    mutual_invasion,
    n1_instance,
    n2_coupled,
    n2_decoupled,
    random_instance,
)
from rclab import (
    AssumptionViolation,
    H_gradient,
    ModelParams,
    NegativeInput,
    NewtonFailed,
    NotApplicable,
    Persistence,
    State,
    dirac_weights,
    extinction_predicate,
    persistence_sum,
    positive_steady_state_excluded,
    reconstruct_R,
    rhs,
    solve_esd,
    steady,
    two_peak_steady_state,
)
from rclab.esd import newton_on_support


class TestPredicates:
    def test_example2_extinction(self, example2):
        params, _ = example2
        assert extinction_predicate(params) is Persistence.EXTINCTION
        assert np.all(params.a < 0)  # midpoint grid avoids the apex exactly

    def test_example1_survival(self, example1):
        params, _ = example1
        assert extinction_predicate(params) is Persistence.SURVIVAL

    def test_zero_rates_count_as_extinction(self):
        params = ModelParams(N=2, h=1.0, a=np.zeros(2), K=np.eye(2),
                             m=np.ones(2), Rstar=np.ones(2))
        assert extinction_predicate(params) is Persistence.EXTINCTION

    def test_positive_steady_state_exclusion(self, example2):
        mk = lambda a: ModelParams(N=2, h=1.0, a=np.array(a), K=np.eye(2),
                                   m=np.ones(2), Rstar=np.ones(2))
        assert positive_steady_state_excluded(mk([-1.0, -1.0]))
        assert not positive_steady_state_excluded(mk([0.5, 0.6]))
        params, _ = example2
        assert positive_steady_state_excluded(params)


class TestPersistenceSum:
    def test_empty_set_sums_to_zero(self):
        params = ModelParams(N=2, h=1.0, a=np.array([-0.2, -1.0]),
                             K=np.array([[1.0, 0.2], [0.2, 1.0]]),
                             m=np.ones(2), Rstar=np.ones(2))
        esd = solve_esd(params)
        assert persistence_sum(esd, params) == 0.0

    def test_n1_value(self):
        params, _ = n1_instance()
        esd = solve_esd(params)
        assert persistence_sum(esd, params) == pytest.approx(0.5, abs=0)

    def test_example1_nonnegative(self, example1, example1_esd):
        params, _ = example1
        assert persistence_sum(example1_esd, params) >= -1e-8

    def test_exclusion_implies_proper_support(self, example1, example1_esd):
        # negative total growth rules out an all-positive steady state, so
        # the stable distribution must leave some traits empty
        params, _ = example1
        assert positive_steady_state_excluded(params)
        assert len(example1_esd.persistence_set) < params.N


def single_peak(params: ModelParams, i: int, rho: float) -> np.ndarray:
    """The species vector f = (rho/h) e_i of trait i alone at weight rho."""
    f = np.zeros(params.N)
    f[i] = rho / params.h
    return f


def single_peak_growth(params: ModelParams, i: int, rho: float) -> float:
    """Net growth -dH/df_i of trait i when it alone carries the weight rho."""
    return float(-H_gradient(params, single_peak(params, i, rho))[i])


class TestDiracSteadyState:
    def test_growth_at_zero_weight_equals_intrinsic_rate(self):
        params, _ = n1_instance()
        assert single_peak_growth(params, 0, 0.0) == params.a[0]

    def test_growth_strictly_decreasing(self, example1):
        params, _ = example1
        i = int(np.argmax(params.a))
        rhos = np.linspace(0.0, 50.0, 200)
        vals = [single_peak_growth(params, i, r) for r in rhos]
        assert np.all(np.diff(vals) < 0)

    def test_n1_closed_form_root(self):
        params, _ = n1_instance()
        rho = dirac_weights(params, [0])[0]
        f = single_peak(params, 0, rho)
        assert rho == pytest.approx(1.0, abs=1e-10)
        assert f == pytest.approx([1.0], abs=1e-10)
        assert reconstruct_R(params, f) == pytest.approx([0.5], abs=1e-10)

    def test_residual_small_for_all_growing_traits(self, example1):
        params, _ = example1
        growing = np.flatnonzero(params.a > 0)
        for i, rho in zip(growing, dirac_weights(params, growing)):
            f = single_peak(params, i, rho)
            df, dR = rhs(params, State(f=f, R=reconstruct_R(params, f)))
            assert max(np.max(np.abs(df)), np.max(np.abs(dR))) <= 1e-10

    def test_not_applicable_for_nonpositive_rate(self):
        params = ModelParams(N=1, h=1.0, a=np.array([-0.1]), K=np.array([[1.0]]),
                             m=np.ones(1), Rstar=np.ones(1))
        with pytest.raises(NotApplicable):
            dirac_weights(params, [0])

    def test_index_range_checked(self):
        params, _ = n1_instance()
        with pytest.raises(NotApplicable):
            dirac_weights(params, [5])


class TestLockstepBisection:
    """The Dirac weights against a bisection of each trait's growth on its own."""

    @staticmethod
    def _assert_matches_scalar_bisection(params):
        growing = np.flatnonzero(params.a > 0)
        weights = dirac_weights(params, growing)
        expected = [bisect_decreasing(lambda r, i=i: dirac_growth_scalar(params, i, r))
                    for i in growing]
        assert weights == pytest.approx(expected, rel=1e-10, abs=0)
        for i, rho in zip(growing, weights):
            # the size of the resource term, which cancels a_i at the root
            scale = params.a[i] - params.a_star[i]
            for r in (0.0, 0.5 * rho, rho, 3.0 * rho):
                assert single_peak_growth(params, i, r) == pytest.approx(
                    dirac_growth_scalar(params, i, r), rel=0, abs=1e-12 * scale)
        for k in (0, -1):  # one trait alone gives the same weight as in the batch
            assert dirac_weights(params, [growing[k]])[0] == weights[k]

    def test_example1_weights_equal_scalar_bisection(self, example1):
        params, _ = example1
        self._assert_matches_scalar_bisection(params)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_weights_equal_scalar_bisection(self, seed):
        # up to 300 traits, so that the row sums run through numpy's pairwise blocks
        params = random_instance(np.random.default_rng(seed), n_max=300)
        assert np.any(params.a > 0)
        self._assert_matches_scalar_bisection(params)

    def test_missing_sign_change_raises(self):
        # trait 1 consumes nothing, so its growth would stay at a_1 > 0 for
        # every weight: a*_1 = 0.5 > 0, and such a model cannot be built
        with pytest.raises(AssumptionViolation, match="a\\*"):
            ModelParams(N=2, h=1.0, a=np.array([0.5, 0.5]),
                        K=np.array([[1.0, 0.0], [0.0, 0.0]]),
                        m=np.ones(2), Rstar=np.ones(2))
        params = n2_decoupled()
        assert dirac_weights(params, [0]) == pytest.approx(
            [bisect_decreasing(lambda r: dirac_growth_scalar(params, 0, r))], rel=1e-10, abs=0)


class TestTraitIndices:
    """Trait indices are a 1-D list of integers in range; nothing else is rounded or read."""

    @pytest.mark.parametrize("call", [
        lambda p: dirac_weights(p, [1.7]),
        lambda p: dirac_weights(p, np.array([[0, 1]])),
        lambda p: two_peak_steady_state(p, 0.5, 1),
        lambda p: dirac_weights(p, [-1]),
        lambda p: two_peak_steady_state(p, 0, 1.5),
        lambda p: dirac_weights(p, [2]),
        lambda p: two_peak_steady_state(p, 0, -1),
    ])
    def test_other_indices_rejected(self, call):
        with pytest.raises(NotApplicable, match="trait ind"):
            call(n2_coupled())

    def test_no_traits_give_no_weights(self):
        assert dirac_weights(n2_coupled(), []).shape == (0,)


class TestBatchedNewton:
    """The single-peak weights of a batch: each trait's weight is its own."""

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_each_weight_is_independent_of_its_batch(self, seed):
        # up to 300 traits, so that traits move between the Newton blocks
        rng = np.random.default_rng(seed)
        params = random_instance(rng, n_max=300)
        growing = np.flatnonzero(params.a > 0)
        perm = rng.permutation(growing.size)
        weights = dirac_weights(params, growing)
        assert np.array_equal(dirac_weights(params, growing[perm]), weights[perm])
        for k in rng.choice(growing.size, size=min(growing.size, 8), replace=False):
            # one projected-Newton solve on the trait alone, from f = 0
            i, rho = growing[k], weights[k]
            tol = steady._TOL * abs(params.a_star[i])
            x, _, residual = newton_on_support(params, np.array([i]), np.zeros(1), tol, 100)
            assert residual <= tol
            assert rho == pytest.approx(params.h * x[0], rel=1e-12, abs=0)

    def test_unconverged_trait_is_named(self, example1, monkeypatch):
        params, _ = example1
        growing = np.flatnonzero(params.a > 0)
        monkeypatch.setattr(steady, "_MAXIT", 1)
        with pytest.raises(NewtonFailed, match=r"^trait \d+: not converged in 1 steps$") as err:
            dirac_weights(params, growing)
        assert int(str(err.value).split()[1].rstrip(":")) in growing


class TestTwoPeak:
    def test_decoupled_pair_reduces_to_two_single_roots(self):
        params = n2_decoupled()
        tp = two_peak_steady_state(params, 0, 1)
        assert tp is not None
        assert tp.rho1 == pytest.approx(1.0, abs=1e-10)
        assert tp.rho2 == pytest.approx(1.0, abs=1e-10)
        df, dR = rhs(params, State(f=tp.f_tilde, R=tp.R_tilde))
        assert max(np.max(np.abs(df)), np.max(np.abs(dR))) <= 1e-8

    def test_coupled_symmetric_pair(self):
        # by symmetry both weights solve 1.3/(1 + 1.3 rho) = 0.8
        params = n2_coupled()
        tp = two_peak_steady_state(params, 0, 1)
        assert tp is not None
        expected = 0.625 / 1.3
        assert tp.rho1 == pytest.approx(expected, abs=1e-10)
        assert tp.rho2 == pytest.approx(expected, abs=1e-10)
        df, dR = rhs(params, State(f=tp.f_tilde, R=tp.R_tilde))
        assert max(np.max(np.abs(df)), np.max(np.abs(dR))) <= 1e-8
        f1, f2 = -H_gradient(params, tp.f_tilde)  # the growth of each trait
        assert abs(f1) <= 1e-10 and abs(f2) <= 1e-10

    def test_unconverged_pair_is_named(self, monkeypatch):
        monkeypatch.setattr(steady, "_MAXIT", 0)
        with pytest.raises(NewtonFailed, match=r"^traits \[0, 1\]: residual .*, 0 steps$"):
            two_peak_steady_state(n2_coupled(), 0, 1)

    def test_same_trait_rejected(self):
        params = n2_decoupled()
        with pytest.raises(NotApplicable):
            two_peak_steady_state(params, 1, 1)

    def test_nonpositive_rate_rejected(self):
        params = ModelParams(N=2, h=1.0, a=np.array([0.5, -0.1]), K=np.eye(2),
                             m=np.ones(2), Rstar=np.ones(2))
        with pytest.raises(NotApplicable):
            two_peak_steady_state(params, 0, 1)

    def test_identical_kernels_fail_crossing_condition(self):
        # both species feed identically; the two zero curves are parallel
        params = ModelParams(
            N=2, h=1.0, a=np.array([0.5, 0.4]),
            K=np.array([[1.0, 1.0], [1.0, 1.0]]),
            m=np.ones(2), Rstar=np.ones(2),
        )
        assert two_peak_steady_state(params, 0, 1) is None


def _random_two_trait_model(rng: np.random.Generator) -> ModelParams:
    """Two growing traits with a = h K Rstar * U(0.1, 0.9); about 30 % of the
    kernel entries are zero, so one kernel row may miss a resource of the other
    and the F1 zero curve may never reach the rho2 axis."""
    while True:
        K = rng.uniform(0.0, 1.0, size=(2, 2))
        K[rng.random((2, 2)) < 0.3] = 0.0
        if np.all(K.any(axis=1)):  # a_i > 0 needs a nonzero row
            break
    h = float(rng.uniform(0.1, 1.0))
    m = rng.uniform(0.5, 2.0, size=2)
    Rstar = rng.uniform(0.5, 2.0, size=2)
    a = h * K @ Rstar * rng.uniform(0.1, 0.9, size=2)
    return ModelParams(N=2, h=h, a=a, K=K, m=m, Rstar=Rstar)


class TestTwoPeakAgainstEsd:
    def test_exists_exactly_when_esd_has_two_traits(self):
        # H is convex, so a two-peak state with positive weights is the
        # minimizer that the ESD solver finds independently
        rng = np.random.default_rng(0)
        existing = 0
        for _ in range(100):
            params = _random_two_trait_model(rng)
            tp = two_peak_steady_state(params, 0, 1)
            esd = solve_esd(params, tol=1e-12)
            assert (tp is not None) == (len(esd.persistence_set) == 2)
            if tp is not None:
                existing += 1
                assert [tp.rho1, tp.rho2] == pytest.approx(
                    params.h * esd.f_tilde, rel=0, abs=1e-6)
                residual = H_gradient(params, tp.f_tilde)  # minus the growth of each trait
                assert np.max(np.abs(residual)) <= 1e-10
        assert 10 <= existing <= 90  # both outcomes are exercised


class TestTwoPeakAgainstMutualInvasion:
    def test_exists_exactly_when_each_trait_invades_the_other(self):
        rng = np.random.default_rng(1)
        outcomes = []
        while len(outcomes) < 60:
            params = random_instance(rng, n_max=30)
            growing = np.flatnonzero(params.a > 0)
            if growing.size < 2:
                continue
            i, l = (int(j) for j in rng.choice(growing, size=2, replace=False))
            tp = two_peak_steady_state(params, i, l)
            assert (tp is not None) == mutual_invasion(params, i, l)
            if tp is not None:
                df, dR = rhs(params, State(f=tp.f_tilde, R=tp.R_tilde))
                assert max(np.max(np.abs(df)), np.max(np.abs(dR))) <= 1e-8
            outcomes.append(tp is not None)
        assert 5 <= sum(outcomes) <= 55  # both outcomes are exercised


def test_negative_weights_rejected():
    # the growth of a trait at a negative weight, alone or beside another, is refused
    params = n2_coupled()
    with pytest.raises(NegativeInput):
        single_peak_growth(params, 0, -2.0)
    with pytest.raises(NegativeInput):
        H_gradient(params, np.array([0.5, -0.1]) / params.h)
