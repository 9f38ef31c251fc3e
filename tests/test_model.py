"""Model-core: validation, right-hand sides, functionals, H and derivatives."""

import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fd_gradient,
    fd_hessian,
    n1_instance,
    random_instance,
    random_stack,
    random_state,
    traced_peak,
)
from rclab import (
    AssumptionViolation,
    DimensionMismatch,
    H_gradient,
    H_hessian,
    H_value,
    ModelParams,
    NegativeInput,
    Scheme,
    State,
    StepConfig,
    UndefinedEntropy,
    compute_diagnostics,
    extinction_F,
    growth_rate,
    lyapunov_S,
    q_value,
    reconstruct_R,
    rhs,
    simulate,
    total_mass,
    validate_params,
)
from rclab.model import _BLOCK_CELLS


class TestValidateParams:
    def test_n1_constants_match_hand_arithmetic(self):
        params, state0 = n1_instance()
        c = validate_params(params, state0)
        assert c.gamma == pytest.approx(0.5, abs=0)
        assert c.K_M == 1.0
        assert c.m_lower == 1.0 and c.m_upper == 1.0
        assert c.beta == 0.5
        assert c.M0 == 2.0
        assert c.M_tilde == 4.0
        assert c.mu0 == pytest.approx(1.0 / 3.5, rel=1e-15)

    def test_zero_consumption_gives_unbounded_step(self):
        params = ModelParams(
            N=2, h=1.0, a=np.array([-1.0, -1.0]), K=np.zeros((2, 2)),
            m=np.ones(2), Rstar=np.ones(2),
        )
        c = validate_params(params, State(f=np.ones(2), R=np.ones(2)))
        assert c.gamma == 1.0
        assert c.K_M == 0.0
        assert c.mu0 == math.inf
        assert c.M_tilde >= c.M0

    def test_positive_net_rate_rejected(self):
        # a model is checked when it is built, so this one cannot exist
        with pytest.raises(AssumptionViolation, match="a\\*"):
            ModelParams(N=1, h=1.0, a=np.array([0.5]), K=np.zeros((1, 1)),
                        m=np.ones(1), Rstar=np.ones(1))

    def test_dimension_mismatch(self):
        params, _ = n1_instance()
        with pytest.raises(DimensionMismatch):
            validate_params(params, State(f=np.ones(2), R=np.ones(2)))
        with pytest.raises(DimensionMismatch, match="coefficient vectors"):
            validate_params(replace(params, m=np.ones(2)), State(f=np.ones(1), R=np.ones(1)))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("K", np.array([[-0.1]])),
            ("m", np.array([0.0])),
            ("m", np.array([np.inf])),
            ("Rstar", np.array([0.0])),
            ("Rstar", np.array([-1.0])),
            ("a", np.array([np.nan])),
            ("K", np.array([[np.inf]])),
            ("N", 0),
        ],
    )
    def test_bad_coefficients_rejected(self, field, value):
        base = dict(N=1, h=1.0, a=np.array([-1.0]), K=np.array([[1.0]]),
                    m=np.array([1.0]), Rstar=np.array([1.0]))
        base[field] = value
        with pytest.raises(AssumptionViolation):
            ModelParams(**base)

    def test_bad_initial_state_rejected(self):
        params, _ = n1_instance()
        with pytest.raises(AssumptionViolation):
            validate_params(params, State(f=np.array([-0.1]), R=np.ones(1)))
        with pytest.raises(AssumptionViolation):
            validate_params(params, State(f=np.ones(1), R=np.array([0.0])))
        with pytest.raises(AssumptionViolation, match="finite"):
            validate_params(params, State(f=np.array([np.nan]), R=np.ones(1)))

    @pytest.mark.parametrize("h", [0.0, "1", True])
    def test_nonpositive_h_rejected(self, h):
        with pytest.raises(AssumptionViolation, match=f"^h must be positive and finite, got {h}$"):
            ModelParams(N=1, h=h, a=np.array([-1.0]), K=np.array([[1.0]]),
                        m=np.ones(1), Rstar=np.ones(1))

    def test_mu0_unbounded_iff_no_positive_part(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = random_instance(rng)
            state = State(f=rng.uniform(0, 2, params.N), R=rng.uniform(0.5, 2, params.N))
            c = validate_params(params, state)
            if c.K_M * c.M_tilde <= c.gamma:
                assert c.mu0 == math.inf
            else:
                assert math.isfinite(c.mu0) and c.mu0 > 0


def _corrupted(rng: np.random.Generator, params: ModelParams, kind: str):
    """One field of a valid model made invalid: the changed fields, and the
    exception type and message its check raises."""
    n = params.N
    j, k = int(rng.integers(n)), int(rng.integers(n))
    messages = {"a": "growth rates a must be finite",
                "K": "consumption matrix K must be finite",
                "m": "relaxation rates m must be positive and finite",
                "Rstar": "carrying capacities Rstar must be positive and finite"}
    if kind == "N":  # too small, or not an integer
        N = int(rng.integers(-2, 1)) if rng.random() < 0.5 else float(n)
        return {"N": N}, AssumptionViolation, f"N must be a positive integer, got {N}"
    if kind == "h":  # nonpositive, not finite, or not a float
        h = [0.0, -rng.uniform(0.0, 2.0), np.inf, np.nan, "1", True][int(rng.integers(6))]
        return {"h": h}, AssumptionViolation, f"h must be positive and finite, got {h}"
    if kind == "shape":
        name = str(rng.choice(["a", "K", "m", "Rstar"]))
        if name == "K":
            K = np.ones((n, n + 1))
            return {"K": K}, DimensionMismatch, f"K must have shape ({n}, {n}), got {K.shape}"
        return ({name: np.ones(n + 1)}, DimensionMismatch,
                f"coefficient vectors must have shape ({n},)")
    if kind == "net rate":  # raise a_j until a*_j >= 0
        a = params.a.copy()
        a[j] += rng.uniform(0.01, 1.0) - params.a_star[j]
        astar = a - params.h * params.K @ params.Rstar
        i = int(np.argmax(astar))
        return {"a": a}, AssumptionViolation, (
            f"net rate a*[{i}] = {astar[i]:.6g} is not negative; "
            "every a_j - h*sum_k K_jk*Rstar_k must be < 0")
    if kind == "negative K":
        K = params.K.copy()
        K[j, k] = -rng.uniform(1e-3, 1.0)
        return {"K": K}, AssumptionViolation, f"K[{j}][{k}] = {K[j, k]} is negative"
    name = kind.split()[-1]
    values = getattr(params, name).copy()
    if kind.startswith("nonfinite"):
        values.flat[int(rng.integers(values.size))] = rng.choice([np.nan, np.inf, -np.inf])
    else:  # nonpositive m or Rstar
        values[j] = rng.choice([0.0, -rng.uniform(0.0, 2.0)])
    return {name: values}, AssumptionViolation, messages[name]


def _three() -> ModelParams:
    """A valid model of three traits with every net rate negative."""
    return ModelParams(N=3, h=0.5, a=np.full(3, -1.0), K=np.full((3, 3), 0.5),
                       m=np.ones(3), Rstar=np.ones(3))


_KINDS = ["N", "h", "shape", "net rate", "negative K", "nonpositive m", "nonpositive Rstar",
          "nonfinite a", "nonfinite K", "nonfinite m", "nonfinite Rstar"]


class TestBuiltModelIsChecked:
    """A ModelParams checks the standing assumptions when it is built."""

    @settings(max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(_KINDS))
    def test_one_corrupted_field_is_named_when_built_or_replaced(self, seed, kind):
        rng = np.random.default_rng(seed)
        params = random_instance(rng)
        changes, error, message = _corrupted(rng, params, kind)
        fields = dict(N=params.N, h=params.h, a=params.a, K=params.K, m=params.m,
                      Rstar=params.Rstar)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ModelParams(**{**fields, **changes})
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            replace(params, **changes)

    @pytest.mark.parametrize("change", [
        {"h": 0.0},  # solve_esd ran 100,000 iterations before NotConverged
        {"K": np.array([[-1.0]])},  # solve_esd returned f = [0.333]
        {"K": np.array([[np.nan]])},  # numpy's bare ValueError in solve_esd
    ])
    def test_defects_that_reached_solve_esd_fail_when_built(self, change):
        params, _ = n1_instance()
        fields = dict(N=1, h=1.0, a=params.a, K=params.K, m=params.m, Rstar=params.Rstar)
        start = time.perf_counter()
        with pytest.raises(AssumptionViolation):
            ModelParams(**{**fields, **change})
        with pytest.raises(AssumptionViolation):
            replace(params, **change)
        assert time.perf_counter() - start < 0.5

    def test_a_read_only_K_that_owns_its_data_is_kept(self):
        params = random_instance(np.random.default_rng(5))
        K = params.K.copy()
        K.flags.writeable = False
        assert replace(params, K=K).K is K

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_any_other_K_is_copied(self, read_only_view):
        params = random_instance(np.random.default_rng(5))
        K = params.K.copy()
        if read_only_view:
            K = K[:, :]
            K.flags.writeable = False
        built = replace(params, K=K)
        assert built.K is not K and not built.K.flags.writeable
        assert np.array_equal(built.K, K)

    @pytest.mark.parametrize("negative", [0.5, -0.25])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_nonfinite_K_entry_is_named_before_a_negative_one(self, bad, negative):
        params = _three()
        K = params.K.copy()
        K[0, 1], K[1, 2] = negative, bad
        with pytest.raises(AssumptionViolation, match="^consumption matrix K must be finite$"):
            replace(params, K=K)

    def test_the_first_negative_K_entry_is_named(self):
        params = _three()
        K = params.K.copy()
        K[1, 2], K[2, 0] = -0.5, -0.25
        with pytest.raises(AssumptionViolation, match=r"^K\[1\]\[2\] = -0.5 is negative$"):
            replace(params, K=K)

    def test_K_is_checked_after_a_and_before_m(self):
        params = _three()
        K = params.K.copy()
        K[1, 2] = -0.5
        with pytest.raises(AssumptionViolation, match="^growth rates a must be finite$"):
            replace(params, a=np.array([math.nan, -1.0, -1.0]), K=K)
        with pytest.raises(AssumptionViolation, match=r"^K\[1\]\[2\] = -0.5 is negative$"):
            replace(params, K=K, m=np.zeros(3))

    def test_a_star_is_derived_not_given(self):
        params, _ = n1_instance()
        with pytest.raises(TypeError):
            ModelParams(N=1, h=1.0, a=params.a, K=params.K, m=params.m, Rstar=params.Rstar,
                        a_star=params.a_star)


class TestCachedInvariants:
    def test_a_star_is_read_only_and_exact(self, example1):
        params, _ = example1
        expected = params.a - params.h * params.K @ params.Rstar
        assert np.array_equal(params.a_star, expected)
        assert params.a_star is params.a_star
        with pytest.raises(ValueError):
            params.a_star[0] = 0.0

    def test_replaced_model_gets_fresh_values(self):
        params = random_instance(np.random.default_rng(7))
        other = replace(params, a=params.a + 1.0, K=2.0 * params.K)
        assert np.array_equal(other.a_star, other.a - other.h * other.K @ other.Rstar)


class TestGrowthAndRhs:
    def test_growth_at_carrying_capacity_is_a(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = random_instance(rng)
            assert np.array_equal(growth_rate(params, params.Rstar), params.a)

    def test_n1_growth_at_esd_resources(self):
        params, _ = n1_instance()
        assert growth_rate(params, np.array([0.5])) == pytest.approx([0.0], abs=1e-15)

    def test_zero_consumption_growth_is_a(self):
        params = ModelParams(N=2, h=1.0, a=np.array([-1.0, -2.0]), K=np.zeros((2, 2)),
                             m=np.ones(2), Rstar=np.ones(2))
        for R in (np.array([0.3, 5.0]), np.array([2.0, 0.1])):
            assert np.array_equal(growth_rate(params, R), params.a)

    def test_rhs_zero_at_extinction_state(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = random_instance(rng)
            df, dR = rhs(params, State(f=np.zeros(params.N), R=params.Rstar))
            assert np.array_equal(df, np.zeros(params.N))
            assert np.array_equal(dR, np.zeros(params.N))

    def test_n1_rhs_hand_values(self):
        params, _ = n1_instance()
        df, dR = rhs(params, State(f=np.array([1.0]), R=np.array([0.5])))
        assert df == pytest.approx([0.0], abs=1e-15)
        assert dR == pytest.approx([0.0], abs=1e-15)
        df, dR = rhs(params, State(f=np.array([1.0]), R=np.array([1.0])))
        assert df == pytest.approx([0.5], abs=1e-15)
        assert dR == pytest.approx([-1.0], abs=1e-15)

    def test_total_mass(self):
        assert total_mass(State(f=np.array([1.0]), R=np.array([1.0]))) == 2.0
        assert total_mass(State(f=np.array([1.0, 2.0]), R=np.array([0.5, 0.5]))) == 4.0


class TestLyapunovS:
    def test_at_reference(self):
        s = State(f=np.array([1.0]), R=np.array([1.0]))
        assert lyapunov_S(s, s) == pytest.approx(2.0, abs=0)

    def test_zero_support_convention(self):
        ref = State(f=np.array([0.0]), R=np.array([1.0]))
        state = State(f=np.array([0.5]), R=np.array([1.0]))
        assert lyapunov_S(state, ref) == pytest.approx(1.5, abs=0)

    def test_undefined_on_extinct_supported_species(self):
        ref = State(f=np.array([1.0]), R=np.array([1.0]))
        state = State(f=np.array([0.0]), R=np.array([1.0]))
        with pytest.raises(UndefinedEntropy):
            lyapunov_S(state, ref)

    def test_nonincreasing_along_n1_implicit_trajectory(self):
        params, state0 = n1_instance()
        ref = State(f=np.array([1.0]), R=np.array([0.5]))
        traj = simulate(params, state0, 30.0,
                        StepConfig(dt=0.1, scheme=Scheme.FULLY_IMPLICIT), reference=ref)
        assert np.all(np.diff(traj.diagnostics.S) <= 1e-12)

    def test_eventually_nonincreasing_along_n1_semi_trajectory(self):
        params, state0 = n1_instance()
        ref = State(f=np.array([1.0]), R=np.array([0.5]))
        traj = simulate(params, state0, 30.0, StepConfig(dt=0.1), reference=ref)
        assert np.all(np.diff(traj.diagnostics.S)[20:] <= 1e-12)


class TestExtinctionF:
    def test_undefined_with_S_on_nonpositive_resources(self):
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([0.0]))
        with pytest.raises(UndefinedEntropy, match="resource levels"):
            lyapunov_S(state, State(f=np.array([1.0]), R=np.array([1.0])))
        with pytest.raises(UndefinedEntropy, match="resource levels"):
            extinction_F(state, params)

    def test_hand_values(self):
        params, _ = n1_instance()
        assert extinction_F(State(f=np.array([0.0]), R=np.array([1.0])), params) == 1.0
        assert extinction_F(State(f=np.array([1.0]), R=np.array([1.0])), params) == 2.0

    def test_nonincreasing_when_all_rates_nonpositive(self, example2):
        params, state0 = example2
        traj = simulate(params, state0, 20.0, StepConfig(dt=0.4))
        assert np.all(np.diff(traj.diagnostics.F) <= 1e-12)

    def test_semi_implicit_step_can_raise_it(self):
        # a <= 0 and dt = mu0 / 2, yet the semi-implicit F rises at steps 3-5
        # (by up to 9e-3); the implicit scheme dissipates it on the same data
        rng = np.random.default_rng(157)
        params = random_instance(rng)
        params = replace(params, a=-rng.uniform(0.0, 1.0, params.N))
        state0 = random_state(rng, params)
        dt = 0.5 * validate_params(params, state0).mu0
        semi, implicit = (
            np.diff(simulate(params, state0, 30 * dt, StepConfig(dt=dt, scheme=s)).diagnostics.F)
            for s in (Scheme.SEMI_IMPLICIT, Scheme.FULLY_IMPLICIT)
        )
        assert np.max(semi) > 1e-3
        assert np.all(implicit <= 1e-12)


class TestHFunction:
    def test_value_at_zero(self):
        params, _ = n1_instance()
        assert H_value(params, np.zeros(1)) == 0.0

    def test_value_at_one(self):
        params, _ = n1_instance()
        assert H_value(params, np.ones(1)) == pytest.approx(0.5 - math.log(2), rel=1e-15)

    def test_negative_input(self):
        params, _ = n1_instance()
        with pytest.raises(NegativeInput):
            H_value(params, np.array([-0.5]))
        with pytest.raises(NegativeInput):
            H_gradient(params, np.array([-0.5]))
        with pytest.raises(NegativeInput):
            H_hessian(params, np.array([-0.5]))

    def test_gradient_at_origin_is_minus_a(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            params = random_instance(rng)
            g = H_gradient(params, np.zeros(params.N))
            scale = max(1.0, float(np.max(np.abs(params.a))))
            assert np.max(np.abs(g + params.a)) <= 1e-14 * scale

    def test_n1_gradient_values(self):
        params, _ = n1_instance()
        assert H_gradient(params, np.ones(1)) == pytest.approx([0.0], abs=1e-15)

    def test_hessian_zero_for_zero_kernel(self):
        params = ModelParams(N=2, h=1.0, a=np.array([-1.0, -1.0]), K=np.zeros((2, 2)),
                             m=np.ones(2), Rstar=np.ones(2))
        assert np.array_equal(H_hessian(params, np.ones(2)), np.zeros((2, 2)))

    def test_n1_hessian_value(self):
        params, _ = n1_instance()
        assert H_hessian(params, np.ones(1))[0, 0] == pytest.approx(0.25, rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            params = random_instance(rng)
            f = rng.uniform(0.0, 3.0, params.N)
            g = H_gradient(params, f)
            rel = np.max(np.abs(g - fd_gradient(params, f))) / max(1.0, np.max(np.abs(g)))
            assert rel < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            params = random_instance(rng)
            f = rng.uniform(0.0, 3.0, params.N)
            hess = H_hessian(params, f)
            rel = np.max(np.abs(hess - fd_hessian(params, f))) / max(
                1e-12, np.max(np.abs(hess))
            )
            assert rel < 1e-5

    def test_hessian_symmetric_and_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            params = random_instance(rng)
            f = rng.uniform(0.0, 3.0, params.N)
            hess = H_hessian(params, f)
            assert np.max(np.abs(hess - hess.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(hess)) > -1e-12

    def test_gradient_is_negative_growth_at_reconstructed_resources(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            params = random_instance(rng)
            f = rng.uniform(0.0, 3.0, params.N)
            g = H_gradient(params, f)
            G = growth_rate(params, reconstruct_R(params, f))
            assert np.max(np.abs(g + G)) < 1e-12

    def test_midpoint_convexity_on_random_segments(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            params = random_instance(rng)
            x = rng.uniform(0.0, 3.0, params.N)
            y = rng.uniform(0.0, 3.0, params.N)
            mid = 0.5 * (x + y)
            assert H_value(params, mid) <= 0.5 * (
                H_value(params, x) + H_value(params, y)
            ) + 1e-12


class TestDiagnostics:
    def test_q_and_s_wiring(self):
        params, state0 = n1_instance()
        ref = State(f=np.array([1.0]), R=np.array([0.5]))
        d = compute_diagnostics(params, state0, ref)
        assert d.mass == 2.0
        assert d.Q == pytest.approx(0.5 * (1.0 - 0.5) ** 2, rel=1e-15)
        assert d.S == pytest.approx(lyapunov_S(state0, ref), rel=1e-15)
        d_plain = compute_diagnostics(params, state0)
        assert d_plain.S is None
        assert d_plain.Q == pytest.approx(0.0, abs=0)

    def test_s_none_when_undefined(self):
        params, _ = n1_instance()
        ref = State(f=np.array([1.0]), R=np.array([0.5]))
        d = compute_diagnostics(params, State(f=np.zeros(1), R=np.ones(1)), ref)
        assert d.S is None

    @staticmethod
    def _over_blocks(example1):
        """The flagship model, a stack of three blocks of rows and a ragged tail,
        and the rows of a block."""
        params, _ = example1
        rows = _BLOCK_CELLS // params.N
        stack = random_stack(np.random.default_rng(21), params, 3 * rows + rows // 7)
        return params, np.array(stack.f), np.array(stack.R), rows

    def test_stack_columns_match_one_state_calls_across_blocks(self, example1):
        params, f, R, rows = self._over_blocks(example1)
        f[rows + 5:rows + 9, 3] = 0.0  # S undefined in the second block only
        ref = State(f=np.full(params.N, 0.5), R=np.ones(params.N))
        d = compute_diagnostics(params, State(f=f, R=R), ref)
        assert np.flatnonzero(np.isnan(d.S)).tolist() == list(range(rows + 5, rows + 9))
        for n in range(len(f)):
            one = compute_diagnostics(params, State(f=f[n], R=R[n]), ref)
            assert (d.mass[n], d.Q[n], d.F[n], d.H[n]) == (one.mass, one.Q, one.F, one.H)
            assert np.isnan(d.S[n]) if one.S is None else d.S[n] == one.S

    @pytest.mark.parametrize("f_neg, R_zero, ref_n, error, message", [
        pytest.param(5, -1, 40, UndefinedEntropy, "resource levels must be positive",
                     id="R-in-the-tail-after-f-in-the-first-block"),
        pytest.param(5, None, 40, NegativeInput, "species vector f must be nonnegative",
                     id="f-in-the-first-block"),
        pytest.param(-3, None, 40, NegativeInput, "species vector f must be nonnegative",
                     id="f-in-the-tail"),
        pytest.param(None, None, 41, DimensionMismatch, "expected shape (40,), got (41,)",
                     id="reference"),
    ])
    def test_stack_raises_as_one_call_on_it(self, example1, f_neg, R_zero, ref_n, error,
                                            message):
        params, f, R, _ = self._over_blocks(example1)
        if f_neg is not None:
            f[f_neg, 1] = -1.0
        if R_zero is not None:
            R[R_zero, 2] = 0.0
        with pytest.raises(error) as err:
            compute_diagnostics(params, State(f=f, R=R),
                                State(f=np.ones(ref_n), R=np.ones(ref_n)))
        assert str(err.value) == message

    def test_stack_of_another_trait_count_named_whole(self, example1):
        params, _ = example1
        stack = State(f=np.ones((2000, 41)), R=np.ones((2000, 41)))
        with pytest.raises(DimensionMismatch, match=re.escape("for states (2000, 41)")):
            compute_diagnostics(params, stack)

    def test_stack_diagnostics_hold_blocks_not_copies_of_the_stack(self, example1):
        params, _ = example1
        stack = random_stack(np.random.default_rng(3), params, 40_000)
        ref = State(f=np.ones(params.N), R=np.ones(params.N))
        peak = traced_peak(lambda: compute_diagnostics(params, stack, ref))
        assert peak < (stack.f.nbytes + stack.R.nbytes) / 4  # whole-stack temporaries: 1.6x

    def test_immutability(self):
        params, state0 = n1_instance()
        with pytest.raises(ValueError):
            params.a[0] = 2.0
        with pytest.raises(ValueError):
            state0.f[0] = 2.0

    def test_state_copies_unless_already_frozen(self):
        f, R = np.ones(3), np.ones(3)
        state = State(f=f, R=R)
        f[0] = 2.0  # the caller's array stays writeable; the state keeps its copy
        assert state.f[0] == 1.0 and state.f is not f
        f.flags.writeable = False
        assert State(f=f, R=R).f is f  # read-only and owning its data: kept as is
        assert State(f=f[1:], R=R[1:]).f.base is None  # a view is copied

    def test_q_S_and_F_of_another_trait_count_rejected(self):
        params, state = n1_instance()
        with pytest.raises(DimensionMismatch):
            q_value(state, np.ones(3))
        with pytest.raises(DimensionMismatch):
            lyapunov_S(state, State(f=np.ones(3), R=np.ones(3)))
        with pytest.raises(DimensionMismatch):
            extinction_F(State(f=np.ones(3), R=np.ones(3)), params)

    def test_rhs_dimension_check(self):
        params, _ = n1_instance()
        with pytest.raises(DimensionMismatch):
            growth_rate(params, np.ones(3))

    def test_random_states_keep_mass_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = random_instance(rng)
            state = random_state(rng, params)
            assert total_mass(state) >= 0.0
