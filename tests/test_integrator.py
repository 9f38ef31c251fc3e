"""Time stepping: scheme updates, guards, trajectories, entropy trace."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import n1_instance, random_instance
from rclab import (
    EsdResult,
    FixedPointDiverged,
    ModelParams,
    Mu0Violation,
    Scheme,
    State,
    StepConfig,
    compute_diagnostics,
    entropy_trace,
    rhs,
    simulate,
    solve_esd,
    step_fully_implicit,
    step_semi_implicit,
    validate_params,
)
from rclab.errors import (
    DimensionMismatch,
    RclabError,
    StepRejected,
    UndefinedEntropy,
    ValidationError,
)
from rclab.integrator import _plan_steps, _sweep


class TestSemiImplicitStep:
    def test_decoupled_resource_relaxation(self):
        params, _ = n1_instance()
        state = State(f=np.array([0.0]), R=np.array([2.0]))
        new = step_semi_implicit(params, state, 0.1)
        assert new.f == pytest.approx([0.0], abs=0)
        assert new.R == pytest.approx([2.1 / 1.1], rel=1e-15)

    def test_hand_values(self):
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([1.0]))
        new = step_semi_implicit(params, state, 0.1)
        assert new.f == pytest.approx([1.0 / 0.95], rel=1e-14)
        assert new.R == pytest.approx([1.1 / (1.1 + 0.1 / 0.95)], rel=1e-14)

    def test_esd_is_fixed_point(self):
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([0.5]))
        new = step_semi_implicit(params, state, 0.1)
        assert new.f == pytest.approx([1.0], rel=1e-15)
        assert new.R == pytest.approx([0.5], rel=1e-15)

    def test_rejects_nonpositive_denominator(self):
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([1.0]))  # G = 0.5
        with pytest.raises(StepRejected):
            step_semi_implicit(params, state, 2.0)


class TestFullyImplicitStep:
    def test_zero_species_matches_semi_implicit_in_one_sweep(self):
        params, _ = n1_instance()
        state = State(f=np.array([0.0]), R=np.array([2.0]))
        new, sweeps = step_fully_implicit(params, state, 0.1)
        semi = step_semi_implicit(params, state, 0.1)
        assert sweeps <= 2
        assert new.R == pytest.approx(list(semi.R), rel=1e-12)

    def test_esd_fixed_point(self):
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([0.5]))
        new, _ = step_fully_implicit(params, state, 0.1, fp_tol=1e-14)
        assert new.f == pytest.approx([1.0], abs=1e-13)
        assert new.R == pytest.approx([0.5], abs=1e-13)

    def test_self_consistency_residual(self):
        # the converged pair satisfies both implicit relations
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([1.0]))
        dt = 0.1
        new, _ = step_fully_implicit(params, state, dt, fp_tol=1e-12)
        G = params.a + params.h * params.K @ (new.R - params.Rstar)
        res_f = new.f * (1.0 - dt * G) - state.f
        res_R = new.R * (1.0 + dt * params.m + dt * params.h * (params.K.T @ new.f)) - (
            state.R + dt * params.m * params.Rstar
        )
        assert np.max(np.abs(res_f)) < 1e-11
        assert np.max(np.abs(res_R)) < 1e-11

    def test_divergence_budget(self):
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([1.0]))
        with pytest.raises(FixedPointDiverged):
            step_fully_implicit(params, state, 0.1, fp_tol=1e-15, fp_maxit=1)

    def test_a_start_rejected_at_its_first_sweep_is_retaken_from_R(self):
        params, _ = n1_instance()  # G(R) = R - 1/2
        state = State(f=np.array([1.0]), R=np.array([1.0]))
        R_start = np.array([20.0])  # dt*G = 1.95 there, 0.05 at state.R
        with pytest.raises(StepRejected, match="nonpositive update denominator"):
            _sweep(params, state.f, state.R, 0.1, 1e-12, 200, R_start)
        new, sweeps = step_fully_implicit(params, state, 0.1, R_start=R_start)
        plain, plain_sweeps = step_fully_implicit(params, state, 0.1)
        assert sweeps == plain_sweeps
        assert np.array_equal(new.f, plain.f) and np.array_equal(new.R, plain.R)

    def test_the_kernel_result_is_kept_without_a_copy(self):
        params, state = n1_instance()
        f, R, _ = _sweep(params, state.f, state.R, 0.1, 1e-12, 200)
        new = State(f=f, R=R)
        assert new.f is f and new.R is R


class TestMaxStableDt:
    """mu0 = 1 / (K_M * M_tilde - gamma)_+ is the largest guaranteed-stable step."""

    @staticmethod
    def _one_trait(a: float, K: float, Rstar: float, f0: float, R0: float):
        params = ModelParams(N=1, h=1.0, a=np.array([a]), K=np.array([[K]]),
                             m=np.ones(1), Rstar=np.array([Rstar]))
        return validate_params(params, State(f=np.array([f0]), R=np.array([R0])))

    def test_unbounded_for_zero_kernel(self):
        c = self._one_trait(a=-1.0, K=0.0, Rstar=1.0, f0=1.0, R0=1.0)
        assert c.K_M == 0.0
        assert c.mu0 == math.inf

    def test_direct_substitution(self):
        # gamma = 0.5, beta = 0.5, M_tilde = 1.5 + 0.25 / 0.5 = 2, K_M = 1
        c = self._one_trait(a=-0.25, K=1.0, Rstar=0.25, f0=1.0, R0=0.5)
        assert (c.gamma, c.K_M, c.M_tilde) == (0.5, 1.0, 2.0)
        assert c.mu0 == pytest.approx(1.0 / 1.5, rel=1e-15)

    def test_n1_value(self):
        params, state0 = n1_instance()
        c = validate_params(params, state0)
        assert c.mu0 == pytest.approx(1.0 / 3.5, rel=1e-15)


class TestSimulate:
    def test_zero_species_stays_zero_and_resources_relax(self):
        params, _ = n1_instance()
        state0 = State(f=np.array([0.0]), R=np.array([2.0]))
        traj = simulate(params, state0, 10.0, StepConfig(dt=0.1))
        assert np.array_equal(traj.f, np.zeros_like(traj.f))
        # geometric relaxation towards the carrying capacity
        gap = np.abs(traj.R[:, 0] - 1.0)
        assert gap[-1] < 1e-4
        assert np.all(np.diff(gap) <= 0)

    @pytest.mark.parametrize("T_final", [-1.0, 0.0, math.nan, math.inf])
    def test_T_final_must_be_positive_and_finite(self, T_final):
        params, state0 = n1_instance()
        with pytest.raises(ValidationError) as err:
            simulate(params, state0, T_final, StepConfig(dt=0.1))
        assert err.value.field == "T_final"

    def test_final_partial_step_hits_T_exactly(self):
        params, state0 = n1_instance()
        traj = simulate(params, state0, 1.0, StepConfig(dt=0.3))
        assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-12)

    def test_a_horizon_below_the_dropped_remainder_takes_one_step(self):
        params, state0 = n1_instance()
        traj = simulate(params, state0, 1e-14, StepConfig(dt=0.1))
        assert traj.times.tolist() == [0.0, 1e-14]
        # the flagship plan keeps its 7,500 uniform steps
        assert _plan_steps(3000.0, 0.4) == [0.4] * 7500

    def test_uniform_step_count_is_robust_to_rounding(self):
        params, state0 = n1_instance()
        # 20 / 0.4 is not exactly 50 in floating point
        config = StepConfig(dt=0.4, scheme=Scheme.FULLY_IMPLICIT)
        with pytest.warns(UserWarning):
            traj = simulate(params, state0, 20.0, config)
        assert len(traj.times) == 51
        assert traj.times[-1] == pytest.approx(20.0, rel=1e-12)
        assert len(traj.fp_iteration_counts) == 50

    def test_reference_of_another_trait_count_rejected(self, monkeypatch):
        import rclab.integrator as integrator

        steps = []
        step = integrator.step_semi_implicit
        monkeypatch.setattr(integrator, "step_semi_implicit",
                            lambda *args: steps.append(1) or step(*args))
        params, state0 = n1_instance()
        with pytest.raises(DimensionMismatch):
            simulate(params, state0, 1.0, StepConfig(dt=0.1),
                     reference=State(f=np.ones(2), R=np.ones(2)))
        assert steps == []  # rejected before the first step

    @pytest.mark.parametrize("f, R, message", [
        (1.0, 0.0, "reference resource levels must be positive"),
        (math.nan, 1.0, "reference state must be finite"),
        (-1.0, 1.0, "reference species abundances must be nonnegative"),
        (1.0, math.inf, "reference state must be finite"),
    ])
    def test_reference_that_is_not_a_state_rejected(self, monkeypatch, f, R, message):
        import rclab.integrator as integrator

        steps = []
        step = integrator.step_semi_implicit
        monkeypatch.setattr(integrator, "step_semi_implicit",
                            lambda *args: steps.append(1) or step(*args))
        params, state0 = n1_instance()
        with pytest.raises(RclabError, match=f"^{message}$"):
            simulate(params, state0, 1.0, StepConfig(dt=0.1),
                     reference=State(f=np.array([f]), R=np.array([R])))
        assert steps == []  # rejected before the first step

    def test_lengths_agree(self):
        params, state0 = n1_instance()
        traj = simulate(params, state0, 2.0, StepConfig(dt=0.1))
        assert len(traj.times) == len(traj.f) == len(traj.diagnostics.mass) == 21
        assert np.all(np.diff(traj.times) > 0)

    def test_mu0_guard_advisory_and_strict(self):
        params, state0 = n1_instance()
        with pytest.warns(UserWarning, match="mu0"):
            simulate(params, state0, 1.0, StepConfig(dt=0.3))  # mu0 = 2/7 < 0.3
        with pytest.raises(Mu0Violation):
            simulate(params, state0, 1.0, StepConfig(dt=0.3, enforce_mu0=True))

    def test_no_warning_below_mu0(self, recwarn):
        params, state0 = n1_instance()
        simulate(params, state0, 1.0, StepConfig(dt=0.1))
        assert not any("mu0" in str(w.message) for w in recwarn.list)

    def test_positivity_and_mass_bound_example1(self, example1):
        params, state0 = example1
        constants = validate_params(params, state0)
        config = StepConfig(dt=0.4, scheme=Scheme.FULLY_IMPLICIT)
        with pytest.warns(UserWarning):
            traj = simulate(params, state0, 40.0, config)
        assert np.all(traj.f > 0)  # positive data stays positive
        assert np.all(traj.R > 0)
        cap = constants.M0 + constants.m_upper * np.sum(params.Rstar) / constants.beta
        assert np.all(traj.diagnostics.mass <= cap + 1e-9)

    def test_resource_cap_fully_implicit(self, example1):
        params, state0 = example1
        config = StepConfig(dt=0.4, scheme=Scheme.FULLY_IMPLICIT)
        with pytest.warns(UserWarning):
            traj = simulate(params, state0, 40.0, config)
        c_r = np.maximum(params.Rstar, state0.R)
        assert np.all(traj.R <= c_r[None, :] + 1e-12)
        # single-step cap: R' <= max(R, Rstar)
        assert np.all(traj.R[1:] <= np.maximum(traj.R[:-1], params.Rstar) + 1e-12)

    def test_predicted_starts_halve_the_flagship_sweeps(self, example1_traj_implicit):
        # 2.94 sweeps per step from R^n, 1.54 from the quadratic prediction
        counts = example1_traj_implicit.fp_iteration_counts
        assert len(counts) == 7500
        assert sum(counts) / len(counts) < 2.0

    def test_extinction_run_example2(self, example2):
        params, state0 = example2
        with pytest.warns(UserWarning):
            traj = simulate(params, state0, 20.0, StepConfig(dt=0.4))
        final = traj.final_state
        assert np.sum(final.f) <= 1e-2 * np.sum(state0.f)

    def test_steady_states_are_scheme_fixed_points(self):
        params, _ = n1_instance()
        for state in (State(f=np.array([0.0]), R=np.array([1.0])),
                      State(f=np.array([1.0]), R=np.array([0.5]))):
            assert np.max(np.abs(np.concatenate(rhs(params, state)))) < 1e-15
            semi = step_semi_implicit(params, state, 0.2)
            impl, _ = step_fully_implicit(params, state, 0.2, fp_tol=1e-15)
            for new in (semi, impl):
                assert new.f == pytest.approx(list(state.f), abs=1e-14)
                assert new.R == pytest.approx(list(state.R), abs=1e-14)


class TestEntropyTrace:
    def test_constant_at_esd(self):
        params, _ = n1_instance()
        esd = solve_esd(params)
        state0 = State(f=esd.f_tilde, R=esd.R_tilde)
        config = StepConfig(dt=0.1, scheme=Scheme.FULLY_IMPLICIT)
        traj = simulate(params, state0, 5.0, config,
                        reference=state0)
        trace = entropy_trace(traj)
        assert np.max(np.abs(np.diff(traj.diagnostics.S))) < 1e-12
        assert np.max(np.abs(trace.bounds)) < 1e-12
        assert trace.flagged_steps == ()

    def test_implicit_decay_obeys_bound(self):
        params, state0 = n1_instance()
        esd = solve_esd(params)
        config = StepConfig(dt=0.1, scheme=Scheme.FULLY_IMPLICIT)
        traj = simulate(params, state0, 30.0, config,
                        reference=State(f=esd.f_tilde, R=esd.R_tilde))
        trace = entropy_trace(traj)
        S = traj.diagnostics.S
        assert trace.flagged_steps == ()
        assert np.all(np.diff(S) <= trace.bounds + 1e-10 * (1 + np.abs(S[:-1])))

    def test_semi_implicit_not_flagged(self):
        params, state0 = n1_instance()
        esd = solve_esd(params)
        traj = simulate(params, state0, 30.0, StepConfig(dt=0.1),
                        reference=State(f=esd.f_tilde, R=esd.R_tilde))
        trace = entropy_trace(traj)
        assert trace.flagged_steps == ()  # the bound is only asserted for implicit
        # monotone in the eventual regime
        assert np.all(np.diff(traj.diagnostics.S)[20:] <= 1e-12)

    def test_raised_entropy_flags_the_step_into_its_row(self):
        params, state0 = n1_instance()
        esd = solve_esd(params)
        config = StepConfig(dt=0.1, scheme=Scheme.FULLY_IMPLICIT)
        traj = simulate(params, state0, 3.0, config,
                        reference=State(f=esd.f_tilde, R=esd.R_tilde))
        S = traj.diagnostics.S.copy()
        S[17] += 1e-3  # 40 times the margin of that step below its bound
        raised = replace(traj, diagnostics=replace(traj.diagnostics, S=S))
        assert entropy_trace(traj).flagged_steps == ()
        assert entropy_trace(raised).flagged_steps == (16,)

    def test_undefined_where_the_esd_lives_names_the_time(self):
        params, _ = n1_instance()
        esd = solve_esd(params)
        traj = simulate(params, State(f=np.zeros(1), R=np.ones(1)), 1.0, StepConfig(dt=0.1),
                        reference=State(f=esd.f_tilde, R=esd.R_tilde))
        with pytest.raises(UndefinedEntropy, match=r"at t = 0$"):
            entropy_trace(traj)

    def test_trajectory_recorded_without_a_reference_rejected(self):
        params, state0 = n1_instance()
        traj = simulate(params, state0, 1.0, StepConfig(dt=0.1))
        with pytest.raises(UndefinedEntropy, match="reference"):
            entropy_trace(traj)

    def test_semi_implicit_flagship_monotone(self, example1_traj_semi):
        trace = entropy_trace(example1_traj_semi)
        assert np.all(np.diff(example1_traj_semi.diagnostics.S) <= 1e-12)
        assert trace.flagged_steps == ()


class TestPositivityProperty:
    def test_random_instances_preserve_positivity_below_mu0(self):
        rng = np.random.default_rng(42)

        for _ in range(30):
            params = random_instance(rng)
            f0 = rng.uniform(0.0, 2.0, params.N)
            f0[rng.integers(0, params.N)] = 0.0  # a zero entry must stay zero
            state0 = State(f=f0, R=rng.uniform(0.2, 2.0, params.N))
            constants = validate_params(params, state0)
            dt = 0.9 * min(constants.mu0, 1.0)
            for scheme in (Scheme.SEMI_IMPLICIT, Scheme.FULLY_IMPLICIT):
                traj = simulate(params, state0, 5 * dt, StepConfig(dt=dt, scheme=scheme))
                fmat, rmat = traj.f, traj.R
                assert np.all(rmat > 0)
                assert np.all(fmat >= 0)
                positive0 = state0.f > 0
                assert np.all(fmat[:, positive0] > 0)
                assert np.all(fmat[:, ~positive0] == 0.0)


class TestColumns:
    """simulate's columns against a hand loop over the public step functions."""

    @staticmethod
    def _hand_loop(params, state0, n_steps, dt, config):
        states = [state0]
        for n in range(n_steps):
            if config.scheme is Scheme.FULLY_IMPLICIT:
                R = [s.R for s in states]  # simulate's predicted start, from step 2 on
                R_start = None if n < 2 else np.maximum(3.0 * (R[n] - R[n - 1]) + R[n - 2],
                                                        0.5 * R[n])
                state, _ = step_fully_implicit(params, states[-1], dt,
                                               config.fp_tol, config.fp_maxit, R_start)
            else:
                state = step_semi_implicit(params, states[-1], dt)
            states.append(state)
        return states

    def test_columns_match_single_state_steps_and_formulas(self):
        rng = np.random.default_rng(2024)
        for draw in range(12):
            params = random_instance(rng)
            f0 = rng.uniform(0.0, 2.0, params.N)
            if draw % 2:
                f0[rng.integers(0, params.N)] = 0.0  # S undefined on every row
            state0 = State(f=f0, R=rng.uniform(0.2, 2.0, params.N))
            dt = 0.5 * min(validate_params(params, state0).mu0, 1.0)
            reference = State(f=rng.uniform(0.5, 2.0, params.N),
                              R=rng.uniform(0.5, 2.0, params.N))
            for scheme in (Scheme.SEMI_IMPLICIT, Scheme.FULLY_IMPLICIT):
                config = StepConfig(dt=dt, scheme=scheme)
                states = self._hand_loop(params, state0, 8, dt, config)
                for ref in (None, reference):
                    traj = simulate(params, state0, 8 * dt, config, reference=ref)
                    assert not any(c.flags.writeable for c in (traj.times, traj.f, traj.R))
                    assert np.array_equal(traj.f, np.array([s.f for s in states]))
                    assert np.array_equal(traj.R, np.array([s.R for s in states]))
                    cols = traj.diagnostics
                    for n, state in enumerate(states):
                        one = compute_diagnostics(params, state, ref)
                        assert (cols.mass[n], cols.Q[n], cols.F[n], cols.H[n]) == (
                            one.mass, one.Q, one.F, one.H)
                        if one.S is None:
                            assert np.isnan(cols.S[n])
                        else:
                            assert cols.S[n] == one.S


class TestStepConfig:
    def test_rejects_bad_values(self):
        for field, value in [("dt", 0.0), ("fp_tol", 0.0), ("fp_maxit", 0)]:
            with pytest.raises(ValidationError) as err:
                StepConfig(**{"dt": 0.1, field: value})
            assert err.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("scheme", "implicit"), ("dt", math.inf), ("dt", math.nan), ("fp_maxit", 2.5),
    ])
    def test_rejects_wrong_kinds_naming_the_field(self, field, value):
        with pytest.raises(ValidationError, match=field) as err:
            StepConfig(**{"dt": 0.1, field: value})
        assert err.value.field == field


class TestStepCallContract:
    """Benchmarks count steps from calls of the public step functions, so
    simulate calls its scheme's own step function once per step."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_one_call_of_its_own_step_per_step(self, monkeypatch, scheme):
        import rclab.integrator as integrator

        calls = {"step_semi_implicit": 0, "step_fully_implicit": 0}
        for name in calls:
            def counted(*args, _name=name, _step=getattr(integrator, name), **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)

            monkeypatch.setattr(integrator, name, counted)
        params, state0 = n1_instance()
        traj = simulate(params, state0, 1.05, StepConfig(dt=0.1, scheme=scheme))  # 11 steps
        own, other = calls if scheme is Scheme.SEMI_IMPLICIT else reversed(calls)
        assert (calls[own], calls[other]) == (len(traj.times) - 1, 0)


class TestStepErrors:
    def test_divergence_reports_the_last_update(self):
        params, _ = n1_instance()
        state = State(f=np.array([1.0]), R=np.array([1.0]))
        first = step_semi_implicit(params, state, 0.1)  # the first sweep moves R by this
        with pytest.raises(FixedPointDiverged, match=f"last update {abs(first.R[0] - 1.0):.3e}"):
            step_fully_implicit(params, state, 0.1, fp_tol=1e-15, fp_maxit=1)

    def test_a_divergence_is_a_rejected_step_naming_its_index(self):
        params, state0 = n1_instance()
        config = StepConfig(dt=0.1, scheme=Scheme.FULLY_IMPLICIT, fp_maxit=1)
        with pytest.raises(StepRejected, match="did not contract") as err:
            simulate(params, state0, 1.0, config)
        assert isinstance(err.value, FixedPointDiverged) and err.value.step_index == 0

    @pytest.mark.parametrize("f, R", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0])])
    def test_state_shapes_are_checked(self, f, R):
        params, _ = n1_instance()
        state = State(f=np.array(f), R=np.array(R))
        for step in (step_semi_implicit, step_fully_implicit):
            with pytest.raises(DimensionMismatch):
                step(params, state, 0.1)


class TestInvalidResults:
    """The sweep kernel judges every step: both public steps, and so simulate,
    raise StepRejected for a result that is not a state."""

    @pytest.mark.parametrize("f, R", [([1.0], [math.nan]), ([math.inf], [1.0]),
                                      ([-1.0], [1.0]), ([1.0], [-5.0])])
    @pytest.mark.parametrize("step", [step_semi_implicit, step_fully_implicit])
    def test_steps_reject_a_result_that_is_not_a_state(self, step, f, R):
        params, _ = n1_instance()
        with pytest.raises(StepRejected, match="invalid state after the step"):
            step(params, State(f=np.array(f), R=np.array(R)), 0.1)

    def test_an_overflowing_f_is_rejected(self):
        # a valid state: the first sweep overflows f to inf and R to 0
        params, _ = n1_instance()
        state = State(f=np.array([1.75e308]), R=np.array([1.0]))
        with pytest.raises(StepRejected, match="invalid state after the step"):
            step_semi_implicit(params, state, 0.1)
        # the implicit fixed point is a state: at R ~ 0, 1 - dt*G = 1.05
        new, _ = step_fully_implicit(params, state, 0.1)
        assert new.f == pytest.approx([1.75e308 / 1.05], rel=1e-14)
        assert 0 < new.R[0] < 1e-300

    def test_simulate_names_the_step(self):
        params, _ = n1_instance()
        state0 = State(f=np.array([1.75e308]), R=np.array([1.0]))
        with pytest.raises(StepRejected, match="invalid state after the step") as err:
            simulate(params, state0, 1.0, StepConfig(dt=0.1))
        assert err.value.step_index == 0
