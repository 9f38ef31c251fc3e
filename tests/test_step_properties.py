"""Properties of the two time-stepping schemes on random instances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import fully_implicit_step, semi_implicit_step
from rclab import (
    FixedPointDiverged,
    ModelParams,
    Scheme,
    State,
    StepConfig,
    entropy_trace,
    simulate,
    solve_esd,
    step_fully_implicit,
    step_semi_implicit,
    validate_params,
)
from rclab.errors import StepRejected

PROPERTY = settings(max_examples=30)
STEPS = 6


def uniform(n, lo, hi):
    return arrays(float, n, elements=st.floats(lo, hi))


@st.composite
def instances(draw, zeros_in_f=True):
    """A valid instance and state, built like helpers.random_instance: a comes
    from a target net rate, so every a*_j < 0 holds by construction."""
    n = draw(st.integers(1, 8))
    h = draw(st.floats(0.1, 1.0))
    K = draw(uniform((n, n), 0.0, 1.0))
    m = draw(uniform(n, 0.5, 2.0))
    Rstar = draw(uniform(n, 0.5, 2.0))
    a = draw(uniform(n, -2.0, -0.1)) + h * K @ Rstar
    params = ModelParams(N=n, h=h, a=a, K=K, m=m, Rstar=Rstar)
    f = draw(uniform(n, 0.0 if zeros_in_f else 0.1, 3.0))
    if zeros_in_f and draw(st.booleans()):
        f[draw(st.integers(0, n - 1))] = 0.0
    return params, State(f=f, R=draw(uniform(n, 0.1, 3.0)))


def outcome(step, *args):
    """The step's result, or the type of the RclabError it raised."""
    try:
        return step(*args)
    except (StepRejected, FixedPointDiverged) as err:
        return type(err)


def same_bits(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if isinstance(a, tuple):
        return a[1] == b[1] and same_bits(a[0], b[0])
    return np.array_equal(a.f, b.f) and np.array_equal(a.R, b.R)


@PROPERTY
@given(instances(), st.floats(0.01, 1000.0))
def test_public_steps_equal_the_oracle_bit_for_bit(instance, dt_factor):
    """Beyond mu0 too, where a step may be rejected or fail to contract."""
    params, state = instance
    dt = dt_factor * min(validate_params(params, state).mu0, 1.0)
    assert same_bits(outcome(step_semi_implicit, params, state, dt),
                     outcome(semi_implicit_step, params, state, dt))
    for fp_tol, fp_maxit in ((1e-12, 200), (1e-15, 3)):
        assert same_bits(outcome(step_fully_implicit, params, state, dt, fp_tol, fp_maxit),
                         outcome(fully_implicit_step, params, state, dt, fp_tol, fp_maxit))


@PROPERTY
@given(instances(), st.floats(0.01, 1000.0), st.data())
def test_a_start_never_rejects_a_step_that_R_accepts(instance, dt_factor, data):
    """From any positive R_start the step reaches the fixed point of the R^n
    start, or is retaken from R^n and raises what that start raises. (A start
    may carry a step that R^n rejects; then it must still give a state.)"""
    params, state = instance
    dt = dt_factor * min(validate_params(params, state).mu0, 1.0)
    R_start = data.draw(uniform(params.N, 1e-3, 10.0))
    for fp_tol, fp_maxit in ((1e-12, 200), (1e-15, 3)):
        plain = outcome(step_fully_implicit, params, state, dt, fp_tol, fp_maxit)
        started = outcome(step_fully_implicit, params, state, dt, fp_tol, fp_maxit, R_start)
        if isinstance(started, type):
            assert started is plain
        else:
            new, _ = started
            assert np.all(new.f >= 0) and np.all(new.R > 0)
            if not isinstance(plain, type):
                assert np.max(np.abs(new.R - plain[0].R)) <= 4 * fp_tol
                assert np.max(np.abs(new.f - plain[0].f)) <= 4 * fp_tol * np.max(plain[0].f)


@PROPERTY
@given(instances(), st.floats(0.01, 0.99))
def test_semi_step_is_the_first_implicit_sweep(instance, dt_factor):
    params, state = instance
    dt = dt_factor * min(validate_params(params, state).mu0, 1.0)
    semi = step_semi_implicit(params, state, dt)
    first_sweep, sweeps = step_fully_implicit(params, state, dt, fp_tol=math.inf, fp_maxit=1)
    assert sweeps == 1
    assert same_bits(semi, first_sweep)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_positivity_and_mass_bound_below_mu0(scheme):
    @PROPERTY
    @given(instances(), st.floats(0.01, 0.99))
    def check(instance, dt_factor):
        params, state0 = instance
        constants = validate_params(params, state0)
        dt = dt_factor * min(constants.mu0, 1.0)
        traj = simulate(params, state0, STEPS * dt, StepConfig(dt=dt, scheme=scheme))
        assert np.all(traj.R > 0)
        assert np.all(traj.f[:, state0.f > 0] > 0)
        assert np.all(traj.f[:, state0.f == 0] == 0)
        # M_tilde is a sum of 2N + 1 positive terms: allow their round-off
        assert np.all(traj.diagnostics.mass <= constants.M_tilde * (1 + 1e-12))

    check()


@PROPERTY
@given(instances(zeros_in_f=False), st.floats(0.01, 0.99))
def test_implicit_steps_obey_the_entropy_bound_below_mu0(instance, dt_factor):
    params, state0 = instance
    dt = dt_factor * min(validate_params(params, state0).mu0, 1.0)
    config = StepConfig(dt=dt, scheme=Scheme.FULLY_IMPLICIT)
    with warnings.catch_warnings():
        # a singular K makes the minimizer f_tilde non-unique, and solve_esd says so; the
        # bound holds against each minimizer, since they share R_tilde and G(R_tilde)
        warnings.filterwarnings("ignore", "consumption rows on the ESD support are numerically")
        esd = solve_esd(params, tol=1e-12)
    traj = simulate(params, state0, STEPS * dt, config,
                    reference=State(f=esd.f_tilde, R=esd.R_tilde))
    assert entropy_trace(traj).flagged_steps == ()
