"""Symmetries of the model on random instances.

Reflection, on center-0 scenarios of the example1 family: the midpoint grid
satisfies x == -x[::-1] exactly, so a, Rstar, K and the initial data are
exactly mirror-symmetric, and so are the exact ESD, Dirac weights and
trajectory. The computed ones differ from their mirror images only by the
order of round-off, and by the solve tolerances.

Relabelling, on helpers.random_instance draws: permuting the traits permutes
the trajectory, to round-off, under both schemes.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance, random_state
from rclab import (
    ModelParams,
    Scheme,
    State,
    StepConfig,
    build_params,
    builtin_presets,
    dirac_weights,
    simulate,
    solve_esd,
    validate_params,
)

PROPERTY = settings(max_examples=30)
ESD_TOL = 1e-10
DIRAC_TOL = 1e-13  # steady._TOL, the residual of each single-peak solve


@st.composite
def symmetric_scenarios(draw):
    """example1 with a random grid, widths, growth profile and initial peak.
    growth.c0 is a fraction of the largest value that keeps every a*_j < 0."""
    spec = replace(
        builtin_presets()["example1"],
        N=draw(st.integers(2, 16)), L=draw(st.floats(0.5, 3.0)),
        sigma_star=draw(st.floats(0.1, 1.0)), sigma_K=draw(st.floats(0.05, 1.0)),
        growth_c2=draw(st.floats(-5.0, -0.1)), growth_c0=0.0,
        initial_f_amp=draw(st.floats(0.1, 5.0)), initial_f_sigma=draw(st.floats(0.1, 2.0)),
    )
    params, _ = build_params(spec)
    c0 = draw(st.floats(0.05, 0.95)) * -float(np.max(params.a_star))
    return build_params(replace(spec, growth_c0=c0))


@PROPERTY
@given(symmetric_scenarios())
def test_esd_and_dirac_weights_are_mirror_symmetric(scenario):
    params, _ = scenario
    # R_tilde is always unique, f_tilde where the solve certifies it
    esd = solve_esd(params, tol=ESD_TOL)
    R = esd.R_tilde
    assert np.max(np.abs(R - R[::-1])) <= 100 * ESD_TOL * np.max(R)
    if esd.f_unique:
        f = esd.f_tilde
        assert np.max(np.abs(f - f[::-1])) <= 1e-6 * max(1.0, np.max(f))
    growing = np.flatnonzero(params.a > 0)
    rho = dict(zip(growing.tolist(), dirac_weights(params, growing).tolist()))
    for i, weight in rho.items():
        assert abs(weight - rho[params.N - 1 - i]) <= 100 * DIRAC_TOL * weight


@PROPERTY
@given(symmetric_scenarios())
def test_semi_implicit_trajectory_is_mirror_symmetric(scenario):
    params, state0 = scenario
    traj = simulate(params, state0, 2.0, StepConfig(dt=0.05, scheme=Scheme.SEMI_IMPLICIT))
    for x in (traj.f, traj.R):
        scale = np.max(x, axis=1, keepdims=True)
        assert np.all(np.abs(x - x[:, ::-1]) <= 1e-13 * scale)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_trajectory_is_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    params = random_instance(rng)
    state0 = random_state(rng, params)
    P = rng.permutation(params.N)
    permuted = ModelParams(N=params.N, h=params.h, a=params.a[P], K=params.K[P][:, P],
                           m=params.m[P], Rstar=params.Rstar[P])
    dt = 0.5 * min(validate_params(params, state0).mu0, 0.1)
    for scheme in Scheme:
        config = StepConfig(dt=dt, scheme=scheme)
        traj = simulate(params, state0, 20 * dt, config)
        other = simulate(permuted, State(f=state0.f[P], R=state0.R[P]), 20 * dt, config)
        assert len(other.times) == 21
        for x, y in ((traj.f[:, P], other.f), (traj.R[:, P], other.R)):
            scale = np.max(x, axis=1, keepdims=True)
            assert np.all(np.abs(x - y) <= 1e-13 * scale)
