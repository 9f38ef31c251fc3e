"""Reflection symmetry on random center-0 scenarios of the example1 family.

With center 0 the midpoint grid satisfies x == -x[::-1] exactly, so a, Rstar,
K and the initial data are exactly mirror-symmetric, and so are the exact
ESD, Dirac weights and trajectory. The computed ones differ from their
mirror images only by the order of round-off, and by the solve tolerances.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rclab import (
    Scheme,
    StepConfig,
    build_params,
    builtin_presets,
    dirac_weights,
    simulate,
    solve_esd,
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
    # f_tilde is unique only for a nonsingular K, R_tilde always
    R = solve_esd(params, tol=ESD_TOL).R_tilde
    assert np.max(np.abs(R - R[::-1])) <= 100 * ESD_TOL * np.max(R)
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
