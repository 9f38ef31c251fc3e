"""Session fixtures for the expensive flagship-scenario computations."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import settings

from rclab import (
    Scheme,
    State,
    StepConfig,
    build_params,
    builtin_presets,
    simulate,
    solve_esd,
)

# every property is deterministic: derandomized, with no example database;
# a test file sets only its max_examples
settings.register_profile("rclab", derandomize=True, database=None, deadline=None)
settings.load_profile("rclab")


@pytest.fixture(scope="session")
def example1():
    return build_params(builtin_presets()["example1"])


@pytest.fixture(scope="session")
def example2():
    return build_params(builtin_presets()["example2"])


@pytest.fixture(scope="session")
def example1_esd(example1):
    params, _ = example1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_esd(params, tol=1e-12)


@pytest.fixture(scope="session")
def example1_traj_implicit(example1, example1_esd):
    """Fully implicit flagship run: T = 3000, dt = 0.4, entropy reference."""
    params, state0 = example1
    esd = example1_esd
    config = StepConfig(dt=0.4, scheme=Scheme.FULLY_IMPLICIT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(
            params, state0, 3000.0, config,
            reference=State(f=esd.f_tilde, R=esd.R_tilde),
        )


@pytest.fixture(scope="session")
def example1_traj_semi(example1, example1_esd):
    params, state0 = example1
    esd = example1_esd
    config = StepConfig(dt=0.4, scheme=Scheme.SEMI_IMPLICIT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(
            params, state0, 3000.0, config,
            reference=State(f=esd.f_tilde, R=esd.R_tilde),
        )
