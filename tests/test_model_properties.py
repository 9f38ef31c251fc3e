"""The H formulas on a support S against the full ones, on random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from rclab import H_gradient, H_hessian, H_value
from rclab.model import restricted_gradient, restricted_H, restricted_hessian_factor

PROPERTY = settings(max_examples=40)

seeds = st.integers(0, 2**32 - 1)


def _restricted(params, support, x):
    H, b = restricted_H(params, support, x)
    M = restricted_hessian_factor(params, support, b)
    return H, restricted_gradient(params, support, b), M @ M.T


@PROPERTY
@given(seeds)
def test_restricted_forms_equal_the_full_forms_at_the_padded_f(seed):
    rng = np.random.default_rng(seed)
    params = random_instance(rng, n_max=30)
    support = np.flatnonzero(rng.random(params.N) < 0.5)
    x = rng.uniform(0.0, 3.0, support.size)
    f = np.zeros(params.N)
    f[support] = x
    H, g, hess = _restricted(params, support, x)
    # each tolerance is relative to the sum of the magnitudes of the terms
    mR_log = params.m * params.Rstar * np.abs(np.log(params.m + params.h * params.K.T @ f))
    assert abs(H - H_value(params, f)) <= 1e-12 * (np.abs(params.a_star) @ f + np.sum(mR_log))
    astar_S = params.a_star[support]
    terms = np.abs(astar_S) + params.h * params.K[support] @ params.Rstar
    assert np.all(np.abs(g - H_gradient(params, f)[support]) <= 1e-12 * terms)
    np.testing.assert_allclose(hess, H_hessian(params, f)[np.ix_(support, support)],
                               rtol=1e-12, atol=0)


@PROPERTY
@given(seeds)
def test_restricted_forms_on_every_trait_are_the_full_forms_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    params = random_instance(rng, n_max=30)
    f = rng.uniform(0.0, 3.0, params.N)
    H, g, hess = _restricted(params, np.arange(params.N), f)
    assert H == H_value(params, f)
    assert np.array_equal(g, H_gradient(params, f))
    assert np.array_equal(hess, H_hessian(params, f))
