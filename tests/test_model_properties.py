"""The H formulas on a support S against the full ones, on random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from rclab import H_gradient, H_hessian, H_value
from rclab.model import (
    restricted_gradient,
    restricted_H,
    restricted_hessian_factor,
    restricted_uptake,
)

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


@PROPERTY
@given(seeds)
def test_a_stack_of_one_trait_supports_gives_each_row_bit_for_bit(seed):
    # the batched single-peak Newton's g and g' = M M^T against one trait at a time
    rng = np.random.default_rng(seed)
    params = random_instance(rng, n_max=300)
    traits = rng.integers(0, params.N, size=int(rng.integers(1, 40)))
    x = rng.uniform(0.0, 3.0, traits.size)
    b = restricted_uptake(params, traits[:, None], x[:, None])
    g = restricted_gradient(params, traits[:, None], b)
    M = restricted_hessian_factor(params, traits[:, None], b)
    hess = np.matmul(M, M.swapaxes(1, 2))
    for k, i in enumerate(traits):
        b_i = restricted_uptake(params, np.array([i]), x[[k]])
        M_i = restricted_hessian_factor(params, np.array([i]), b_i)
        assert np.array_equal(b[k], b_i)
        assert np.array_equal(g[k], restricted_gradient(params, np.array([i]), b_i))
        assert np.array_equal(hess[k], M_i @ M_i.T)


@PROPERTY
@given(seeds)
def test_a_stack_of_states_gives_each_row_bit_for_bit(seed):
    # a trajectory's H column against H at one recorded state at a time, on every
    # trait and on one support
    rng = np.random.default_rng(seed)
    params = random_instance(rng, n_max=300)
    f = rng.uniform(0.0, 3.0, (int(rng.integers(1, 40)), params.N))
    H = H_value(params, f)
    for k, row in enumerate(f):
        assert H[k] == H_value(params, row)
    subset = np.flatnonzero(rng.random(params.N) < 0.5)
    for support, x in ((slice(None), f), (subset, f[:, subset])):
        H_S, b = restricted_H(params, support, x)
        assert np.array_equal(b, restricted_uptake(params, support, x))
        for k, row in enumerate(x):
            H_k, b_k = restricted_H(params, support, row)
            assert H_S[k] == H_k
            assert np.array_equal(b[k], b_k)
            assert np.array_equal(b_k, restricted_uptake(params, support, row))
    assert np.array_equal(H, restricted_H(params, slice(None), f)[0])
