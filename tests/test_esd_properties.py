"""Properties of the invasion ESD solver on random instances, against the
Barzilai-Borwein oracle in tests/helpers.py."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rclab.esd
from helpers import bb_esd, random_instance
from rclab import H_value, ModelParams, reconstruct_R, solve_esd, verify_esd

PROPERTY = settings(max_examples=40)


# generic instances: hypothesis draws only the seed, because its own float
# draws favour repeated values, whose singular K makes the ESD non-unique
instances = st.integers(0, 2**32 - 1).map(
    lambda seed: random_instance(np.random.default_rng(seed), n_max=30)
)


@PROPERTY
@given(instances)
def test_solution_is_certified_and_matches_the_oracle(params):
    esd = solve_esd(params)
    assert verify_esd(params, esd.f_tilde, esd.R_tilde, tol=1e-9).is_esd
    # BB's iterate at the default tol can be off by ~1e-6 in flat valleys, so
    # the oracle runs to a hundredth of it
    oracle = bb_esd(params, tol=1e-12)
    assert np.max(np.abs(esd.f_tilde - oracle)) <= 1e-6
    h_oracle = H_value(params, oracle)
    assert esd.H_at_min <= h_oracle + 1e-12 * (1.0 + abs(h_oracle))


@PROPERTY
@given(instances)
def test_R_tilde_has_the_bits_of_reconstruct_R(params):
    esd = solve_esd(params)
    R = reconstruct_R(params, esd.f_tilde)
    assert np.array_equal(esd.R_tilde.view(np.int64), R.view(np.int64))


@PROPERTY
@given(instances, st.randoms(use_true_random=False))
def test_permuting_traits_permutes_the_esd(params, rnd):
    perm = np.array(rnd.sample(range(params.N), params.N))
    permuted = ModelParams(
        N=params.N, h=params.h, a=params.a[perm], K=params.K[np.ix_(perm, perm)],
        m=params.m[perm], Rstar=params.Rstar[perm],
    )
    f = solve_esd(params).f_tilde
    assert np.max(np.abs(solve_esd(permuted).f_tilde - f[perm])) <= 1e-9


@PROPERTY
@given(instances)
def test_H_does_not_increase_over_outer_steps(params):
    values = []
    gradient = rclab.esd.H_gradient

    def recording_gradient(p, f):
        values.append(H_value(p, f))
        return gradient(p, f)

    rclab.esd.H_gradient = recording_gradient
    try:
        solve_esd(params)
    finally:
        rclab.esd.H_gradient = gradient
    assert all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(values, values[1:]))


def low_rank_instance(seed: int) -> ModelParams:
    """random_instance with K = U V of random rank r <= N, so K is singular for
    r < N while the rows of K on a support of at most r traits may not be."""
    rng = np.random.default_rng(seed)
    params = random_instance(rng, n_max=12)
    r = int(rng.integers(1, params.N + 1))
    K = rng.uniform(0.0, 1.0, (params.N, r)) @ rng.uniform(0.0, 1.0, (r, params.N)) / r
    a = params.a_star + params.h * K @ params.Rstar  # the same net rates a*
    return ModelParams(N=params.N, h=params.h, a=a, K=K, m=params.m, Rstar=params.Rstar)


certified = st.one_of(instances, st.integers(0, 2**32 - 1).map(low_rank_instance))


@PROPERTY
@given(certified, st.randoms(use_true_random=False))
def test_a_certified_esd_is_found_from_any_start(params, rnd):
    esd = solve_esd(params)
    if not esd.f_unique:
        return
    f_init = np.zeros(params.N)
    for j in rnd.sample(range(params.N), rnd.randint(1, params.N)):
        f_init[j] = rnd.uniform(0.0, 2.0 / params.h)
    restart = solve_esd(params, f_init=f_init)
    assert restart.f_unique
    assert np.max(np.abs(restart.f_tilde - esd.f_tilde)) <= 1e-6


@PROPERTY
@given(certified, st.randoms(use_true_random=False))
def test_a_copied_support_trait_is_not_certified(params, rnd):
    f = solve_esd(params).f_tilde
    support, off = np.flatnonzero(f > 0), np.flatnonzero(f == 0)
    assume(support.size > 0 and off.size > 0)
    j, k = rnd.choice(support.tolist()), rnd.choice(off.tolist())
    # trait k now consumes and grows as trait j does; f stays a minimizer
    # (g_k = g_j = 0), and so does every split of f_j between j and k
    a, K = params.a.copy(), params.K.copy()
    a[k], K[k] = a[j], K[j]
    copied = ModelParams(N=params.N, h=params.h, a=a, K=K, m=params.m, Rstar=params.Rstar)
    with pytest.warns(UserWarning, match="condition estimate"):
        assert not solve_esd(copied).f_unique
