"""Property tests: a users-axis sweep equals a separate run_ber per user count,
for any family, policy, trial count and list of user counts; the Weyl
correlation identities (crosscorrelation bound, closed-form r_ik, theta/theta_hat
wrap) hold for any length, slot pair and gamma; a whole slot pool equals
its codes built one slot at a time, bit for bit; and the sampling falsifier's
pruning bound lies below the pair sum for any sorted phases."""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weylcdma.correlation import (  # noqa: E402
    aperiodic_table,
    circle_distance,
    cross_bound,
    r_ik,
    theta_pairs,
)
from weylcdma.phase_opt import _lower_bound  # noqa: E402
from weylcdma.sequences import (  # noqa: E402
    OptimalWeylParams,
    optimal_weyl_pool,
    optimal_weyl_sequence,
)
from weylcdma.sim import SimConfig, family_capacity, run_ber, sweep  # noqa: E402
from weylcdma.snr import r_ik_closed  # noqa: E402

# (family, N, k_max, policies the family admits)
FAMILIES = [
    ("weyl", 16, 16, ("random", "fixed", "sequential", "vdc")),
    ("weyl", 13, 9, ("random", "fixed", "sequential")),
    ("optimal", 13, None, ("random", "fixed", "sequential")),
    ("gold", 31, None, ("random", "fixed", "sequential")),
    ("fzc", 16, None, ("random", "fixed", "sequential")),
]


@st.composite
def users_axis_cases(draw):
    family, n, k_max, policies = draw(st.sampled_from(FAMILIES))
    cfg = SimConfig(
        n_users=1, n_chips=n, ebn0_db=draw(st.sampled_from([0.0, 6.0, 25.0])),
        trials=draw(st.integers(1, 2200)), seed=draw(st.integers(0, 2**32)),
        family=family, policy=draw(st.sampled_from(policies)),
        gamma=draw(st.sampled_from([0.0, 1 / (2 * n), 0.3])), k_max=k_max,
    )
    capacity = family_capacity(cfg) if family != "optimal" else n
    users = draw(st.lists(st.integers(1, capacity), min_size=1, max_size=4))
    return cfg, users


@settings(max_examples=25, deadline=None, database=None)
@given(users_axis_cases())
def test_users_axis_sweep_equals_run_ber_per_value(case):
    cfg, users = case
    rows = sweep(cfg, "users", users)
    for k, row in zip(users, rows):
        ref = run_ber(dataclasses.replace(cfg, n_users=k))
        assert (row.axis_value, row.mean_ber, row.wilson_lo, row.wilson_hi, row.bits) == (
            k, ref.mean_ber, ref.wilson_lo, ref.wilson_hi, ref.bit_count
        )


@st.composite
def weyl_pairs(draw):
    """(N, sigma_i, sigma_k, gamma): two distinct slots of a k_max = N Weyl family."""
    n = draw(st.integers(4, 64))
    sigma_i, sigma_k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    gamma = draw(st.floats(0.0, 1.0, exclude_max=True))
    return n, sigma_i, sigma_k, gamma


def weyl_chips(n, sigma, gamma):
    return optimal_weyl_sequence(OptimalWeylParams(gamma, sigma, n, n)).chips


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(st.just(-1e-17), st.floats(-1e6, 1e6)), st.integers(1, 64), st.integers(2, 64))
def test_slot_pool_rows_are_the_slot_codes_bit_for_bit(gamma, k_max, n):
    pool = optimal_weyl_pool(gamma, k_max, n)
    assert pool.dtype == np.complex128 and pool.shape == (k_max, n)
    for s in range(k_max):
        code = optimal_weyl_sequence(OptimalWeylParams(gamma, s, k_max, n)).chips
        np.testing.assert_array_equal(pool[s].view(np.uint64), code.view(np.uint64))


@settings(max_examples=60, deadline=None, database=None)
@given(weyl_pairs())
def test_crosscorrelation_within_bound(case):
    n, sigma_i, sigma_k, gamma = case
    table = aperiodic_table([weyl_chips(n, sigma_i, gamma), weyl_chips(n, sigma_k, gamma)])
    bound = cross_bound(gamma + sigma_i / n, gamma + sigma_k / n)
    assert np.abs(table[0, 1]).max() <= bound + 1e-9
    assert np.abs(table[1, 0]).max() <= bound + 1e-9


@settings(max_examples=60, deadline=None, database=None)
@given(weyl_pairs())
def test_r_ik_matches_closed_form(case):
    n, sigma_i, sigma_k, gamma = case
    x, y = weyl_chips(n, sigma_i, gamma), weyl_chips(n, sigma_k, gamma)
    assert r_ik(x, y) == pytest.approx(r_ik_closed(sigma_i, sigma_k, gamma, n), rel=1e-8)


@settings(max_examples=60, deadline=None, database=None)
@given(weyl_pairs())
def test_theta_pairs_wrap(case):
    # theta(N) = C(N) + C(0) = theta(0); theta_hat(N) = C(N) - C(0) = -theta_hat(0)
    n, sigma_i, sigma_k, gamma = case
    pairs = theta_pairs(aperiodic_table([weyl_chips(n, sigma_i, gamma),
                                         weyl_chips(n, sigma_k, gamma)]))
    theta, theta_hat = pairs[:, :, 0], pairs[:, :, 1]
    np.testing.assert_array_equal(theta[..., n - 1, 1], theta[..., 0, 0])
    np.testing.assert_array_equal(theta_hat[..., n - 1, 1], -theta_hat[..., 0, 0])


@st.composite
def sorted_phases(draw):
    """K = 3..40 sorted phases in [0, 1), spread uniformly or clustered (duplicates too)."""
    k = draw(st.integers(3, 40))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    centres = draw(st.lists(unit, min_size=1, max_size=k))
    spread = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1e-3, 1.0]))
    offsets = draw(st.lists(unit, min_size=k, max_size=k))
    return np.sort([(centres[i % len(centres)] + spread * o) % 1.0 for i, o in enumerate(offsets)])


@settings(max_examples=200, deadline=None, database=None)
@given(sorted_phases())
def test_pruning_bound_below_pair_sum(rhos):
    i, j = np.triu_indices(rhos.size, 1)  # the triu_indices + circle_distance oracle
    with np.errstate(divide="ignore", over="ignore"):  # subnormal distances overflow to inf
        pair_sum = np.sum(1.0 / np.sin(np.pi * circle_distance(rhos[i], rhos[j])))
    assert _lower_bound(rhos[:, None])[0] <= pair_sum
