"""Property tests: a users-axis sweep equals a separate run_ber per user count,
for any family, policy, trial count and list of user counts."""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weylcdma.sim import SimConfig, family_capacity, run_ber, sweep  # noqa: E402

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
    policy = draw(st.sampled_from(policies))
    cfg = SimConfig(
        n_users=1, n_chips=n, ebn0_db=draw(st.sampled_from([0.0, 6.0, 25.0])),
        trials=draw(st.integers(1, 2200)), seed=draw(st.integers(0, 2**32)),
        family=family, policy="random" if policy == "fixed" else policy,
        gamma=draw(st.sampled_from([0.0, 1 / (2 * n), 0.3])), k_max=k_max,
        redraw_sigma=policy != "fixed",
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
