"""Correlation tests: branch definitions against a brute-force oracle,
closed forms, the crosscorrelation bound, and the interference moment."""

import math

import numpy as np
import pytest

from weylcdma.correlation import (
    DegeneratePhaseError,
    DegeneratePhaseWarning,
    aperiodic_c,
    aperiodic_table,
    correlation_profile,
    cross_bound,
    r_ik,
    theta_pairs,
    weyl_c_closed_form,
)
from weylcdma.correlation import _codes
from weylcdma.sequences import (
    OptimalWeylParams,
    WeylParams,
    gold_code,
    gold_family,
    optimal_weyl_sequence,
    weyl_sequence,
)

from oracle import odd_theta_hat, periodic_theta


def oracle_c(x, y, lag):
    """Brute-force partial correlation with explicit 1-indexed loops."""
    n = len(x)
    total = 0j
    if 0 <= lag <= n - 1:
        for i in range(1, n - lag + 1):
            total += np.conj(x[i + lag - 1]) * y[i - 1]
    elif 1 - n <= lag < 0:
        for i in range(1, n + lag + 1):
            total += np.conj(x[i - 1]) * y[i - lag - 1]
    return total


def oracle_r(x, y):
    """Brute-force double-loop interference moment, independent of r_ik."""
    n = len(x)
    total = 0.0
    for l in range(n):
        cm = oracle_c(x, y, l - n)
        cm1 = oracle_c(x, y, l - n + 1)
        cl = oracle_c(x, y, l)
        cl1 = oracle_c(x, y, l + 1)
        total += (
            abs(cm) ** 2
            + (cm * np.conj(cm1)).real
            + abs(cm1) ** 2
            + abs(cl) ** 2
            + (cl * np.conj(cl1)).real
            + abs(cl1) ** 2
        )
    return total


def random_unit_sequence(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


class TestAperiodicC:
    def test_autocorrelation_peak(self):
        seq = weyl_sequence(WeylParams(0.37, 0.0, 12))
        assert aperiodic_c(seq, seq, 0) == pytest.approx(12.0)

    def test_zero_outside_window(self):
        x = weyl_sequence(WeylParams(0.2, 0.0, 8))
        y = weyl_sequence(WeylParams(0.7, 0.0, 8))
        for lag in (8, -8, 9, 40, -40):
            assert aperiodic_c(x, y, lag) == 0j

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 24))
            x, y = random_unit_sequence(rng, n), random_unit_sequence(rng, n)
            for lag in range(-n - 1, n + 2):
                assert aperiodic_c(x, y, lag) == pytest.approx(oracle_c(x, y, lag), abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            x, y = random_unit_sequence(rng, n), random_unit_sequence(rng, n)
            for lag in range(-n, n + 1):
                lhs = aperiodic_c(x, y, lag)
                rhs = np.conj(aperiodic_c(y, x, -lag))
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            aperiodic_c(np.ones(4, dtype=complex), np.ones(5, dtype=complex), 0)


class TestThetaCombinations:
    def test_linear_combinations_of_c(self):
        rng = np.random.default_rng(5)
        n = 16
        x, y = random_unit_sequence(rng, n), random_unit_sequence(rng, n)
        for lag in range(n):
            c_hi = aperiodic_c(x, y, lag)
            c_lo = aperiodic_c(x, y, lag - n)
            assert periodic_theta(x, y, lag) == pytest.approx(c_hi + c_lo, abs=1e-12)
            assert odd_theta_hat(x, y, lag) == pytest.approx(c_hi - c_lo, abs=1e-12)

    def test_autocorrelation_theta_at_zero(self):
        seq = weyl_sequence(WeylParams(0.41, 0.0, 10))
        assert periodic_theta(seq, seq, 0) == pytest.approx(10.0)

    def test_sarwate_zero_periodic_crosscorrelation(self):
        n = 31
        fam = [
            optimal_weyl_sequence(OptimalWeylParams(0.0, s, n, n)) for s in (0, 3, 17, 30)
        ]
        for i in range(len(fam)):
            for k in range(len(fam)):
                if i == k:
                    continue
                for lag in range(n):
                    assert abs(periodic_theta(fam[i], fam[k], lag)) < 1e-9

    def test_slot_family_theta_zero_at_lag_zero_any_gamma(self):
        n = 16
        for gamma in (0.0, 1 / 32, 0.21, 0.9):
            a = optimal_weyl_sequence(OptimalWeylParams(gamma, 2, n, n))
            b = optimal_weyl_sequence(OptimalWeylParams(gamma, 9, n, n))
            assert abs(periodic_theta(a, b, 0)) < 1e-9

    def test_triangle_bounds(self):
        rng = np.random.default_rng(6)
        n = 20
        x, y = random_unit_sequence(rng, n), random_unit_sequence(rng, n)
        for lag in range(n):
            cap = abs(aperiodic_c(x, y, lag)) + abs(aperiodic_c(x, y, lag - n))
            assert abs(periodic_theta(x, y, lag)) <= cap + 1e-12
            assert abs(odd_theta_hat(x, y, lag)) <= cap + 1e-12


class TestWeylClosedForm:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 200))
            rho_i, rho_k = rng.random(), rng.random()
            lag = int(rng.integers(0, n))
            x = weyl_sequence(WeylParams(rho_i, 0.0, n))
            y = weyl_sequence(WeylParams(rho_k, 0.0, n))
            closed = weyl_c_closed_form(rho_i, rho_k, lag, n)
            assert closed == pytest.approx(abs(aperiodic_c(x, y, lag)), abs=1e-10)

    def test_half_turn_difference_vanishes_for_even_window(self):
        n = 20
        for lag in (0, 2, 4, 10):  # N - lag even
            assert weyl_c_closed_form(0.2, 0.7, lag, n) < 1e-10

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(4, 256))
            rho_i, rho_k = rng.random(), rng.random()
            lag = int(rng.integers(0, n))
            assert weyl_c_closed_form(rho_i, rho_k, lag, n) <= cross_bound(rho_i, rho_k) + 1e-9

    def test_equality_condition_reaches_bound(self):
        # (N - lag)(rho_k - rho_i) = 1/2 + m
        n, lag = 32, 7
        for m in (0, 1, 3):
            diff = (0.5 + m) / (n - lag)
            rho_i, rho_k = 0.11, 0.11 + diff
            value = weyl_c_closed_form(rho_i, rho_k, lag, n)
            assert abs(value - cross_bound(rho_i, rho_k)) < 1e-9

    def test_degenerate_phase_warns_and_returns_limit(self):
        with pytest.warns(DegeneratePhaseWarning):
            assert weyl_c_closed_form(0.25, 0.25, 3, 10) == 7.0

    def test_large_phase_reduced_before_the_difference(self):
        # 2**60 is 0 mod 1, but 2**60 - 0.25 rounds to 2**60: reducing the difference instead
        # of each phase made this pair look coincident
        assert weyl_c_closed_form(0.25, 2.0**60, 0, 8) == weyl_c_closed_form(0.25, 0.0, 0, 8) < 1e-14

    def test_bounded_in_n_for_fixed_pair(self):
        # max over lags stays below the bound independent of N
        rho_i, rho_k = 0.13, 0.62
        cap = cross_bound(rho_i, rho_k)
        for n in (8, 32, 128, 512):
            x = weyl_sequence(WeylParams(rho_i, 0.0, n))
            y = weyl_sequence(WeylParams(rho_k, 0.0, n))
            worst = max(abs(aperiodic_c(x, y, lag)) for lag in range(1 - n, n))
            assert worst <= cap + 1e-9


class TestCrossBound:
    def test_antipodal(self):
        assert cross_bound(0.0, 0.5) == pytest.approx(1.0)

    def test_one_sixth(self):
        assert cross_bound(0.0, 1.0 / 6.0) == pytest.approx(2.0, rel=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = rng.random(), rng.random()
            if (a - b) % 1.0 == 0.0:
                continue
            assert cross_bound(a, b) == cross_bound(b, a)

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePhaseError):
            cross_bound(0.3, 0.3)
        with pytest.raises(DegeneratePhaseError):
            cross_bound(0.0, 1.0)

    def test_large_phases_reduced_before_the_difference(self):
        assert cross_bound(0.25, 2.0**60) == cross_bound(0.25, 0.0) == pytest.approx(math.sqrt(2.0))
        # both are whole numbers, so they coincide mod 1; their difference overflows to inf
        with pytest.raises(DegeneratePhaseError):
            cross_bound(1e308, -1e308)


@pytest.mark.parametrize("func, args", [
    (cross_bound, (math.nan, 0.2)),
    (cross_bound, (math.inf, 0.2)),
    (cross_bound, (0.2, -math.inf)),
    (weyl_c_closed_form, (math.nan, 0.2, 3, 31)),
    (weyl_c_closed_form, (0.2, math.inf, 3, 31)),
    (cross_bound, ("0.1", 0.2)),
], ids=["bound-nan", "bound-inf", "bound-neg-inf", "closed-form-nan", "closed-form-inf",
        "bound-string"])
def test_closed_forms_reject_nonfinite_phase(func, args):
    with pytest.raises(ValueError, match="must be finite"):
        func(*args)


X8, Y8 = weyl_sequence(WeylParams(0.2, 0.0, 8)), weyl_sequence(WeylParams(0.45, 0.1, 8))


@pytest.mark.parametrize("make, good, field, outside", [
    (lambda lag: aperiodic_c(X8, Y8, lag), dict(lag=-3), "lag", None),  # C is 0 for |lag| >= N
    (lambda lag: aperiodic_c(X8, Y8, lag), dict(lag=5), "lag", None),  # the lag >= 0 branch
    (weyl_c_closed_form, dict(rho_i=0.1, rho_k=0.35, lag=3, n_chips=8), "lag", -1),
    (weyl_c_closed_form, dict(rho_i=0.1, rho_k=0.35, lag=3, n_chips=8), "lag", 8),
    (weyl_c_closed_form, dict(rho_i=0.1, rho_k=0.35, lag=3, n_chips=8), "n_chips", 0),
])
def test_lags_and_lengths_must_be_integers(make, good, field, outside):
    for bad in (good[field] + 0.5, float(good[field])) + (() if outside is None else (outside,)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make(**{**good, field: bad})
    assert make(**{**good, field: np.int64(good[field])}) == make(**good)


class TestInterferenceMoment:
    def test_matches_brute_force_on_gold_pair(self):
        x, y = gold_code(4), gold_code(9)
        assert r_ik(x, y) == pytest.approx(oracle_r(x.chips, y.chips), rel=1e-12)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(4, 20))
            x, y = random_unit_sequence(rng, n), random_unit_sequence(rng, n)
            assert r_ik(x, y) == pytest.approx(oracle_r(x, y), rel=1e-12)

    def test_self_pair_returns_literal_value(self):
        # callers exclude k = i, but the definition still evaluates
        seq = weyl_sequence(WeylParams(0.3, 0.0, 9))
        assert r_ik(seq, seq) == pytest.approx(oracle_r(seq.chips, seq.chips), rel=1e-12)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            r_ik(np.ones(4, dtype=complex), np.ones(6, dtype=complex))

    def test_rejects_a_stacked_family_as_one_code(self):
        with pytest.raises(ValueError, match="expected a 1-D chip vector"):
            r_ik(np.ones((2, 4)), np.ones(4))


class TestTableAndProfile:
    def test_table_matches_pointwise_calls(self):
        rng = np.random.default_rng(11)
        family = [random_unit_sequence(rng, 9) for _ in range(4)]
        table = aperiodic_table(family)
        assert table.shape == (4, 4, 19)
        for i in range(4):
            for k in range(4):
                for lag in range(-9, 10):
                    assert table[i, k, lag + 9] == pytest.approx(
                        aperiodic_c(family[i], family[k], lag), abs=1e-12
                    )

    def test_table_rejects_mixed_lengths(self):
        family = [np.ones(8, dtype=complex), np.ones(9, dtype=complex)]
        with pytest.raises(ValueError, match="all codes in the family must have equal length"):
            aperiodic_table(family)

    def test_a_code_without_chips_or_with_a_nonfinite_chip_is_an_error(self):
        # no (2, 2, 1) table of nothing, no numpy "cannot be empty", no silent NaN
        empty, bad = np.zeros(0, dtype=complex), np.array([1.0, math.nan])
        calls = [lambda x, y: aperiodic_table(np.stack([x, y])), lambda x, y: aperiodic_table([x, y]),
                 r_ik, correlation_profile]
        for call in calls:
            with pytest.raises(ValueError, match="a code must have at least one chip"):
                call(empty, empty)
            for x, y in ((bad, np.ones(2)), (np.ones(2), bad * 1j), (np.ones(2), [1, math.inf])):
                with pytest.raises(ValueError, match="every chip must be finite"):
                    call(x, np.asarray(y, dtype=complex))

    def test_theta_pairs_needs_an_odd_lag_axis_of_at_least_three(self):
        # 2N + 1 entries with N >= 1; any other length would be read as a wrong lag
        for length in (0, 1, 2, 4, 62):
            with pytest.raises(ValueError, match="2N \\+ 1"):
                theta_pairs(np.zeros((2, 2, length), dtype=complex))
        assert theta_pairs(np.zeros((2, 2, 3), dtype=complex)).shape == (2, 2, 2, 1, 2)

    def test_codes_take_a_stacked_family_as_it_is(self):
        stacked = np.ones((3, 8), dtype=np.complex128)
        assert np.shares_memory(_codes(stacked), stacked)
        np.testing.assert_array_equal(_codes(np.ones((3, 8))), stacked)  # other dtypes convert
        np.testing.assert_array_equal(_codes(list(stacked)), stacked)
        with pytest.raises(ValueError, match="family must contain at least one code"):
            _codes(np.empty((0, 8), dtype=np.complex128))

    def test_profile_invariants(self):
        rng = np.random.default_rng(12)
        n = 11
        x, y = random_unit_sequence(rng, n), random_unit_sequence(rng, n)
        prof = correlation_profile(x, y)
        assert prof.lags[0] == 1 - n and prof.lags[-1] == n - 1
        for j, lag in enumerate(prof.lags):
            assert prof.c_values[j] == pytest.approx(aperiodic_c(x, y, int(lag)), abs=1e-12)
        for lag in range(n):
            assert prof.theta[lag] == pytest.approx(periodic_theta(x, y, lag), abs=1e-12)
            assert prof.theta_hat[lag] == pytest.approx(odd_theta_hat(x, y, lag), abs=1e-12)

    @pytest.mark.parametrize("pool", [
        [s.chips for s in gold_family()],
        [optimal_weyl_sequence(OptimalWeylParams(1 / 32, s, 16, 16)).chips for s in range(16)],
    ], ids=["gold", "weyl16"])
    def test_theta_pairs_match_scalar_oracles(self, pool):
        n = len(pool[0])
        pairs = theta_pairs(aperiodic_table(pool))
        assert pairs.shape == (len(pool), len(pool), 2, n, 2)
        for i, x in enumerate(pool):
            for k, y in enumerate(pool):
                theta = [periodic_theta(x, y, lag) for lag in range(n)]
                theta_hat = [odd_theta_hat(x, y, lag) for lag in range(n)]
                # Theta(N) wraps: theta(N) = theta(0), theta_hat(N) = -theta_hat(0)
                wrapped = (theta + theta[:1], theta_hat + [-theta_hat[0]])
                for s, values in enumerate(wrapped):
                    got = pairs[i, k, s]
                    np.testing.assert_allclose(got[:, 0], values[:-1], rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got[:, 1], values[1:], rtol=0, atol=1e-12)
