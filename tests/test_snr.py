"""Analytic-SNR tests: trigonometric identities, the closed-form
interference moment against the direct lag sum, and bound orderings."""

import math

import numpy as np
import pytest

from weylcdma.correlation import r_ik
from weylcdma.sequences import OptimalWeylParams, optimal_weyl_sequence
from weylcdma.sim import SimConfig, build_pool
from weylcdma.snr import (
    csc2_sum,
    expected_r_sum,
    expected_r_sum_terms,
    expected_weyl_snr,
    noise_term,
    pursley_snr,
    r_ik_closed,
    snr_lower_bound,
)

# Frozen regression pin for N=31, K=31, E/N0 = 10**2.5:
# {30/186 + 0.5 * 10**-2.5}^(-1/2) computed by direct evaluation.
LOWER_BOUND_PIN = 2.4778642132317006


def slot_family(gamma, n, slots=None):
    slots = range(n) if slots is None else slots
    return [
        optimal_weyl_sequence(OptimalWeylParams(gamma, s, n, n)) for s in slots
    ]


class TestCsc2Sum:
    def test_n2(self):
        assert csc2_sum(2) == pytest.approx(1.0, rel=1e-12)

    def test_n4(self):
        assert csc2_sum(4) == pytest.approx(5.0, rel=1e-12)

    def test_large_n(self):
        n = 1024
        assert csc2_sum(n) == pytest.approx((n * n - 1) / 3.0, rel=1e-12)

    def test_identity_over_range(self):
        for n in range(2, 200):
            assert csc2_sum(n) == pytest.approx((n * n - 1) / 3.0, rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            csc2_sum(1)


def test_cotangent_sum_cancels():
    for n in (8, 31, 256, 1024):
        q = np.arange(1, n)
        total = np.sum(np.cos(np.pi * q / n) / np.sin(np.pi * q / n))
        assert abs(total) < 1e-9


class TestRikClosed:
    def test_symmetry(self):
        assert r_ik_closed(3, 11, 0.02, 31) == pytest.approx(
            r_ik_closed(11, 3, 0.02, 31), rel=1e-12
        )

    def test_rejects_equal_slots(self):
        with pytest.raises(ValueError):
            r_ik_closed(4, 4, 0.0, 16)
        with pytest.raises(ValueError):
            r_ik_closed(1, 17, 0.0, 16)  # equal mod N

    def test_antipodal_slots_with_extreme_cosine(self):
        # gap N/2 makes the two cosine terms opposite, so the numerator is 4
        # and the denominator 2, independent of which slot carries cos = -1:
        # r = 2N.  (Both cosines cannot be -1 at once for this gap.)
        n = 16
        gamma = 0.5 - 2 / n  # makes cos(2 pi (gamma + sigma_i/N)) = -1 at sigma_i = 2
        value = r_ik_closed(2, 2 + n // 2, gamma, n)
        assert value == pytest.approx(2.0 * n, rel=1e-12)

    def test_matches_direct_sum_on_generated_codes(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(4, 64))
            si, sk = rng.choice(n, size=2, replace=False)
            gamma = float(rng.random())
            x = optimal_weyl_sequence(OptimalWeylParams(gamma, int(si), n, n))
            y = optimal_weyl_sequence(OptimalWeylParams(gamma, int(sk), n, n))
            assert r_ik_closed(int(si), int(sk), gamma, n) == pytest.approx(
                r_ik(x, y), rel=1e-8
            )


class TestExpectedRSum:
    def test_coupling_component(self):
        for k, n in ((5, 16), (31, 31), (7, 30)):
            coupling, _ = expected_r_sum_terms(3 % n, 0.017, k, n)
            assert coupling == pytest.approx(2 * n * (n + 1) * (k - 1) / 3.0, rel=1e-12)

    def test_cosine_component(self):
        for k, n, si, gamma in ((5, 16, 3, 0.017), (31, 31, 11, 1 / 62), (7, 30, 0, 0.4)):
            _, cosine = expected_r_sum_terms(si, gamma, k, n)
            expected = n * (n - 2) * (k - 1) / 3.0 * math.cos(2 * math.pi * (gamma + si / n))
            assert cosine == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_gap_sum_matches_per_pair_closed_form(self):
        # the two terms add up to the (K-1)/(N-1)-weighted sum of r_ik_closed over the gaps q
        for k, n, si, gamma in ((5, 16, 3, 0.017), (31, 31, 11, 1 / 62), (7, 30, 0, 0.4)):
            coupling, cosine = expected_r_sum_terms(si, gamma, k, n)
            pairs = math.fsum(r_ik_closed(si, si + q, gamma, n) for q in range(1, n))
            assert coupling + cosine == pytest.approx((k - 1) / (n - 1) * pairs, rel=1e-12)

    def test_rejects_more_users_than_slots(self):
        # the (K-1)/(N-1) slot weight assumes K distinct slots out of N
        for k in (1, 32, 40):
            with pytest.raises(ValueError, match="n_users"):
                expected_r_sum_terms(0, 0.0, k, 31)
        with pytest.raises(ValueError, match="n_users"):
            expected_r_sum(0, 0.0, 32, 31)

    def test_total_consistent_with_interference_variance(self):
        k, n, si, gamma = 31, 31, 7, 1 / 62
        r_total = expected_r_sum(si, gamma, k, n)
        variance = expected_weyl_snr(si, gamma, k, n, 25.0) ** -2 - noise_term(25.0)
        assert r_total / (6.0 * n**3) == pytest.approx(variance, rel=1e-12)


@pytest.mark.parametrize("func, args", [
    (r_ik_closed, (1, 2, math.nan, 31)),
    (r_ik_closed, (1, 2, math.inf, 31)),
    (expected_r_sum_terms, (0, math.nan, 5, 31)),
    (expected_r_sum, (0, -math.inf, 5, 31)),
    (expected_weyl_snr, (0, math.nan, 5, 31, 10.0)),
], ids=["r-ik-nan", "r-ik-inf", "r-sum-terms-nan", "r-sum-neg-inf", "weyl-snr-nan"])
def test_closed_forms_reject_nonfinite_gamma(func, args):
    with pytest.raises(ValueError, match="gamma must be finite"):
        func(*args)


@pytest.mark.parametrize("make, good, field, outside", [
    *[(expected_r_sum, dict(sigma_i=3, gamma=0.1, n_users=5, n_chips=31), field, outside)
      for field, outside in (("n_users", 1), ("n_chips", 1))],
    (lambda **kw: pursley_snr(family=slot_family(0.1, 8), ebn0_db=10.0, **kw),
     dict(user_i=2), "user_i", 8),
    *[(lambda **kw: expected_weyl_snr(gamma=0.1, ebn0_db=10.0, **kw),
       dict(sigma_i=3, n_users=5, n_chips=31), field, outside)
      for field, outside in (("sigma_i", 31), ("n_users", 32), ("n_chips", 0))],
    *[(lambda **kw: snr_lower_bound(ebn0_db=10.0, **kw), dict(n_users=2, n_chips=31), field, outside)
      for field, outside in (("n_users", 0), ("n_chips", 0))],
    (csc2_sum, dict(n=4), "n", 1),
    *[(lambda **kw: r_ik_closed(gamma=0.1, **kw), dict(sigma_i=3, sigma_k=5, n_chips=31),
       field, outside) for field, outside in (("sigma_i", None), ("sigma_k", None), ("n_chips", 1))],
    *[(lambda **kw: expected_r_sum_terms(gamma=0.1, **kw), dict(sigma_i=3, n_users=5, n_chips=31),
       field, outside) for field, outside in (("sigma_i", None), ("n_users", 1), ("n_chips", 1))],
])
def test_counts_and_indices_must_be_integers(make, good, field, outside):
    # a float is never truncated: snr_lower_bound(2.5, 31, db) must not give the K = 2 value
    for bad in (good[field] + 0.5, float(good[field]), True) + (() if outside is None else (outside,)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make(**{**good, field: bad})
    assert make(**{**good, field: np.int64(good[field])}) == make(**good)


@pytest.mark.parametrize("gamma, fraction", [(2.0**40 + 0.25, 0.25), (1e308, 0.0)])
def test_large_gamma_keeps_its_fraction(gamma, fraction):
    # gamma is reduced before sigma/N is added, so 2pi(gamma + sigma/N) stays finite and exact
    for sigma in (0, 3, 30):
        assert expected_weyl_snr(sigma, gamma, 5, 31, 10.0) == expected_weyl_snr(
            sigma, fraction, 5, 31, 10.0)
        assert r_ik_closed(sigma, 7, gamma, 31) == r_ik_closed(sigma, 7, fraction, 31)
        assert expected_r_sum_terms(sigma, gamma, 5, 31) == expected_r_sum_terms(
            sigma, fraction, 5, 31)


def test_slot_indices_wrap_mod_n():
    assert r_ik_closed(-28, 36, 0.1, 31) == r_ik_closed(3, 5, 0.1, 31)
    assert expected_r_sum_terms(-28, 0.1, 5, 31) == expected_r_sum_terms(3, 0.1, 5, 31)


class TestExpectedWeylSnr:
    def test_worst_cosine_value(self):
        # gamma + sigma_i/N = 1/2 puts the cosine at -1: R = (K-1)(N+4)/(18 N^2)
        n, k = 16, 9
        snr = expected_weyl_snr(n // 2, 0.0, k, n, 10.0)
        r = (k - 1) * (n + 4) / (18.0 * n * n)
        assert snr == pytest.approx((r + noise_term(10.0)) ** -0.5, rel=1e-12)

    def test_best_cosine_meets_lower_bound(self):
        # cosine +1 gives R = (K-1)/(6N), exactly the lower-bound interference term
        n, k = 16, 9
        assert expected_weyl_snr(0, 0.0, k, n, 10.0) == pytest.approx(
            snr_lower_bound(k, n, 10.0), rel=1e-12
        )

    def test_single_user(self):
        expected = math.sqrt(2.0 * 10.0 ** 1.2)  # sqrt(2E/N0) at 12 dB
        assert expected_weyl_snr(5, 0.1, 1, 31, 12.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_more_users_than_slots(self):
        for k in (0, 32, 40):
            with pytest.raises(ValueError, match="n_users"):
                expected_weyl_snr(0, 0.0, k, 31, 10.0)
        assert expected_weyl_snr(0, 0.0, 31, 31, 10.0) > 0  # K = N is the exact case

    def test_lower_bound_dominated_everywhere(self):
        n, k = 31, 20
        floor = snr_lower_bound(k, n, 25.0)
        for gamma in (0.0, 1 / 62, 0.3):
            for sigma in range(n):
                assert floor <= expected_weyl_snr(sigma, gamma, k, n, 25.0) + 1e-12


class TestSnrLowerBound:
    def test_single_user(self):
        assert snr_lower_bound(1, 31, 8.0) == pytest.approx(
            math.sqrt(2.0 * 10.0 ** 0.8), rel=1e-12
        )

    def test_regression_pin(self):
        assert snr_lower_bound(31, 31, 25.0) == pytest.approx(LOWER_BOUND_PIN, rel=1e-12)

    def test_monotone_in_users(self):
        values = [snr_lower_bound(k, 31, 20.0) for k in range(1, 32)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_more_users_than_slots(self):
        # the (K-1)/(6N) worst-slot term assumes K distinct slots out of N
        for k in (0, 32, 40):
            with pytest.raises(ValueError, match=r"n_users must be an integer in \[1, 31\]"):
                snr_lower_bound(k, 31, 10.0)


class TestPursleySnr:
    def test_single_user_is_noise_only(self):
        family = slot_family(0.01, 16, slots=[4])
        assert pursley_snr(0, family, 9.0) == pytest.approx(
            math.sqrt(2.0 * 10.0 ** 0.9), rel=1e-12
        )

    def test_never_exceeds_noise_only_snr(self):
        family = slot_family(0.03, 16, slots=[0, 3, 7, 9, 14])
        cap = math.sqrt(2.0 * 10.0 ** 1.8)
        for i in range(5):
            assert pursley_snr(i, family, 18.0) <= cap + 1e-12

    def test_full_slot_family_matches_expectation(self):
        # with all N slots in use, the slot expectation is exact
        n = 16
        gamma = 1.0 / (2 * n)
        family = slot_family(gamma, n)
        for sigma in (0, 5, 11):
            assert pursley_snr(sigma, family, 25.0) == pytest.approx(
                expected_weyl_snr(sigma, gamma, n, n, 25.0), rel=1e-8
            )

    @pytest.mark.parametrize("family, n", [
        ("weyl", 31), ("gold", 31), ("fzc", 31), ("weyl", 63), ("weyl", 127),
    ])
    def test_matches_per_pair_oracle(self, family, n):
        # the lag-table row against the sum of np.correlate-based r_ik, every user
        codes = build_pool(SimConfig(n_users=2, n_chips=n, ebn0_db=25.0, trials=1, seed=0,
                                     family=family, gamma=0.3 / n))
        for i in range(len(codes)):
            mai = sum(r_ik(codes[i], c) for k, c in enumerate(codes) if k != i)
            oracle = (mai / (6.0 * n**3) + noise_term(25.0)) ** -0.5
            assert pursley_snr(i, codes, 25.0) == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_rejects_mixed_lengths(self):
        family = [np.ones(8, dtype=complex), np.ones(9, dtype=complex)]
        with pytest.raises(ValueError, match="all codes in the family must have equal length"):
            pursley_snr(0, family, 10.0)

    def test_rejects_empty_family(self):
        for empty in ([], np.empty((0, 8), dtype=complex)):
            with pytest.raises(ValueError, match="family must contain at least one code"):
                pursley_snr(0, empty, 10.0)

    def test_rejects_a_code_without_chips_or_with_a_nonfinite_chip(self):
        # no ZeroDivisionError for N = 0 and no silent NaN, on either path of the family
        for family, message in ((np.zeros((2, 0), dtype=complex), "at least one chip"),
                                ([[1, math.nan], [1, 1]], "every chip must be finite"),
                                (np.array([[1, 1], [1j, math.inf]]), "every chip must be finite")):
            with pytest.raises(ValueError, match=message):
                pursley_snr(0, family, 10.0)

    def test_stacked_family_gives_the_same_floats(self):
        family = slot_family(0.03, 16, slots=[0, 3, 7, 9, 14])
        stacked = np.vstack([s.chips for s in family])
        for i in range(5):
            assert pursley_snr(i, stacked, 18.0) == pursley_snr(i, family, 18.0)

    def test_partial_occupancy_agreement_reported_not_asserted(self):
        # The slot expectation is exact only when every slot is in use;
        # at K < N the observed agreement is informational.
        n, k = 31, 24
        gamma = 1.0 / (2 * n)
        rng = np.random.default_rng(42)
        deviations = []
        for _ in range(3):
            slots = rng.choice(n, size=k, replace=False)
            family = slot_family(gamma, n, slots=[int(s) for s in slots])
            for i in range(0, k, 6):
                direct = pursley_snr(i, family, 25.0)
                analytic = expected_weyl_snr(int(slots[i]), gamma, k, n, 25.0)
                deviations.append(abs(direct - analytic) / analytic)
        mean_dev = float(np.mean(deviations))
        print(f"K<N slot-expectation agreement: mean rel deviation {mean_dev:.3%} "
              f"(K={k}, N={n}; informational only)")
        assert math.isfinite(mean_dev)


def test_no_interference_and_no_noise_is_infinite():
    # a lone user at +inf dB: the SNR is +inf, not a ZeroDivisionError
    assert pursley_snr(0, slot_family(0.1, 31, slots=[4]), math.inf) == math.inf
    assert expected_weyl_snr(4, 0.1, 1, 31, math.inf) == math.inf
    assert snr_lower_bound(1, 31, math.inf) == math.inf
    # either term alone keeps the SNR finite
    assert math.isfinite(pursley_snr(0, slot_family(0.1, 31, slots=[4, 9]), math.inf))
    assert math.isfinite(snr_lower_bound(1, 31, 200.0))


class TestLinkBudget:
    """The link enters the SNR only as N0/2E, which ``noise_term`` makes from E/N0 in dB."""

    def test_db_conversion(self):
        assert noise_term(25.0) == pytest.approx(0.5 * 10.0**-2.5, rel=1e-12)
        assert noise_term(25.0) == 0.5 / 10.0 ** 2.5  # the one conversion, bit for bit

    def test_validation(self):
        for bad in ("10", None, True, math.nan, -math.inf, 3090.0, -3090.0):  # a string is never parsed
            with pytest.raises(ValueError, match="ebn0_db"):
                noise_term(bad)
        assert noise_term(np.inf) == 0.0
        assert noise_term(np.int64(10)) == noise_term(10.0)
        assert noise_term(3000.0) > 0.0 and math.isfinite(noise_term(-3000.0))

    def test_snr_functions_check_ebn0_db_first(self):
        # a bad E/N0 is named even when another argument is bad too
        for call in (lambda db: pursley_snr(5, [], db), lambda db: expected_weyl_snr(0, math.nan, 40, 31, db),
                     lambda db: snr_lower_bound(40, 31, db)):
            for bad in ("10", True, math.nan):
                with pytest.raises(ValueError, match="ebn0_db"):
                    call(bad)
