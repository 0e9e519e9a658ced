"""Sequence-generator tests: frozen values, family embeddings, Gold code
structure (against an independent brute-force LFSR), and slot assignment."""

import cmath
import math

import numpy as np
import pytest

from weylcdma.sequences import (
    AssignmentPolicy,
    ChipSequence,
    FZCParams,
    GOLD_FAMILY_SIZE,
    GOLD_N_CHIPS,
    OptimalWeylParams,
    WeylParams,
    fzc_family_sequence,
    gold_code,
    gold_family,
    optimal_weyl_pool,
    optimal_weyl_sequence,
    van_der_corput,
    vdc_assignment,
    weyl_sequence,
)


def brute_force_msequence(poly_exps, degree):
    """Independent LFSR oracle: raw linear recurrence over GF(2)."""
    period = 2**degree - 1
    bits = [1] * degree
    for t in range(degree, period):
        acc = bits[t - degree]
        for e in poly_exps:
            if e != degree:
                acc ^= bits[t - (degree - e)]
        bits.append(acc)
    return bits


class TestWeyl:
    def test_zero_increment_is_all_ones(self):
        seq = weyl_sequence(WeylParams(rho=0.0, delta=0.0, n_chips=4))
        np.testing.assert_allclose(seq.chips, np.ones(4), atol=1e-15)

    def test_half_increment_alternates(self):
        seq = weyl_sequence(WeylParams(rho=0.5, delta=0.0, n_chips=4))
        np.testing.assert_allclose(seq.chips, [-1, 1, -1, 1], atol=1e-15)

    def test_third_increment_phases(self):
        # phases 2pi/3, 4pi/3, 0 for n = 1, 2, 3
        seq = weyl_sequence(WeylParams(rho=1.0 / 3.0, delta=0.0, n_chips=3))
        expected = [cmath.exp(2j * cmath.pi / 3), cmath.exp(4j * cmath.pi / 3), 1.0]
        np.testing.assert_allclose(seq.chips, expected, atol=1e-14)

    def test_delta_is_pure_phase_factor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho, delta = rng.random(), rng.random()
            n = int(rng.integers(1, 64))
            with_delta = weyl_sequence(WeylParams(rho, delta, n)).chips
            base = weyl_sequence(WeylParams(rho, 0.0, n)).chips
            np.testing.assert_allclose(
                with_delta, np.exp(2j * np.pi * delta) * base, atol=1e-12
            )

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            WeylParams(rho=0.1, delta=0.0, n_chips=0)

    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            WeylParams(rho=1.0, delta=0.0, n_chips=4)
        with pytest.raises(ValueError):
            WeylParams(rho=0.1, delta=-0.2, n_chips=4)
        for field, bad in (("rho", False), ("delta", np.False_), ("rho", "0.5")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                WeylParams(**{"rho": 0.1, "delta": 0.0, "n_chips": 4, field: bad})

    def test_unit_modulus(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            seq = weyl_sequence(WeylParams(rng.random(), rng.random(), int(rng.integers(1, 200))))
            assert np.max(np.abs(np.abs(seq.chips) - 1.0)) < 1e-12


class TestFZC:
    def test_classic_triple_matches_formula(self):
        # triple (2, 1, -inf) with m_k = 1, N = 3: (-1)^n exp(j pi n / 3)
        seq = fzc_family_sequence(FZCParams(m_k=1.0, p=2.0, q=1.0, r=None, n_chips=3))
        expected = [(-1) ** n * cmath.exp(1j * cmath.pi * n / 3) for n in (1, 2, 3)]
        np.testing.assert_allclose(seq.chips, expected, atol=1e-14)

    def test_weyl_embedding(self):
        # triple (1, 1, -inf) with m_k = rho * 2N/(N+1) reproduces the Weyl code
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = rng.random()
            n = int(rng.integers(2, 128))
            m = rho * 2.0 * n / (n + 1)
            fzc = fzc_family_sequence(FZCParams(m_k=m, p=1.0, q=1.0, r=None, n_chips=n))
            weyl = weyl_sequence(WeylParams(rho=rho, delta=0.0, n_chips=n))
            assert np.max(np.abs(fzc.chips - weyl.chips)) < 1e-10

    def test_zero_index_all_ones(self):
        for p, q in ((2.0, 1.0), (1.0, 1.0), (3.0, 2.0)):
            seq = fzc_family_sequence(FZCParams(m_k=0.0, p=p, q=q, r=None, n_chips=5))
            np.testing.assert_allclose(seq.chips, np.ones(5), atol=1e-14)

    def test_minus_inf_r_normalized_to_none(self):
        params = FZCParams(m_k=1.0, p=2.0, q=1.0, r=float("-inf"), n_chips=4)
        assert params.r is None

    def test_finite_r_term_matches_direct_evaluation(self):
        m, p, q, r, n = 3.0, 1.0, 1.0, 1.275, 7
        seq = fzc_family_sequence(FZCParams(m_k=m, p=p, q=q, r=r, n_chips=n))
        for idx in range(n):
            nn = idx + 1
            expected = cmath.exp(1j * math.pi * (nn * m + (m**p * nn**q + nn**r) / n))
            assert abs(seq.chips[idx] - expected) < 1e-13

    def test_rejects_non_finite_index(self):
        with pytest.raises(ValueError):
            FZCParams(m_k=float("nan"), p=2.0, q=1.0, r=None, n_chips=4)
        with pytest.raises(ValueError):
            FZCParams(m_k=float("inf"), p=2.0, q=1.0, r=None, n_chips=4)
        good = dict(m_k=1.0, p=2.0, q=1.0, r=None, n_chips=4)
        for field in ("m_k", "p", "q"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    FZCParams(**{**good, field: bad})
        for bad in ("2", True):  # a string is never parsed, nor a bool taken as 1
            with pytest.raises(ValueError, match="r must be finite"):
                FZCParams(**{**good, "r": bad})
        assert FZCParams(**{**good, "r": np.float32("-inf")}).r is None


class TestOptimalWeyl:
    def test_zero_slot_zero_gamma_all_ones(self):
        seq = optimal_weyl_sequence(OptimalWeylParams(gamma=0.0, sigma_k=0, k_max=6, n_chips=5))
        np.testing.assert_allclose(seq.chips, np.ones(5), atol=1e-14)

    def test_sarwate_configuration(self):
        # gamma = 0, k_max = N: chip n of slot q is exp(2 pi j n q / N)
        n, q = 8, 3
        seq = optimal_weyl_sequence(OptimalWeylParams(gamma=0.0, sigma_k=q, k_max=n, n_chips=n))
        expected = np.exp(2j * np.pi * np.arange(1, n + 1) * q / n)
        np.testing.assert_allclose(seq.chips, expected, atol=1e-13)

    def test_equals_weyl_with_combined_increment(self):
        gamma, sigma, k_max, n = 1.0 / 62.0, 3, 31, 31
        rho = gamma + sigma / k_max  # 1/62 + 3/31, already in [0, 1)
        opt = optimal_weyl_sequence(OptimalWeylParams(gamma, sigma, k_max, n))
        ref = weyl_sequence(WeylParams(rho=rho, delta=0.0, n_chips=n))
        np.testing.assert_allclose(opt.chips, ref.chips, atol=1e-13)

    def test_tiny_negative_gamma_wraps_to_zero(self):
        # (-1e-17 + 0/4) % 1.0 rounds to 1.0, which WeylParams would reject as rho
        seq = optimal_weyl_sequence(OptimalWeylParams(gamma=-1e-17, sigma_k=0, k_max=4, n_chips=8))
        ref = optimal_weyl_sequence(OptimalWeylParams(gamma=0.0, sigma_k=0, k_max=4, n_chips=8))
        np.testing.assert_array_equal(seq.chips, ref.chips)

    def test_rejects_slot_at_or_beyond_k_max(self):
        with pytest.raises(ValueError):
            OptimalWeylParams(gamma=0.0, sigma_k=4, k_max=4, n_chips=8)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            OptimalWeylParams(gamma=gamma, sigma_k=0, k_max=4, n_chips=8)


class TestOptimalWeylPool:
    @pytest.mark.parametrize("n", [30, 31, 32])
    def test_rows_are_the_slot_codes_bit_for_bit_on_preset_pools(self, n):
        # the presets' slot pools: N = 30..32, k_max = K in 2..32 (fig4's 14 among them),
        # gamma 0, 1/2N and 1/2K (fig2 and fig4: K = 7)
        for k_max in range(2, 33):
            for gamma in (0.0, 1 / (2 * n), 1 / (2 * k_max), 1 / 14):
                pool = optimal_weyl_pool(gamma, k_max, n)
                assert pool.dtype == np.complex128 and pool.shape == (k_max, n)
                for s in range(k_max):
                    code = optimal_weyl_sequence(OptimalWeylParams(gamma, s, k_max, n)).chips
                    np.testing.assert_array_equal(pool[s].view(np.uint64), code.view(np.uint64))

    def test_tiny_negative_gamma_wraps_to_zero(self):
        np.testing.assert_array_equal(optimal_weyl_pool(-1e-17, 4, 8), optimal_weyl_pool(0.0, 4, 8))

    @pytest.mark.parametrize("field, kwargs", [
        ("gamma", dict(gamma=math.nan)),
        ("gamma", dict(gamma="0.1")),
        ("k_max", dict(k_max=0)),
        ("k_max", dict(k_max=4.0)),
        ("n_chips", dict(n_chips=0)),
    ])
    def test_rejects_what_the_params_reject(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            optimal_weyl_pool(**{**dict(gamma=0.0, k_max=4, n_chips=8), **kwargs})


class TestVanDerCorput:
    def test_listed_prefix(self):
        listed = [0, 1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8, 1 / 16]
        assert [van_der_corput(i) for i in range(1, 10)] == listed

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            van_der_corput(0)

    def test_assignment_k4_n16(self):
        np.testing.assert_array_equal(vdc_assignment(4, 16), [0, 8, 4, 12])

    def test_assignment_full_prefix_is_permutation(self):
        # sorted first N values are exactly 0..N-1 for N = 2**m
        for n in (4, 8, 16, 32):
            sigma = vdc_assignment(n, n)
            np.testing.assert_array_equal(np.sort(sigma), np.arange(n))

    def test_single_user(self):
        np.testing.assert_array_equal(vdc_assignment(1, 16), [0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            vdc_assignment(4, 12)
        with pytest.raises(ValueError):
            vdc_assignment(2, 2)

    def test_rejects_too_many_users(self):
        with pytest.raises(ValueError):
            vdc_assignment(17, 16)


class TestGold:
    def test_msequences_match_brute_force_oracle(self):
        for taps in ((5, 2), (5, 4, 3, 2)):
            member = gold_code(0 if taps == (5, 2) else 1)
            oracle = brute_force_msequence(taps, 5)
            expected = np.array([1.0 - 2.0 * b for b in oracle])
            np.testing.assert_allclose(member.chips.real, expected, atol=0)

    def test_msequence_autocorrelation_is_minus_one(self):
        for index in (0, 1):
            chips = gold_code(index).chips.real
            for lag in range(1, 31):
                assert int(np.sum(chips * np.roll(chips, lag))) == -1

    def test_msequence_balance(self):
        # maximal-length property: one extra -1 chip, so the sum is exactly -1
        for index in (0, 1):
            assert int(np.sum(gold_code(index).chips.real)) == -1

    def test_member_sums_take_three_valued_set(self):
        # XOR members sum to the pair crosscorrelation, so sums land in
        # {-1, -9, 7} (t(5) = 9); only the constituent m-sequences are
        # balanced to -1.
        sums = {int(np.sum(g.chips.real)) for g in gold_family()}
        assert sums == {-1, -9, 7}

    def test_pairwise_crosscorrelation_three_valued(self):
        fam = [g.chips.real.astype(int) for g in gold_family()]
        values = set()
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                for lag in range(31):
                    values.add(int(np.sum(fam[a] * np.roll(fam[b], lag))))
        assert values <= {-1, -9, 7}

    def test_family_size(self):
        assert (GOLD_N_CHIPS, GOLD_FAMILY_SIZE) == (31, 33)
        assert len(gold_family()) == 33
        assert {len(g) for g in gold_family()} == {31}

    def test_rejects_index_outside_family(self):
        with pytest.raises(ValueError):
            gold_code(33)
        with pytest.raises(ValueError):
            gold_code(-1)

    def test_chips_are_unit_modulus(self):
        for g in gold_family():
            assert np.max(np.abs(np.abs(g.chips) - 1.0)) < 1e-12


class TestChipSequence:
    def test_rejects_non_unit_modulus(self):
        with pytest.raises(ValueError):
            ChipSequence(np.array([1.0 + 0j, 0.5 + 0j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)],
                             ids=["nan", "inf", "nan-imag"])
    def test_rejects_non_finite_chips(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ChipSequence(np.array([bad, 1.0], dtype=complex))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChipSequence(np.array([], dtype=complex))

    def test_len(self):
        assert len(weyl_sequence(WeylParams(0.25, 0.0, 9))) == 9


@pytest.mark.parametrize("make, good, field, outside", [
    (lambda **kw: weyl_sequence(WeylParams(**kw)), dict(rho=0.1, delta=0.0, n_chips=2), "n_chips", 0),
    (lambda **kw: fzc_family_sequence(FZCParams(**kw)),
     dict(m_k=1.0, p=2.0, q=1.0, r=None, n_chips=8), "n_chips", 0),
    *[(lambda **kw: optimal_weyl_sequence(OptimalWeylParams(**kw)),
       dict(gamma=0.1, sigma_k=1, k_max=4, n_chips=8), field, outside)
      for field, outside in (("sigma_k", 4), ("sigma_k", -1), ("k_max", 0), ("n_chips", 0))],
    (gold_code, dict(code_index=2), "code_index", 33),
    (gold_code, dict(code_index=7), "code_index", -1),
    (van_der_corput, dict(index=6), "index", 0),
    (vdc_assignment, dict(n_users=3, n_chips=8), "n_users", 9),
    (vdc_assignment, dict(n_users=3, n_chips=8), "n_chips", 2),
])
def test_counts_and_indices_must_be_integers_in_range(make, good, field, outside):
    # a float is never truncated: n_chips=2.5 must not give a 3-chip code, sigma_k=1.5
    # a code off the slot grid, nor code_index=2.5 a Gold code; nor is a bool a count:
    # n_chips=True must not give a 1-chip code, nor gold_code(True) code 1
    for bad in (good[field] + 0.5, float(good[field]), outside, True):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make(**{**good, field: bad})
    ref, res = make(**good), make(**{**good, field: np.int64(good[field])})
    np.testing.assert_array_equal(getattr(res, "chips", res), getattr(ref, "chips", ref))
    assert getattr(res, "family_tag", None) == getattr(ref, "family_tag", None)


def test_assignment_policy_values():
    assert {p.value for p in AssignmentPolicy} == {"random", "fixed", "vdc", "sequential"}
