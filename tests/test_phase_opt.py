"""Phase-assignment optimization tests: objective census values, the
closed-form solution, multiplier construction, KKT certification, and the
sampling falsifier against its unpruned reference."""

import math

import numpy as np
import pytest

from weylcdma.correlation import circle_distance
from weylcdma.phase_opt import (
    LagrangeMultipliers,
    PhaseAssignment,
    SamplingReport,
    _lower_bound,
    _pair_sum,
    alpha_tilde,
    construct_multipliers,
    global_solution,
    kkt_residual,
    objective,
    stationarity_vector,
    verify_optimality_by_sampling,
)
from oracle import lower_bound


def reference_pair_sum(rhos):
    """The triu_indices + circle_distance pair sum, phases along the last axis: an oracle."""
    rhos = np.asarray(rhos, dtype=np.float64)
    i, j = np.triu_indices(rhos.shape[-1], 1)
    s = np.sin(np.pi * circle_distance(rhos[..., i], rhos[..., j]))
    with np.errstate(divide="ignore"):
        return np.sum(1.0 / s, axis=-1)


def pair_index(k):
    """Position of each pair (i, j), i < j, in the np.triu_indices(k, 1) order of per-pair vectors."""
    return {(int(i), int(j)): p for p, (i, j) in enumerate(zip(*np.triu_indices(k, 1)))}


def unpruned_report(k, samples, seed):
    """The falsifier with every sample scored exactly, chunk by chunk: a reference."""
    opt = objective(global_solution(k, 0.0)[0])
    rng = np.random.default_rng(seed)
    best = math.inf
    chunk = max(1, min(samples, 65_536 // k))
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        rho = np.sort(rng.random((m, k)), axis=1).T.copy()
        best = min(best, float(np.min(_pair_sum(rho))))
    return SamplingReport(k, samples, seed, opt, best, best - opt, bool(opt > best + 1e-12))


class TestCircleDistance:
    def test_wraparound(self):
        assert circle_distance(0.1, 0.9) == pytest.approx(0.2)

    def test_identity(self):
        assert circle_distance(0.37, 0.37) == 0.0

    def test_antipodal_maximum(self):
        assert circle_distance(0.0, 0.5) == 0.5

    def test_large_phases_reduced_before_the_difference(self):
        assert circle_distance(0.25, 2.0**60) == 0.25
        assert circle_distance(1e308, -1e308) == 0.0
        np.testing.assert_array_equal(circle_distance(np.array([0.25, 0.75]), 2.0**60), [0.25, 0.25])

    def test_sin_identity(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.random(), rng.random()) for _ in range(50)]
        for a, b in pairs:
            lhs = math.sin(math.pi * circle_distance(a, b))
            assert lhs == pytest.approx(abs(math.sin(math.pi * (a - b))), abs=1e-12)
        # elementwise on arrays, also off [0, 1): equal to the scalar calls
        a, b = np.array(pairs).T
        for x, y in ((a, b), (7.0 * a - 3.0, 5.0 * b)):
            assert circle_distance(x, y).tolist() == [
                circle_distance(float(u), float(v)) for u, v in zip(x, y)
            ]

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = rng.random(3)
            assert circle_distance(a, b) == circle_distance(b, a)
            assert circle_distance(a, b) <= circle_distance(a, c) + circle_distance(c, b) + 1e-12
            assert 0.0 <= circle_distance(a, b) <= 0.5


class TestObjective:
    def test_two_users_antipodal(self):
        assert objective(np.array([0.2, 0.7])) == pytest.approx(1.0, rel=1e-12)

    def test_three_users_equispaced(self):
        assert objective(np.array([0.0, 1 / 3, 2 / 3])) == pytest.approx(
            2.0 * math.sqrt(3.0), rel=1e-12
        )

    def test_four_users_equispaced(self):
        # pair census: four gaps at d = 1/4, two at d = 1/2
        expected = 4.0 * math.sqrt(2.0) + 2.0
        assert objective(np.array([0.0, 0.25, 0.5, 0.75])) == pytest.approx(expected, rel=1e-12)

    def test_duplicate_phases_signal_infinity(self):
        assert objective(np.array([0.2, 0.2, 0.8])) == math.inf

    def test_phases_equal_mod_one_signal_infinity(self):
        for rhos in ([0.0, 1.0], [0.25, 1.25, 0.5], [-0.75, 0.25]):
            assert objective(np.array(rhos)) == math.inf

    def test_subnormal_distance_signals_infinity_without_warning(self):
        # 1 / sin(pi * 5e-324) overflows; any warning is an error under the test settings
        assert objective([0.0, 5e-324]) == math.inf
        assert objective([0.3, 5e-324, 0.0]) == math.inf

    def test_matches_reference_pair_sum(self):
        # the product identity's error is about 1e-16 / sin(pi d) of a term at distance d, so
        # rel 1e-12 holds while no pair is closer than about 1e-3; closer pairs get that bound
        rng = np.random.default_rng(11)
        for k in (2, 3, 7, 20):
            i, j = np.triu_indices(k, 1)
            for _ in range(50):
                raw = rng.random(k)
                # sorted, unsorted, and off [0, 1)
                for rhos in (np.sort(raw), raw, raw + rng.integers(-3, 4, size=k)):
                    d_min = np.min(circle_distance(rhos[i], rhos[j]))
                    rel = max(1e-12, 4e-15 / math.sin(math.pi * d_min))
                    assert objective(rhos) == pytest.approx(reference_pair_sum(rhos), rel=rel)

    def test_near_duplicate_pair_matches_reference(self):
        for base in (0.0, 0.3, 0.5, 0.999):
            rhos = np.array([base, base + 1e-6, base + 0.4])
            assert objective(rhos) == pytest.approx(reference_pair_sum(rhos), rel=1e-9)

    def test_rejects_nonfinite_and_non_numeric_phases(self):
        for bad in (
            [math.nan, 0.5],
            [0.1, math.inf],
            [-math.inf, 0.3],
            ["0.1", 0.5],  # never parsed
            [[0.1, 0.2], [0.3, 0.4]],
            0.5,
            [True, False],
            [10**400, 0.5],
        ):
            with pytest.raises(ValueError, match="phases"):
                objective(bad)
        assert objective(np.array([0.25, 0.75], dtype=np.float32)) == 1.0
        assert objective([1, 2, 0.5]) == math.inf  # equal mod 1

    def test_double_sum_counts_each_distance_twice(self):
        rng = np.random.default_rng(2)
        rhos = np.sort(rng.random(6))
        both = sum(
            1.0 / math.sin(math.pi * circle_distance(rhos[i], rhos[k]))
            for i in range(6)
            for k in range(6)
            if i != k
        )
        assert both == pytest.approx(2.0 * objective(rhos), rel=1e-12)


class TestGlobalSolution:
    def test_four_users_gamma_zero(self):
        assign, slack = global_solution(4, 0.0)
        np.testing.assert_allclose(assign.rhos, [0.0, 0.25, 0.5, 0.75])
        assert slack[pair_index(4)[0, 3]] == pytest.approx(0.25)  # min(3/4, 1/4)

    def test_two_users_offset(self):
        assign, _ = global_solution(2, 0.3)
        np.testing.assert_allclose(assign.rhos, [0.3, 0.8])

    def test_slack_equals_circle_distance(self):
        assign, slack = global_solution(7, 0.05)
        pair = pair_index(7)
        for i in range(7):
            for k in range(i + 1, 7):
                assert slack[pair[i, k]] == pytest.approx(
                    circle_distance(assign.rhos[i], assign.rhos[k]), abs=1e-12
                )

    def test_objective_gamma_invariant(self):
        for k in (2, 3, 5, 8):
            base = objective(global_solution(k, 0.0)[0])
            for gamma in (0.11, 1 / (2 * k), 0.73, 5.2):
                assert objective(global_solution(k, gamma)[0]) == pytest.approx(
                    base, rel=1e-12
                )

    def test_phases_stay_sorted_for_any_gamma(self):
        for gamma in (0.0, 0.49, 0.97, 3.14):
            assign, _ = global_solution(5, gamma)
            assert np.all(np.diff(assign.rhos) > 0)
            assert np.all((assign.rhos >= 0) & (assign.rhos < 1))

    def test_rejects_single_user(self):
        with pytest.raises(ValueError):
            global_solution(1, 0.0)

    def test_rejects_non_integer_counts(self):
        for call, field in (
            (lambda: global_solution(3.7, 0.0), "n_users"),
            (lambda: global_solution(3.0, 0.0), "n_users"),
            (lambda: global_solution(1, 0.0), "n_users"),
            (lambda: alpha_tilde(1, 4.5), "n_users"),
            (lambda: alpha_tilde(1, 4.0), "n_users"),
            (lambda: alpha_tilde(1.5, 4), "m"),
            (lambda: alpha_tilde(1.0, 4), "m"),
            (lambda: alpha_tilde(4, 4), "m"),
            (lambda: construct_multipliers(2.5, global_solution(3, 0.0)), "n_users"),
            (lambda: construct_multipliers(3.0, global_solution(3, 0.0)), "n_users"),
            (lambda: construct_multipliers(0, global_solution(3, 0.0)), "n_users"),
            (lambda: construct_multipliers(5, global_solution(7, 0.0)), "n_users"),
            (lambda: construct_multipliers(9, global_solution(7, 0.0)), "n_users"),
            (lambda: verify_optimality_by_sampling(3.7, 10, 0), "n_users"),
            (lambda: verify_optimality_by_sampling(3.0, 10, 0), "n_users"),
            (lambda: verify_optimality_by_sampling(1, 10, 0), "n_users"),
            (lambda: verify_optimality_by_sampling(3, 2.5, 0), "samples"),
            (lambda: verify_optimality_by_sampling(3, 10.0, 0), "samples"),
            (lambda: verify_optimality_by_sampling(3, 0, 0), "samples"),
            (lambda: verify_optimality_by_sampling(3, 10, 1.5), "seed"),
            (lambda: verify_optimality_by_sampling(3, 10, 1.0), "seed"),
            (lambda: verify_optimality_by_sampling(3, 10, -1), "seed"),
            (lambda: verify_optimality_by_sampling(3, "10", 0), "samples"),
        ):
            with pytest.raises(ValueError, match=field):
                call()
        # numpy integers pass, with the same results
        ref = verify_optimality_by_sampling(5, 100, 3)
        assert verify_optimality_by_sampling(np.int64(5), np.int32(100), np.uint8(3)) == ref
        assert alpha_tilde(np.int64(2), np.int64(5)) == alpha_tilde(2, 5)
        np.testing.assert_array_equal(global_solution(np.int64(4), 0.1)[1], global_solution(4, 0.1)[1])
        sol = global_solution(4, 0.1)
        ref, res = construct_multipliers(4, sol), construct_multipliers(np.int64(4), sol)
        np.testing.assert_array_equal(res.lam, ref.lam)
        np.testing.assert_array_equal(res.mu, ref.mu)

    def test_rejects_nonfinite_phases_and_gamma(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            PhaseAssignment([math.nan, 0.5])
        for rhos in ([], [[0.1, 0.2]]):
            with pytest.raises(ValueError, match="non-empty 1-D vector"):
                PhaseAssignment(rhos)
        with pytest.raises(ValueError, match="nondecreasing"):
            PhaseAssignment([0.5, 0.2])
        for gamma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="gamma"):
                global_solution(3, gamma)


class TestMultipliers:
    def test_odd_case_k3(self):
        sol = global_solution(3, 0.0)
        mult = construct_multipliers(3, sol)
        pair = pair_index(3)
        a1 = alpha_tilde(1, 3)
        assert mult.lam[pair[0, 1]] == pytest.approx(a1)
        assert mult.mu[pair[0, 2]] == pytest.approx(alpha_tilde(2, 3))
        assert alpha_tilde(2, 3) == pytest.approx(a1)  # symmetric gap
        assert mult.lam[pair[0, 2]] == 0.0
        assert mult.mu[pair[0, 1]] == 0.0

    def test_even_case_splits_antipodal_gap(self):
        sol = global_solution(4, 0.0)
        mult = construct_multipliers(4, sol)
        a2 = alpha_tilde(2, 4)
        p = pair_index(4)[0, 2]
        assert mult.lam[p] == pytest.approx(a2 / 2.0)
        assert mult.mu[p] == pytest.approx(a2 / 2.0)

    def test_alpha_symmetry(self):
        for k in (3, 4, 7, 10):
            for m in range(1, k):
                assert alpha_tilde(m, k) == pytest.approx(alpha_tilde(k - m, k), rel=1e-12)

    def test_nonnegative(self):
        for k in range(2, 26):
            mult = construct_multipliers(k, global_solution(k, 0.0))
            assert np.all(mult.lam >= 0) and np.all(mult.mu >= 0)

    def test_active_set_structure(self):
        for k in (5, 6):
            assign, slack = global_solution(k, 0.0)
            mult = construct_multipliers(k, (assign, slack))
            pair = pair_index(k)
            for i in range(k):
                for j in range(i + 1, k):
                    gap, p = j - i, pair[i, j]
                    a = alpha_tilde(gap, k)
                    lam_mu = (mult.lam[p], mult.mu[p])
                    c_val = slack[p] + assign.rhos[i] - assign.rhos[j]
                    d_val = slack[p] - 1.0 - assign.rhos[i] + assign.rhos[j]
                    if gap < k / 2:
                        assert abs(c_val) < 1e-12 and d_val < -1e-9
                        assert lam_mu == (a, 0.0)
                    elif gap > k / 2:
                        assert abs(d_val) < 1e-12 and c_val < -1e-9
                        assert lam_mu == (0.0, a)
                    else:
                        assert abs(c_val) < 1e-12 and abs(d_val) < 1e-12
                        assert lam_mu == (a / 2.0, a / 2.0)


class TestKKT:
    def test_residual_small_for_all_k(self):
        for k in range(2, 41):
            for gamma in (0.0, 0.3, 1 / (2 * k)):
                sol = global_solution(k, gamma)
                mult = construct_multipliers(k, sol)
                assert kkt_residual(sol, mult) < 1e-9

    @pytest.mark.parametrize("k", [128, 512, 1024])
    def test_residual_scaled_by_largest_multiplier_certifies_large_k(self, k):
        # the absolute residual grows with K (about 2e-9 at K = 1,024); scaled by the
        # largest multiplier, about K^2 / pi, one threshold holds at every K
        for gamma in (0.0, 0.37):
            sol = global_solution(k, gamma)
            mult = construct_multipliers(k, sol)
            scale = max(mult.lam.max(), mult.mu.max())
            assert kkt_residual(sol, mult) / scale < 1e-13

    def test_two_user_system_cancels_exactly(self):
        sol = global_solution(2, 0.0)
        mult = construct_multipliers(2, sol)
        assert np.max(np.abs(stationarity_vector(sol, mult))) == 0.0

    def test_stationarity_blocks_vanish_independently(self):
        for k in (5, 8):
            sol = global_solution(k, 0.0)
            mult = construct_multipliers(k, sol)
            vec = stationarity_vector(sol, mult)
            assert np.max(np.abs(vec[:k])) < 1e-10       # phase block
            assert np.max(np.abs(vec[k:])) < 1e-10       # slack block
            # per-pair loop reference for the phase block (summation order differs)
            ref = np.zeros(k)
            for (i, j), p in pair_index(k).items():
                ref[i] += mult.lam[p] - mult.mu[p]
                ref[j] += mult.mu[p] - mult.lam[p]
            np.testing.assert_allclose(vec[:k], ref, rtol=0, atol=1e-12)

    def test_pair_vectors_must_hold_one_entry_per_pair(self):
        # a shorter vector would broadcast against the 21 pairs of K = 7 without a word
        assign, t = global_solution(7, 0.0)
        mult = construct_multipliers(7, (assign, t))
        for short in (global_solution(2, 0.0)[1], t[:-1], 0.5):
            with pytest.raises(ValueError, match="one entry per pair"):
                construct_multipliers(7, (assign, short))
            for sol, mults in (
                ((assign, short), mult),
                ((assign, t), LagrangeMultipliers(lam=short, mu=mult.mu)),
                ((assign, t), LagrangeMultipliers(lam=mult.lam, mu=short)),
            ):
                with pytest.raises(ValueError, match="one entry per pair"):
                    kkt_residual(sol, mults)
                with pytest.raises(ValueError, match="one entry per pair"):
                    stationarity_vector(sol, mults)

    def test_perturbed_solution_breaks_certificate(self):
        sol = global_solution(6, 0.0)
        mult = construct_multipliers(6, sol)
        rhos = sol[0].rhos.copy()
        rhos[1] += 0.01
        perturbed = (PhaseAssignment(rhos=rhos), sol[1])
        assert kkt_residual(perturbed, mult) > 1e-4


class TestSampling:
    def test_three_users_never_beaten(self):
        report = verify_optimality_by_sampling(3, 10_000, seed=123)
        assert not report.optimum_beaten
        assert report.best_sampled_objective >= 2.0 * math.sqrt(3.0) - 1e-12
        assert report.optimal_objective == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)

    def test_two_users_never_beaten(self):
        report = verify_optimality_by_sampling(2, 5_000, seed=5)
        assert not report.optimum_beaten
        assert report.best_sampled_objective >= 1.0 - 1e-12

    def test_deterministic_given_seed(self):
        a = verify_optimality_by_sampling(4, 2_000, seed=9)
        b = verify_optimality_by_sampling(4, 2_000, seed=9)
        assert a == b
        # one sample is the objective of the first sorted draw: one shared pair sum
        for k in (2, 5, 13):
            first = np.sort(np.random.default_rng(9).random(k))
            assert verify_optimality_by_sampling(k, 1, seed=9).best_sampled_objective == objective(first)

    def test_best_matches_reference_minimum_over_same_draws(self):
        for k in range(2, 21):
            draws = np.sort(np.random.default_rng(k).random((2_000, k)), axis=1)  # one chunk
            best = verify_optimality_by_sampling(k, 2_000, seed=k).best_sampled_objective
            assert best == float(np.min(_pair_sum(draws.T.copy())))
            assert best == pytest.approx(np.min(reference_pair_sum(draws)), rel=1e-12)

    @pytest.mark.parametrize("k", range(2, 27))
    def test_report_equals_unpruned_reference(self, k):
        # bound and prune changes no bit of the report: chunk edges, single-sample
        # chunks and K < 4 included
        chunk = 65_536 // k
        for seed in range(6):
            for samples in sorted({1, 2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 10_000}):
                report = verify_optimality_by_sampling(k, samples, seed)
                assert report == unpruned_report(k, samples, seed), (k, seed, samples)

    @pytest.mark.parametrize("k", [4, 7, 20, 64])
    def test_lower_bound_equals_its_array_expression_oracle(self, k):
        # written in place, the bound keeps every bit of the one-temporary-per-step form
        for seed in range(3):
            rho = np.sort(np.random.default_rng(seed).random((65_536 // k, k)), axis=1).T.copy()
            assert _lower_bound(rho).tobytes() == lower_bound(rho).tobytes()

    def test_near_duplicate_samples_stay_above_optimum(self):
        # duplicates give infinite objectives and cannot undercut the optimum
        report = verify_optimality_by_sampling(5, 20_000, seed=77)
        assert report.shortfall >= -1e-12
