"""Phase-assignment optimization tests: objective census values, the
closed-form solution, multiplier construction, and KKT certification."""

import math

import numpy as np
import pytest

from weylcdma.phase_opt import (
    PhaseAssignment,
    alpha_tilde,
    circle_distance,
    construct_multipliers,
    global_solution,
    kkt_residual,
    objective,
    stationarity_vector,
    verify_optimality_by_sampling,
)


class TestCircleDistance:
    def test_wraparound(self):
        assert circle_distance(0.1, 0.9) == pytest.approx(0.2)

    def test_identity(self):
        assert circle_distance(0.37, 0.37) == 0.0

    def test_antipodal_maximum(self):
        assert circle_distance(0.0, 0.5) == 0.5

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
        assert slack[0, 3] == pytest.approx(0.25)  # min(3/4, 1/4)

    def test_two_users_offset(self):
        assign, _ = global_solution(2, 0.3)
        np.testing.assert_allclose(assign.rhos, [0.3, 0.8])

    def test_slack_equals_circle_distance(self):
        assign, slack = global_solution(7, 0.05)
        for i in range(7):
            for k in range(i + 1, 7):
                assert slack[i, k] == pytest.approx(
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

    def test_rejects_nonfinite_phases_and_gamma(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            PhaseAssignment([math.nan, 0.5])
        for gamma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="gamma"):
                global_solution(3, gamma)


class TestMultipliers:
    def test_odd_case_k3(self):
        sol = global_solution(3, 0.0)
        mult = construct_multipliers(3, sol)
        a1 = alpha_tilde(1, 3)
        assert mult.lam[0, 1] == pytest.approx(a1)
        assert mult.mu[0, 2] == pytest.approx(alpha_tilde(2, 3))
        assert alpha_tilde(2, 3) == pytest.approx(a1)  # symmetric gap
        assert mult.lam[0, 2] == 0.0
        assert mult.mu[0, 1] == 0.0

    def test_even_case_splits_antipodal_gap(self):
        sol = global_solution(4, 0.0)
        mult = construct_multipliers(4, sol)
        a2 = alpha_tilde(2, 4)
        assert mult.lam[0, 2] == pytest.approx(a2 / 2.0)
        assert mult.mu[0, 2] == pytest.approx(a2 / 2.0)

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
            for i in range(k):
                for j in range(i + 1, k):
                    gap = j - i
                    a = alpha_tilde(gap, k)
                    lam_mu = (mult.lam[i, j], mult.mu[i, j])
                    c_val = slack[i, j] + assign.rhos[i] - assign.rhos[j]
                    d_val = slack[i, j] - 1.0 - assign.rhos[i] + assign.rhos[j]
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
            for i in range(k):
                for j in range(i + 1, k):
                    ref[i] += mult.lam[i, j] - mult.mu[i, j]
                    ref[j] += mult.mu[i, j] - mult.lam[i, j]
            np.testing.assert_allclose(vec[:k], ref, rtol=0, atol=1e-12)

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

    def test_near_duplicate_samples_stay_above_optimum(self):
        # duplicates give infinite objectives and cannot undercut the optimum
        report = verify_optimality_by_sampling(5, 20_000, seed=77)
        assert report.shortfall >= -1e-12
