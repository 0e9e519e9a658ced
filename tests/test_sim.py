"""Simulator tests: the scalar interference/decision ops against the
vectorized engine, determinism, interference bounds, variance bridges,
and sweep behavior."""

import dataclasses
import math

import numpy as np
import pytest

from weylcdma import sim
from weylcdma.correlation import cross_bound, periodic_theta
from weylcdma.sequences import OptimalWeylParams, optimal_weyl_sequence
from weylcdma.sim import (
    TC,
    SimConfig,
    TrialDraw,
    build_pool,
    collect_decision_noise,
    decision_statistic,
    family_capacity,
    interference,
    run_ber,
    simulate_trials,
    sweep,
    wilson_interval,
)
from weylcdma.snr import LinkBudget, expected_weyl_snr


def make_draw(tau, phi, bits_prev, bits_cur, sigma):
    return TrialDraw(
        tau=np.asarray(tau, dtype=float),
        phi=np.asarray(phi, dtype=float),
        bits_prev=np.asarray(bits_prev, dtype=float),
        bits_cur=np.asarray(bits_cur, dtype=float),
        sigma=np.asarray(sigma, dtype=np.int64),
    )


def trial_row(draws, t):
    """One trial's (K,) draw out of the engine's (T, K) arrays."""
    return TrialDraw(**{name: value[t] for name, value in vars(draws).items()})


# K = 31 gives one-block (1024-trial) chunks, so 2500 trials span three chunks
MULTI_CHUNK = SimConfig(n_users=31, n_chips=31, ebn0_db=8.0, trials=2500, seed=5,
                        family="weyl", gamma=1 / 62, k_max=31)


def assert_sweep_matches_run_ber(cfg, axis, values):
    """sweep rows and _ber_points equal a separate run_ber per value, bit for bit."""
    field = "n_users" if axis == "users" else "ebn0_db"
    configs = [dataclasses.replace(cfg, **{field: v}) for v in values]
    points = sim._ber_points(configs)
    rows = sweep(cfg, axis, values)
    assert len(points) == len(rows) == len(values)
    for v, config, point, row in zip(values, configs, points, rows):
        ref = run_ber(config)
        assert point.error_count == ref.error_count
        np.testing.assert_array_equal(point.per_user_ber, ref.per_user_ber)
        assert point.wilson_95_interval == ref.wilson_95_interval
        assert (row.axis_value, row.mean_ber, row.wilson_lo, row.wilson_hi, row.bits) == (
            v, ref.mean_ber, ref.wilson_lo, ref.wilson_hi, ref.bit_count
        )
    return points


def slot_family(gamma, n, slots):
    return [optimal_weyl_sequence(OptimalWeylParams(gamma, s, n, n)) for s in slots]


class TestInterference:
    def test_rejects_self_interference(self):
        seqs = slot_family(0.0, 8, [0, 3])
        draw = make_draw([0.0, 1.5], [0.0, 0.0], [1, 1], [1, 1], [0, 3])
        with pytest.raises(ValueError):
            interference(1, 1, draw, seqs)

    def test_chip_aligned_delay_weights(self):
        # tau = l * Tc zeroes the (l, l-N) pair and gives the (l+1, l+1-N)
        # pair full weight Tc
        from weylcdma.correlation import aperiodic_c

        n = 8
        seqs = slot_family(0.07, n, [1, 5])
        for l in range(n):
            draw = make_draw([0.0, l * TC], [0.0, 0.9], [1, -1], [1, 1], [1, 5])
            got = interference(0, 1, draw, seqs)
            x, y = seqs[0].chips, seqs[1].chips
            expected = np.exp(0.9j) * TC * (
                -aperiodic_c(x, y, l + 1) + aperiodic_c(x, y, l + 1 - n)
            )
            assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_crosscorrelation_family_chip_aligned_equal_bits(self):
        # slot family with gamma = 0: theta = 0, so aligned delays with
        # repeated symbols produce no interference at all
        n = 31
        seqs = slot_family(0.0, n, [2, 9])
        for l in (0, 3, 17, 30):
            draw = make_draw([0.0, l * TC], [0.0, 1.3], [1, 1], [1, 1], [2, 9])
            assert abs(interference(0, 1, draw, seqs)) < 1e-9
            assert abs(periodic_theta(seqs[0], seqs[1], l)) < 1e-9

    def test_bounded_by_two_tc_over_sin(self):
        rng = np.random.default_rng(0)
        n = 16
        rho_a = 0.0 + 1 / 32 + 3 / 16  # slots 3 and 11 with gamma = 1/32
        rho_b = 1 / 32 + 11 / 16
        seqs = slot_family(1 / 32, n, [3, 11])
        cap = 2.0 * TC * cross_bound(rho_a, rho_b)
        for _ in range(10_000):
            draw = make_draw(
                [0.0, rng.random() * n * TC],
                [0.0, rng.random() * 2 * np.pi],
                [1, rng.choice([-1, 1])],
                [1, rng.choice([-1, 1])],
                [3, 11],
            )
            assert abs(interference(0, 1, draw, seqs)) <= cap + 1e-9

    def test_whole_noise_bound(self):
        # aggregate interference stays below the double-sum bound
        rng = np.random.default_rng(1)
        n, slots = 16, [1, 6, 12]
        gamma = 1 / 32
        seqs = slot_family(gamma, n, slots)
        rhos = [(gamma + s / n) % 1.0 for s in slots]
        cap = sum(
            2.0 * TC * cross_bound(rhos[i], rhos[k])
            for i in range(3)
            for k in range(3)
            if i != k
        )
        for _ in range(200):
            draw = make_draw(
                rng.random(3) * n * TC,
                rng.random(3) * 2 * np.pi,
                rng.choice([-1, 1], 3),
                rng.choice([-1, 1], 3),
                slots,
            )
            total = sum(
                interference(i, k, draw, seqs)
                for i in range(3)
                for k in range(3)
                if i != k
            )
            assert abs(total) <= cap + 1e-9

    def test_rejects_out_of_range_delay(self):
        seqs = slot_family(0.0, 8, [0, 3])
        draw = make_draw([0.0, 8.0 * TC], [0.0, 0.0], [1, 1], [1, 1], [0, 3])
        with pytest.raises(ValueError):
            interference(0, 1, draw, seqs)


class TestDecisionStatistic:
    def test_single_user_no_noise(self):
        seqs = slot_family(0.1, 8, [2])
        draw = make_draw([0.0], [0.0], [1], [-1], [2])
        budget = LinkBudget.from_db(10.0, 8, 1)
        assert decision_statistic(0, draw, seqs, budget, 0.0) == -1.0

    def test_noise_scaling(self):
        seqs = slot_family(0.1, 8, [2])
        draw = make_draw([0.0], [0.0], [1], [1], [2])
        budget = LinkBudget.from_db(6.0, 8, 1)
        z = decision_statistic(0, draw, seqs, budget, 2.0)
        assert z == pytest.approx(1.0 + 2.0 * math.sqrt(budget.noise_term), rel=1e-12)

    def test_single_user_noise_variance(self):
        # engine draws: Var(Z - b) must equal N0/2E within 3 standard errors
        cfg = SimConfig(n_users=1, n_chips=8, ebn0_db=6.0, trials=200_000, seed=3)
        _, z_err = collect_decision_noise(cfg)
        target = LinkBudget.from_db(6.0, 8, 1).noise_term
        sample_var = float(np.var(z_err, ddof=1))
        se = target * math.sqrt(2.0 / (z_err.size - 1))
        assert abs(sample_var - target) < 3.0 * se


class TestEngineConsistency:
    def test_vectorized_matches_scalar_path(self):
        cfg = SimConfig(
            n_users=5,
            n_chips=16,
            ebn0_db=18.0,
            trials=12,
            seed=99,
            family="weyl",
            policy="random",
            gamma=1 / 32,
            k_max=16,
        )
        draws, noise, zs = simulate_trials(cfg)
        pool = build_pool(cfg)
        budget = LinkBudget.from_db(cfg.ebn0_db, cfg.n_chips, cfg.n_users)
        for t in range(cfg.trials):
            draw = trial_row(draws, t)
            seqs = [pool[m] for m in draw.sigma]
            for i in range(cfg.n_users):
                z = decision_statistic(i, draw, seqs, budget, float(noise[t, i]))
                assert z == pytest.approx(float(zs[t, i]), abs=1e-12)

    def test_gold_and_fzc_pools(self):
        for kind, n in (("gold", 31), ("fzc", 31)):
            cfg = SimConfig(n_users=4, n_chips=n, ebn0_db=20.0, trials=6, seed=3,
                            family=kind)
            draws, noise, zs = simulate_trials(cfg)
            pool = build_pool(cfg)
            budget = LinkBudget.from_db(20.0, n, 4)
            for t in range(cfg.trials):
                draw = trial_row(draws, t)
                seqs = [pool[m] for m in draw.sigma]
                for i in range(cfg.n_users):
                    z = decision_statistic(i, draw, seqs, budget, float(noise[t, i]))
                    assert z == pytest.approx(float(zs[t, i]), abs=1e-12)

    @pytest.mark.parametrize("family", ["weyl", "gold", "optimal"])
    def test_single_user_statistic_is_bits_plus_noise(self, family):
        # K = 1 has no interferer: Z is exactly b + std * g, with zero MAI
        cfg = SimConfig(n_users=1, n_chips=31, ebn0_db=3.0, trials=2100, seed=17, family=family)
        draws, noise, zs = simulate_trials(cfg)
        std = math.sqrt(LinkBudget.from_db(3.0, 31, 1).noise_term)
        np.testing.assert_array_equal(zs, draws.bits_cur + std * noise)

    def test_distinct_sigma_within_each_trial(self):
        cfg = SimConfig(n_users=6, n_chips=8, ebn0_db=15.0, trials=300, seed=8,
                        family="weyl", k_max=8)
        draws, _, _ = simulate_trials(cfg)
        for row in draws.sigma:
            assert len(set(row.tolist())) == 6

    def test_collectors_agree_across_chunks(self):
        draws, _, zs = simulate_trials(MULTI_CHUNK)
        assert zs.shape == draws.sigma.shape == (2500, 31)
        sigma, z_err = collect_decision_noise(MULTI_CHUNK)
        np.testing.assert_array_equal(sigma, draws.sigma)
        np.testing.assert_array_equal(z_err, zs - draws.bits_cur)
        errors = int(np.sum(zs * draws.bits_cur < 0.0))
        assert run_ber(MULTI_CHUNK).error_count == errors


class TestRunBer:
    def test_deterministic(self):
        cfg = SimConfig(n_users=4, n_chips=16, ebn0_db=12.0, trials=4000, seed=21,
                        family="weyl", gamma=1 / 32, k_max=16)
        a, b = run_ber(cfg), run_ber(cfg)
        assert a.mean_ber == b.mean_ber
        assert a.error_count == b.error_count
        np.testing.assert_array_equal(a.per_user_ber, b.per_user_ber)
        assert a.wilson_95_interval == b.wilson_95_interval

    def test_noise_free_single_user_is_error_free(self):
        cfg = SimConfig(n_users=1, n_chips=16, ebn0_db=math.inf, trials=2000, seed=2)
        res = run_ber(cfg)
        assert res.mean_ber == 0.0 and res.error_count == 0

    def test_single_user_matches_q_function(self):
        ebn0_db = 4.0
        cfg = SimConfig(n_users=1, n_chips=31, ebn0_db=ebn0_db, trials=200_000, seed=5)
        res = run_ber(cfg)
        q = 0.5 * math.erfc(math.sqrt(2.0 * 10.0 ** (ebn0_db / 10.0)) / math.sqrt(2.0))
        width = res.wilson_hi - res.wilson_lo
        assert abs(res.mean_ber - q) < 3.0 * width

    def test_mean_matches_double_average(self):
        cfg = SimConfig(n_users=3, n_chips=16, ebn0_db=8.0, trials=500, seed=33,
                        family="weyl", k_max=16)
        res = run_ber(cfg)
        assert res.mean_ber == pytest.approx(float(np.mean(res.per_user_ber)), rel=1e-12)
        assert res.bit_count == 3 * 500

    def test_fixed_sigma_mode_reuses_one_assignment(self):
        cfg = SimConfig(n_users=3, n_chips=8, ebn0_db=10.0, trials=50, seed=4,
                        family="weyl", k_max=8, redraw_sigma=False)
        draws, _, _ = simulate_trials(cfg)
        assert np.all(draws.sigma == draws.sigma[0])

    def test_sequential_policy(self):
        cfg = SimConfig(n_users=4, n_chips=16, ebn0_db=10.0, trials=10, seed=4,
                        family="optimal", policy="sequential")
        draws, _, _ = simulate_trials(cfg)
        np.testing.assert_array_equal(draws.sigma[0], [0, 1, 2, 3])

    def test_vdc_policy_uses_radical_inverse_slots(self):
        cfg = SimConfig(n_users=4, n_chips=16, ebn0_db=10.0, trials=10, seed=4,
                        family="weyl", policy="vdc")
        draws, _, _ = simulate_trials(cfg)
        np.testing.assert_array_equal(draws.sigma[0], [0, 8, 4, 12])


class TestThreads:
    def test_results_identical_across_thread_counts(self, monkeypatch):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("WEYLCDMA_THREADS", threads)
            runs.append((run_ber(MULTI_CHUNK), *collect_decision_noise(MULTI_CHUNK)))
        (ber_1, sigma_1, err_1), (ber_2, sigma_2, err_2) = runs
        assert ber_1.error_count == ber_2.error_count > 0
        np.testing.assert_array_equal(ber_1.per_user_ber, ber_2.per_user_ber)
        np.testing.assert_array_equal(sigma_1, sigma_2)
        np.testing.assert_array_equal(err_1, err_2)

    @pytest.mark.parametrize("raw", ["0", "-1", "two"])
    def test_bad_thread_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("WEYLCDMA_THREADS", raw)
        cfg = SimConfig(n_users=2, n_chips=8, ebn0_db=10.0, trials=10, seed=0)
        with pytest.raises(ValueError, match="WEYLCDMA_THREADS"):
            run_ber(cfg)


@pytest.fixture(params=[("1", None), ("2", None), ("1", 100_000), ("2", 100_000)],
                ids=["1-thread", "2-threads", "1-thread-small-chunks", "2-threads-small-chunks"])
def engine_layout(request, monkeypatch):
    """Thread count and chunk budget; a budget of 100,000 gives chunks of one or two blocks."""
    threads, budget = request.param
    monkeypatch.setenv("WEYLCDMA_THREADS", threads)
    if budget is not None:
        monkeypatch.setattr(sim, "_CHUNK_BUDGET", budget)


# 2100 trials: three blocks, the last one partial
PREFIX_BASE = SimConfig(n_users=1, n_chips=16, ebn0_db=6.0, trials=2100, seed=23,
                        gamma=1 / 32, k_max=16)


class TestBlockLayout:
    @pytest.mark.parametrize("overrides", [
        dict(policy="random"),
        dict(policy="random", redraw_sigma=False),
        dict(policy="sequential"),
        dict(policy="vdc"),
    ], ids=["random", "fixed-sigma", "sequential", "vdc"])
    def test_draws_are_column_prefixes(self, engine_layout, overrides):
        wide_draw, wide_noise, _ = simulate_trials(
            dataclasses.replace(PREFIX_BASE, n_users=11, **overrides))
        for k in (1, 4, 10):
            draw, noise, _ = simulate_trials(dataclasses.replace(PREFIX_BASE, n_users=k, **overrides))
            for name, value in vars(draw).items():
                np.testing.assert_array_equal(value, getattr(wide_draw, name)[:, :k], err_msg=name)
            np.testing.assert_array_equal(noise, wide_noise[:, :k])

    @pytest.mark.parametrize("cfg, values", [
        (SimConfig(n_users=2, n_chips=31, ebn0_db=6.0, trials=1500, seed=31, gamma=1 / 62,
                   k_max=31), [1, 2, 7, 31, 7]),
        (SimConfig(n_users=2, n_chips=31, ebn0_db=6.0, trials=1500, seed=32, family="gold"),
         [33, 2, 10]),
        (SimConfig(n_users=2, n_chips=31, ebn0_db=6.0, trials=1500, seed=33, family="fzc"),
         [3, 30, 1]),
        (SimConfig(n_users=2, n_chips=16, ebn0_db=6.0, trials=1500, seed=34, family="optimal",
                   gamma=1 / 32), [2, 5, 16]),
    ], ids=["weyl", "gold", "fzc", "optimal"])
    def test_users_axis_matches_run_ber(self, engine_layout, cfg, values):
        points = assert_sweep_matches_run_ber(cfg, "users", values)
        assert all(point.error_count > 0 for point in points)

    def test_results_identical_across_chunk_sizes(self, monkeypatch):
        cfg = dataclasses.replace(PREFIX_BASE, n_users=7)
        runs = []
        for budget in (sim._CHUNK_BUDGET, 1):  # one chunk, then one chunk per block
            monkeypatch.setattr(sim, "_CHUNK_BUDGET", budget)
            runs.append((run_ber(cfg), *simulate_trials(cfg)))
        (ber_a, draw_a, noise_a, z_a), (ber_b, draw_b, noise_b, z_b) = runs
        assert ber_a.error_count == ber_b.error_count > 0
        assert ber_a.wilson_95_interval == ber_b.wilson_95_interval
        np.testing.assert_array_equal(ber_a.per_user_ber, ber_b.per_user_ber)
        for name, value in vars(draw_a).items():
            np.testing.assert_array_equal(value, getattr(draw_b, name), err_msg=name)
        np.testing.assert_array_equal(noise_a, noise_b)
        np.testing.assert_array_equal(z_a, z_b)


class TestVarianceBridge:
    def test_full_slot_family_variance(self):
        # K = N: per-slot Var(Z - b) approaches the analytic interference
        # variance plus the noise floor; checked at a 3-sigma statistical
        # tolerance with a modest trial count.
        n = k = 8
        gamma = 1.0 / 16.0
        cfg = SimConfig(n_users=k, n_chips=n, ebn0_db=25.0, trials=60_000, seed=12,
                        family="weyl", policy="random", gamma=gamma, k_max=n)
        sigma, z_err = collect_decision_noise(cfg)
        budget = LinkBudget.from_db(25.0, n, k)
        for slot in range(n):
            samples = z_err[sigma == slot]
            target = expected_weyl_snr(slot, gamma, k, n, budget) ** -2
            sample_var = float(np.var(samples, ddof=1))
            se = target * math.sqrt(2.0 / (samples.size - 1))
            assert abs(sample_var - target) < 3.5 * se


class TestGammaInvariance:
    def test_optimal_assignment_ber_matches_across_gamma(self):
        n, k = 16, 5
        results = []
        for gamma, seed in ((1.0 / (2 * n), 61), (1.0 / (2 * k), 62)):
            cfg = SimConfig(n_users=k, n_chips=n, ebn0_db=8.0, trials=30_000, seed=seed,
                            family="optimal", policy="sequential",
                            gamma=gamma)
            results.append(run_ber(cfg))
        hw = sum((r.wilson_hi - r.wilson_lo) / 2.0 for r in results)
        assert abs(results[0].mean_ber - results[1].mean_ber) <= hw


class TestSweep:
    def test_users_axis_trend(self):
        cfg = SimConfig(n_users=2, n_chips=16, ebn0_db=25.0, trials=30_000, seed=10,
                        family="weyl", gamma=1 / 32, k_max=16)
        rows = sweep(cfg, "users", [2, 8, 14])
        # interference grows with K; allow interval slack at each step
        for lo_row, hi_row in zip(rows, rows[1:]):
            assert hi_row.mean_ber >= lo_row.mean_ber - (
                hi_row.wilson_hi - hi_row.wilson_lo
            )

    def test_ebn0_axis_trend(self):
        cfg = SimConfig(n_users=3, n_chips=16, ebn0_db=0.0, trials=20_000, seed=11,
                        family="weyl", gamma=1 / 32, k_max=16)
        rows = sweep(cfg, "ebn0", [0.0, 6.0, 12.0])
        for hi_row, lo_row in zip(rows, rows[1:]):
            assert lo_row.mean_ber <= hi_row.mean_ber + (
                hi_row.wilson_hi - hi_row.wilson_lo
            )

    def test_vdc_not_worse_than_random(self):
        n = 16
        rows = {}
        for policy, seed in (("random", 1), ("vdc", 2)):
            cfg = SimConfig(n_users=8, n_chips=n, ebn0_db=25.0, trials=40_000, seed=seed,
                            family="weyl", policy=policy,
                            gamma=1.0 / (2 * n), k_max=n)
            rows[policy] = run_ber(cfg)
        hw = sum((rows[p].wilson_hi - rows[p].wilson_lo) / 2.0 for p in rows)
        assert rows["vdc"].mean_ber <= rows["random"].mean_ber + hw

    def test_rejects_fractional_users(self):
        cfg = SimConfig(n_users=2, n_chips=16, ebn0_db=10.0, trials=10, seed=0,
                        family="weyl", k_max=16)
        for values in ([2.5, 3.9], [2, 3.5], [math.inf]):
            with pytest.raises(ValueError, match="whole numbers"):
                sweep(cfg, "users", values)
        assert [r.axis_value for r in sweep(cfg, "users", [2.0, 3])] == [2.0, 3.0]

    # +inf is noise-free; the repeat must give the same counts twice
    EBN0_VALUES = [-3.0, 4.0, math.inf, 4.0, 10.0]

    @pytest.mark.parametrize("cfg", [
        SimConfig(n_users=5, n_chips=16, ebn0_db=0.0, trials=600, seed=3, gamma=1 / 32, k_max=16),
        SimConfig(n_users=5, n_chips=16, ebn0_db=0.0, trials=600, seed=3, gamma=1 / 32, k_max=16,
                  redraw_sigma=False),
        SimConfig(n_users=4, n_chips=16, ebn0_db=0.0, trials=600, seed=4, family="optimal",
                  policy="sequential"),
        SimConfig(n_users=9, n_chips=16, ebn0_db=0.0, trials=600, seed=5, policy="vdc", k_max=16),
        SimConfig(n_users=6, n_chips=31, ebn0_db=0.0, trials=600, seed=6, family="optimal",
                  gamma=1 / 12),
        SimConfig(n_users=1, n_chips=31, ebn0_db=0.0, trials=3000, seed=7),
    ], ids=["random", "fixed-sigma", "sequential", "vdc", "optimal", "single-user"])
    def test_ebn0_axis_matches_run_ber_per_value(self, cfg):
        assert_sweep_matches_run_ber(cfg, "ebn0", self.EBN0_VALUES)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ebn0_axis_matches_run_ber_across_chunks(self, monkeypatch, threads):
        monkeypatch.setenv("WEYLCDMA_THREADS", threads)
        assert_sweep_matches_run_ber(MULTI_CHUNK, "ebn0", [2.0, 8.0, 8.0])

    def test_bad_ebn0_value_fails_before_simulating(self, monkeypatch):
        calls = []
        simulate_chunk = sim._simulate_chunk
        monkeypatch.setattr(sim, "_simulate_chunk",
                            lambda *args: calls.append(args) or simulate_chunk(*args))
        cfg = SimConfig(n_users=3, n_chips=16, ebn0_db=10.0, trials=50, seed=0, k_max=16)
        for values in ([0.0, math.nan], [0.0, 4000.0]):
            with pytest.raises(ValueError, match="ebn0_db"):
                sweep(cfg, "ebn0", values)
        assert sweep(cfg, "ebn0", []) == []
        assert calls == []
        sweep(cfg, "ebn0", [0.0])
        assert len(calls) == 1  # the counter does see a real pass

    def test_bad_users_value_fails_before_simulating(self, monkeypatch):
        calls = []
        simulate_chunk = sim._simulate_chunk
        monkeypatch.setattr(sim, "_simulate_chunk",
                            lambda *args: calls.append(args) or simulate_chunk(*args))
        cfg = SimConfig(n_users=2, n_chips=31, ebn0_db=25.0, trials=20000, seed=1, k_max=31)
        with pytest.raises(ValueError, match="n_users=40 exceeds the weyl family capacity 31"):
            sweep(cfg, "users", [2, 8, 40])
        assert calls == []

    def test_rejects_unknown_axis(self):
        cfg = SimConfig(n_users=2, n_chips=16, ebn0_db=10.0, trials=10, seed=0,
                        family="weyl", k_max=16)
        with pytest.raises(ValueError):
            sweep(cfg, "chips", [8, 16])


class TestValidation:
    def test_config_field_errors(self):
        good = dict(n_users=2, n_chips=16, ebn0_db=10.0, trials=10, seed=0,
                    family="weyl", k_max=16)
        for bad in (
            dict(good, n_users=0),
            dict(good, n_chips=1),
            dict(good, trials=0),
            dict(good, seed=-1),
            dict(good, policy="roundrobin"),
            dict(good, k_max=1),  # fewer slots than users
            dict(good, ebn0_db=math.nan),
            dict(good, ebn0_db=-math.inf),
            dict(good, ebn0_db=4000.0),  # 10**400 overflows a float
            dict(good, ebn0_db=-4000.0),  # underflows to 0
            dict(good, family="walsh"),
        ):
            with pytest.raises(ValueError):
                run_ber(SimConfig(**bad))
        for gamma in (math.inf, -math.inf, math.nan):
            cfg = SimConfig(**dict(good, gamma=gamma))
            with pytest.raises(ValueError, match="gamma must be finite"):
                run_ber(cfg)
            with pytest.raises(ValueError, match="gamma must be finite"):
                sweep(cfg, "users", [2, 3])

    def test_gold_requires_mersenne_length(self):
        cfg = SimConfig(n_users=2, n_chips=30, ebn0_db=10.0, trials=10, seed=0,
                        family="gold")
        with pytest.raises(ValueError):
            run_ber(cfg)
        with pytest.raises(ValueError):  # 63 = 2**6 - 1, but no built-in degree-6 pair
            run_ber(dataclasses.replace(cfg, n_chips=63))

    def test_vdc_requires_power_of_two_and_full_pool(self):
        with pytest.raises(ValueError):
            run_ber(SimConfig(n_users=4, n_chips=31, ebn0_db=10.0, trials=10, seed=0,
                              family="weyl", policy="vdc"))
        with pytest.raises(ValueError):
            run_ber(SimConfig(n_users=4, n_chips=16, ebn0_db=10.0, trials=10, seed=0,
                              family="weyl", policy="vdc", k_max=8))

    def test_fzc_capacity(self):
        cfg = SimConfig(n_users=31, n_chips=31, ebn0_db=10.0, trials=10, seed=0,
                        family="fzc")
        assert family_capacity(cfg) == 30  # phi(31)
        with pytest.raises(ValueError):
            run_ber(cfg)


class TestWilson:
    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0.0 < hi < 0.005

    def test_contains_proportion(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_symmetric_edges(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0 and lo > 0.995

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
