"""Simulator tests: the scalar interference/decision oracle against the
vectorized engine, determinism, interference bounds, variance bridges,
and sweep behavior."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from weylcdma import correlation, sim
from weylcdma.correlation import cross_bound, periodic_theta
from weylcdma.sequences import OptimalWeylParams, optimal_weyl_sequence
from weylcdma.sim import (
    TC,
    SimConfig,
    TrialDraw,
    build_pool,
    collect_decision_noise,
    family_capacity,
    run_ber,
    sweep,
    wilson_interval,
)
from weylcdma.snr import LinkBudget, expected_weyl_snr

from oracle import decision_statistic, interference, simulate_trials


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


# 2500 trials span three 1024-trial blocks, the last one partial
MULTI_BLOCK = SimConfig(n_users=31, n_chips=31, ebn0_db=8.0, trials=2500, seed=5,
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

    def test_rejects_out_of_range_indices(self):
        # a negative index would wrap to the last user and slip past the i == k guard
        seqs = slot_family(0.0, 8, [0, 3, 5])
        draw = make_draw([0.0, 1.5, 2.5], [0.0, 0.4, 0.8], [1, 1, -1], [1, -1, 1], [0, 3, 5])
        budget = LinkBudget.from_db(10.0, 8, 3)
        for i, k, field in ((2, -1, "k"), (0, 1.5, "k"), (3, 0, "i"), (-1, 2, "i")):
            with pytest.raises(ValueError, match=f"{field} must be an integer in \\[0, 2\\]"):
                interference(i, k, draw, seqs)
        for i in (-1, 3, 1.0):
            with pytest.raises(ValueError, match="i must be an integer in \\[0, 2\\]"):
                decision_statistic(i, draw, seqs, budget, 0.0)

    def test_rejects_out_of_range_delay(self):
        seqs = slot_family(0.0, 8, [0, 3])
        draw = make_draw([0.0, 8.0 * TC], [0.0, 0.0], [1, 1], [1, 1], [0, 3])
        with pytest.raises(ValueError):
            interference(0, 1, draw, seqs)

    def test_oracle_does_not_use_the_engine_tables(self, monkeypatch):
        # the oracle reads aperiodic_c lag by lag, so a fault in the engine's tables
        # cannot reach the values it checks them against
        seqs = slot_family(1 / 32, 16, [1, 6, 12])
        draw = make_draw([0.0, 3.7, 11.2], [0.0, 0.4, 2.9], [1, -1, 1], [1, 1, -1], [1, 6, 12])
        budget = LinkBudget.from_db(10.0, 16, 3)
        expected = [decision_statistic(i, draw, seqs, budget, 0.3) for i in range(3)]

        def engine_table(*args):
            raise AssertionError("engine table called")

        for module, name in ((correlation, "aperiodic_table"), (correlation, "theta_pairs"),
                             (sim, "aperiodic_table"), (sim, "theta_pairs"), (sim, "_pair_table")):
            monkeypatch.setattr(module, name, engine_table)
        assert [decision_statistic(i, draw, seqs, budget, 0.3) for i in range(3)] == expected
        with pytest.raises(AssertionError, match="engine table"):  # the engine does use them
            run_ber(SimConfig(n_users=3, n_chips=16, ebn0_db=10.0, trials=10, seed=0))


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


def assert_engine_matches_scalar_path(cfg):
    """Every decision statistic of simulate_trials equals the scalar decision_statistic."""
    draws, noise, zs = simulate_trials(cfg)
    pool = build_pool(cfg)
    budget = LinkBudget.from_db(cfg.ebn0_db, cfg.n_chips, cfg.n_users)
    for t in range(cfg.trials):
        draw = trial_row(draws, t)
        seqs = [pool[m] for m in draw.sigma]
        for i in range(cfg.n_users):
            z = decision_statistic(i, draw, seqs, budget, float(noise[t, i]))
            assert z == pytest.approx(float(zs[t, i]), abs=1e-12)


class TestEngineConsistency:
    def test_vectorized_matches_scalar_path(self):
        assert_engine_matches_scalar_path(SimConfig(
            n_users=5,
            n_chips=16,
            ebn0_db=18.0,
            trials=12,
            seed=99,
            family="weyl",
            policy="random",
            gamma=1 / 32,
            k_max=16,
        ))

    @pytest.mark.parametrize("overrides", [
        dict(family="optimal", gamma=1 / 62),
        dict(family="weyl", gamma=1 / 12, k_max=6, policy="fixed"),
    ], ids=["optimal", "weyl-kmax-k"])
    def test_every_slot_occupied_matches_scalar_path(self, overrides):
        # pool size = K: the per-slot contraction, read at each user's slot
        cfg = SimConfig(n_users=6, n_chips=31, ebn0_db=18.0, trials=12, seed=98, **overrides)
        assert sim._family_pool(cfg)[0] == cfg.n_users
        assert_engine_matches_scalar_path(cfg)

    def test_gold_and_fzc_pools(self):
        for kind, n in (("gold", 31), ("fzc", 31)):
            assert_engine_matches_scalar_path(SimConfig(n_users=4, n_chips=n, ebn0_db=20.0,
                                                        trials=6, seed=3, family=kind))

    @pytest.mark.parametrize("family", ["weyl", "gold", "optimal", "fzc"])
    def test_single_user_statistic_is_bits_plus_noise(self, family):
        # K = 1 has no interferer: the table's self rows are zero, so Z is exactly b + std * g
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
        draws, _, zs = simulate_trials(MULTI_BLOCK)
        assert zs.shape == draws.sigma.shape == (2500, 31)
        sigma, z_err = collect_decision_noise(MULTI_BLOCK)
        np.testing.assert_array_equal(sigma, draws.sigma)
        np.testing.assert_array_equal(z_err, zs - draws.bits_cur)
        errors = int(np.sum(zs * draws.bits_cur < 0.0))
        assert run_ber(MULTI_BLOCK).error_count == errors


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
                        family="weyl", k_max=8, policy="fixed")
        draws, _, _ = simulate_trials(cfg)
        assert np.all(draws.sigma == draws.sigma[0])

    def test_fixed_policy_pinned_counts(self):
        # the per-user error counts and slots the random policy gave with one
        # draw per run, before "fixed" became a policy of its own
        cfg = SimConfig(n_users=9, n_chips=31, ebn0_db=6.0, trials=5000, seed=77,
                        family="weyl", policy="fixed", gamma=1 / 62, k_max=31)
        res = run_ber(cfg)
        np.testing.assert_array_equal(res.per_user_ber,
                                      np.array([25, 46, 19, 16, 44, 16, 16, 19, 24]) / cfg.trials)
        assert res.error_count == 225
        draws, _, _ = simulate_trials(dataclasses.replace(cfg, trials=3))
        np.testing.assert_array_equal(draws.sigma, [[17, 24, 27, 0, 23, 7, 12, 10, 16]] * 3)

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
            runs.append((run_ber(MULTI_BLOCK), *collect_decision_noise(MULTI_BLOCK)))
        (ber_1, sigma_1, err_1), (ber_2, sigma_2, err_2) = runs
        assert ber_1.error_count == ber_2.error_count > 0
        np.testing.assert_array_equal(ber_1.per_user_ber, ber_2.per_user_ber)
        np.testing.assert_array_equal(sigma_1, sigma_2)
        np.testing.assert_array_equal(err_1, err_2)

    def test_default_is_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("WEYLCDMA_THREADS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert sim._thread_count() == len(os.sched_getaffinity(0))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
            assert sim._thread_count() == 3
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)  # where affinity cannot be read
        assert sim._thread_count() == 6

    @pytest.mark.parametrize("raw", ["0", "-1", "two"])
    def test_bad_thread_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("WEYLCDMA_THREADS", raw)
        cfg = SimConfig(n_users=2, n_chips=8, ebn0_db=10.0, trials=10, seed=0)
        with pytest.raises(ValueError, match="WEYLCDMA_THREADS"):
            run_ber(cfg)


@pytest.fixture(params=["1", "2"], ids=["1-thread", "2-threads"])
def engine_layout(request, monkeypatch):
    """Thread count of the engine's block pool."""
    monkeypatch.setenv("WEYLCDMA_THREADS", request.param)


# 2100 trials: three blocks, the last one partial
PREFIX_BASE = SimConfig(n_users=1, n_chips=16, ebn0_db=6.0, trials=2100, seed=23,
                        gamma=1 / 32, k_max=16)
# the users sweep of fig3's weyl curve: the widest users pass
USERS_BASE = SimConfig(n_users=2, n_chips=32, ebn0_db=25.0, trials=1024, seed=3,
                       gamma=1 / 64, k_max=32)
# the users sweep of fig1's optimal curve: one slot pool per K, every slot occupied
OPTIMAL_USERS = SimConfig(n_users=2, n_chips=31, ebn0_db=25.0, trials=1024, seed=3,
                          family="optimal", gamma=1 / 62)


def prefix_mai(cfg, widths):
    """The (trials, W, K) MAI of a pass over several widths; it reduces tile by tile,
    and a list result concatenates the tiles."""
    [tiles] = sim._map_blocks(cfg, lambda draw, g, mai: [mai], [widths])
    return np.concatenate(tiles)


class TestBlockLayout:
    @pytest.mark.parametrize("overrides", [
        dict(policy="random"),
        dict(policy="fixed"),
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
        # one pass over three blocks serves five slot pools, each at its own K
        *((SimConfig(n_users=2, n_chips=31, ebn0_db=6.0, trials=2500, seed=35, family="optimal",
                     gamma=1 / 62, policy=policy), [2, 5, 9, 17, 31])
          for policy in ("random", "fixed", "sequential")),
    ], ids=["weyl", "gold", "fzc", "optimal", "optimal-pools-random", "optimal-pools-fixed",
            "optimal-pools-sequential"])
    def test_users_axis_matches_run_ber(self, engine_layout, cfg, values):
        points = assert_sweep_matches_run_ber(cfg, "users", values)
        assert all(point.error_count > 0 for point in points)

    @pytest.mark.parametrize("cfg", [
        SimConfig(n_users=33, n_chips=31, ebn0_db=6.0, trials=3000, seed=41, family="gold"),
        SimConfig(n_users=30, n_chips=31, ebn0_db=6.0, trials=3000, seed=42, family="fzc"),
        SimConfig(n_users=31, n_chips=31, ebn0_db=6.0, trials=3000, seed=43, gamma=1 / 62,
                  k_max=31),
        SimConfig(n_users=31, n_chips=31, ebn0_db=6.0, trials=3000, seed=44, family="optimal",
                  gamma=1 / 62),
    ], ids=["gold", "fzc", "weyl", "optimal"])
    def test_one_width_contraction_matches_prefix_sums(self, engine_layout, cfg):
        # a pass reading only K sums all interferers at once; one reading several K
        # takes prefix sums over interferers: the same MAI up to float rounding
        k = cfg.n_users
        [blocks] = sim._map_blocks(cfg, lambda draw, g, mai: [mai])
        one = np.concatenate(blocks)
        prefix = prefix_mai(cfg, (1, 2, k))
        assert one.shape == (cfg.trials, 1, k) and prefix.shape == (cfg.trials, 3, k)
        np.testing.assert_allclose(one[:, 0], prefix[:, 2], rtol=0.0, atol=1e-13)

    def test_one_call_per_block(self, engine_layout, monkeypatch):
        blocks = []
        simulate_block = sim._simulate_block
        monkeypatch.setattr(sim, "_simulate_block",
                            lambda *args: blocks.append(args[-1]) or simulate_block(*args))
        for trials in (1, 1024, 1025, 2100):
            blocks.clear()
            sweep(dataclasses.replace(PREFIX_BASE, trials=trials), "users", [2, 5])  # one pass
            assert sorted(blocks) == list(range(math.ceil(trials / 1024)))

    def test_one_pass_per_draw_stream(self, engine_layout, monkeypatch):
        # the 30 pools of an optimal users sweep share one pass, each pool building its
        # table once per block; a one-pool pass builds its table once
        blocks, tables = [], []
        simulate_block, aperiodic_table = sim._simulate_block, sim.aperiodic_table
        monkeypatch.setattr(sim, "_simulate_block",
                            lambda *args: blocks.append(args[-1]) or simulate_block(*args))
        monkeypatch.setattr(sim, "aperiodic_table",
                            lambda pool: tables.append(len(pool)) or aperiodic_table(pool))
        sweep(dataclasses.replace(OPTIMAL_USERS, trials=2500), "users", range(2, 32))
        assert sorted(blocks) == [0, 1, 2]
        assert sorted(tables) == sorted(list(range(2, 32)) * 3)
        blocks.clear()
        tables.clear()
        sweep(dataclasses.replace(OPTIMAL_USERS, n_users=7, trials=20 * 1024), "ebn0",
              [0.0, 10.0, 25.0])
        assert sorted(blocks) == list(range(20))
        assert tables == [7]

    def test_pass_adds_block_results_as_they_arrive(self, monkeypatch):
        # 64 blocks of 1 MiB results each: the pass holds their running sum, not all 64
        monkeypatch.setenv("WEYLCDMA_THREADS", "1")
        monkeypatch.setattr(sim, "_simulate_block", lambda *args: [np.ones(2**17)])
        cfg = dataclasses.replace(PREFIX_BASE, trials=64 * sim._BLOCK)
        tracemalloc.start()
        try:
            totals = sim._map_blocks(cfg, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        [total] = totals
        np.testing.assert_array_equal(total, np.full(2**17, 64.0))

    def test_peak_memory_does_not_grow_with_trials(self, monkeypatch):
        monkeypatch.setenv("WEYLCDMA_THREADS", "1")
        peaks = []
        for trials in (1024, 20 * 1024):
            tracemalloc.start()
            try:
                run_ber(dataclasses.replace(PREFIX_BASE, n_users=7, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_users_pass_peak_memory_does_not_grow_with_trials(self, monkeypatch):
        # a users pass reduces tile by tile; 19 more blocks may keep one small
        # reduced result each, not one per tile
        monkeypatch.setenv("WEYLCDMA_THREADS", "1")
        for base, users in ((USERS_BASE, range(2, 33)), (OPTIMAL_USERS, range(2, 32))):
            peaks = []
            for trials in (1024, 20 * 1024):
                tracemalloc.start()
                try:
                    sweep(dataclasses.replace(base, trials=trials), "users", users)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= peaks[0] + 2**20, base.family

    def test_peak_memory_is_bounded_in_users(self, monkeypatch):
        # a (1024, K, K, 4) gather at K = 31 alone is 31 MB, and (1024, K, K) prefix
        # sums 8 MB; tiles hold at most sim._TILE_PAIRS pair rows, and a users pass
        # takes its prefix sums and reduces tile by tile
        monkeypatch.setenv("WEYLCDMA_THREADS", "1")
        for run in (
            lambda: run_ber(SimConfig(n_users=31, n_chips=31, ebn0_db=25.0, trials=1024, seed=3,
                                      family="optimal", gamma=1 / 62)),
            lambda: sweep(USERS_BASE, "users", range(2, 33)),
            lambda: sweep(OPTIMAL_USERS, "users", range(2, 32)),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2**20

    def test_tile_split_does_not_change_results(self, engine_layout, monkeypatch):
        # K = 16 against one tile per block: 1-trial tiles, 32-trial tiles (the last
        # block's 52 trials split 32 + 20) and the default; the summation order may
        # change in the last bit, the counts not
        cfg = dataclasses.replace(PREFIX_BASE, n_users=16)
        users = (2, 9, 16)

        def run():
            [blocks] = sim._map_blocks(cfg, lambda draw, g, mai: [mai[:, 0]])
            mai = np.concatenate(blocks)
            prefix = prefix_mai(cfg, users)
            return run_ber(cfg), sweep(cfg, "users", users), mai, prefix

        default = sim._TILE_PAIRS
        monkeypatch.setattr(sim, "_TILE_PAIRS", sim._BLOCK * 16 * 16)
        ber, rows, mai, prefix = run()
        assert ber.error_count > 0
        for tile_pairs in (1, 32 * 16 * 16, default):
            monkeypatch.setattr(sim, "_TILE_PAIRS", tile_pairs)
            tiled_ber, tiled_rows, tiled_mai, tiled_prefix = run()
            np.testing.assert_array_equal(tiled_ber.per_user_ber, ber.per_user_ber)
            assert tiled_rows == rows
            np.testing.assert_allclose(tiled_mai, mai, rtol=0.0, atol=1e-13)
            assert tiled_prefix.shape == prefix.shape == (cfg.trials, len(users), 16)
            np.testing.assert_allclose(tiled_prefix, prefix, rtol=0.0, atol=1e-13)


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
                  policy="fixed"),
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
        assert_sweep_matches_run_ber(MULTI_BLOCK, "ebn0", [2.0, 8.0, 8.0])

    def test_bad_ebn0_value_fails_before_simulating(self, monkeypatch):
        calls = []
        simulate_block = sim._simulate_block
        monkeypatch.setattr(sim, "_simulate_block",
                            lambda *args: calls.append(args) or simulate_block(*args))
        cfg = SimConfig(n_users=3, n_chips=16, ebn0_db=10.0, trials=50, seed=0, k_max=16)
        for values in ([0.0, math.nan], [0.0, 4000.0], [0.0, "10"], [0.0, True]):
            with pytest.raises(ValueError, match="ebn0_db"):
                sweep(cfg, "ebn0", values)
        assert sweep(cfg, "ebn0", []) == []
        assert calls == []
        sweep(cfg, "ebn0", [0.0])
        assert len(calls) == 1  # the counter does see a real pass

    def test_bad_users_value_fails_before_simulating(self, monkeypatch):
        calls = []
        simulate_block = sim._simulate_block
        monkeypatch.setattr(sim, "_simulate_block",
                            lambda *args: calls.append(args) or simulate_block(*args))
        cfg = SimConfig(n_users=2, n_chips=31, ebn0_db=25.0, trials=20000, seed=1, k_max=31)
        with pytest.raises(ValueError, match="n_users=40 exceeds the weyl family capacity 31"):
            sweep(cfg, "users", [2, 8, 40])
        for bad in ("3", True):  # never parsed as K = 3, nor counted as K = 1
            with pytest.raises(ValueError, match="users axis value"):
                sweep(cfg, "users", [2, bad])
        assert calls == []

    def test_rejects_unknown_axis(self):
        cfg = SimConfig(n_users=2, n_chips=16, ebn0_db=10.0, trials=10, seed=0,
                        family="weyl", k_max=16)
        with pytest.raises(ValueError):
            sweep(cfg, "chips", [8, 16])


POOL_BASE = SimConfig(n_users=2, n_chips=16, ebn0_db=10.0, trials=10, seed=0)


@pytest.mark.parametrize("overrides, capacity, kmax", [
    (dict(k_max=9), 9, 9),
    (dict(k_max=16), 16, 16),
    (dict(), 16, 16),
    (dict(family="optimal", n_users=5, n_chips=31), 5, 5),
    (dict(family="optimal", n_users=5, n_chips=31, k_max=12), 12, 12),
    (dict(family="fzc"), 8, 0),  # phi(16)
    (dict(family="fzc", n_chips=31), 30, 0),
    (dict(family="gold", n_chips=31), 33, 0),
], ids=["weyl-kmax9", "weyl-kmax16", "weyl", "optimal", "optimal-kmax12", "fzc16", "fzc31",
        "gold"])
def test_capacity_pool_and_kmax_column_agree(overrides, capacity, kmax):
    cfg = dataclasses.replace(POOL_BASE, **overrides)
    assert family_capacity(cfg) == len(build_pool(cfg)) == capacity
    assert [row.kmax for row in sweep(cfg, "users", [cfg.n_users])] == [kmax]


@pytest.mark.parametrize("overrides", [
    dict(k_max=9),
    dict(family="optimal", n_users=5, n_chips=31),
    dict(family="fzc"),
    dict(family="gold", n_chips=31),
], ids=["weyl-kmax9", "optimal", "fzc16", "gold"])
def test_build_pool_is_one_complex_array(overrides):
    cfg = dataclasses.replace(POOL_BASE, **overrides)
    pool = build_pool(cfg)
    assert type(pool) is np.ndarray and pool.dtype == np.complex128
    assert pool.shape == (family_capacity(cfg), cfg.n_chips)


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
            with pytest.raises(ValueError, match="gamma must be finite"):
                run_ber(SimConfig(**dict(good, gamma=gamma)))
            with pytest.raises(ValueError, match="gamma must be finite"):
                sweep(SimConfig(**dict(good, gamma=gamma)), "users", [2, 3])
        for field, value in (("n_users", 2.5), ("n_users", 2.0), ("n_chips", 16.5),
                             ("n_chips", 16.0), ("trials", 10.5), ("trials", 10.0), ("seed", 1.5),
                             ("seed", 0.0), ("seed", -1), ("k_max", 16.5), ("k_max", 16.0),
                             ("k_max", "16"), ("k_max", 0), ("k_max", -3),
                             ("n_users", True), ("trials", True), ("seed", True),
                             ("gamma", True), ("gamma", np.True_), ("ebn0_db", True),
                             ("ebn0_db", np.False_), ("ebn0_db", "10"), ("ebn0_db", None),
                             ("gamma", "0.1"), ("ebn0_db", 10**400), ("gamma", 10**400)):
            with pytest.raises(ValueError, match=field):
                run_ber(SimConfig(**dict(good, **{field: value})))
        with pytest.raises(ValueError, match="k_max"):
            run_ber(SimConfig(**dict(good, family="optimal", k_max=-3)))
        # a config with a bad field never reaches family_capacity to get a meaningless size
        for family, field, value in (("weyl", "k_max", 0), ("weyl", "k_max", 2.5),
                                     ("weyl", "k_max", -3), ("optimal", "n_users", 2.5),
                                     ("optimal", "k_max", 0), ("weyl", "trials", 0)):
            with pytest.raises(ValueError, match=field):
                family_capacity(SimConfig(**{**good, "family": family, "k_max": None,
                                             field: value}))
        noisy = dict(good, ebn0_db=-3.0, trials=200)
        ints = {f: np.int64(noisy[f]) for f in ("n_users", "n_chips", "trials", "seed", "k_max")}
        ref, res = run_ber(SimConfig(**noisy)), run_ber(SimConfig(**dict(noisy, **ints)))
        assert ref.error_count > 0  # numpy integers pass, with the same counts
        np.testing.assert_array_equal(res.per_user_ber, ref.per_user_ber)
        assert res.wilson_95_interval == ref.wilson_95_interval

    def test_config_checks_itself_when_made(self):
        good = dict(n_users=2, n_chips=16, ebn0_db=10.0, trials=10, seed=0, k_max=16)
        for field, value in (("n_users", 2.5), ("n_chips", 1), ("trials", 0), ("seed", -1),
                             ("k_max", 0), ("gamma", math.nan), ("ebn0_db", 4000.0),
                             ("policy", "roundrobin"), ("policy", "per-trial"),
                             ("family", "walsh")):
            with pytest.raises(ValueError, match=f"(?i){field}"):  # AssignmentPolicy for policy
                SimConfig(**dict(good, **{field: value}))
        for bad, match in ((dict(family="gold", k_max=None), "n_chips = 31"),
                           (dict(family="fzc", k_max=5), "k_max applies"),
                           (dict(policy="vdc", k_max=8), "vdc policy applies"),
                           (dict(policy="vdc", family="optimal", k_max=None), "vdc policy"),
                           (dict(policy="vdc", n_chips=31, k_max=31), "power of two")):
            with pytest.raises(ValueError, match=match):
                SimConfig(**dict(good, **bad))
        # a user count beyond the pool's capacity is left to the calls that use the pool
        over = SimConfig(**dict(good, n_users=5, k_max=4))
        assert family_capacity(over) == 4
        for call in (run_ber, build_pool, lambda cfg: sweep(cfg, "users", [2, 5])):
            with pytest.raises(ValueError, match="n_users=5 exceeds the weyl family capacity 4"):
                call(over)

    def test_k_max_rejected_for_kinds_without_slots(self):
        for family in ("gold", "fzc"):
            for call in (run_ber, family_capacity, build_pool):
                with pytest.raises(ValueError, match=f"k_max applies .* not {family}"):
                    call(SimConfig(n_users=7, n_chips=31, ebn0_db=10.0, trials=10, seed=0,
                                   family=family, k_max=5))

    def test_gold_requires_mersenne_length(self):
        cfg = SimConfig(n_users=2, n_chips=31, ebn0_db=10.0, trials=10, seed=0, family="gold")
        assert family_capacity(cfg) == 33
        # 7, 63 and 127 are 2**m - 1, but the one built-in Gold family has degree 5
        for n in (7, 30, 63, 127):
            with pytest.raises(ValueError, match="gold family has n_chips = 31"):
                family_capacity(dataclasses.replace(cfg, n_chips=n))
            with pytest.raises(ValueError, match="gold family has n_chips = 31"):
                run_ber(dataclasses.replace(cfg, n_chips=n))

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

    def test_counts_must_be_integers_with_errors_at_most_n(self):
        for field, errors, n in (("errors", 2.5, 10), ("errors", 2.0, 10), ("n", 2, 10.5),
                                 ("n", 2, 10.0), ("errors", -1, 10), ("errors", 11, 10),
                                 ("n", 0, -5)):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                wilson_interval(errors, n)
        assert wilson_interval(np.int64(3), np.int64(40)) == wilson_interval(3, 40)
