"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts.  Criteria that need
large trial counts use the vectorized engine; seeds are frozen so every
run is deterministic.
"""

import math

import numpy as np

from weylcdma.correlation import aperiodic_c, aperiodic_table, cross_bound, r_ik
from weylcdma.phase_opt import (
    construct_multipliers,
    global_solution,
    kkt_residual,
    verify_optimality_by_sampling,
)
from weylcdma.sequences import OptimalWeylParams, WeylParams, optimal_weyl_sequence, weyl_sequence
from weylcdma.sim import SimConfig, collect_decision_noise, run_ber
from weylcdma.snr import (
    LinkBudget,
    csc2_sum,
    expected_r_sum_terms,
    expected_weyl_snr,
    pursley_snr,
    r_ik_closed,
)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[C{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_c01_zero_periodic_crosscorrelation():
    n = 31
    family = [
        optimal_weyl_sequence(OptimalWeylParams(gamma=0.0, sigma_k=s, k_max=n, n_chips=n)).chips
        for s in range(n)
    ]
    table = aperiodic_table(np.vstack(family))
    theta = table[:, :, n : 2 * n] + table[:, :, 0:n]  # C(l) + C(l-N), l in [0, N)
    off_diag = ~np.eye(n, dtype=bool)
    worst = float(np.max(np.abs(theta[off_diag, :])))
    ok = worst < 1e-9
    assert report(1, "zero periodic crosscorrelation, N=31 slot family", ok,
                  f"max |theta| = {worst:.3e} < 1e-9")


def test_c02_correlation_bound_and_equality():
    rng = np.random.default_rng(20260811)
    worst_excess = -math.inf
    for _ in range(1000):
        n = int(rng.integers(4, 257))
        rho_i, rho_k = rng.random(), rng.random()
        if (rho_i - rho_k) % 1.0 == 0.0:
            continue
        lag = int(rng.integers(1 - n, n))
        x = weyl_sequence(WeylParams(rho_i, 0.0, n))
        y = weyl_sequence(WeylParams(rho_k, 0.0, n))
        excess = abs(aperiodic_c(x, y, lag)) - cross_bound(rho_i, rho_k)
        worst_excess = max(worst_excess, excess)
    bound_ok = worst_excess <= 1e-9

    worst_gap = 0.0
    for n, lag in ((32, 7), (97, 40), (12, 0)):
        for m in (0, 1, 3):
            diff = (0.5 + m) / (n - lag)
            if diff >= 1.0:
                continue
            rho_i = 0.11
            rho_k = rho_i + diff
            x = weyl_sequence(WeylParams(rho_i, 0.0, n))
            y = weyl_sequence(WeylParams(rho_k % 1.0, 0.0, n))
            gap = abs(cross_bound(rho_i, rho_k % 1.0) - abs(aperiodic_c(x, y, lag)))
            worst_gap = max(worst_gap, gap)
    equality_ok = worst_gap < 1e-9

    ok = bound_ok and equality_ok
    assert report(2, "crosscorrelation bound with equality cases", ok,
                  f"max excess = {worst_excess:.3e}, max equality gap = {worst_gap:.3e}")


def test_c03_cosecant_squared_identity():
    worst = 0.0
    for n in range(2, 1025):
        target = (n * n - 1) / 3.0
        worst = max(worst, abs(csc2_sum(n) - target) / target)
    ok = worst < 1e-12
    assert report(3, "cosecant-squared identity, n in 2..1024", ok,
                  f"max rel err = {worst:.3e} < 1e-12")


def test_c04_kkt_certification_and_sampling():
    worst_residual = 0.0
    worst_shortfall = math.inf
    for k in range(2, 21):
        solution = global_solution(k, 0.0)
        mult = construct_multipliers(k, solution)
        worst_residual = max(worst_residual, kkt_residual(solution, mult))
        rep = verify_optimality_by_sampling(k, 10_000, seed=1000 + k)
        assert not rep.optimum_beaten
        worst_shortfall = min(worst_shortfall, rep.shortfall)
    ok = worst_residual < 1e-9 and worst_shortfall >= -1e-12
    assert report(4, "KKT certificate + sampling falsifier, K in 2..20", ok,
                  f"max residual = {worst_residual:.3e}, min sampling margin = {worst_shortfall:.3e}")


def test_c05_snr_bridge_empirical_and_analytic():
    n = k = 31
    gamma = 1.0 / (2 * n)
    ebn0_db = 25.0
    budget = LinkBudget.from_db(ebn0_db, n, k)
    cfg = SimConfig(n_users=k, n_chips=n, ebn0_db=ebn0_db, trials=120_000, seed=404,
                    family="weyl", policy="random", gamma=gamma, k_max=n)
    sigma, z_err = collect_decision_noise(cfg)
    worst_rel = 0.0
    for slot in range(n):
        samples = z_err[sigma == slot]
        target = expected_weyl_snr(slot, gamma, k, n, budget) ** -2
        rel = abs(float(np.var(samples, ddof=1)) - target) / target
        worst_rel = max(worst_rel, rel)
    variance_ok = worst_rel < 0.05

    rng = np.random.default_rng(505)
    family = [
        optimal_weyl_sequence(OptimalWeylParams(gamma, s, n, n)).chips for s in range(n)
    ]
    direct = []
    analytic = []
    for _ in range(2):
        perm = rng.permutation(n)
        codes = [family[s] for s in perm]
        for i in range(k):
            direct.append(pursley_snr(i, codes, budget))
            analytic.append(expected_weyl_snr(int(perm[i]), gamma, k, n, budget))
    mean_rel = abs(np.mean(direct) - np.mean(analytic)) / np.mean(analytic)
    snr_ok = mean_rel < 0.02

    ok = variance_ok and snr_ok
    assert report(5, "decision-noise variance and SNR bridge at K=N=31", ok,
                  f"max per-slot var rel err = {worst_rel:.4f} < 0.05, "
                  f"SNR mean rel err = {mean_rel:.2e} < 0.02")


def test_c06_closed_form_interference_moment():
    rng = np.random.default_rng(606)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 128))
        si, sk = (int(v) for v in rng.choice(n, size=2, replace=False))
        gamma = float(rng.random())
        x = optimal_weyl_sequence(OptimalWeylParams(gamma, si, n, n))
        y = optimal_weyl_sequence(OptimalWeylParams(gamma, sk, n, n))
        closed = r_ik_closed(si, sk, gamma, n)
        worst_rel = max(worst_rel, abs(closed - r_ik(x, y)) / closed)
    closed_ok = worst_rel < 1e-8

    worst_comp = 0.0
    for k, n, si, gamma in ((31, 31, 3, 1 / 62), (9, 16, 7, 0.2), (7, 30, 0, 0.05)):
        coupling, cosine = expected_r_sum_terms(si, gamma, k, n)
        c1 = 2 * n * (n + 1) * (k - 1) / 3.0
        c2 = n * (n - 2) * (k - 1) / 3.0 * math.cos(2 * math.pi * (gamma + si / n))
        worst_comp = max(worst_comp, abs(coupling - c1) / c1)
        worst_comp = max(worst_comp, abs(cosine - c2) / max(abs(c2), 1.0))
    comp_ok = worst_comp < 1e-12

    ok = closed_ok and comp_ok
    assert report(6, "closed-form r_ik vs direct sum + expectation components", ok,
                  f"max closed-form rel err = {worst_rel:.3e} < 1e-8, "
                  f"max component rel err = {worst_comp:.3e} < 1e-12")


def test_c07_family_ordering_at_25db():
    n, k, trials = 31, 10, 100_000  # 1e6 decisions per family
    gamma = 1.0 / (2 * n)
    runs = {
        "optimal": SimConfig(k, n, 25.0, trials, 701, "optimal", "random", gamma),
        "weyl": SimConfig(k, n, 25.0, trials, 702, "weyl", "random", gamma, n),
        "gold": SimConfig(k, n, 25.0, trials, 703, "gold", "random", gamma),
    }
    res = {name: run_ber(cfg) for name, cfg in runs.items()}
    ordered = (
        res["optimal"].mean_ber < res["weyl"].mean_ber < res["gold"].mean_ber
    )
    disjoint = (
        res["optimal"].wilson_hi < res["weyl"].wilson_lo
        and res["weyl"].wilson_hi < res["gold"].wilson_lo
    )
    ok = ordered and disjoint
    detail = ", ".join(
        f"{name}={r.mean_ber:.2e} [{r.wilson_lo:.2e},{r.wilson_hi:.2e}]"
        for name, r in res.items()
    )
    assert report(7, "BER ordering optimal < weyl < gold (K=10, N=31, 25 dB)", ok, detail)


def test_c08_vdc_assignment_not_worse_than_random():
    n = 32
    gamma = 1.0 / (2 * n)
    ok = True
    details = []
    for k in (4, 8, 16):
        trials = max(1, 1_000_000 // k)
        random_res = run_ber(
            SimConfig(k, n, 25.0, trials, 800 + k, "weyl", "random", gamma, n)
        )
        vdc_res = run_ber(
            SimConfig(k, n, 25.0, trials, 850 + k, "weyl", "vdc", gamma, n)
        )
        hw = (random_res.wilson_hi - random_res.wilson_lo) / 2.0 + (
            vdc_res.wilson_hi - vdc_res.wilson_lo
        ) / 2.0
        ok = ok and vdc_res.mean_ber <= random_res.mean_ber + hw
        details.append(f"K={k}: vdc={vdc_res.mean_ber:.2e} random={random_res.mean_ber:.2e}")
    assert report(8, "Van der Corput <= random assignment (N=32, 25 dB)", ok,
                  "; ".join(details))


def test_c09_optimal_gamma_agreement():
    n, k, trials = 30, 7, 150_000  # 1.05e6 decisions per point
    ok = True
    details = []
    for ebn0_db in (5.0, 15.0, 25.0):
        res = []
        for gamma, seed in ((1.0 / (2 * n), 901), (1.0 / (2 * k), 902)):
            res.append(
                run_ber(
                    SimConfig(k, n, ebn0_db, trials, seed, "optimal",
                              "random", gamma)
                )
            )
        hw = sum((r.wilson_hi - r.wilson_lo) / 2.0 for r in res)
        diff = abs(res[0].mean_ber - res[1].mean_ber)
        ok = ok and diff <= hw
        details.append(f"{ebn0_db:g}dB: diff={diff:.2e} hw={hw:.2e}")
    assert report(9, "optimal-assignment BER gamma-invariance (N=30, K=7)", ok,
                  "; ".join(details))


def test_c10_single_user_oracle():
    ok = True
    details = []
    for ebn0_db, seed in ((4.0, 1001), (8.0, 1002)):
        cfg = SimConfig(n_users=1, n_chips=31, ebn0_db=ebn0_db, trials=1_000_000, seed=seed)
        res = run_ber(cfg)
        q = 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))
        width = res.wilson_hi - res.wilson_lo
        ok = ok and abs(res.mean_ber - q) < 3.0 * width
        details.append(f"{ebn0_db:g}dB: ber={res.mean_ber:.3e} q={q:.3e}")
    assert report(10, "single-user BER matches Q(sqrt(2E/N0)) at 1e6 bits", ok,
                  "; ".join(details))
