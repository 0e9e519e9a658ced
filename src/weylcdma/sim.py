"""Trial-level Monte-Carlo simulator for asynchronous BPSK CDMA.

Per trial, every user gets a uniform delay tau in [0, N*Tc), a uniform
carrier phase, previous/current symbol signs, and (under the random
policy) a fresh draw of distinct family-member slots.  Each user is then
demodulated as the coherent reference: its decision statistic is

    Z_i = b_{i,0} + (1/(N*Tc)) * sum_{k != i} Re[I_{i,k}(tau_k)] + g,

with g Gaussian of standard deviation sqrt(N0/2E) and I the two-lag
interference term, whose crosscorrelation the kernel selects by symbol
transition: theta(l) = C(l) + C(l-N) if user k's symbol repeats, theta_hat(l)
= C(l) - C(l-N) if it flips; one real table row holds [Re, Im] of it at
l and l+1.  With this normalization the variance of Z_i - b_{i,0} equals
sum_k r_ik/(6 N^3) + N0/2E, so the analytic SNR is the literal inverse
coefficient of variation of Z.

Chip duration Tc is normalized to 1 (all BER-relevant quantities are
ratios), and each trial decides exactly one symbol per user.

Determinism: block b of ``_BLOCK`` trials draws each quantity q from its
own PCG64 stream, SeedSequence(seed, spawn_key=(1, b, q)), filled
user-major, so K users draw the first K columns of any wider draw.  A
chunk is a run of whole blocks, one reduce(draw, noise, mai) each, run in
the chunk's own task; results are bit-identical whatever the chunk size
or WEYLCDMA_THREADS (a positive integer; the pool is capped at the chunk
count and the CPU count).  mai[:, i, j] sums the MAI on user i from users
0..j, so users 0..K-1 see Z - g = b + mai[:, :K, K-1], which does not
depend on E/N0: an E/N0 sweep is one pass, and a users sweep one pass at
its largest K per slot pool, whose points share trials.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from weylcdma.correlation import aperiodic_c, aperiodic_table, theta_pairs
from weylcdma.sequences import (
    AssignmentPolicy,
    OptimalWeylParams,
    FZCParams,
    fzc_family_sequence,
    gold_family,
    gold_family_size,
    optimal_weyl_sequence,
    vdc_assignment,
)
from weylcdma.snr import LinkBudget

__all__ = [
    "TC",
    "Z95",
    "SimConfig",
    "TrialDraw",
    "BERResult",
    "SweepRow",
    "wilson_interval",
    "build_pool",
    "family_capacity",
    "interference",
    "decision_statistic",
    "simulate_trials",
    "collect_decision_noise",
    "run_ber",
    "sweep",
]

TC = 1.0  # chip duration; the symbol duration is T = N * TC
Z95 = 1.959963984540054  # two-sided 95% normal quantile

_BLOCK = 1024  # trials per RNG block: part of the random-number layout
_CHUNK_BUDGET = 1_000_000  # target elements per (T, K, K) work array
_THREADS_ENV = "WEYLCDMA_THREADS"

_FZC_TRIPLE = (1.0, 1.0, 1.275)  # (p, q, r) exponents of the fzc pool


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    family kinds: "weyl" (slot pool of size k_max, default N), "optimal"
    (weyl with k_max = K), "fzc" (one code per index m coprime to N, with
    the exponent triple ``_FZC_TRIPLE``), "gold" (all N+2 members of the
    built-in degree-5 family, so N = 31).
    """

    n_users: int
    n_chips: int
    ebn0_db: float
    trials: int
    seed: int
    family: str = "weyl"
    policy: str = "random"
    gamma: float = 0.0
    k_max: int | None = None
    redraw_sigma: bool = True  # random policy: fresh slots each trial


@dataclass(frozen=True)
class TrialDraw:
    """Channel randomness, one column per user.

    The engine fills (T, K) arrays, one row per trial; the scalar path
    (``interference``, ``decision_statistic``) takes one trial's (K,) row.
    """

    tau: np.ndarray        # delays in [0, N*Tc)
    phi: np.ndarray        # carrier phases in [0, 2*pi)
    bits_prev: np.ndarray  # previous symbols, +-1
    bits_cur: np.ndarray   # current symbols, +-1
    sigma: np.ndarray      # distinct family-member indices


@dataclass(frozen=True)
class BERResult:
    per_user_ber: np.ndarray
    mean_ber: float
    error_count: int
    bit_count: int
    wilson_lo: float
    wilson_hi: float

    @property
    def wilson_95_interval(self) -> tuple[float, float]:
        return (self.wilson_lo, self.wilson_hi)


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    family: str
    policy: str
    gamma: float
    kmax: int
    mean_ber: float
    wilson_lo: float
    wilson_hi: float
    bits: int


def wilson_interval(errors: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    hw = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = 0.0 if errors == 0 else max(0.0, center - hw)  # exact at the boundaries
    hi = 1.0 if errors == n else min(1.0, center + hw)
    return (lo, hi)


def _coprime_indices(n: int) -> list[int]:
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def _slot_count(config: SimConfig) -> int:
    """Slots of a weyl/optimal pool: k_max if set, else N (weyl) or K (optimal)."""
    if config.k_max is not None:
        return config.k_max
    return config.n_users if config.family == "optimal" else config.n_chips


def _gold_degree(n_chips: int) -> int:
    degree = round(math.log2(n_chips + 1))
    if (1 << degree) - 1 != n_chips:
        raise ValueError("gold family requires n_chips = 2**m - 1")
    return degree


def family_capacity(config: SimConfig) -> int:
    """Largest user count the configured family pool can serve (builds no pool)."""
    kind = config.family
    if kind in ("weyl", "optimal"):
        return _slot_count(config)
    if kind == "fzc":
        return len(_coprime_indices(config.n_chips))
    if kind == "gold":
        return gold_family_size(_gold_degree(config.n_chips))
    raise ValueError(f"unknown family kind {kind!r}")


def build_pool(config: SimConfig) -> np.ndarray:
    """Materialize the family's candidate codes as an (F, N) complex array."""
    _validate(config)
    n = config.n_chips
    if config.family == "fzc":
        p, q, r = _FZC_TRIPLE
        pool = [
            fzc_family_sequence(FZCParams(m_k=float(m), p=p, q=q, r=r, n_chips=n)).chips
            for m in _coprime_indices(n)
        ]
    elif config.family == "gold":
        pool = [s.chips for s in gold_family(_gold_degree(n))]
    else:  # weyl, optimal
        k_max = _slot_count(config)
        pool = [
            optimal_weyl_sequence(
                OptimalWeylParams(gamma=config.gamma, sigma_k=s, k_max=k_max, n_chips=n)
            ).chips
            for s in range(k_max)
        ]
    return np.vstack(pool)


def _validate(config: SimConfig) -> None:
    # family rules live in family_capacity, E/N0 in LinkBudget.from_db, vdc slots in vdc_assignment
    if config.n_users < 1:
        raise ValueError("n_users must be >= 1")
    if config.n_chips < 2:
        raise ValueError("n_chips must be >= 2")
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    if config.seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if not math.isfinite(config.gamma):
        raise ValueError(f"gamma must be finite, got {config.gamma}")
    policy = AssignmentPolicy(config.policy)
    capacity = family_capacity(config)
    if policy is AssignmentPolicy.VAN_DER_CORPUT and (
        config.family != "weyl" or capacity != config.n_chips
    ):
        raise ValueError("vdc policy applies to the weyl family with k_max = n_chips")
    if config.n_users > capacity:
        raise ValueError(
            f"n_users={config.n_users} exceeds the {config.family} family capacity {capacity}"
        )


def _fixed_assignment(config: SimConfig, pool_size: int) -> np.ndarray | None:
    """Per-run slot assignment, or None when slots are redrawn each trial."""
    policy = AssignmentPolicy(config.policy)
    k = config.n_users
    if policy is AssignmentPolicy.SEQUENTIAL:
        return np.arange(k, dtype=np.int64)
    if policy is AssignmentPolicy.VAN_DER_CORPUT:
        return vdc_assignment(k, config.n_chips)
    if config.redraw_sigma:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    return np.asarray(rng.permutation(pool_size)[:k], dtype=np.int64)


# ---------------------------------------------------------------------------
# Scalar reference path (oracle-grade, used by tests and small studies)
# ---------------------------------------------------------------------------


def interference(i: int, k: int, draw: TrialDraw, seqs) -> complex:
    """Two-lag interference of user k on receiver i for one trial.

    exp(j phi_k) * [(tau_k - l Tc)(b_prev C(l) + b_cur C(l-N))
                    + ((l+1) Tc - tau_k)(b_prev C(l+1) + b_cur C(l+1-N))]
    with l = floor(tau_k / Tc).
    """
    if i == k:
        raise ValueError("interference is defined for k != i")
    x = np.asarray(getattr(seqs[i], "chips", seqs[i]), dtype=np.complex128)
    y = np.asarray(getattr(seqs[k], "chips", seqs[k]), dtype=np.complex128)
    n = x.size
    tau_k = float(draw.tau[k])
    if not 0.0 <= tau_k < n * TC:
        raise ValueError(f"tau must lie in [0, {n * TC}), got {tau_k}")
    l = int(tau_k // TC)
    b_prev = float(draw.bits_prev[k])
    b_cur = float(draw.bits_cur[k])
    low = b_prev * aperiodic_c(x, y, l) + b_cur * aperiodic_c(x, y, l - n)
    high = b_prev * aperiodic_c(x, y, l + 1) + b_cur * aperiodic_c(x, y, l + 1 - n)
    weight_low = tau_k - l * TC
    weight_high = (l + 1) * TC - tau_k
    return complex(np.exp(1j * float(draw.phi[k])) * (weight_low * low + weight_high * high))


def decision_statistic(
    i: int, draw: TrialDraw, seqs, budget: LinkBudget, noise_sample: float
) -> float:
    """Decision statistic of receiver i; noise_sample is a standard normal.

    User i is the coherent reference (tau_i = 0, phi_i = 0 by convention);
    its own draw entries are ignored.
    """
    n = len(np.asarray(getattr(seqs[i], "chips", seqs[i])))
    mai = sum(
        interference(i, k, draw, seqs).real for k in range(len(seqs)) if k != i
    )
    return float(draw.bits_cur[i]) + mai / (n * TC) + noise_sample * math.sqrt(budget.noise_term)


# ---------------------------------------------------------------------------
# Vectorized engine
# ---------------------------------------------------------------------------


def _noise_std(config: SimConfig) -> float:
    return math.sqrt(LinkBudget.from_db(config.ebn0_db, config.n_chips, config.n_users).noise_term)


def _draw_block(config: SimConfig, pool_size: int, fixed_sigma: np.ndarray | None,
                block: int) -> tuple[np.ndarray, ...]:
    """(tau, phi, bits_prev, bits_cur, sigma, noise) of one trial block, each (t, K)."""
    k, n = config.n_users, config.n_chips
    t = min(_BLOCK, config.trials - block * _BLOCK)
    keys, tau, phi, prev, cur, noise = map(
        np.random.default_rng, np.random.SeedSequence(config.seed, spawn_key=(1, block)).spawn(6))
    if fixed_sigma is None:
        sigma = np.argsort(keys.random((pool_size, t)).T, axis=1)[:, :k]
    else:
        sigma = np.broadcast_to(fixed_sigma, (t, k))
    return (
        tau.random((k, t)).T * (n * TC),
        phi.random((k, t)).T * (2.0 * np.pi),
        prev.integers(0, 2, size=(k, t)).T * 2.0 - 1.0,
        cur.integers(0, 2, size=(k, t)).T * 2.0 - 1.0,
        sigma,
        noise.standard_normal((k, t)).T,
    )


def _simulate_chunk(config: SimConfig, table: np.ndarray, pool_size: int,
                    fixed_sigma: np.ndarray | None,
                    blocks: range) -> tuple[TrialDraw, np.ndarray, np.ndarray]:
    """Draws, unit-variance noise and cumulative MAI / (N*Tc) of a run of trial blocks.

    Row ((sigma_i * F + sigma_k) * 2 + flip) * N + l of table holds [Re, Im]
    of Theta(l) and Theta(l+1).
    """
    tau, phi, bits_prev, bits_cur, sigma, noise = (
        np.concatenate(parts)
        for parts in zip(*(_draw_block(config, pool_size, fixed_sigma, b) for b in blocks))
    )
    k, n = config.n_users, config.n_chips
    l = np.floor(tau / TC).astype(np.int64)
    w = tau - l * TC
    row = sigma * (pool_size * 2 * n)
    col = (sigma * 2 + (bits_prev != bits_cur)) * n + l
    pair = np.take(table, row[:, :, None] + col[:, None, :], axis=0)  # (T, K, K, 4)
    # b_prev * Re[e^{j phi} (w Theta(l) + (Tc - w) Theta(l+1))] / (N Tc) as weights on pair
    cos, sin = (bits_prev * f(phi) / (n * TC) for f in (np.cos, np.sin))
    weights = np.stack([w * cos, -w * sin, (TC - w) * cos, -(TC - w) * sin], axis=-1)
    mai = np.einsum("tikj,tkj->tik", pair, weights)
    mai[:, np.arange(k), np.arange(k)] = 0.0
    np.cumsum(mai, axis=2, out=mai)
    draw = TrialDraw(tau=tau, phi=phi, bits_prev=bits_prev, bits_cur=bits_cur, sigma=sigma)
    return draw, noise, mai


def _thread_count() -> int:
    raw = os.environ.get(_THREADS_ENV, "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{_THREADS_ENV} must be a positive integer, got {raw!r}")
    return threads


def _map_chunks(config: SimConfig, reduce) -> list:
    """reduce(draw, noise, mai) of every chunk, in chunk order.

    A chunk's (T, K, K) arrays hold about ``_CHUNK_BUDGET`` elements.
    reduce runs inside the chunk's own task, so only its result outlives
    the chunk's arrays: peak memory is one chunk per worker plus the
    reduced results, whatever the trial count.
    """
    threads = _thread_count()
    pool = build_pool(config)
    table = theta_pairs(aperiodic_table(pool)).view(np.float64).reshape(-1, 4)
    fixed = _fixed_assignment(config, len(pool))
    per_chunk = int(np.clip(_CHUNK_BUDGET // (config.n_users**2 * _BLOCK), 1, 64))
    n_blocks = -(-config.trials // _BLOCK)
    chunks = [range(b, min(b + per_chunk, n_blocks)) for b in range(0, n_blocks, per_chunk)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)

    def run(blocks: range):
        return reduce(*_simulate_chunk(config, table, len(pool), fixed, blocks))

    if workers == 1:
        return [run(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(run, chunks))


def simulate_trials(config: SimConfig) -> tuple[TrialDraw, np.ndarray, np.ndarray]:
    """Run the engine and keep every draw and decision (memory: O(T*K)).

    Returns (draw, noise, z): the (T, K) draws, the standard-normal noise
    samples before scaling, and the decision statistics.  Intended for
    diagnostics and tests; use ``run_ber`` for large counts.
    """
    std = _noise_std(config)
    draws, noise, z = zip(*_map_chunks(
        config, lambda draw, g, mai: (draw, g, draw.bits_cur + mai[..., -1] + std * g)))
    draw = TrialDraw(**{
        f.name: np.concatenate([getattr(d, f.name) for d in draws])
        for f in dataclasses.fields(TrialDraw)
    })
    return draw, np.concatenate(noise), np.concatenate(z)


def collect_decision_noise(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slot indices and decision-noise samples Z - b for every (trial, user).

    Returns (sigma, z_err), both (trials, K); used to compare empirical
    per-slot variances against the analytic interference term.
    """
    std = _noise_std(config)
    sigma, z_err = zip(*_map_chunks(
        config, lambda d, g, mai: (d.sigma, (d.bits_cur + mai[..., -1] + std * g) - d.bits_cur)))
    return np.concatenate(sigma), np.concatenate(z_err)


def _ber_points(configs: list[SimConfig]) -> list[BERResult]:
    """``run_ber`` of each config; the configs differ only in n_users and ebn0_db.

    Every config is checked before any chunk runs.  Configs with one pool
    share a pass at their largest K; each counts errors in its first K
    columns.
    """
    ks, stds = [cfg.n_users for cfg in configs], [_noise_std(cfg) for cfg in configs]
    passes: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        _validate(cfg)
        pool_key = (dataclasses.replace(cfg, n_users=1, ebn0_db=0.0), family_capacity(cfg))
        passes.setdefault(pool_key, []).append(i)
    errors = {}
    for members in passes.values():

        def count(draw, g, mai, members=members):
            s = {k: draw.bits_cur[:, :k] + mai[:, :k, k - 1] for k in {ks[i] for i in members}}
            return [((s[ks[i]] + stds[i] * g[:, :ks[i]]) * draw.bits_cur[:, :ks[i]] < 0.0).sum(0)
                    for i in members]

        width = dataclasses.replace(configs[members[0]], n_users=max(ks[i] for i in members))
        errors.update(zip(members, map(sum, zip(*_map_chunks(width, count)))))
    results = []
    for i, cfg in enumerate(configs):
        bits, total = cfg.trials * ks[i], int(errors[i].sum())
        lo, hi = wilson_interval(total, bits)
        results.append(BERResult(per_user_ber=errors[i] / cfg.trials, mean_ber=total / bits,
                                 error_count=total, bit_count=bits, wilson_lo=lo, wilson_hi=hi))
    return results


def run_ber(config: SimConfig) -> BERResult:
    """Monte-Carlo BER: one decision per user per trial, Wilson 95% interval.

    Deterministic given the config (seed included); an error is counted
    when Z_k * b_{k,0} < 0.
    """
    return _ber_points([config])[0]


def sweep(template: SimConfig, axis: str, values) -> list[SweepRow]:
    """Run the template at each axis value ("users" or "ebn0"), checking every value first.

    One engine pass per slot pool, so one per K only for "optimal" without k_max.
    """
    if axis not in ("users", "ebn0"):
        raise ValueError('axis must be "users" or "ebn0"')
    values = list(values)
    if axis == "users":
        fractional = [v for v in values if not float(v).is_integer()]
        if fractional:
            raise ValueError(f"users axis values must be whole numbers, got {fractional}")
        configs = [dataclasses.replace(template, n_users=int(v)) for v in values]
    else:
        configs = [dataclasses.replace(template, ebn0_db=float(v)) for v in values]
    return [
        SweepRow(
            axis_value=float(v),
            family=cfg.family,
            policy=cfg.policy,
            gamma=cfg.gamma,
            kmax=_slot_count(cfg) if cfg.family in ("weyl", "optimal") else 0,
            mean_ber=res.mean_ber,
            wilson_lo=res.wilson_lo,
            wilson_hi=res.wilson_hi,
            bits=res.bit_count,
        )
        for v, cfg, res in zip(values, configs, _ber_points(configs))
    ]
