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

Determinism: the unit of work is the block of ``_BLOCK`` trials.  Block b
draws each quantity q from its own PCG64 stream, SeedSequence(seed,
spawn_key=(1, b, q)), filled user-major, so K users draw the first K
columns of any wider draw, and a pool of P slots the first P rows of
wider slot keys.  Each block runs reduce(draw, noise, mai) in its own
task; results are bit-identical whatever WEYLCDMA_THREADS (a positive
integer, by default the usable cores; the pool is capped at the block
count and the CPU count).  A pass is the configs of one ``run_ber`` or
``sweep`` call, which differ only in n_users and ebn0_db: each block
draws once, at the pass's largest K, and each slot pool of the pass
reads a sorted set of user counts (widths) in its first columns.  mai
is a (t, W, c) array whose row j holds, in its first widths[j] columns,
the MAI on those users from those users, so they see Z - g = b +
mai[:, j, :widths[j]], which does not depend on E/N0: a sweep along
either axis is one pass, whose points share trials.  Only "optimal"
without k_max has several pools, one per K; such a pass builds each
pool's table inside each block, one at a time.  Inside a block, the
gather and its contraction run over tiles of trials holding at most
``_TILE_PAIRS`` pair rows, so a worker never holds the block's whole
(t, K, K, 4) gather.  A pool that reads one width sums all interferers
in one contraction (per slot when every slot is occupied, into one
(t, 1, F) array whose users read their own slots once per block) and
reduces the whole block at once; one that reads several takes prefix
sums over interferers and reduces tile by tile, so its statistics agree
with the one-width ones to float rounding and no (t, K, K) array
outlives a tile.  A block works each draw in its user-major (k, t)
layout and hands the gather and reduce C-contiguous trial-major arrays,
so no ufunc mixes the two orders.  ``_count_errors`` tests Z * b < 0
exactly as sd * g * b < -(1 + b * mai), one comparison per noise level.

One rule combines results: a pool's reduce results are added with ``+``,
in order, tile by tile inside the block's task and then block by block
as the blocks come back, so reduce returns a count array to be summed or
a list to be concatenated, and a pass keeps one result per pool.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from weylcdma.correlation import aperiodic_table, theta_pairs
from weylcdma.sequences import (
    GOLD_FAMILY_SIZE,
    AssignmentPolicy,
    FZCParams,
    _finite,
    _gold_length,
    _integer,
    fzc_family_sequence,
    gold_family,
    optimal_weyl_pool,
    optimal_weyl_sequence,  # noqa: F401 -- unused here, but perfbench/spans.py rebinds it
    vdc_assignment,
)
from weylcdma.snr import noise_term

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
    "collect_decision_noise",
    "run_ber",
    "sweep",
]

TC = 1.0  # chip duration; the symbol duration is T = N * TC
Z95 = 1.959963984540054  # two-sided 95% normal quantile

_BLOCK = 1024  # trials per RNG block: part of the random-number layout
_TILE_PAIRS = 1 << 15  # pair rows per gather tile (1 MiB); the draws do not depend on it
_THREADS_ENV = "WEYLCDMA_THREADS"

_FZC_TRIPLE = (1.0, 1.0, 1.275)  # (p, q, r) exponents of the fzc pool
_FAMILY_KINDS = ("weyl", "optimal", "fzc", "gold")  # the kinds _family_pool builds


@dataclass(frozen=True)
class SimConfig:
    """One simulation run, checked when it is made.

    family kinds: "weyl" (slot pool of size k_max, default N), "optimal"
    (weyl with k_max = K), "fzc" (one code per index m coprime to N, with
    the exponent triple ``_FZC_TRIPLE``), "gold" (the built-in Gold
    family, N = ``GOLD_N_CHIPS``).  k_max is for weyl and optimal only.
    policies: "random" (slots sampled without replacement, fresh each trial),
    "fixed" (sampled once per run), "sequential" (sigma_k = k - 1), "vdc"
    (Van der Corput slots; weyl with k_max = N, a power of two).  Only
    n_users beyond the pool's capacity is left to the run, so that
    ``family_capacity`` answers for any user count.
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

    def __post_init__(self) -> None:
        for name, low in (("n_users", 1), ("n_chips", 2), ("trials", 1), ("seed", 0)):
            _integer(name, getattr(self, name), low)
        if self.k_max is not None:
            _integer("k_max", self.k_max, 1)
        _finite("gamma", self.gamma)
        noise_term(self.ebn0_db)  # raises on a bad E/N0
        object.__setattr__(self, "policy", AssignmentPolicy(self.policy).value)  # "fixed", not AssignmentPolicy.FIXED
        capacity = _family_pool(self)[0]  # raises on the family kind's own rules
        if self.policy == AssignmentPolicy.VAN_DER_CORPUT:
            if self.family != "weyl" or capacity != self.n_chips:
                raise ValueError("vdc policy applies to the weyl family with k_max = n_chips")
            vdc_assignment(1, self.n_chips)  # raises unless N is a power of two


@dataclass(frozen=True)
class TrialDraw:
    """Channel randomness, one column per user and, in the engine, one row per trial."""

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


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% (z = ``Z95``)."""
    n = _integer("n", n, 1)
    errors = _integer("errors", errors, 0, n)
    p = errors / n
    denom = 1.0 + Z95 * Z95 / n
    center = (p + Z95 * Z95 / (2 * n)) / denom
    hw = (Z95 / denom) * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n))
    lo = 0.0 if errors == 0 else max(0.0, center - hw)  # exact at the boundaries
    hi = 1.0 if errors == n else min(1.0, center + hw)
    return (lo, hi)


def _family_pool(config: SimConfig) -> tuple[int, int, Callable[[], np.ndarray]]:
    """(pool size, slot count, code builder) of the configured family kind.

    The slot count is k_max if set, else N (weyl) or K (optimal), and 0 for
    the kinds without slots (fzc, gold), which reject k_max.  The builder
    makes the codes, as one (F, N) array, only when called.
    """
    kind, n = config.family, config.n_chips
    if kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if kind in ("weyl", "optimal"):
        slots = config.k_max
        if slots is None:
            slots = config.n_users if kind == "optimal" else n
        return slots, slots, lambda: optimal_weyl_pool(config.gamma, slots, n)
    if config.k_max is not None:
        raise ValueError(f"k_max applies to the weyl and optimal families, not {kind}")
    if kind == "fzc":
        p, q, r = _FZC_TRIPLE
        indices = [m for m in range(1, n) if math.gcd(m, n) == 1]
        return len(indices), 0, lambda: np.vstack([
            fzc_family_sequence(FZCParams(m_k=float(m), p=p, q=q, r=r, n_chips=n)).chips
            for m in indices
        ])
    _gold_length(n)
    return GOLD_FAMILY_SIZE, 0, lambda: np.vstack([s.chips for s in gold_family()])


def family_capacity(config: SimConfig) -> int:
    """Largest user count the configured family pool can serve (builds no pool)."""
    return _family_pool(config)[0]


def _serving_pool(config: SimConfig) -> tuple[int, int, Callable[[], np.ndarray]]:
    """``_family_pool`` of a config, after checking that the pool can serve its n_users."""
    pool = _family_pool(config)
    if config.n_users > pool[0]:
        raise ValueError(
            f"n_users={config.n_users} exceeds the {config.family} family capacity {pool[0]}"
        )
    return pool


def build_pool(config: SimConfig) -> np.ndarray:
    """Materialize the family's candidate codes as an (F, N) complex array."""
    return _serving_pool(config)[2]()


def _fixed_assignment(config: SimConfig, pool_size: int) -> np.ndarray | None:
    """Per-run slot assignment, or None under the random policy (fresh slots each trial)."""
    k = config.n_users
    if config.policy == AssignmentPolicy.RANDOM:
        return None
    if config.policy == AssignmentPolicy.SEQUENTIAL:
        return np.arange(k, dtype=np.int64)
    if config.policy == AssignmentPolicy.VAN_DER_CORPUT:
        return vdc_assignment(k, config.n_chips)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    return np.asarray(rng.permutation(pool_size)[:k], dtype=np.int64)


def _noise_std(config: SimConfig) -> float:
    return math.sqrt(noise_term(config.ebn0_db))


def _pair_table(config: SimConfig, per_slot: bool) -> np.ndarray:
    """The pool's pair terms as rows of [Re, Im] of Theta(l) and Theta(l+1), zero
    for a slot on itself.

    Receiver-major: row ((sigma_i * F + sigma_k) * 2 + flip) * N + l holds those
    four numbers.  Slot-major (per_slot): row (sigma_k * 2 + flip) * N + l holds
    them for every receiver slot as a (4, F) block, written in place from the
    lag table (no transposed copy).
    """
    c = aperiodic_table(build_pool(config))
    f, n = len(c), c.shape[-1] // 2
    c[np.arange(f), np.arange(f)] = 0.0  # no self-interference
    if not per_slot:
        return theta_pairs(c).view(np.float64).reshape(-1, 4)
    c = np.moveaxis(c, 0, -1)  # (interferer, lag, receiver)
    table = np.empty((f, 2, n, 2, 2, f))
    for j in (0, 1):  # as theta_pairs: Theta_s(l + j) from C(l + j) and C(l + j - N)
        current, previous = c[:, n + j : 2 * n + j], c[:, j : n + j]
        for s, op in enumerate((np.add, np.subtract)):
            op(current.real, previous.real, out=table[:, s, :, j, 0])
            op(current.imag, previous.imag, out=table[:, s, :, j, 1])
    return table.reshape(f * 2 * n, 4 * f)


def _simulate_block(config: SimConfig, pools: list[tuple], reduce, block: int) -> list:
    """Each pool's reduce(draw, noise, mai) on one trial block: the pool's
    draws, unit-variance noise and MAI / (N*Tc).

    The block draws once, at config.n_users, and slot keys at the largest
    pool size if the pass's one policy is random, each user-major (k, t).
    The weights are made in that layout and written by out= ufuncs through
    a transposed view into one trial-major (t, k, 4) array; lag, noise and
    bits_cur are copied trial-major once, and the draw's tau, phi and
    bits_prev stay (t, k) views.  A pool (config, size, fixed sigma or
    None, widths, table or None) reads the first c = widths[-1] columns.
    mai is a (t, W, c) array whose row j is the MAI at the sorted user
    count widths[j] (its first widths[j] columns).  A pool with no table
    builds its own (``_pair_table``) here and drops it on return, before
    the next pool's.  Tiles of a power-of-two trial count, so that they
    divide the block, gather at most ``_TILE_PAIRS`` rows each (all of a
    block for c <= 5).  One width, every slot occupied (size = c): per
    tile, a gather of one slot-major (4, F) row per interferer, contracted
    with its weights (copied contiguous once per pool and block if c < K)
    by one batched matmul into the tile's rows of a (t, 1, F) array of the
    MAI at every slot, from which one take_along_axis per block reads each
    user's own.  One width, free slots: a receiver-major (tile, i, k, 4)
    gather, summed over k and the 4 weights by one einsum.  Either reduces
    the whole block once.  Several widths: per tile, an interferer-major
    (tile, k, i, 4) gather, reduced over the weights by matmul into a
    (tile, k, i) array whose prefix sums over k hold widths[j] in row
    widths[j] - 1, and one reduce on the tile's rows, whose results the
    ``+`` rule adds up.
    """
    k, n = config.n_users, config.n_chips
    t = min(_BLOCK, config.trials - block * _BLOCK)
    keys, tau, phi, prev, cur, noise = map(
        np.random.default_rng, np.random.SeedSequence(config.seed, spawn_key=(1, block)).spawn(6))
    if config.policy == AssignmentPolicy.RANDOM:  # a smaller pool reads the first rows
        keys = keys.random((max(size for _, size, _, _, _ in pools), t))
    tau = tau.random((k, t)) * (n * TC)  # user-major (k, t), like every draw
    phi = phi.random((k, t)) * (2.0 * np.pi)
    prev = prev.integers(0, 2, size=(k, t)) * 2.0 - 1.0
    cur = cur.integers(0, 2, size=(k, t)) * 2.0 - 1.0
    noise = np.ascontiguousarray(noise.standard_normal((k, t)).T)
    l = np.floor(tau / TC).astype(np.int64)
    w = tau - l * TC
    lag = np.ascontiguousarray(((prev != cur) * n + l).T)  # row within a slot pair's 2N rows
    # b_prev * Re[e^{j phi} (w Theta(l) + (Tc - w) Theta(l+1))] / (N Tc) as weights on pair
    # rows, written through a (4, k, t) view; b_prev and the minus sign change factor exactly
    cos, sin = np.cos(phi) / (n * TC), np.sin(phi) / (-n * TC)
    weights = np.empty((t, k, 4))
    for plane, span in ((0, w), (2, TC - w)):
        span *= prev
        np.multiply(span, cos, out=weights.T[plane])
        np.multiply(span, sin, out=weights.T[plane + 1])
    tau, phi, bits_prev, bits_cur = tau.T, phi.T, prev.T, np.ascontiguousarray(cur.T)
    del l, w, cos, sin, span, cur

    def reduce_pool(pool_config, size, widths, table, sigma):
        c = widths[-1]
        if table is None:
            table = _pair_table(pool_config, widths == (size,))
        draw = TrialDraw(tau=tau[:, :c], phi=phi[:, :c], bits_prev=bits_prev[:, :c],
                         bits_cur=bits_cur[:, :c], sigma=sigma)
        g, wt, col = noise[:, :c], weights[:, :c], sigma * (2 * n) + lag[:, :c]
        tile = min(_BLOCK, 1 << max(0, int(_TILE_PAIRS // (c * c)).bit_length() - 1))
        tiles = [slice(s, s + tile) for s in range(0, t, tile)]
        if widths == (size,):
            # contiguous weights: the matmul's rounding must not depend on the pass
            wt, slot_mai = np.ascontiguousarray(wt).reshape(t, 1, 4 * c), np.empty((t, 1, size))
            for b in tiles:  # each tile's gather dies before the next is made
                rows = np.take(table, col[b], axis=0).reshape(-1, 4 * c, size)
                np.matmul(wt[b], rows, out=slot_mai[b])
                del rows
            return reduce(draw, g, np.take_along_axis(slot_mai, sigma[:, None, :], axis=2))
        row = sigma * (size * 2 * n)
        if widths == (c,):
            mai = np.empty((t, 1, c))
            for b in tiles:
                pair = np.take(table, row[b, :, None] + col[b, None, :], axis=0)
                np.einsum("tikj,tkj->ti", pair, wt[b], out=mai[b, 0])
            return reduce(draw, g, mai)
        prefix_rows = [width - 1 for width in widths]
        result = None
        for b in tiles:
            pair = np.take(table, row[b, None, :] + col[b, :, None], axis=0)
            cum = np.matmul(pair, wt[b, :, :, None])[..., 0]  # (trial, interferer, receiver)
            np.cumsum(cum, axis=1, out=cum)
            rows_b = TrialDraw(**{f.name: getattr(draw, f.name)[b]
                                  for f in dataclasses.fields(draw)})
            part = reduce(rows_b, g[b], cum[:, prefix_rows])
            result = part if result is None else result + part
        return result

    results = []
    for pool_config, size, fixed, widths, table in pools:
        if fixed is None:
            sigma = np.argsort(keys[:size].T, axis=1)[:, :widths[-1]]
        else:
            sigma = np.broadcast_to(fixed, (t, widths[-1]))
        if len(results) == len(pools) - 1:
            del keys  # the last pool's slots are drawn: its gather runs without the keys
        results.append(reduce_pool(pool_config, size, widths, table, sigma))
    return results


def _thread_count() -> int:
    raw = os.environ.get(_THREADS_ENV)
    if raw is None:  # the usable cores
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{_THREADS_ENV} must be a positive integer, got {raw!r}")
    return threads


def _map_blocks(config: SimConfig, reduce, pools: list[tuple[int, ...]] | None = None) -> list:
    """Each slot pool's ``_simulate_block`` results, added up (``+``) in block order.

    config is the pass's widest: a pass is the configs of one ``run_ber``
    or ``sweep`` call, which differ only in n_users and ebn0_db.  pools
    holds the sorted user counts (widths) that each slot pool of the pass
    reads, by default one pool at config.n_users; the pool of widths serves
    config with n_users = widths[-1].  reduce(draw, noise, mai) gets a
    pool's first widths[-1] columns and mai as a (t, W, widths[-1]) array.
    reduce runs inside the block's own task, and each block's results are
    added to the pass's as they come back, so no block's arrays outlive its
    task and the pass holds one result per pool.  A pass of one pool builds
    its table once; a pass of several builds each pool's table inside each
    block, one at a time, so a worker holds one block and at most one table,
    whatever the trial count and the number of pools.
    """
    threads = _thread_count()
    pools = pools or [(config.n_users,)]
    specs = []
    for widths in pools:
        pool_config = dataclasses.replace(config, n_users=widths[-1])
        size = _family_pool(pool_config)[0]
        table = _pair_table(pool_config, widths == (size,)) if len(pools) == 1 else None
        specs.append((pool_config, size, _fixed_assignment(pool_config, size), widths, table))
    blocks = range(-(-config.trials // _BLOCK))
    workers = min(threads, len(blocks), os.cpu_count() or 1)

    def run(block: int):
        return _simulate_block(config, specs, reduce, block)

    def add_up(results) -> list:
        totals = None
        for parts in results:
            totals = parts if totals is None else [a + b for a, b in zip(totals, parts)]
        return totals

    if workers == 1:
        return add_up(map(run, blocks))
    with ThreadPoolExecutor(max_workers=workers) as executor:
        window = collections.deque()  # at most 2 * workers blocks in flight

        def in_order():
            for block in blocks:
                window.append(executor.submit(run, block))
                if len(window) > 2 * workers:
                    yield window.popleft().result()
            yield from (future.result() for future in window)

        return add_up(in_order())


def collect_decision_noise(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slot indices and decision-noise samples Z - b for every (trial, user).

    Returns (sigma, z_err), both (trials, K); used to compare empirical
    per-slot variances against the analytic interference term.
    """
    std = _noise_std(config)
    sigma, z_err = zip(*_map_blocks(
        config, lambda d, g, mai: [(d.sigma, (d.bits_cur + mai[:, 0] + std * g) - d.bits_cur)])[0])
    return np.concatenate(sigma), np.concatenate(z_err)


def _count_errors(levels: list[float], bits: np.ndarray, g: np.ndarray, mai: np.ndarray) -> np.ndarray:
    """Errors, Z * b < 0 with Z = b + mai + sd * g, as (level, width, user) counts.

    bits and g are (t, c), mai (t, W, c).  As b = +-1 and rounding is
    symmetric, Z * b = (1 + b * mai) + sd * (b * g) bit for bit, and a
    float sum is negative exactly when its terms' exact sum is: an error
    is sd * v < neg_r, v = g * b, neg_r = -(1 + b * mai), one multiply and
    one comparison per level, summed over the trials by one integer einsum
    (fixed-size temporaries, no BLAS call).
    """
    neg_r = bits[:, None, :] * mai
    np.subtract(-1.0, neg_r, out=neg_r)
    v, t = (g * bits)[:, None, :], len(neg_r)
    return np.stack([np.einsum("tx->x", (sd * v < neg_r).reshape(t, -1), dtype=np.int64)
                     for sd in levels]).reshape(len(levels), *neg_r.shape[1:])


def _ber_points(configs: list[SimConfig]) -> list[BERResult]:
    """``run_ber`` of each config, in one engine pass.

    The configs of one call differ only in n_users and ebn0_db.  Every
    config's user count is checked against its pool before any block runs.
    The pass draws once, at its largest K, and counts errors once per
    distinct noise level and slot pool, at the pool's user counts; each
    config reads its own level, pool and width, in its first K columns.
    """
    if not configs:
        return []
    ks, stds = [cfg.n_users for cfg in configs], [_noise_std(cfg) for cfg in configs]
    by_pool: dict[int, list[int]] = {}
    for i, cfg in enumerate(configs):
        by_pool.setdefault(_serving_pool(cfg)[0], []).append(i)
    groups, levels = list(by_pool.values()), list(dict.fromkeys(stds))
    pools = [tuple(sorted({ks[i] for i in group})) for group in groups]

    errors = {}
    widest = dataclasses.replace(configs[0], n_users=max(ks))
    counts_by_pool = _map_blocks(
        widest, lambda draw, g, mai: _count_errors(levels, draw.bits_cur, g, mai), pools)
    for group, widths, counts in zip(groups, pools, counts_by_pool):
        for i in group:
            errors[i] = counts[levels.index(stds[i]), widths.index(ks[i]), :ks[i]]
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

    One engine pass: the values share trials, and each slot pool of the pass
    reads its own user counts (one pool per K for "optimal" without k_max).
    """
    if axis not in ("users", "ebn0"):
        raise ValueError('axis must be "users" or "ebn0"')
    values = list(values)
    if axis == "users":
        name = "users axis value (whole numbers only)"
        fractional = [v for v in values if not _finite(name, v).is_integer()]
        if fractional:
            raise ValueError(f"users axis values must be whole numbers, got {fractional}")
        configs = [dataclasses.replace(template, n_users=int(v)) for v in values]
    else:  # SimConfig checks each E/N0 as given
        configs = [dataclasses.replace(template, ebn0_db=v) for v in values]
    return [
        SweepRow(
            axis_value=float(v),
            family=cfg.family,
            policy=cfg.policy,
            gamma=cfg.gamma,
            kmax=_family_pool(cfg)[1],
            mean_ber=res.mean_ber,
            wilson_lo=res.wilson_lo,
            wilson_hi=res.wilson_hi,
            bits=res.bit_count,
        )
        for v, cfg, res in zip(values, configs, _ber_points(configs))
    ]
