"""Optimal phase assignment on the unit circle.

Minimizes sum over user pairs of 1/sin(pi * d(rho_i, rho_k)), the
aggregate crosscorrelation bound, over K phases. The minimizer is the
equispaced assignment rho_i = gamma + (i-1)/K; this module evaluates the
objective, produces that closed-form solution together with its slack
values, constructs the Lagrange multipliers that certify it, and checks
the full KKT system (stationarity, primal feasibility, complementary
slackness) numerically. A random-sampling falsifier provides an
independent empirical cross-check. The objective and the falsifier share
one pair sum, which walks the pairs i < k by index gap; the slack and the
multipliers hold one entry per pair, in np.triu_indices(K, 1) order.

The falsifier computes that O(K^2) pair sum only for draws that a
trig-free O(K) lower bound (sin x <= x on neighbour gaps, and the
convexity of csc that makes the equispaced phases optimal on wider gaps)
cannot rule out, so its report is that of scoring every draw, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from weylcdma.sequences import _finite, _integer

__all__ = [
    "PhaseAssignment",
    "LagrangeMultipliers",
    "SamplingReport",
    "objective",
    "global_solution",
    "alpha_tilde",
    "construct_multipliers",
    "stationarity_vector",
    "kkt_residual",
    "verify_optimality_by_sampling",
]


@dataclass(frozen=True)
class PhaseAssignment:
    """Sorted user phases in [0, 1)."""

    rhos: np.ndarray

    def __post_init__(self) -> None:
        rhos = np.asarray(self.rhos, dtype=np.float64)
        if rhos.ndim != 1 or rhos.size < 1:
            raise ValueError("rhos must be a non-empty 1-D vector")
        if not np.all((rhos >= 0.0) & (rhos < 1.0)):  # NaN fails too
            raise ValueError("phases must lie in [0, 1)")
        if np.any(np.diff(rhos) < 0.0):
            raise ValueError("phases must be nondecreasing")
        object.__setattr__(self, "rhos", rhos)

    @property
    def n_users(self) -> int:
        return int(self.rhos.size)


@dataclass(frozen=True)
class LagrangeMultipliers:
    """Pair vectors of the lower-distance (lam) and wrap (mu) multipliers, in the slack t's order.

    The ordering, [0, 1) and t >= 0 multipliers are zero at the equispaced solution."""

    lam: np.ndarray
    mu: np.ndarray


def _pair_sum(rhos: np.ndarray) -> np.ndarray:
    """Sum over pairs i < k of 1/sin(pi * d(rho_i, rho_k)), phases along the first axis (K, ...).

    The pairs (i, i + g) of index gap g are the slices [:-g] and [g:].  Each
    term uses sin(pi * d(rho_i, rho_k)) = |sin(pi * (rho_k - rho_i))| =
    |s_k * c_i - c_k * s_i| with s, c = sin(pi * rho), cos(pi * rho), so K
    phases cost K sines and K cosines.  Equal phases give inf.
    """
    s, c = np.sin(np.pi * rhos), np.cos(np.pi * rhos)
    total = np.zeros(rhos.shape[1:])
    with np.errstate(divide="ignore", over="ignore"):  # a zero or subnormal distance gives inf
        for g in range(1, rhos.shape[0]):
            total += np.sum(1.0 / np.abs(s[g:] * c[:-g] - c[g:] * s[:-g]), axis=0)
    return total


def objective(assignment) -> float:
    """Sum over pairs i < k of 1/sin(pi * d(rho_i, rho_k)).

    Phases are taken mod 1 and must be a 1-D vector of finite reals (a
    ValueError otherwise; strings are not parsed).  Duplicate phases make a
    pair distance zero; the objective is then signaled as math.inf rather
    than raising, so samplers can keep going.
    """
    if isinstance(assignment, PhaseAssignment):
        assignment = assignment.rhos
    rhos = np.asarray(assignment)
    if rhos.ndim != 1 or rhos.dtype.kind not in "iuf" or not np.all(np.isfinite(rhos)):
        raise ValueError(f"phases must be a 1-D vector of finite reals, got {assignment!r}")
    rhos = rhos.astype(np.float64) % 1.0
    return float(_pair_sum(rhos[:, None])[0])


def global_solution(n_users: int, gamma: float) -> tuple[PhaseAssignment, np.ndarray]:
    """Closed-form minimizer: equispaced phases gamma + (i-1)/K (mod 1).

    The offset enters mod 1/K: shifting gamma by 1/K permutes the same
    phase set, so the sorted representative uses gamma reduced to
    [0, 1/K), keeping the assignment sorted for any real gamma.  The
    returned slack vector holds, for each pair i < k in
    np.triu_indices(K, 1) order, t = min((k-i)/K, 1 - (k-i)/K), which
    equals d(rho_i, rho_k) at this solution.
    """
    k = _integer("n_users", n_users, 2)
    _finite("gamma", gamma)
    base = (gamma % 1.0) % (1.0 / k)
    rhos = base + np.arange(k, dtype=np.float64) / k
    rhos = np.minimum(rhos, np.nextafter(1.0, 0.0))  # guard rounding at the top edge
    i, j = np.triu_indices(k, 1)
    gap = j - i
    return PhaseAssignment(rhos=rhos), np.minimum(gap / k, 1.0 - gap / k)


def _alpha(t):
    """pi * cos(pi t) / sin(pi t)**2, the magnitude of d/dt 1/sin(pi t), elementwise."""
    # float_power squares through libm pow, as math's ** does; x * x can differ in the last bit
    return np.pi * np.cos(np.pi * t) / np.float_power(np.sin(np.pi * t), 2)


def alpha_tilde(m: int, n_users: int) -> float:
    """Multiplier magnitude for a pair with index gap m; symmetric under m <-> K-m."""
    k = _integer("n_users", n_users, 2)
    m = _integer("m", m, 1, k - 1)
    return float(_alpha(min(m / k, 1.0 - m / k)))


def _pairs(solution, multipliers=None):
    """(assign, t, i, j) of a solution, i, j = np.triu_indices(K, 1), once t, lam and mu fit them."""
    assign, t = solution
    i, j = np.triu_indices(assign.n_users, 1)
    vectors = (t,) if multipliers is None else (t, multipliers.lam, multipliers.mu)
    if any(np.shape(v) != i.shape for v in vectors):  # numpy would broadcast a shorter one silently
        raise ValueError(f"slack, lam and mu must hold one entry per pair of {assign.n_users} users")
    return assign, t, i, j


def construct_multipliers(
    n_users: int, solution: tuple[PhaseAssignment, np.ndarray]
) -> LagrangeMultipliers:
    """Multipliers certifying the equispaced solution.

    With gap m = k - i: for m < K/2 the lower constraint is active and lam
    carries alpha_tilde(m); for m > K/2 the wrap constraint is active and
    mu carries it; for even K the antipodal gap m = K/2 has both
    constraints active and the weight splits evenly.
    """
    k = _integer("n_users", n_users, 1)
    assign, t, i, j = _pairs(solution)
    if k != assign.n_users:
        raise ValueError(f"n_users={k} does not match the solution's {assign.n_users} users")
    gap = j - i
    a = _alpha(t)
    a = np.where(gap == k / 2.0, a / 2.0, a)
    return LagrangeMultipliers(lam=np.where(gap <= k / 2.0, a, 0.0), mu=np.where(gap >= k / 2.0, a, 0.0))


def stationarity_vector(
    solution: tuple[PhaseAssignment, np.ndarray], multipliers: LagrangeMultipliers
) -> np.ndarray:
    """Gradient of the Lagrangian at the solution, stacked as (rhos, t-pairs).

    The t-pairs block is ordered (1,2), (1,3), ..., (1,K), (2,3), ...,
    (K-1,K); the whole vector vanishes at a KKT point.
    """
    assign, t, i, j = _pairs(solution, multipliers)
    k = assign.n_users
    lam, mu = multipliers.lam, multipliers.mu
    net = lam - mu  # each pair adds net to its first phase and -net to its second
    grad_rho = np.bincount(i, net, k) - np.bincount(j, net, k)
    grad_t = lam + mu - _alpha(t)  # objective term d/dt 1/sin(pi t) = -alpha
    return np.concatenate([grad_rho, grad_t])


def kkt_residual(
    solution: tuple[PhaseAssignment, np.ndarray], multipliers: LagrangeMultipliers
) -> float:
    """Max-norm stationarity defect plus the worst complementary-slackness
    and primal-feasibility violations; near-zero certifies global
    optimality of the convex slack-form problem."""
    assign, t, i, j = _pairs(solution, multipliers)
    rhos = assign.rhos
    lam, mu = multipliers.lam, multipliers.mu
    lower = t + rhos[i] - rhos[j]
    wrap = t - 1.0 - rhos[i] + rhos[j]
    stat = np.max(np.abs(stationarity_vector(solution, multipliers)))
    comp = np.max(np.abs(np.concatenate([lam * lower, mu * wrap])))
    primal = np.max(
        np.concatenate([lower, wrap, -t, rhos[:-1] - rhos[1:], [-rhos[0], rhos[-1] - 1.0]])
    )
    neg = np.max(-np.concatenate([lam, mu]))
    return float(stat + comp + max(primal, 0.0) + max(neg, 0.0))


@dataclass(frozen=True)
class SamplingReport:
    """Outcome of the random-sampling falsification run."""

    n_users: int
    n_samples: int
    seed: int
    optimal_objective: float
    best_sampled_objective: float
    shortfall: float  # best sampled minus optimal; negative would beat the optimum
    optimum_beaten: bool


def _lower_bound(rho: np.ndarray) -> np.ndarray:
    """A lower bound on _pair_sum of each column of sorted phases (K, m), K >= 3, without trig.

    Each neighbour pair, the wrap pair (K-1, 0) included, gives
    csc(pi a) >= 1/(pi a) for its forward gap a, because sin x <= x.  The
    K pairs of each circular index gap 2 <= g < K/2 have forward arcs that
    sum to g, so by the convexity of csc(pi x) (Jensen) they give at least
    K csc(pi g/K); the K/2 antipodal pairs of an even K give at least K/2.
    The 1e-13 under each neighbour term covers the absolute rounding of
    _pair_sum's sines, which is what counts near a duplicate; the factor
    1 - 1e-9 covers the rest.  The gaps and then their terms are written
    into one (K, m) array, by the operations of 1.0 / (pi * gaps + 1e-13).
    """
    k = rho.shape[0]
    terms = np.empty_like(rho)
    np.subtract(rho[1:], rho[:-1], out=terms[:-1])
    np.subtract(rho[0] + 1.0, rho[-1], out=terms[-1])  # the wrap gap, as np.diff(append=) takes it
    terms *= np.pi
    terms += 1e-13
    np.divide(1.0, terms, out=terms)
    floor = sum(k / math.sin(math.pi * g / k) for g in range(2, (k + 1) // 2)) + k / 2 * (k % 2 == 0)
    return (np.sum(terms, axis=0) + floor) * (1.0 - 1e-9)


def verify_optimality_by_sampling(n_users: int, samples: int, seed: int) -> SamplingReport:
    """Draw random feasible sorted phase vectors and compare their objectives.

    Reports the best sampled objective and whether any sample improved on
    the closed-form optimum by more than 1e-12.  Samples are drawn
    vectorized from one seeded PCG64 stream, in chunks of 65,536 // K.

    For K >= 4 a chunk is scored by bound and prune: the two samples of
    lowest _lower_bound get the exact pair sum, then only the samples whose
    bound does not exceed the best so far.  Any other sample's pair sum is
    above its bound, so above the best: the report is exactly that of
    scoring every sample, and ``n_samples`` still counts every draw.  Exact
    sums go to _pair_sum as a C-contiguous (K, m >= 2) block, whose rows
    numpy adds in order, as for the whole chunk; it would sum a single
    column pairwise, which differs in the last bit.
    """
    k = _integer("n_users", n_users, 2)
    samples, seed = _integer("samples", samples, 1), _integer("seed", seed, 0)
    assign, _ = global_solution(k, 0.0)
    opt = objective(assign)
    rng = np.random.default_rng(seed)
    best = math.inf
    chunk = max(1, min(samples, 65_536 // k))  # (K, m) arrays stay in cache
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        rho = np.sort(rng.random((m, k)), axis=1).T.copy()  # (K, m), C-contiguous
        if k < 4 or m < 2:  # K = 2 has one pair, not two neighbours; m = 1 sums pairwise
            best = min(best, float(np.min(_pair_sum(rho))))
            continue
        bound = _lower_bound(rho)
        first = np.argpartition(bound, 1)[:2]
        best = min(best, float(np.min(_pair_sum(rho.take(first, axis=1)))))
        bound[first] = math.inf
        rest = np.flatnonzero(bound <= best)
        if rest.size:
            rest = np.append(rest, first[:1]) if rest.size == 1 else rest
            best = min(best, float(np.min(_pair_sum(rho.take(rest, axis=1)))))
    return SamplingReport(
        n_users=k,
        n_samples=samples,
        seed=seed,
        optimal_objective=opt,
        best_sampled_objective=best,
        shortfall=best - opt,
        optimum_beaten=bool(opt > best + 1e-12),
    )
