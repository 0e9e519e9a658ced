"""Optimal phase assignment on the unit circle.

Minimizes sum over user pairs of 1/sin(pi * d(rho_i, rho_k)), the
aggregate crosscorrelation bound, over K phases. The minimizer is the
equispaced assignment rho_i = gamma + (i-1)/K; this module evaluates the
objective, produces that closed-form solution together with its slack
values, constructs the Lagrange multipliers that certify it, and checks
the full KKT system (stationarity, primal feasibility, complementary
slackness) numerically. A random-sampling falsifier provides an
independent empirical cross-check. Every function takes its user pairs
i < k from np.triu_indices(K, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseAssignment",
    "LagrangeMultipliers",
    "SamplingReport",
    "circle_distance",
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
    """Pair multipliers (i < k triangle) of the lower-distance (lam) and wrap (mu) constraints.

    The ordering, [0, 1) and t >= 0 multipliers are zero at the equispaced solution."""

    lam: np.ndarray
    mu: np.ndarray


def circle_distance(rho_i, rho_k):
    """Wrap-around distance min(|rho_i - rho_k|, 1 - |rho_i - rho_k|) in [0, 1/2], elementwise."""
    diff = np.abs(np.subtract(rho_i, rho_k))
    diff = diff - np.floor(diff)  # fractional part; exact for diff >= 0
    return np.minimum(diff, 1.0 - diff)


def _pair_sum(rhos: np.ndarray) -> np.ndarray:
    """Sum over pairs i < k of 1/sin(pi * d) along the last axis; inf when a distance is 0."""
    i, j = np.triu_indices(rhos.shape[-1], 1)
    s = np.sin(np.pi * circle_distance(rhos[..., i], rhos[..., j]))
    with np.errstate(divide="ignore"):
        return np.sum(1.0 / s, axis=-1)


def objective(assignment) -> float:
    """Sum over pairs i < k of 1/sin(pi * d(rho_i, rho_k)).

    Duplicate phases make a pair distance zero; the objective is then
    signaled as math.inf rather than raising, so samplers can keep going.
    """
    if isinstance(assignment, PhaseAssignment):
        assignment = assignment.rhos
    return float(_pair_sum(np.asarray(assignment, dtype=np.float64)))


def global_solution(n_users: int, gamma: float) -> tuple[PhaseAssignment, np.ndarray]:
    """Closed-form minimizer: equispaced phases gamma + (i-1)/K (mod 1).

    The offset enters mod 1/K: shifting gamma by 1/K permutes the same
    phase set, so the sorted representative uses gamma reduced to
    [0, 1/K), keeping the assignment sorted for any real gamma.  The
    returned (K, K) slack array holds t[i, k] = min(|k-i|/K, 1 - |k-i|/K)
    for i < k, which equals d(rho_i, rho_k) at this solution, and zeros
    elsewhere.
    """
    k = int(n_users)
    if k < 2:
        raise ValueError("n_users must be >= 2")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    base = (gamma % 1.0) % (1.0 / k)
    rhos = base + np.arange(k, dtype=np.float64) / k
    rhos = np.minimum(rhos, np.nextafter(1.0, 0.0))  # guard rounding at the top edge
    i, j = np.triu_indices(k, 1)
    gap = j - i
    t = np.zeros((k, k))
    t[i, j] = np.minimum(gap / k, 1.0 - gap / k)
    return PhaseAssignment(rhos=rhos), t


def _alpha(t):
    """pi * cos(pi t) / sin(pi t)**2, the magnitude of d/dt 1/sin(pi t), elementwise."""
    # float_power squares through libm pow, as math's ** does; x * x can differ in the last bit
    return np.pi * np.cos(np.pi * t) / np.float_power(np.sin(np.pi * t), 2)


def alpha_tilde(m: int, n_users: int) -> float:
    """Multiplier magnitude for a pair with index gap m; symmetric under m <-> K-m."""
    k = int(n_users)
    if not 1 <= m <= k - 1:
        raise ValueError(f"gap must lie in [1, {k - 1}], got {m}")
    return float(_alpha(min(m / k, 1.0 - m / k)))


def construct_multipliers(
    n_users: int, solution: tuple[PhaseAssignment, np.ndarray]
) -> LagrangeMultipliers:
    """Multipliers certifying the equispaced solution.

    With gap m = k - i: for m < K/2 the lower constraint is active and lam
    carries alpha_tilde(m); for m > K/2 the wrap constraint is active and
    mu carries it; for even K the antipodal gap m = K/2 has both
    constraints active and the weight splits evenly.
    """
    k = int(n_users)
    _, t = solution
    i, j = np.triu_indices(k, 1)
    gap = j - i
    a = _alpha(t[i, j])
    a = np.where(gap == k / 2.0, a / 2.0, a)
    lam = np.zeros((k, k))
    mu = np.zeros((k, k))
    lam[i, j] = np.where(gap <= k / 2.0, a, 0.0)
    mu[i, j] = np.where(gap >= k / 2.0, a, 0.0)
    return LagrangeMultipliers(lam=lam, mu=mu)


def stationarity_vector(
    solution: tuple[PhaseAssignment, np.ndarray], multipliers: LagrangeMultipliers
) -> np.ndarray:
    """Gradient of the Lagrangian at the solution, stacked as (rhos, t-pairs).

    The t-pairs block is ordered (1,2), (1,3), ..., (1,K), (2,3), ...,
    (K-1,K); the whole vector vanishes at a KKT point.
    """
    assign, t = solution
    i, j = np.triu_indices(assign.n_users, 1)
    lam, mu = multipliers.lam, multipliers.mu
    net = lam - mu  # each pair adds net to its first phase and -net to its second
    grad_rho = net.sum(axis=1) - net.sum(axis=0)
    grad_t = lam[i, j] + mu[i, j] - _alpha(t[i, j])  # objective term d/dt 1/sin(pi t) = -alpha
    return np.concatenate([grad_rho, grad_t])


def kkt_residual(
    solution: tuple[PhaseAssignment, np.ndarray], multipliers: LagrangeMultipliers
) -> float:
    """Max-norm stationarity defect plus the worst complementary-slackness
    and primal-feasibility violations; near-zero certifies global
    optimality of the convex slack-form problem."""
    assign, t = solution
    rhos = assign.rhos
    i, j = np.triu_indices(assign.n_users, 1)
    t = t[i, j]
    lam, mu = multipliers.lam[i, j], multipliers.mu[i, j]
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


def verify_optimality_by_sampling(n_users: int, samples: int, seed: int) -> SamplingReport:
    """Draw random feasible sorted phase vectors and compare their objectives.

    Reports the best sampled objective and whether any sample improved on
    the closed-form optimum by more than 1e-12.  Samples are drawn
    vectorized from one seeded PCG64 stream.
    """
    k = int(n_users)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    assign, _ = global_solution(k, 0.0)
    opt = objective(assign)
    rng = np.random.default_rng(seed)
    best = math.inf
    chunk = max(1, min(int(samples), 200_000 // max(k, 1)))
    remaining = int(samples)
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        rho = np.sort(rng.random((m, k)), axis=1)
        best = min(best, float(np.min(_pair_sum(rho))))
    return SamplingReport(
        n_users=k,
        n_samples=int(samples),
        seed=int(seed),
        optimal_objective=opt,
        best_sampled_objective=best,
        shortfall=best - opt,
        optimum_beaten=bool(opt > best + 1e-12),
    )
