"""Analytic SNR for asynchronous CDMA with unit-modulus spreading codes.

Implements the correlator-output SNR built from pairwise interference
moments, the closed-form expected SNR for the slot-based Weyl family with
k_max = N under uniformly random distinct slots, and its worst-slot lower
bound.  The intermediate identities of the expectation (the cosecant-square
sum and the per-gap closed form of the interference moment) are exposed
separately so each derivation step can be tested on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from weylcdma.correlation import r_ik

__all__ = [
    "LinkBudget",
    "pursley_snr",
    "expected_weyl_snr",
    "snr_lower_bound",
    "csc2_sum",
    "r_ik_closed",
    "expected_r_sum",
    "expected_r_sum_terms",
]


@dataclass(frozen=True)
class LinkBudget:
    """Link parameters: E/N0 on a linear scale plus code length and user count.

    The CLI converts dB input exactly once (via ``from_db``); everything in
    this module works on the linear ratio.
    """

    e_over_n0: float
    n_chips: int
    n_users: int

    def __post_init__(self) -> None:
        if not self.e_over_n0 > 0:
            raise ValueError("e_over_n0 must be positive")
        if int(self.n_chips) < 2:
            raise ValueError("n_chips must be >= 2")
        if int(self.n_users) < 1:
            raise ValueError("n_users must be >= 1")

    @classmethod
    def from_db(cls, ebn0_db: float, n_chips: int, n_users: int) -> "LinkBudget":
        """The package's one dB-to-linear conversion; +inf dB is noise-free.

        A value whose linear ratio or noise term N0/2E is not a finite
        float (nan, -inf, or beyond about +-3000 dB) is rejected.
        """
        try:
            e_over_n0 = 10.0 ** (float(ebn0_db) / 10.0)  # a Python float raises on overflow
            noise_term = 0.5 / e_over_n0
        except (OverflowError, ZeroDivisionError):
            noise_term = math.nan
        if not noise_term < math.inf:
            raise ValueError(f"ebn0_db must lie in about [-3000, 3000] dB or be +inf, got {ebn0_db}")
        return cls(e_over_n0=e_over_n0, n_chips=n_chips, n_users=n_users)

    @property
    def noise_term(self) -> float:
        """N0 / (2E), the additive noise contribution to the SNR denominator."""
        return 0.5 / self.e_over_n0


def pursley_snr(user_i: int, family, budget: LinkBudget) -> float:
    """Correlator-output SNR of user i against the other codes in ``family``.

    SNR_i = {sum_{k != i} r_ik / (6 N^3) + N0/2E}^(-1/2), with r_ik the
    adjacent-lag interference moment evaluated by direct summation.
    """
    codes = [np.asarray(getattr(s, "chips", s), dtype=np.complex128) for s in family]
    if not codes:
        raise ValueError("family must contain at least one code")
    n = codes[0].size
    if any(c.size != n for c in codes):
        raise ValueError("all codes in the family must have equal length")
    if not 0 <= user_i < len(codes):
        raise ValueError(f"user_i must lie in [0, {len(codes)}), got {user_i}")
    mai = sum(r_ik(codes[user_i], c) for k, c in enumerate(codes) if k != user_i)
    return (mai / (6.0 * n**3) + budget.noise_term) ** -0.5


def expected_weyl_snr(
    sigma_i: int, gamma: float, n_users: int, n_chips: int, budget: LinkBudget
) -> float:
    """Closed-form expected SNR of slot sigma_i for the k_max = N Weyl family.

    Uses the interference variance
    R_i = (K-1)/(18 N^2) * {2(N+1) + (N-2) cos(2 pi (gamma + sigma_i/N))},
    exact when all N slots are occupied (K = N) and a good approximation
    for K/N near 1.
    """
    k, n = int(n_users), int(n_chips)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not 0 <= int(sigma_i) < n:
        raise ValueError(f"sigma_i must lie in [0, {n}), got {sigma_i}")
    if k < 1:
        raise ValueError("n_users must be >= 1")
    if k == 1:
        r_i = 0.0
    else:
        cos_term = math.cos(2.0 * math.pi * (gamma + sigma_i / n))
        r_i = (k - 1) / (18.0 * n**2) * (2.0 * (n + 1) + (n - 2) * cos_term)
    return (r_i + budget.noise_term) ** -0.5


def snr_lower_bound(n_users: int, n_chips: int, budget: LinkBudget) -> float:
    """Worst-slot SNR bound {(K-1)/(6N) + N0/2E}^(-1/2)."""
    k, n = int(n_users), int(n_chips)
    if k < 1:
        raise ValueError("n_users must be >= 1")
    return ((k - 1) / (6.0 * n) + budget.noise_term) ** -0.5


def csc2_sum(n: int) -> float:
    """Direct sum of 1/sin^2(pi k/n) for k = 1..n-1; equals (n^2 - 1)/3.

    Each term uses the reflection sin(pi*k/n) = sin(pi*(n-k)/n) with the
    smaller argument, which keeps the large terms near the ends well
    conditioned.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    k = np.arange(1, n)
    frac = np.minimum(k, n - k) / n
    return float(np.sum(1.0 / np.sin(np.pi * frac) ** 2))


def r_ik_closed(sigma_i: int, sigma_k: int, gamma: float, n_chips: int) -> float:
    """Closed-form interference moment for a k_max = N Weyl pair.

    N * {4 + cos(2 pi (gamma + sigma_k/N)) + cos(2 pi (gamma + sigma_i/N))}
    / (1 - cos(2 pi (sigma_k - sigma_i)/N)); the denominator is evaluated
    as 2 sin^2(pi d) with d the wrap-around slot distance.  Coincident
    slots are rejected (the model assumes distinct slots).
    """
    n = int(n_chips)
    si, sk = int(sigma_i) % n, int(sigma_k) % n
    if si == sk:
        raise ValueError("sigma_i and sigma_k must be distinct mod N")
    gap = abs(sk - si)
    d = min(gap, n - gap) / n
    denom = 2.0 * math.sin(math.pi * d) ** 2
    num = 4.0 + math.cos(2.0 * math.pi * (gamma + sk / n)) + math.cos(
        2.0 * math.pi * (gamma + si / n)
    )
    return n * num / denom


def expected_r_sum_terms(
    sigma_i: int, gamma: float, n_users: int, n_chips: int
) -> tuple[float, float]:
    """The two pieces of the expected interference-moment sum.

    Expectation over uniformly random distinct slots sigma_k, written as a
    (K-1)/(N-1)-weighted sum over the slot gap q = 1..N-1.  Returns
    (coupling term, cosine term): the first equals 2N(N+1)(K-1)/3 and the
    second N(N-2)(K-1)/3 * cos(2 pi (gamma + sigma_i/N)).
    """
    k, n = int(n_users), int(n_chips)
    if k < 2:
        raise ValueError("n_users must be >= 2")
    si = int(sigma_i) % n
    weight = (k - 1) / (n - 1)
    coupling = 0.0
    cosine = 0.0
    cos_i = math.cos(2.0 * math.pi * (gamma + si / n))
    for q in range(1, n):
        d = min(q, n - q) / n
        denom = 2.0 * math.sin(math.pi * d) ** 2
        cos_k = math.cos(2.0 * math.pi * (gamma + (si + q) % n / n))
        coupling += 4.0 * n / denom
        cosine += n * (cos_k + cos_i) / denom
    return weight * coupling, weight * cosine


def expected_r_sum(sigma_i: int, gamma: float, n_users: int, n_chips: int) -> float:
    """Expected value of sum_{k != i} r_ik over random distinct slots.

    Dividing by 6 N^3 recovers the interference variance used by
    ``expected_weyl_snr``.
    """
    coupling, cosine = expected_r_sum_terms(sigma_i, gamma, n_users, n_chips)
    return coupling + cosine
