"""Analytic SNR for asynchronous CDMA with unit-modulus spreading codes.

Implements the correlator-output SNR built from pairwise interference
moments, the closed-form expected SNR for the slot-based Weyl family with
k_max = N under uniformly random distinct slots, and its worst-slot lower
bound.  The intermediate identities of the expectation (the cosecant-square
sum and the per-gap closed form of the interference moment) are exposed
separately so each derivation step can be tested on its own.  The SNR
functions take E/N0 in dB, which enters only as ``noise_term``'s N0/2E.
"""

from __future__ import annotations

import math

import numpy as np

from weylcdma.correlation import _adjacent_moment, _codes, _cross_table
from weylcdma.correlation import r_ik  # noqa: F401 -- unused here, but perfbench rebinds it
from weylcdma.sequences import _finite, _integer

__all__ = [
    "noise_term",
    "pursley_snr",
    "expected_weyl_snr",
    "snr_lower_bound",
    "csc2_sum",
    "r_ik_closed",
    "expected_r_sum",
    "expected_r_sum_terms",
]


def noise_term(ebn0_db: float) -> float:
    """N0/2E of an E/N0 in dB, the package's one dB-to-linear conversion; 0 at +inf dB.  A
    ValueError unless ebn0_db is +inf or a finite real (``sequences._finite``) within about
    +-3000 dB, where its linear ratio and N0/2E are finite floats."""
    db = math.inf if ebn0_db == math.inf else _finite("ebn0_db", ebn0_db)
    try:
        term = 0.5 / 10.0 ** (db / 10.0)  # a Python float raises on overflow
    except (OverflowError, ZeroDivisionError):
        term = math.nan
    if not term < math.inf:
        raise ValueError(f"ebn0_db must lie in about [-3000, 3000] dB or be +inf, got {ebn0_db}")
    return term


class LinkBudget:  # unused here, but perfbench/workloads.py calls from_db, whose value is ebn0_db
    from_db = staticmethod(lambda ebn0_db, n_chips, n_users: ebn0_db)


def _inverse_sqrt(variance: float) -> float:
    """variance^(-1/2); +inf for a zero variance, which has neither interference nor noise."""
    return math.inf if variance == 0.0 else variance ** -0.5


def pursley_snr(user_i: int, family, ebn0_db: float) -> float:
    """Correlator-output SNR of user i against the other codes in ``family``.

    SNR_i = {sum_{k != i} r_ik / (6 N^3) + N0/2E}^(-1/2), with r_ik the
    adjacent-lag interference moment.  User i's row of lag vectors against
    every other code is built at once, one matrix product per lag, and each
    r_ik is read off it; +inf for a lone code at +inf dB.
    """
    noise = noise_term(ebn0_db)
    codes = _codes(family)
    n = codes.shape[1]
    i = _integer("user_i", user_i, 0, len(codes) - 1)
    row = _cross_table(codes[i : i + 1], np.delete(codes, i, axis=0))[0]
    mai = float(np.sum(_adjacent_moment(row)))
    return _inverse_sqrt(mai / (6.0 * n**3) + noise)


def expected_weyl_snr(
    sigma_i: int, gamma: float, n_users: int, n_chips: int, ebn0_db: float
) -> float:
    """Closed-form expected SNR of slot sigma_i for the k_max = N Weyl family.

    Uses the interference variance
    R_i = (K-1)/(18 N^2) * {2(N+1) + (N-2) cos(2 pi (gamma + sigma_i/N))},
    exact when all N slots are occupied (K = N) and a good approximation
    for K/N near 1.
    """
    noise = noise_term(ebn0_db)
    gamma = _finite("gamma", gamma) % 1.0  # reduced first: a large gamma keeps its fraction
    n = _integer("n_chips", n_chips, 1)
    si = _integer("sigma_i", sigma_i, 0, n - 1)
    k = _integer("n_users", n_users, 1, n)
    cos_term = math.cos(2.0 * math.pi * (gamma + si / n))
    r_i = (k - 1) / (18.0 * n**2) * (2.0 * (n + 1) + (n - 2) * cos_term)  # +0.0 at K = 1
    return _inverse_sqrt(r_i + noise)


def snr_lower_bound(n_users: int, n_chips: int, ebn0_db: float) -> float:
    """Worst-slot SNR bound {(K-1)/(6N) + N0/2E}^(-1/2) for K distinct slots out of N."""
    noise = noise_term(ebn0_db)
    n = _integer("n_chips", n_chips, 1)
    k = _integer("n_users", n_users, 1, n)
    return _inverse_sqrt((k - 1) / (6.0 * n) + noise)


def csc2_sum(n: int) -> float:
    """Direct sum of 1/sin^2(pi k/n) for k = 1..n-1; equals (n^2 - 1)/3.

    Each term uses the reflection sin(pi*k/n) = sin(pi*(n-k)/n) with the
    smaller argument, which keeps the large terms near the ends well
    conditioned.
    """
    n = _integer("n", n, 2)
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
    gamma = _finite("gamma", gamma) % 1.0  # reduced first: a large gamma keeps its fraction
    n = _integer("n_chips", n_chips, 2)
    si = _integer("sigma_i", sigma_i, -math.inf) % n
    sk = _integer("sigma_k", sigma_k, -math.inf) % n
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
    gamma = _finite("gamma", gamma) % 1.0  # reduced first: a large gamma keeps its fraction
    n = _integer("n_chips", n_chips, 2)
    k = _integer("n_users", n_users, 2, n)
    si = _integer("sigma_i", sigma_i, -math.inf) % n
    q = np.arange(1, n)
    denom = 2.0 * np.sin(np.pi * (np.minimum(q, n - q) / n)) ** 2  # as in r_ik_closed
    cos_k = np.cos(2.0 * np.pi * (gamma + (si + q) % n / n))
    cos_i = math.cos(2.0 * math.pi * (gamma + si / n))
    weight = (k - 1) / (n - 1)
    return weight * float(np.sum(4.0 * n / denom)), weight * float(np.sum(n * (cos_k + cos_i) / denom))


def expected_r_sum(sigma_i: int, gamma: float, n_users: int, n_chips: int) -> float:
    """Expected value of sum_{k != i} r_ik over random distinct slots.

    Dividing by 6 N^3 recovers the interference variance used by
    ``expected_weyl_snr``.
    """
    coupling, cosine = expected_r_sum_terms(sigma_i, gamma, n_users, n_chips)
    return coupling + cosine
