"""Correlation machinery for spreading-sequence pairs.

Provides the lag-windowed aperiodic partial correlation C(l), lag tables
with their periodic and odd combinations theta(l) = C(l) + C(l-N) and
theta_hat(l) = C(l) - C(l-N), the closed form and crosscorrelation bound
for Weyl-class pairs, and the adjacent-lag interference moment r used by
the analytic SNR.  Every code needs at least one chip, all finite.

Lag conventions match 1-indexed chips: for 0 <= l <= N-1,
C(l) = sum_{n=1}^{N-l} conj(x[n+l]) * y[n]; for 1-N <= l < 0,
C(l) = sum_{n=1}^{N+l} conj(x[n]) * y[n-l]; C vanishes for |l| >= N.
Single lags are evaluated by np.dot, a pair's lag vector by np.correlate,
and the lag table of many pairs (a family's, or one receiver's row against
a family) by one matrix product per lag, 2N - 1 in all, so rounding error
stays far below the tolerances used by callers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from weylcdma.sequences import _finite, _integer

__all__ = [
    "DegeneratePhaseError",
    "DegeneratePhaseWarning",
    "CorrelationProfile",
    "aperiodic_c",
    "weyl_c_closed_form",
    "circle_distance",
    "cross_bound",
    "r_ik",
    "aperiodic_table",
    "theta_pairs",
    "correlation_profile",
]


class DegeneratePhaseError(ValueError):
    """Raised when two phases coincide mod 1 and the requested bound diverges."""


class DegeneratePhaseWarning(UserWarning):
    """Emitted when coincident phases force the closed form onto its limit value N - l."""


def _chips(x, check: bool = True) -> np.ndarray:
    a = np.asarray(getattr(x, "chips", x), dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError("expected a 1-D chip vector")
    return _checked(a) if check else a


def _checked(codes: np.ndarray) -> np.ndarray:
    """codes (..., N) as they are; a ValueError for a code with no chips or a non-finite chip."""
    if not codes.shape[-1]:
        raise ValueError("a code must have at least one chip")
    if not np.isfinite(codes).all():
        raise ValueError("every chip must be finite")
    return codes


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a, b = _chips(x), _chips(y)
    if a.size != b.size:
        raise ValueError(f"sequence lengths differ: {a.size} != {b.size}")
    return a, b


def _codes(family) -> np.ndarray:
    """A non-empty family of equal-length codes as one (F, N) complex array.

    An (F, N) array is taken as it is: no copy when it is already complex128.
    """
    if isinstance(family, np.ndarray) and family.ndim == 2:
        codes = family.astype(np.complex128, copy=False)
    else:
        rows = [_chips(s, check=False) for s in family]  # checked once, stacked
        if any(c.size != rows[0].size for c in rows):
            raise ValueError("all codes in the family must have equal length")
        codes = np.vstack(rows) if rows else np.empty((0, 0), dtype=np.complex128)
    if not len(codes):
        raise ValueError("family must contain at least one code")
    return _checked(codes)


def aperiodic_c(x, y, lag: int) -> complex:
    """Aperiodic partial correlation C_{x,y}(lag); zero for |lag| >= N."""
    a, b = _pair(x, y)
    n = a.size
    l = _integer("lag", lag, -math.inf)
    if abs(l) >= n:
        return 0j
    if l >= 0:
        return complex(np.dot(np.conj(a[l:]), b[: n - l]))
    return complex(np.dot(np.conj(a[: n + l]), b[-l:]))


def weyl_c_closed_form(rho_i: float, rho_k: float, lag: int, n_chips: int) -> float:
    """|C(lag)| for a Weyl pair: |sin(pi*(N-lag)*(rho_k-rho_i)) / sin(pi*(rho_k-rho_i))|.

    Coincident phases (rho_i == rho_k mod 1) are a removable singularity of
    the quotient; the limit value N - lag is returned and a
    DegeneratePhaseWarning is emitted, because the companion bound
    ``cross_bound`` is genuinely infinite there.
    """
    _finite("rho_i", rho_i)
    _finite("rho_k", rho_k)
    n = _integer("n_chips", n_chips, 1)
    l = _integer("lag", lag, 0, n - 1)
    diff = (rho_k % 1.0 - rho_i % 1.0) % 1.0  # reduced first: a large phase keeps its fraction
    denom = math.sin(math.pi * diff)
    if denom == 0.0:
        warnings.warn(
            "coincident phases: closed form degenerates to |C| = N - lag",
            DegeneratePhaseWarning,
            stacklevel=2,
        )
        return float(n - l)
    return abs(math.sin(math.pi * (n - l) * diff) / denom)


def circle_distance(rho_i, rho_k):
    """Wrap-around distance min(|rho_i - rho_k|, 1 - |rho_i - rho_k|) in [0, 1/2], elementwise,
    of the phases reduced mod 1 (so a large phase keeps its fractional part)."""
    diff = np.abs(np.subtract(np.mod(rho_i, 1.0), np.mod(rho_k, 1.0)))
    diff = diff - np.floor(diff)  # fractional part; exact for diff >= 0
    return np.minimum(diff, 1.0 - diff)


def cross_bound(rho_i: float, rho_k: float) -> float:
    """Upper bound 1 / sin(pi * d(rho_i, rho_k)) on |C| over all lags.

    Symmetric in its arguments.  Raises DegeneratePhaseError when the
    phases coincide mod 1: the bound is infinite and callers must not
    treat it as finite.
    """
    _finite("rho_i", rho_i)
    _finite("rho_k", rho_k)
    s = math.sin(math.pi * circle_distance(rho_i, rho_k))
    if s == 0.0:
        raise DegeneratePhaseError(
            f"phases coincide mod 1 (rho_i={rho_i}, rho_k={rho_k}); bound is infinite"
        )
    return 1.0 / s


def _lag_vector(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C(l) for l = -N..N as one array indexed l + N; the l = +-N ends are zero."""
    c = np.zeros(2 * a.size + 1, dtype=np.complex128)
    c[1:-1] = np.correlate(b, a, "full")[::-1]
    return c


def _adjacent_moment(c: np.ndarray) -> np.ndarray:
    """The interference moment of each lag vector along the last axis of c (..., 2N+1)."""
    # the pairs (C(l-N), C(l-N+1)) and (C(l), C(l+1)) over l = 0..N-1 are
    # together every adjacent pair of the lag vector
    lo, hi = c[..., :-1], c[..., 1:]
    return np.sum(np.abs(lo) ** 2 + (lo * hi.conj()).real + np.abs(hi) ** 2, axis=-1)


def r_ik(x, y) -> float:
    """Adjacent-lag interference moment of a sequence pair.

    Sum over lags l = 0..N-1 of the squared partial correlations at
    l-N, l-N+1, l, l+1 plus the real cross terms of each adjacent pair.
    Equals 6*N**3 times the variance of the per-interferer despread output
    under uniform random delay, carrier phase, and symbol signs, so that
    {sum_k r/(6N^3) + N0/2E}^(-1/2) is the analytic SNR.  The lag vector
    comes from np.correlate, not from a lag table, so r_ik is a per-pair
    check on the table-based ``snr.pursley_snr``.
    """
    return float(_adjacent_moment(_lag_vector(*_pair(x, y))))


def _cross_table(receivers: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """T[m, k, lag + N] = C(lag) of receivers[m] against codes[k], (M, F, 2N+1); a matmul per lag."""
    m, n = receivers.shape
    table = np.zeros((m, len(codes), 2 * n + 1), dtype=np.complex128)
    rc = np.conj(receivers)
    for l in range(n):
        table[:, :, n + l] = rc[:, l:] @ codes[:, : n - l].T
        if l:
            table[:, :, n - l] = rc[:, : n - l] @ codes[:, l:].T
    return table


def aperiodic_table(family) -> np.ndarray:
    """All pairwise aperiodic correlations of a family of equal-length codes.

    Returns an (F, F, 2N+1) complex array T with T[i, k, lag + N] =
    C_{i,k}(lag) for lag in [-N, N]; the lag = +-N planes are zero.
    """
    x = _codes(family)
    return _cross_table(x, x)


def theta_pairs(table: np.ndarray) -> np.ndarray:
    """Adjacent-lag theta/theta_hat pairs of an ``aperiodic_table`` layout.

    Takes a (..., 2N+1) lag table, N >= 1, and returns (..., 2, N, 2) with
    [..., s, l, :] = (Theta_s(l), Theta_s(l+1)) for l = 0..N-1, where
    Theta_0 = theta and Theta_1 = theta_hat; the l+1 = N entries are
    theta(N) = theta(0) and theta_hat(N) = -theta_hat(0).
    """
    n, odd = divmod(table.shape[-1], 2)
    if not (odd and n):
        raise ValueError(f"expected a lag axis of 2N + 1 entries with N >= 1, got {table.shape[-1]}")
    current, previous = table[..., n:], table[..., : n + 1]  # C(l), C(l - N) for l = 0..N
    pairs = np.empty(table.shape[:-1] + (2, n, 2), dtype=table.dtype)
    for j in (0, 1):  # [..., s, l, j] = Theta_s(l + j)
        np.add(current[..., j : n + j], previous[..., j : n + j], out=pairs[..., 0, :, j])
        np.subtract(current[..., j : n + j], previous[..., j : n + j], out=pairs[..., 1, :, j])
    return pairs


@dataclass(frozen=True)
class CorrelationProfile:
    """Per-lag correlation summary of one sequence pair.

    ``lags`` runs over 1-N .. N-1 and indexes ``c_values``; ``theta`` and
    ``theta_hat`` hold the periodic/odd combinations for lags 0 .. N-1.
    """

    lags: np.ndarray
    c_values: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray


def correlation_profile(x, y) -> CorrelationProfile:
    """Evaluate C over all lags plus theta and theta_hat for one pair."""
    a, b = _pair(x, y)
    n = a.size
    c = _lag_vector(a, b)
    theta, theta_hat = theta_pairs(c)[..., 0]
    return CorrelationProfile(
        lags=np.arange(1 - n, n),
        c_values=c[1:-1],
        theta=theta,
        theta_hat=theta_hat,
    )
