"""Spreading-sequence generators.

Covers the Weyl phase-increment family, the extended Frank-Zadoff-Chu
(FZC) family with a real-valued index, the equispaced-slot "optimal Weyl"
construction, binary Gold codes built from a preferred pair of LFSRs, and
the base-2 radical-inverse (Van der Corput) slot assignment.

All generators return unit-modulus complex chips; chip index n runs from
1 to N.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNIT_MODULUS_TOL",
    "AssignmentPolicy",
    "ChipSequence",
    "WeylParams",
    "FZCParams",
    "OptimalWeylParams",
    "weyl_sequence",
    "fzc_family_sequence",
    "optimal_weyl_sequence",
    "optimal_weyl_pool",
    "van_der_corput",
    "vdc_assignment",
    "GOLD_N_CHIPS",
    "GOLD_FAMILY_SIZE",
    "gold_code",
    "gold_family",
]

UNIT_MODULUS_TOL = 1e-12


def _integer(name: str, value, low, high=math.inf) -> int:
    """value as an int; a ValueError naming the field unless it is an integer in [low, high].

    numpy integers pass; a bool does not, nor a float, even a whole one, so nothing is truncated.
    """
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and low <= value <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _finite(name: str, value) -> float:
    """value as a float; a ValueError naming the field unless it is a finite real.

    numpy reals pass; a bool does not, nor a string or None, which are never parsed, nor an
    int beyond the float range.
    """
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


class AssignmentPolicy(str, enum.Enum):
    """How slot values sigma_k are handed out to users."""

    RANDOM = "random"          # sampled without replacement, fresh per trial
    FIXED = "fixed"            # sampled without replacement once per run
    VAN_DER_CORPUT = "vdc"     # sigma_k = N * v_k, k-th radical-inverse value
    SEQUENTIAL = "sequential"  # sigma_k = k - 1


def _unit_modulus(chips: np.ndarray) -> np.ndarray:
    """chips, after checking that every one is finite with unit modulus."""
    # written so that a NaN chip fails the check too
    if not np.all(np.abs(np.abs(chips) - 1.0) < UNIT_MODULUS_TOL):
        raise ValueError("chips must be finite with unit modulus")
    return chips


@dataclass(frozen=True)
class ChipSequence:
    """A length-N spreading code of unit-modulus complex chips."""

    chips: np.ndarray
    family_tag: str = ""

    def __post_init__(self) -> None:
        chips = np.asarray(self.chips, dtype=np.complex128)
        if chips.ndim != 1 or chips.size == 0:
            raise ValueError("chips must be a non-empty 1-D vector")
        object.__setattr__(self, "chips", _unit_modulus(chips))

    def __len__(self) -> int:
        return int(self.chips.size)


@dataclass(frozen=True)
class WeylParams:
    """Phase increment rho, initial offset delta, and length for a Weyl code."""

    rho: float
    delta: float
    n_chips: int

    def __post_init__(self) -> None:
        if not 0.0 <= _finite("rho", self.rho) < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0.0 <= _finite("delta", self.delta) < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        _integer("n_chips", self.n_chips, 1)


@dataclass(frozen=True)
class FZCParams:
    """Extended-FZC parameters: real index m_k and exponent triple (p, q, r).

    ``r=None`` encodes an absent third term (the classic families written
    with r = -infinity); a real ``-inf`` passed for r is normalized to
    ``None`` so the generator never evaluates n**-inf.
    """

    m_k: float
    p: float
    q: float
    r: float | None
    n_chips: int

    def __post_init__(self) -> None:
        _finite("m_k", self.m_k)
        _finite("p", self.p)
        _finite("q", self.q)
        if self.r is None or self.r == -math.inf:  # any real -inf; a string or bool never equals it
            object.__setattr__(self, "r", None)
        else:
            _finite("r", self.r)
        _integer("n_chips", self.n_chips, 1)
        if self.m_k < 0 and self.p != int(self.p):
            raise ValueError("negative m_k requires an integer exponent p")


@dataclass(frozen=True)
class OptimalWeylParams:
    """Slot-based Weyl code: chip phase increment gamma + sigma_k / k_max."""

    gamma: float
    sigma_k: int
    k_max: int
    n_chips: int

    def __post_init__(self) -> None:
        _finite("gamma", self.gamma)
        k_max = _integer("k_max", self.k_max, 1)
        _integer("sigma_k", self.sigma_k, 0, k_max - 1)
        _integer("n_chips", self.n_chips, 1)


def _weyl_chips(rho, delta: float, n_chips: int) -> np.ndarray:
    """Chips exp(2*pi*j*(n*rho + delta mod 1)) for n = 1..N, one row per entry of
    an array rho (a float rho gives one code)."""
    n = np.arange(1, n_chips + 1, dtype=np.float64)
    return np.exp(2j * np.pi * np.mod(np.multiply.outer(rho, n) + delta, 1.0))


def _slot_rho(gamma: float, sigma, k_max: int):
    """Phase increment gamma + sigma/k_max mod 1 of slot sigma (an int or an int array)."""
    # the second mod maps a tiny negative sum, which the first rounds up to 1.0, to 0.0
    return (gamma + sigma / k_max) % 1.0 % 1.0


def weyl_sequence(params: WeylParams) -> ChipSequence:
    """Generate chips exp(2*pi*j*(n*rho + delta mod 1)) for n = 1..N."""
    chips = _weyl_chips(params.rho, params.delta, params.n_chips)
    return ChipSequence(chips, family_tag=f"weyl(rho={params.rho:g},delta={params.delta:g})")


def fzc_family_sequence(params: FZCParams) -> ChipSequence:
    """Generate a member of the extended FZC family.

    Chip n is (-1)**(n*m_k) * exp(j*pi*(m_k**p * n**q + n**r) / N).  The
    alternating-sign factor is taken on the principal branch,
    exp(j*pi*n*m_k), which reduces to the usual +-1 for integer m_k and is
    what embeds the Weyl family at triple (1, 1, None) with
    m_k = rho * 2N/(N+1).
    """
    n_chips = params.n_chips
    n = np.arange(1, n_chips + 1, dtype=np.float64)
    try:
        scale = math.pow(params.m_k, params.p)
    except (OverflowError, ValueError):  # math.pow: "math range error", "math domain error"
        raise ValueError(
            f"m_k**p is not a finite real for m_k={params.m_k:g}, p={params.p:g}") from None
    # an overflowing phase gives non-finite chips, which ChipSequence rejects
    with np.errstate(over="ignore", invalid="ignore"):
        core = scale * np.power(n, params.q)
        if params.r is not None:
            core = core + np.power(n, params.r)
        phase = np.pi * n * params.m_k + np.pi * core / n_chips
        chips = np.exp(1j * phase)
    r_txt = "-inf" if params.r is None else f"{params.r:g}"
    tag = f"fzc(m={params.m_k:g},p={params.p:g},q={params.q:g},r={r_txt})"
    return ChipSequence(chips, family_tag=tag)


def optimal_weyl_sequence(params: OptimalWeylParams) -> ChipSequence:
    """Generate the slot-sigma_k member: Weyl code with rho = gamma + sigma_k/k_max mod 1."""
    rho = _slot_rho(params.gamma, params.sigma_k, params.k_max)
    tag = f"optimal-weyl(gamma={params.gamma:g},sigma={params.sigma_k},kmax={params.k_max})"
    return ChipSequence(_weyl_chips(rho, 0.0, params.n_chips), family_tag=tag)


def optimal_weyl_pool(gamma: float, k_max: int, n_chips: int) -> np.ndarray:
    """All k_max slot members as one (k_max, N) complex array.

    Row s equals ``optimal_weyl_sequence(OptimalWeylParams(gamma, s, k_max, n_chips)).chips``
    bit for bit.
    """
    gamma = _finite("gamma", gamma)
    k_max = _integer("k_max", k_max, 1)
    rho = _slot_rho(gamma, np.arange(k_max), k_max)
    return _unit_modulus(_weyl_chips(rho, 0.0, _integer("n_chips", n_chips, 1)))


def van_der_corput(index: int) -> float:
    """k-th element of the base-2 Van der Corput sequence, 1-indexed with v_1 = 0.

    Returns the base-2 radical inverse of (index - 1); exact because all
    values are dyadic rationals.
    """
    n = _integer("index", index, 1) - 1
    value = 0.0
    scale = 0.5
    while n:
        if n & 1:
            value += scale
        n >>= 1
        scale *= 0.5
    return value


def vdc_assignment(n_users: int, n_chips: int) -> np.ndarray:
    """Slot values sigma_k = N * v_k for users k = 1..K.

    Requires N = 2**m with m > 1 so every N*v_k is an integer; the first N
    values enumerate {0, ..., N-1} without repeats, so any user prefix is
    near-equispaced.
    """
    n = _integer("n_chips", n_chips, 4)
    if n & (n - 1):
        raise ValueError(f"n_chips must be a power of two >= 4, got {n_chips}")
    k = _integer("n_users", n_users, 1, n)
    sigma = np.array([int(n * van_der_corput(i)) for i in range(1, k + 1)], dtype=np.int64)
    return sigma


# The built-in Gold family: the preferred pair of primitive polynomials of degree 5,
# x^5 + x^2 + 1 and x^5 + x^4 + x^3 + x^2 + 1, each written as its exponents, degree first.
_GOLD_TAPS = ((5, 2), (5, 4, 3, 2))
GOLD_N_CHIPS = (1 << _GOLD_TAPS[0][0]) - 1  # 31
GOLD_FAMILY_SIZE = GOLD_N_CHIPS + 2  # 33


def _gold_length(n_chips: int) -> None:
    """Raise unless n_chips is the built-in Gold family's length."""
    if n_chips != GOLD_N_CHIPS:
        raise ValueError(f"the built-in gold family has n_chips = {GOLD_N_CHIPS}, got {n_chips}")


def _m_sequence(taps: tuple[int, ...]) -> np.ndarray:
    """Full-period m-sequence bits for the feedback polynomial with the given exponents.

    ``taps`` lists the nonzero exponents, the degree m first (the constant term is
    implied), e.g. (5, 2) for x^5 + x^2 + 1.  The bits follow the linear recurrence
    a_t = a_{t-m} XOR the a_{t-(m-e)} of the lower exponents e, seeded with ones.
    """
    degree = taps[0]
    offsets = [degree - e for e in taps[1:]] + [degree]
    period = (1 << degree) - 1
    seq = [1] * degree
    for t in range(degree, period):
        bit = 0
        for off in offsets:
            bit ^= seq[t - off]
        seq.append(bit)
    return np.array(seq, dtype=np.int8)


def gold_code(code_index: int) -> ChipSequence:
    """Member ``code_index`` of ``gold_family()``."""
    return gold_family()[_integer("code_index", code_index, 0, GOLD_FAMILY_SIZE - 1)]


def gold_family() -> list[ChipSequence]:
    """The ``GOLD_FAMILY_SIZE`` members of the built-in Gold family as +-1 chips.

    Each has ``GOLD_N_CHIPS`` = 2**5 - 1 chips.  Index 0 and 1 are the m-sequences u
    and v of the preferred pair ``_GOLD_TAPS``; index 2+s is u XOR (v cyclically
    shifted by s).
    """
    u, v = (_m_sequence(taps) for taps in _GOLD_TAPS)
    s = np.arange(u.size)
    bits = np.vstack([u, v, u ^ v[(s[:, None] + s) % u.size]])  # member 2+s: u ^ roll(v, -s)
    chips = (1.0 - 2.0 * bits.astype(np.float64)).astype(np.complex128)
    m = _GOLD_TAPS[0][0]
    return [ChipSequence(c, family_tag=f"gold(m={m},index={i})") for i, c in enumerate(chips)]
