"""Combinatorial coefficients b_r(n) and empirical 2r-th moment experiments
for windowed prime sums over character families."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Union

import numpy as np

from .errors import ResourceError
from .families import (
    OrderKFamilySpec,
    _discriminant_mask,
    _kronecker_column,
    psi_q,
)
from .lfunction import PrimeSumSpec
from .ntheory import factor, is_kth_power

_B_IDENTITY_MAX_PRIMES = 8
_B_IDENTITY_MAX_T = 6
_DIAGONAL_MAX_PRIMES = 6
_DIAGONAL_MAX_R = 4
_A = 2.0  # exponent in the z = (log Q)^A regime bookkeeping


@dataclass(frozen=True)
class QuadFamilySpec:
    """Fundamental discriminants d = 1 mod 4 with |d| <= Q (d = 1
    excluded), the positive ones first, then the negative ones."""

    Q: float

    def d_values(self) -> np.ndarray:
        limit = int(math.floor(self.Q))
        return np.concatenate(
            [delta * np.flatnonzero(_discriminant_mask(limit, delta)) for delta in (1, -1)]
        )


@dataclass(frozen=True)
class MomentSpec:
    family: Union[OrderKFamilySpec, QuadFamilySpec]
    r: int
    window: PrimeSumSpec

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"moment order r must be >= 1, got {self.r}")


def b_coefficient(r: int, n: int, window: PrimeSumSpec) -> int:
    """Number of ordered r-tuples of window primes with product n: the
    multinomial r!/(a_1! ... a_s!) on its support, else 0."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    f = factor(n)
    if f.big_omega() != r:
        return 0
    coef = math.factorial(r)
    for p, a in f.factors:
        if not (window.y < p < window.z):
            return 0
        coef //= math.factorial(a)
    return coef


def _window_primes(window: PrimeSumSpec, cap: int, what: str) -> list[int]:
    ps = [int(p) for p in window.primes()]
    if len(ps) > cap:
        raise ResourceError(
            f"{what} needs a window with <= {cap} primes; "
            f"({window.y}, {window.z}) contains {len(ps)}"
        )
    return ps


def _multiset_products(ps: list[int], r: int):
    """(n, b_r(n)) over all multisets of r window primes."""
    for combo in combinations_with_replacement(ps, r):
        n = math.prod(combo)
        coef = math.factorial(r)
        for p in set(combo):
            coef //= math.factorial(combo.count(p))
        yield n, coef


@dataclass(frozen=True)
class BIdentityRecord:
    t: int
    alpha: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


def b_identity_check(t: int, alpha: int, window: PrimeSumSpec) -> BIdentityRecord:
    """sum_n b_t(n)/n^alpha = (sum_{y<p<z} 1/p^alpha)^t, in exact rationals."""
    if not 1 <= t <= _B_IDENTITY_MAX_T:
        raise ValueError(f"t must be in 1..{_B_IDENTITY_MAX_T}, got {t}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    ps = _window_primes(window, _B_IDENTITY_MAX_PRIMES, "b_r identity check")
    lhs = sum(
        (Fraction(coef, n**alpha) for n, coef in _multiset_products(ps, t)),
        Fraction(0),
    )
    rhs = sum((Fraction(1, p**alpha) for p in ps), Fraction(0)) ** t
    return BIdentityRecord(t, alpha, lhs, rhs, lhs == rhs)


def b_product_inequality_check(
    r1: int, r2: int, window: PrimeSumSpec, bound_n: int
) -> list:
    """Exhaustively check b_{r1+r2}(n1 n2) <= C(r1+r2, r1) b_{r1}(n1) b_{r2}(n2)
    over window-supported n1, n2 up to bound_n; returns violations (none
    expected)."""
    ps = _window_primes(window, _B_IDENTITY_MAX_PRIMES, "product inequality sweep")
    binom = math.comb(r1 + r2, r1)
    violations = []
    for n1, b1 in _multiset_products(ps, r1):
        if n1 > bound_n:
            continue
        for n2, b2 in _multiset_products(ps, r2):
            if n2 > bound_n:
                continue
            lhs = b_coefficient(r1 + r2, n1 * n2, window)
            if lhs > binom * b1 * b2:
                violations.append((n1, n2, lhs, binom * b1 * b2))
    return violations


def diagonal_terms(r: int, k: int, window: PrimeSumSpec) -> Fraction:
    """Exact diagonal sum over pairs with n1 n2^{k-1} a k-th power:
    sum b_r(n1) b_r(n2) / (n1 n2), asserted <= 2^r r! (sum 1/p^2)^r."""
    if r > _DIAGONAL_MAX_R:
        raise ResourceError(f"diagonal sum capped at r <= {_DIAGONAL_MAX_R}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    ps = _window_primes(window, _DIAGONAL_MAX_PRIMES, "diagonal sum")
    total = Fraction(0)
    pairs = list(_multiset_products(ps, r))
    for n1, b1 in pairs:
        for n2, b2 in pairs:
            if is_kth_power(n1 * n2 ** (k - 1), k):
                total += Fraction(b1 * b2, n1 * n2)
    bound = (
        2**r
        * math.factorial(r)
        * sum((Fraction(1, p * p) for p in ps), Fraction(0)) ** r
    )
    if total > bound:
        raise AssertionError("diagonal sum exceeds its 2^r r! (sum 1/p^2)^r bound")
    return total


# ---------------------------------------------------------------------------
# empirical moments


@dataclass(frozen=True)
class MomentRecord:
    family_kind: str  # "orderk" or "quadratic"
    family_size: int
    r: int
    lhs_avg: float  # average of |prime sum|^{2r} over the family
    rhs_main: float  # the statement's main term (see empirical_moment)
    rhs_error_term: float
    implied_constant: float
    regime_r_max: float
    regime_warned: bool


def _orderk_prime_sums(spec: OrderKFamilySpec, primes: np.ndarray) -> np.ndarray:
    """S_m = sum_p psi_tilde_m(p)/p for every m = q1 q2, via per-prime rows
    of psi_q values (psi_tilde = psi_{q1} conj(psi_{q2}) pointwise)."""
    qs = [int(q) for q in spec.window_primes()]
    if len(qs) < 2:
        return np.zeros(0, dtype=np.complex128)
    rows = np.array([psi_q(q, spec.k).complex_at(primes) for q in qs])
    t = rows * (1.0 / primes)  # row i scaled by 1/p
    gram = t @ rows.conj().T  # gram[i, j] = S_{q_i q_j}
    iu = np.triu_indices(len(qs), k=1)
    return gram[iu]


def _quadratic_prime_sums(spec: QuadFamilySpec, primes: np.ndarray) -> np.ndarray:
    """S_d = sum_p chi_d(p)/p for every d of the family."""
    ds = spec.d_values()
    s = np.zeros(len(ds), dtype=np.complex128)
    for p in primes.tolist():
        s += (1.0 / p) * _kronecker_column(ds, p)
    return s


def empirical_moment(spec: MomentSpec) -> MomentRecord:
    """Average |sum_{y<p<z} chi(p)/p|^{2r} over the family, against the
    moment bound's main term.

    order-k families: the bound is on the family SUM, main term
    2^r r! Q (sum 1/p^2)^r; implied_constant = lhs_sum / rhs_main.
    quadratic families: the bound is on the family AVERAGE, main term
    (2r)!/r! (sum 1/p^2)^r; implied_constant = lhs_avg / rhs_main.
    """
    primes = spec.window.primes()
    p2 = float(np.sum(1.0 / primes.astype(np.float64) ** 2)) if len(primes) else 0.0
    r = spec.r
    loglogQ = math.log(max(math.e, math.log(spec.family.Q)))
    logQ = math.log(spec.family.Q)
    if isinstance(spec.family, OrderKFamilySpec):
        kind = "orderk"
        k = spec.family.k
        if spec.window.y <= k:
            warnings.warn(
                f"window start y={spec.window.y} is not above k={k}", stacklevel=2
            )
        sums = _orderk_prime_sums(spec.family, primes)
        rhs_main = 2**r * math.factorial(r) * spec.family.Q * p2**r
        rhs_error = spec.family.Q ** (1.0 - 1.0 / (4.0 * k))
        r_max = logQ / (3.0 * _A * k * k * loglogQ)
    elif isinstance(spec.family, QuadFamilySpec):
        kind = "quadratic"
        sums = _quadratic_prime_sums(spec.family, primes)
        rhs_main = math.factorial(2 * r) / math.factorial(r) * p2**r
        rhs_error = spec.family.Q ** (-1.0 / 3.0)
        r_max = logQ / (6.0 * _A * loglogQ)
    else:
        raise TypeError(f"unsupported family {type(spec.family).__name__}")
    if len(sums) == 0:
        raise ValueError("moment experiment needs a nonempty family")
    warned = r > r_max
    if warned:
        warnings.warn(
            f"r={r} is outside the regime r <= {r_max:.2f} (A={_A})",
            stacklevel=2,
        )
    powers = np.abs(sums) ** (2 * r)
    lhs_sum = float(np.sum(powers))
    lhs_avg = lhs_sum / len(sums)
    implied = (lhs_sum if kind == "orderk" else lhs_avg) / rhs_main if rhs_main else 0.0
    return MomentRecord(
        family_kind=kind,
        family_size=len(sums),
        r=r,
        lhs_avg=lhs_avg,
        rhs_main=rhs_main,
        rhs_error_term=rhs_error,
        implied_constant=implied,
        regime_r_max=r_max,
        regime_warned=warned,
    )
