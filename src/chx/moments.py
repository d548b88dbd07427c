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
from .ntheory import factor, sieve_primes

_B_IDENTITY_MAX_PRIMES = 8
_B_IDENTITY_MAX_T = 6
_DIAGONAL_MAX_PRIMES = 6
_DIAGONAL_MAX_R = 4
_A = 2.0  # exponent in the z = (log Q)^A regime bookkeeping
_TRIAL_BOUND = 2**10  # b_coefficient trial-divides by the primes up to here


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


def b_coefficient(r: int, n, window: PrimeSumSpec):
    """Number of ordered r-tuples of window primes with product n: the
    multinomial r!/(a_1! ... a_s!) on its support, else 0.

    n is an int, for which an int comes back, or an int array, for which an
    int64 array of its shape comes back; every entry must lie in [1, 2**63).
    All entries are trial-divided at once by the primes up to
    B = min(sqrt(max n), _TRIAL_BOUND): the window primes are divided out and
    counted, any other prime marks its entries off the support.  What is left
    then has no prime factor <= B, so below (B + 1)**2 it is 1 or one prime,
    read off by the window's ends; only a cofactor past (B + 1)**2, which
    needs n >= 2**20, is factored, once per distinct value.  b_r(n) is
    non-zero only where the cofactor is 1 and Omega(n) = r, and there its
    multinomial comes from a table of k! for k <= r; it fits in int64, as the
    window primes are >= 3."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    ns = np.asarray(n)
    if ns.dtype.kind not in "iu" or (ns.size and not 1 <= ns.min() <= ns.max() < 2**63):
        got = n if ns.ndim == 0 else ns
        raise ValueError(f"n must be positive integers below 2**63, got {got}")
    rem = ns.astype(np.int64).ravel()
    bound = min(math.isqrt(int(rem.max(initial=1))), _TRIAL_BOUND)
    exps = []  # the exponent of each window prime up to the bound
    off = np.zeros(len(rem), dtype=bool)  # a prime outside the window divides n
    for p in sieve_primes(max(2, bound)).in_range(1, bound + 1).tolist():
        hit = rem % p == 0
        if not window.y < p < window.z:
            off |= hit
            continue
        a = np.zeros(len(rem), dtype=np.int64)
        while hit.any():
            a += hit
            rem[hit] //= p
            hit = rem % p == 0
        exps.append(a)
    omega = sum(exps, np.zeros(len(rem), dtype=np.int64))
    last = (rem < (bound + 1) ** 2) & (window.y < rem) & (rem < window.z)
    omega += last  # one window prime above the bound
    rem[last] = 1
    den = np.ones(len(rem), dtype=np.int64)  # prod a! over a factored cofactor's primes
    for v in set(rem[(rem >= (bound + 1) ** 2) & ~off & (omega < r)].tolist()):
        fs = dict(factor(v).factors)
        if all(window.y < p < window.z for p in fs):
            at = rem == v
            omega[at] += sum(fs.values())
            den[at] = math.prod(map(math.factorial, fs.values()))
            rem[at] = 1
    support = np.flatnonzero((rem == 1) & ~off & (omega == r))
    out = np.zeros(len(rem), dtype=np.int64)
    if len(support):  # so r = Omega(n) < 63
        # r! passes int64 at 21: Python ints there
        fact = np.array([math.factorial(k) for k in range(r + 1)],
                        dtype=np.int64 if r <= 20 else object)
        a = np.array(exps, dtype=np.int64).reshape(len(exps), len(rem))[:, support]
        out[support] = fact[r] // (fact[a].prod(axis=0) * den[support])
    return int(out[0]) if ns.ndim == 0 else out.reshape(ns.shape)


def _window_primes(window: PrimeSumSpec, cap: int, what: str) -> list[int]:
    ps = [int(p) for p in window.primes()]
    if len(ps) > cap:
        raise ResourceError(
            f"{what} needs a window with <= {cap} primes; "
            f"({window.y}, {window.z}) contains {len(ps)}"
        )
    return ps


def _multiset_products(ps: list[int], r: int):
    """(exponents, n, b_r(n)) over all multisets of r window primes, the
    exponents of n at each of `ps` in order."""
    for combo in combinations_with_replacement(ps, r):
        exps = tuple(combo.count(p) for p in ps)
        yield exps, math.prod(combo), math.factorial(r) // math.prod(map(math.factorial, exps))


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
    # each n is a product of t window primes, so n^alpha divides D
    D = math.prod(ps) ** (alpha * t)
    lhs = Fraction(sum(coef * (D // n**alpha) for _, n, coef in _multiset_products(ps, t)), D)
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
    side1 = [(n1, b1) for _, n1, b1 in _multiset_products(ps, r1) if n1 <= bound_n]
    side2 = [(n2, b2) for _, n2, b2 in _multiset_products(ps, r2) if n2 <= bound_n]
    pairs = [(n1, n2, binom * b1 * b2) for n1, b1 in side1 for n2, b2 in side2]
    if not pairs:
        return []
    lhs = b_coefficient(r1 + r2, [n1 * n2 for n1, n2, _ in pairs], window)
    return [(n1, n2, int(b), rhs) for (n1, n2, rhs), b in zip(pairs, lhs.tolist()) if b > rhs]


def diagonal_terms(r: int, k: int, window: PrimeSumSpec) -> Fraction:
    """Exact diagonal sum over pairs with n1 n2^{k-1} a k-th power:
    sum b_r(n1) b_r(n2) / (n1 n2), asserted <= 2^r r! (sum 1/p^2)^r.

    n1 n2^{k-1} is a k-th power exactly when n1 and n2 have the same
    exponents mod k at every window prime, so the sum is, over those
    classes, (sum of b_r(n)/n in the class)^2: no factorization, and no
    product n1 n2^{k-1} (which passes 2^63 already at r = 3, k = 6)."""
    if r > _DIAGONAL_MAX_R:
        raise ResourceError(f"diagonal sum capped at r <= {_DIAGONAL_MAX_R}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    ps = _window_primes(window, _DIAGONAL_MAX_PRIMES, "diagonal sum")
    classes: dict[tuple, Fraction] = {}
    for exps, n, coef in _multiset_products(ps, r):
        key = tuple(a % k for a in exps)
        classes[key] = classes.get(key, Fraction(0)) + Fraction(coef, n)
    total = sum((s * s for s in classes.values()), Fraction(0))
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
    # gram[i, j] = S_{q_i q_j}, by einsum: no BLAS thread pool decides its bits
    gram = np.einsum("ip,jp->ij", t, rows.conj())
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
    return _moment_records(spec.family, (spec.r,), spec.window)[0]


def empirical_moments(family, rs, window: PrimeSumSpec) -> list[MomentRecord]:
    """`empirical_moment` of `family` over `window` at each r of `rs`, in
    order, from one build of the family's prime sums: only the power 2r
    differs between them."""
    return _moment_records(family, rs, window)


def _moment_records(family, rs, window: PrimeSumSpec) -> list[MomentRecord]:
    """The records of both public functions above, which call it directly:
    its warnings take stacklevel=3, the line that called them."""
    specs = [MomentSpec(family, r, window) for r in rs]
    primes = window.primes()
    p2 = float(np.sum(1.0 / primes.astype(np.float64) ** 2)) if len(primes) else 0.0
    loglogQ = math.log(max(math.e, math.log(family.Q)))
    logQ = math.log(family.Q)
    if isinstance(family, OrderKFamilySpec):
        kind = "orderk"
        k = family.k
        if window.y <= k:
            warnings.warn(f"window start y={window.y} is not above k={k}", stacklevel=3)
        sums = _orderk_prime_sums(family, primes)
        rhs_error = family.Q ** (1.0 - 1.0 / (4.0 * k))
        r_max = logQ / (3.0 * _A * k * k * loglogQ)
    elif isinstance(family, QuadFamilySpec):
        kind = "quadratic"
        sums = _quadratic_prime_sums(family, primes)
        rhs_error = family.Q ** (-1.0 / 3.0)
        r_max = logQ / (6.0 * _A * loglogQ)
    else:
        raise TypeError(f"unsupported family {type(family).__name__}")
    if len(sums) == 0:
        raise ValueError("moment experiment needs a nonempty family")
    records = []
    for spec in specs:
        r = spec.r
        if kind == "orderk":
            rhs_main = 2**r * math.factorial(r) * family.Q * p2**r
        else:
            rhs_main = math.factorial(2 * r) / math.factorial(r) * p2**r
        warned = r > r_max
        if warned:
            warnings.warn(
                f"r={r} is outside the regime r <= {r_max:.2f} (A={_A})",
                stacklevel=3,
            )
        powers = np.abs(sums) ** (2 * r)
        lhs_sum = float(np.sum(powers))
        lhs_avg = lhs_sum / len(sums)
        implied = (lhs_sum if kind == "orderk" else lhs_avg) / rhs_main if rhs_main else 0.0
        records.append(MomentRecord(
            family_kind=kind,
            family_size=len(sums),
            r=r,
            lhs_avg=lhs_avg,
            rhs_main=rhs_main,
            rhs_error_term=rhs_error,
            implied_constant=implied,
            regime_r_max=r_max,
            regime_warned=warned,
        ))
    return records
