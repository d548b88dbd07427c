"""Evaluation of L(1, chi) and windowed prime sums.

Four routes to L(1, chi) are provided: closed finite formulas, the
defining series telescoped with its exact digamma tail (`l1_series_oracle`,
what `verify` ties the finite formulas and `l1_exact` to), the truncated
Euler product used by the extremal-search heuristics, and the smoothed
approximate functional equation (`l1_afe`).

Production values of tau(chi) and L(1, chi) come from the finite formulas
(~1e-12 relative), read by `report.evaluate_character`'s one prefix scan
(`report._PrefixScan`) off the prefix sums S(x) it takes for M(chi).  tau
is a product of one short fixed-order dot (an einsum, not BLAS) per prime
power q_i || q, read straight from chi's component rows at n q/q_i mod q_i
(`_tau`, O(sum q_i), no table); a real chi's is sqrt(q) or i sqrt(q) by
parity, with no dot.  L(1, chi) needs only the columns [0, ceil(q/2))
of chi's table: chi(q - a) =
chi(-1) chi(a) folds the sum onto a < q/2, with the weights 2a - q for odd
chi, which Abel summation turns into sums of S(x) (no weights at all), and
2 log sin(pi a/q) for even chi (the sines by the addition formula from one
(cos, sin)(pi j/q) table per character, `_half_turns`, not np.sin per
column).  For even chi, 3 coprime to q, L(1, chi (./3)) is read off the
same scan's S(floor(q/3)) (`_twisted_l1_from_third`), and the truncated
Euler product off chi's component rows (`_euler_from_rows`).  `gauss_sum`
and `l1_exact` evaluate the same formulas over the whole period with
compensated sums; they are the scan's oracles.  (All characters of one
modulus at once: `character.CharacterMatrix.sums`.)

The AFE reads chi(n) only for n <= N ~ 5 sqrt(q), so it costs O(sqrt q)
time and memory per character where the finite formulas cost O(q): it
solves for the root number and L(1, chi) at two smoothing parameters, and
each value carries an explicit bound (Gamma tails past N plus roundoff,
scaled by the solve's conditioning; ~1e-13 relative in practice).
`families.random_l1_baseline` takes its values from it.

The special functions come from numpy kernels in `_special`, so importing
this module loads no scipy: `digamma` (0 < x <= 1, the recurrence to x + 10
and the Stirling series) for `digamma_weights`; `exp1` (x > 0: the power
series to 1, a composite Gauss-Legendre rule to 8, a continued fraction
past it) and `erfc_sqrt` (erfc(sqrt t) from t itself, t >= 0: a Taylor step
from a table below 16, a continued fraction above) for `_afe_weights`.
Against mpmath they measured within 4, 3 and 4 ulp on a/q (q <= 2000),
(1e-4, 200] and [0, 200].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._special import digamma, erfc_sqrt, exp1
from .character import (
    _DLOG_TABLE_CAP,
    DirichletCharacter,
    _least_prime_factors,
    _row_values,
    values_up_to,
)
from .errors import ConstraintError, ResourceError
from .ntheory import sieve_primes

_EPS = float(np.finfo(np.float64).eps)

# method tags used in serialized reports
EXACT_FINITE = "exact_finite"
DIRICHLET_SERIES = "dirichlet_series"
EULER_TRUNCATED = "euler_truncated"
SMOOTHED_AFE = "smoothed_afe"


@dataclass(frozen=True)
class LValue:
    """A computed value of L(1, chi) with provenance.

    error_bound is a roundoff allowance for exact_finite and
    dirichlet_series, an empirically calibrated band for euler_truncated,
    and for smoothed_afe an explicit Gamma-tail bound plus a roundoff
    allowance, both scaled by the solve's conditioning.  No method sets
    `rigorous` yet: it is for a bound that is proved to hold.
    """

    value: complex
    method: str
    param: Optional[float]  # N for the AFE, z for the Euler product, else None
    error_bound: float
    rigorous: bool

    @property
    def abs(self) -> float:
        return abs(self.value)

    def as_dict(self) -> dict:
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "abs": abs(self.value),
            "method": self.method,
            "param": self.param,
            "err": self.error_bound,
        }


@dataclass(frozen=True)
class PrimeSumSpec:
    """A prime window y < p < z, strict at both ends."""

    y: float
    z: float

    def __post_init__(self):
        if not self.y >= 2:
            raise ValueError(f"prime window needs y >= 2, got y={self.y}")
        if not self.z > self.y:
            raise ValueError(f"prime window needs z > y, got ({self.y}, {self.z})")

    def primes(self) -> np.ndarray:
        return sieve_primes(max(3, int(math.ceil(self.z)))).in_range(self.y, self.z)


def _fsum_complex(terms: np.ndarray) -> complex:
    """Compensated sum of a complex array (exact up to one final rounding)."""
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_a chi(a) e(a/q), compensated; requires chi primitive."""
    if not chi.is_primitive:
        raise ConstraintError(
            f"gauss sum requires a primitive character; {chi.char_id} has "
            f"conductor {chi.conductor} < modulus {chi.modulus}"
        )
    q = chi.modulus
    if q == 1:
        return 1.0 + 0.0j
    return _fsum_complex(chi.value_table() * _phases(q))


def _require_primitive_nonprincipal(chi: DirichletCharacter) -> None:
    if chi.is_principal:
        raise ConstraintError("L(1, chi) diverges for principal characters")
    if not chi.is_primitive:
        raise ConstraintError(
            f"imprimitive character {chi.char_id}: evaluate the primitive "
            f"character mod {chi.conductor} instead"
        )


def l1_exact(chi: DirichletCharacter) -> LValue:
    """L(1, chi) by the closed finite formulas (odd/even split).

    odd chi:  L(1,chi) = (i*pi*tau(chi)/q^2) * sum_a conj(chi(a)) * a
    even chi: L(1,chi) = -(tau(chi)/q) * sum_a conj(chi(a)) * log sin(pi a/q)
    """
    _require_primitive_nonprincipal(chi)
    q = chi.modulus
    tau = gauss_sum(chi)
    vals = np.conj(chi.value_table()[1:])
    odd = chi.parity() == -1
    s = _fsum_complex(vals * (np.arange(1, q, dtype=np.float64) if odd else _log_sines(q)))
    return _finite_lvalue(_finite_l1(tau, s, q, odd), q)


def l1_exact_batch(chars: Sequence[DirichletCharacter]) -> np.ndarray:
    """L(1, chi) by `l1_exact`, the compensated finite formulas, for each of
    `chars`, in input order."""
    return np.array([l1_exact(chi).value for chi in chars], dtype=np.complex128)


def _finite_lvalue(value: complex, q: int) -> LValue:
    err = 32.0 * _EPS * (1.0 + math.sqrt(q))  # roundoff allowance
    return LValue(value, EXACT_FINITE, None, err, rigorous=False)


def digamma_weights(q: int) -> np.ndarray:
    """Weights w[a] = -digamma(a/q)/q, so that sum_a chi(a) w[a] = L(1,chi)
    for any non-principal chi mod q.

    This is what the partial sum to K*q plus its exact tail
    -(1/q) sum_a chi(a) digamma(K + a/q) telescopes to (the K-dependence
    cancels via digamma(K + x) - digamma(x) = sum_{m<K} 1/(m+x)).
    """
    w = np.zeros(q)
    a = np.arange(1, q, dtype=np.float64)
    w[1:] = -digamma(a / q) / q
    return w


def l1_series_oracle(chi: DirichletCharacter) -> LValue:
    """sum_n chi(n)/n for a non-principal chi: the partial sum to K q plus
    its exact tail -(1/q) sum_a chi(a) digamma(K + a/q) telescope to
    sum_a chi(a) w[a] (`digamma_weights`) for every K, so the value is exact
    up to roundoff."""
    if chi.is_principal:
        raise ConstraintError("series oracle needs a non-principal character")
    q = chi.modulus
    value = _fsum_complex(chi.value_table() * digamma_weights(q))
    err = 64.0 * _EPS * (2.0 + math.log(q))
    return LValue(value, DIRICHLET_SERIES, None, err, rigorous=False)


def check_euler_truncation(z: float) -> None:
    """Refuse an Euler truncation z past the table cap before it is sieved."""
    if z > _DLOG_TABLE_CAP:
        raise ResourceError(f"--z {z:g} is out of scale: Euler truncation above 2**26")


def l1_truncated_euler(chi: DirichletCharacter, z: float) -> LValue:
    """prod_{p<=z, p not dividing q} (1 - chi(p)/p)^{-1} by direct product.

    One `complex_at` call gives every chi(p); the factors divide in left to
    right.  z > 2**26 raises ResourceError before the sieve.  The error band
    is an empirical ~3 sigma estimate of the omitted factor, sized like the
    standard deviation of sum_{p>z} chi(p)/p; non-rigorous.  This is the
    oracle of `_euler_from_rows`, which `report.evaluate_character` uses.
    """
    return _truncated_euler(z, chi.modulus, chi.complex_at)


def _euler_from_rows(rows: list, q: int, z: float) -> LValue:
    """`l1_truncated_euler` with chi(p) read off chi's component rows
    (`DirichletCharacter._rows`, by `character._row_values`), with no digit
    log: within 1e-12 of the oracle (a real chi's +-1 rows give its chi(p))."""
    return _truncated_euler(z, q, lambda ps: _row_values(rows, ps))


def _truncated_euler(z: float, q: int, values) -> LValue:
    """The Euler product of `l1_truncated_euler`, with `values(ps)` giving
    chi(p) at the primes ps."""
    check_euler_truncation(z)
    value = 1.0 + 0.0j
    if z >= 2:
        ps = sieve_primes(max(3, int(math.floor(z)))).primes
        ps = ps[(ps <= z) & (q % ps != 0)]
        for v, p in zip(values(ps).tolist(), ps.tolist()):
            value /= 1.0 - v / p
    if z >= 3:
        band = 3.0 * abs(value) / math.sqrt(z * math.log(z))
    else:
        band = float("inf")
    return LValue(value, EULER_TRUNCATED, float(z), band, rigorous=False)


def prime_sum(chi: DirichletCharacter, spec: PrimeSumSpec) -> complex:
    """sum over primes y < p < z of chi(p) / p, by fsum over the terms."""
    ps = spec.primes()
    vals = chi.complex_at(ps)
    return complex(math.fsum(vals.real / ps), math.fsum(vals.imag / ps))


# ---------------------------------------------------------------------------
# the pieces of the production scan (`report._PrefixScan`): the finite
# formulas of l1_exact (~1e-12 relative accuracy)


def _phases(n: int) -> np.ndarray:
    """e(k/n) = exp(2 pi i k/n) for k = 0..n-1."""
    return np.exp((2j * math.pi / n) * np.arange(n))


def _log_sines(q: int) -> np.ndarray:
    """log sin(pi a/q) for a = 1..q-1.  As sin(pi a/q) = sin(pi (q - a)/q),
    the argument is taken in (0, pi/2], where log sin keeps its accuracy."""
    a = np.arange(1, q, dtype=np.float64)
    x = (math.pi / q) * np.minimum(a, q - a)
    if not (0.0 < x.min() and x.max() < math.pi):
        raise AssertionError(f"log sin argument left (0, pi) for q={q}")
    return np.log(np.sin(x))


def _finite_l1(tau, s, q: int, odd: bool):
    """L(1, chi) from tau(chi) and s = sum_a conj(chi(a)) w[a], w = a for odd
    chi and log sin(pi a/q) for even chi."""
    return 1j * math.pi * tau / (q * q) * s if odd else -(tau / q) * s


def _tau(rows: list, q: int) -> complex:
    """tau(chi) from chi's component rows (`DirichletCharacter._rows`), with
    no table: the product over q_i || q of the dots of chi at the CRT lifts
    m[n] = n (q/q_i) mod q_i, 1 mod q/q_i with e(n/q_i), n < q_i (each dot is
    chi_i(q/q_i) tau(chi_i); a prime power has the one dot with e(n/q)).

    chi(m[n]) is the row's entry at n (q/q_i) mod q_i times the other
    components' exact 1 at 1, so each dot has the bits of the same dot over
    the table, in O(sum q_i).  Each dot is an einsum, summed in an order no
    BLAS thread pool decides.  q = 1 has no components and tau = 1."""
    dots = []
    for r in rows:
        qi = r.shape[1]
        entries = r[0] if qi == q else r[0, np.arange(qi) * (q // qi) % qi]
        dots.append(np.einsum("i,i->", entries, _phases(qi)))
    return complex(math.prod(dots))


def _half_turns(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin)(pi j/q) for j < n, as the products of a coarse and a fine
    table of s ~ sqrt(n) direct values each: e(j/2q) = e(s k/2q) e(i/2q)
    for j = s k + i, one rounding from two directly computed roots."""
    s = math.isqrt(max(n - 1, 0)) + 1
    step = 1j * math.pi / q
    t = (np.exp(step * s * np.arange(s))[:, None] * np.exp(step * np.arange(s))).ravel()[:n]
    return t.real.copy(), t.imag.copy()


def _twisted_l1_from_third(tau: complex, s_third: complex, q: int) -> LValue:
    """L(1, chi chi_-3) for an even primitive chi mod q, 3 coprime to q, from
    tau = tau(chi) and s_third = S_chi(floor(q/3)) = sum_{n <= q/3} chi(n).

    Polya's Fourier expansion of S_chi at q/3 gives
    S_chi(floor(q/3)) = sqrt(3) tau(chi) L(1, conj(chi) chi_-3)/(2 pi)
    (Granville-Soundararajan, JAMS 2007), so with conj(tau) tau = q,
    L(1, chi chi_-3) = 2 pi tau conj(S)/(sqrt(3) q).  chi chi_-3 is primitive
    mod 3q, and the value carries that modulus's `_finite_lvalue` allowance."""
    value = 2.0 * math.pi * tau * complex(s_third).conjugate() / (math.sqrt(3.0) * q)
    return _finite_lvalue(value, 3 * q)


# ---------------------------------------------------------------------------
# the smoothed approximate functional equation: L(1, chi) from chi(n), n <= N
# ~ 5 sqrt(q)

# the two smoothing parameters solved at, then the third (with a longer sum)
# for a solve whose conditioning falls below _AFE_MIN_CONDITIONING
_AFE_DELTAS = (1.0, 2.0, 4.0)
_AFE_MIN_CONDITIONING = 1e-4
_AFE_EXPONENT = 40.0  # every Gamma term past N is below e^-40


def afe_length(q: int, delta_max: float = _AFE_DELTAS[1]) -> int:
    """N with pi N^2 delta / q and pi N^2 / (delta q) >= 40 for 1 <= delta <= delta_max."""
    return math.ceil(math.sqrt(_AFE_EXPONENT * q * delta_max / math.pi))


def _tail(K: float, b: int, c: float, N: int) -> float:
    """A bound on sum_{n > N} K n^-b e^(-c n^2): the integral from N."""
    return K * N**-b * math.exp(-c * N * N) / (2.0 * c * N)


def _afe_points(q: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, x): n = 1..N as float64 and x = pi n^2 / q."""
    n = np.arange(1, N + 1, dtype=np.float64)
    return n, (math.pi / q) * n * n


def _afe_weights(q: int, odds, deltas: tuple, N: int) -> dict:
    """{odd: (w, err)} for each parity of `odds` (odd = True for odd chi):
    w = (w1(n), w0(n)) for each delta of `deltas` in turn, two rows each
    over n = 1..N, with

        L(1, chi) = sum_n chi(n) w1(n) + eps(chi) sum_n conj(chi(n)) w0(n)

    for every primitive chi mod q of that parity and every delta > 0
    (eps(chi) = tau(chi) / (i^a sqrt(q)), a = 1 for odd chi), and err, one
    per delta, a bound on both sums' Gamma tails past N plus a roundoff
    allowance.

    Lambda(1, chi) = (q/pi)^((1+a)/2) Gamma((1+a)/2) L(1, chi) is
    sum chi(n) n^a (q/(pi n^2))^((1+a)/2) Gamma((1+a)/2, pi n^2 delta/q)
    + eps sum conj(chi(n)) n^a (q/(pi n^2))^(a/2) Gamma(a/2, pi n^2/(delta q))
    (Davenport, Multiplicative Number Theory, ch. 9); w is it divided by
    the factor in front of L(1, chi), with Gamma(1/2, x) = sqrt(pi) erfc(sqrt x),
    Gamma(1, x) = e^-x and Gamma(0, x) = E1(x).  The tails use
    Gamma(s, x) <= x^(s-1) e^-x for s <= 1.  Each parity's exp or E1 rows
    are computed in one call of that kernel, then every parity's erfc rows,
    erfc(sqrt(c x)) with c = 1/delta (odd) or delta (even), in one call of
    `erfc_sqrt`, as at N ~ 2000 a call's fixed cost is most of a row's.
    The deltas are powers of two, so x / delta = (1/delta) x exactly, and
    the two parities' delta = 1 rows are one row.
    """
    n, x = _afe_points(q, N)
    d = np.array(deltas)[:, None]
    rq = math.sqrt(q)
    odds = sorted(set(odds))
    # the exp or E1 rows first: E1's quadrature holds the largest temporaries,
    # so it runs before the erfc rows exist
    rest = {odd: np.exp(-d * x) / n if odd else exp1(x / d) / rq for odd in odds}
    scales = {odd: [1.0 / delta if odd else delta for delta in deltas] for odd in odds}
    cs = list(dict.fromkeys(c for odd in odds for c in scales[odd]))
    erfc = dict(zip(cs, erfc_sqrt(np.array(cs)[:, None] * x)))
    out = {}
    for odd in odds:
        rows = np.stack([erfc[c] for c in scales[odd]])
        w = np.stack([rest[odd], (math.pi / rq) * rows] if odd else [rows / n, rest[odd]], axis=1)
        err = []
        for delta, wd in zip(deltas, w):
            c1, c0 = math.pi * delta / q, math.pi / (delta * q)
            if odd:
                tails = _tail(1.0, 1, c1, N) + _tail(math.sqrt(delta), 1, c0, N)
            else:
                tails = _tail(rq / (math.pi * math.sqrt(delta)), 2, c1, N) + _tail(delta * rq / math.pi, 2, c0, N)
            err.append(tails + 32.0 * _EPS * float(wd.sum()))
        out[odd] = w.reshape(-1, N), err
    return out


def _afe_sums(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B), one row per delta of `_afe_weights`' w and one column per row
    of X (chi(n) for n = 1..N): A = sum chi(n) w1(n) and B = sum
    conj(chi(n)) w0(n) = conj(sum chi(n) w0(n)).  Each is a contiguous
    product (exact per part: a weight has no imaginary part) summed along
    its row by numpy's pairwise sum, in a fixed order (no BLAS, so no
    thread pool decides it), one weight row at a time."""
    products = np.empty(X.shape, dtype=np.complex128)
    sums = np.array([np.multiply(X, row, out=products).sum(axis=-1) for row in w.astype(np.complex128)])
    return sums[0::2], sums[1::2].conj()


def _afe_solve(A: np.ndarray, B: np.ndarray, err: np.ndarray, i: int, j: int) -> tuple:
    """(L(1, chi), error bound, conditioning), one entry per column, from the
    sums at deltas i, j (rows of A, B and err): A_i + eps B_i = A_j + eps B_j
    gives eps, then L = A_i + eps B_i.

    With |eps| = 1, errors e_k in the sums move L by at most
    (e_i + e_j)(1 + |B_i| / |B_j - B_i|); the conditioning is
    |B_j - B_i| / max(|A_i|, |B_i|)."""
    dB = B[j] - B[i]
    eps = (A[i] - A[j]) / dB
    bound = (err[i] + err[j]) * (1.0 + np.abs(B[i]) / np.abs(dB))
    return A[i] + eps * B[i], bound, np.abs(dB) / np.maximum(np.abs(A[i]), np.abs(B[i]))


def l1_afe(chars: Sequence[DirichletCharacter]) -> list[LValue]:
    """L(1, chi) for primitive non-principal characters of moduli below 2**31
    by the smoothed approximate functional equation, in input order.

    Each reads chi(n) only for n <= N = afe_length(q) ~ 5 sqrt(q)
    (`character.values_up_to`, which builds no table of length q), so it
    costs O(sqrt q) where the finite formulas cost O(q).  The root number
    eps(chi) is not computed from tau: L(1, chi) = A(delta) + eps B(delta)
    holds at every delta, so two deltas determine both (Rubinstein,
    arXiv math/0412181).  One least-prime-factor array serves the whole
    call.  The characters of one modulus share the values' discrete logs
    and the weights (`_afe_weights`, built once for the parities present),
    and are read as blocks of rows: each block's sums are one fixed-order
    product and sum per weight row (`_afe_sums`) and its solve is one array
    step, and a row's value has the same bits whichever characters share
    the call.  A solve whose conditioning is below _AFE_MIN_CONDITIONING
    is redone for its character alone with a third, wider delta over a
    longer sum (its `param` stays the first N), keeping the
    best-conditioned pair.
    """
    out: list = [None] * len(chars)
    by_q: dict[int, list[int]] = {}
    for i, chi in enumerate(chars):
        _require_primitive_nonprincipal(chi)
        by_q.setdefault(chi.modulus, []).append(i)
    if not by_q:
        return out
    spf = _least_prime_factors(max(afe_length(q, _AFE_DELTAS[2]) for q in by_q))
    for q, idx in by_q.items():
        N = afe_length(q)
        # the even characters first, so each block holds at most two runs, one per parity
        idx.sort(key=lambda i: chars[i].parity() == -1)
        group = [chars[i] for i in idx]
        odd = np.array([chi.parity() == -1 for chi in group])
        weights = _afe_weights(q, set(odd.tolist()), _AFE_DELTAS[:2], N)
        wide: dict = {}  # the third delta's, per parity on first use
        for lo, X in values_up_to(group, N, spf):
            rows = odd[lo : lo + len(X)]
            A = np.empty((2, len(X)), dtype=np.complex128)
            B, err = np.empty_like(A), np.empty(A.shape)
            split = int(np.count_nonzero(~rows))
            for parity, at in ((False, slice(0, split)), (True, slice(split, None))):
                if parity in rows:
                    w, err[:, at] = weights[parity][0], np.array(weights[parity][1])[:, None]
                    A[:, at], B[:, at] = _afe_sums(X[at, 1:], w)
            for k, (value, bound, cond) in enumerate(zip(*_afe_solve(A, B, err, 0, 1))):
                if not cond >= _AFE_MIN_CONDITIONING:
                    N3 = afe_length(q, _AFE_DELTAS[2])
                    parity = bool(rows[k])
                    if parity not in wide:
                        wide.update(_afe_weights(q, (parity,), _AFE_DELTAS, N3))
                    ((_, X3),) = values_up_to([group[lo + k]], N3, spf)
                    w, err3 = wide[parity]
                    solved = (*_afe_sums(X3[:, 1:], w), np.array(err3)[:, None])
                    value, bound, cond = max(
                        (_afe_solve(*solved, *pair) for pair in ((0, 1), (0, 2), (1, 2))),
                        key=lambda v: v[2][0],
                    )
                    value, bound = value[0], bound[0]
                out[idx[lo + k]] = LValue(complex(value), SMOOTHED_AFE, float(N), float(bound), rigorous=False)
    return out
