"""Evaluation of L(1, chi) and windowed prime sums.

Four routes to L(1, chi) are provided: closed finite formulas, a partial
sum of the defining series (`l1_series_oracle`: with its exact digamma
tail it is what `verify` ties the finite formulas and `l1_exact` to; only
its own test uses the rigorous tail bound), the truncated Euler product
used by the extremal-search heuristics, and the smoothed approximate
functional equation (`l1_afe`).

Production values of tau(chi) and L(1, chi) come from the finite formulas
as dot products (~1e-12 relative), by one kernel, `_FiniteScan`, which
`report.evaluate_character` feeds (`l1_finite` runs it alone).  tau is a
product of one short dot per prime power q_i || q, read straight from
chi's component rows at n q/q_i mod q_i (`_tau`, O(sum q_i), no table); a
real chi's is sqrt(q) or i sqrt(q) by parity, with no dot.  L(1, chi)
reads only the columns [0, ceil(q/2)) of chi's table, in column blocks
(`character._column_blocks`):
chi(q - a) = chi(-1) chi(a) folds the sum onto a < q/2, with the weights
2a - q or 2 log sin(pi a/q) for the character's parity (the sines by the
addition formula from one (cos, sin)(pi j/q) table per character, not
np.sin per column), summed per block
over that block's weights only, the partials added by fsum, so no array of
length q is held past the prime powers' own.  A real chi (order 2) is read
as a float64 table of exact 0/+-1, one real dot per block; the same half
period is all that `report.evaluate_character` scans for its M(chi), with
the half-period identity (`charsum._half_period_sum`) as the guard that
ties the two scans.  For even chi, 3 coprime to q, L(1, chi (./3)) is
read off the same scan's S(floor(q/3)) (`_twisted_l1_from_third`), and
the truncated Euler product off chi's component rows (`_euler_from_rows`).
`gauss_sum` and `l1_exact`
evaluate the same formulas over the whole period with compensated sums;
they are the kernel's oracles.  (All characters of one modulus at once:
`character.CharacterMatrix.sums`.)

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
from .character import _DLOG_TABLE_CAP, DirichletCharacter, _column_blocks, _dtype, values_up_to
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

    error_bound is a rigorous tail bound for the dirichlet_series method;
    for euler_truncated it is an empirically calibrated band, for
    exact_finite a roundoff allowance, and for smoothed_afe an explicit
    Gamma-tail bound plus a roundoff allowance, both scaled by the solve's
    conditioning -- the last three flagged via `rigorous`.
    """

    value: complex
    method: str
    param: Optional[float]  # N for the series and the AFE, z for the Euler product
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
    vals = chi.value_table()
    a = np.arange(q, dtype=np.float64)
    return _fsum_complex(vals * np.exp((2j * math.pi / q) * a))


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
    a = np.arange(1, q, dtype=np.float64)
    odd = chi.parity() == -1
    if odd:
        s = _fsum_complex(vals * a)
    else:
        # sin(pi a/q) = sin(pi (q - a)/q): the argument is taken in (0, pi/2],
        # where log sin keeps its accuracy; the sum stays over the whole period
        x = (math.pi / q) * np.minimum(a, q - a)
        if not (0.0 < x.min() and x.max() < math.pi):
            raise AssertionError(f"log sin argument left (0, pi) for q={q}")
        s = _fsum_complex(vals * np.log(np.sin(x)))
    return _finite_lvalue(_finite_l1(tau, s, q, odd), q)


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


def l1_series_oracle(chi: DirichletCharacter, N: int, tail: str = "bound") -> LValue:
    """Partial sum sum_{n<=N} chi(n)/n, with one of two tail treatments.

    tail="bound":   plain partial sum; rigorous error bound 2*M(chi)/N by
                    partial summation, M(chi) taken from the charsum module.
    tail="digamma": the exact tail -(1/q) sum_a chi(a) digamma(K + a/q)
                    (K = N//q) is added to the partial sum over n <= K*q;
                    the two telescope to sum_a chi(a) * (-digamma(a/q)/q),
                    so the result is exact up to roundoff for every N.
    """
    if chi.is_principal:
        raise ConstraintError("series oracle needs a non-principal character")
    q = chi.modulus
    N = int(N)
    if N < q * q:
        raise ConstraintError(f"oracle cutoff N={N} below q^2={q * q}")
    vals = chi.value_table()
    if tail == "digamma":
        value = _fsum_complex(vals * digamma_weights(q))
        err = 64.0 * _EPS * (2.0 + math.log(q))
        return LValue(value, DIRICHLET_SERIES, float(N), err, rigorous=False)
    if tail != "bound":
        raise ValueError(f"unknown tail mode {tail!r}")
    block = 1 << 22
    re_parts, im_parts = [], []
    for lo in range(1, N + 1, block):
        n = np.arange(lo, min(lo + block, N + 1))
        terms = vals[np.mod(n, q)] / n
        re_parts.append(terms.real)
        im_parts.append(terms.imag)
    value = complex(
        math.fsum(math.fsum(p) for p in re_parts),
        math.fsum(math.fsum(p) for p in im_parts),
    )
    from .charsum import max_partial_sum  # deferred: charsum imports us

    M = max_partial_sum(chi).M
    return LValue(value, DIRICHLET_SERIES, float(N), 2.0 * M / N, rigorous=True)


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
    """`l1_truncated_euler` with chi(p) read from chi's component rows
    (`DirichletCharacter._rows`): the product of the rows' entries at
    p mod p^a, so no digit-log table is looked up again.  Within 1e-12 of
    the oracle (a real chi's +-1 rows give its very chi(p))."""

    def values(ps: np.ndarray):
        out = np.ones(len(ps), dtype=_dtype(rows))
        for r in rows:
            out *= r[0, ps % r.shape[1]]
        return out

    return _truncated_euler(z, q, values)


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
# the production kernel: the finite formulas of l1_exact as numpy dot
# products (~1e-12 relative accuracy)


def _phases(n: int) -> np.ndarray:
    """e(k/n) = exp(2 pi i k/n) for k = 0..n-1."""
    return np.exp((2j * math.pi / n) * np.arange(n))


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
    the table, in O(sum q_i).  q = 1 has no components and tau = 1."""
    dots = []
    for r in rows:
        qi = r.shape[1]
        entries = r[0] if qi == q else r[0, np.arange(qi) * (q // qi) % qi]
        dots.append(np.dot(entries, _phases(qi)))
    return complex(math.prod(dots))


def _half_turns(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin)(pi j/q) for j < n, as the products of a coarse and a fine
    table of s ~ sqrt(n) direct values each: e(j/2q) = e(s k/2q) e(i/2q)
    for j = s k + i, one rounding from two directly computed roots."""
    s = math.isqrt(max(n - 1, 0)) + 1
    step = 1j * math.pi / q
    t = (np.exp(step * s * np.arange(s))[:, None] * np.exp(step * np.arange(s))).ravel()[:n]
    return t.real.copy(), t.imag.copy()


class _FiniteScan:
    """(tau(chi), L(1, chi)) by the finite formulas of `l1_exact`, with tau
    from chi's component rows (`_tau`) and L(1, chi) from the columns
    [0, stop = ceil(q/2)) of chi's value table, read in blocks, in order.

    A real chi's rows (float64, `DirichletCharacter._rows(real=True)`) give
    its tau exactly, with no dot: tau = sqrt(q) for even chi and i sqrt(q)
    for odd chi (Gauss; chi is primitive).

    chi(q - a) = chi(-1) chi(a) folds each sum onto a < q/2: the weights are
    2a - q for odd chi and 2 log sin(pi a/q) for even chi (for even q,
    a = q/2 is not a unit).  A block's sines come from the angle theta0 =
    pi first/q of its first column and one table of (cos, sin)(pi j/q) for
    j below the block length, built once (`_half_turns`):
    sin(theta0 + pi j/q) = sin theta0 cos(pi j/q) + cos theta0 sin(pi j/q),
    both terms >= 0 on (0, pi/2], so no np.sin per column and nothing
    cancels.  Each block's dot takes its own columns' weights; the partial
    sums are added by fsum.  `add` only reads the block, and ignores its
    columns past stop."""

    def __init__(self, chi: DirichletCharacter, rows: list):
        q = self.q = chi.modulus
        self.odd = chi.parity() == -1
        self.stop = (q + 1) // 2
        if rows and rows[0].dtype == np.float64:
            self.tau = complex(0.0, math.sqrt(q)) if self.odd else complex(math.sqrt(q))
        else:
            self.tau = _tau(rows, q)
        self._turns = None
        self._partials = []

    def add(self, lo: int, block: np.ndarray) -> None:
        first, hi = max(lo, 1), min(lo + len(block), self.stop)  # chi(0) = 0 has no weight
        if first >= hi:
            return
        cols = block[first - lo : hi - lo].view(np.float64).reshape(hi - first, -1)
        w = self._weights(first, hi, len(block))
        self._partials.append(w @ cols)  # (re, im) dots, or one re dot for a real table

    def _weights(self, first: int, hi: int, width: int) -> np.ndarray:
        """The folded weights of the columns [first, hi), 0 < first < hi <= stop,
        of a block `width` columns wide."""
        if self.odd:
            return 2.0 * np.arange(first, hi, dtype=np.float64) - self.q
        n = hi - first
        if self._turns is None or len(self._turns[0]) < n:
            self._turns = _half_turns(self.q, width)
        cos, sin = self._turns
        theta0 = math.pi * first / self.q
        w = math.sin(theta0) * cos[:n]
        w += math.cos(theta0) * sin[:n]
        np.log(w, out=w)
        w *= 2.0
        return w

    def result(self) -> tuple[complex, LValue]:
        re, *im = (math.fsum(p) for p in zip(*self._partials))
        value = _finite_l1(self.tau, complex(re, -im[0] if im else 0.0), self.q, self.odd)
        return self.tau, _finite_lvalue(complex(value), self.q)


def _twisted_l1_from_third(tau: complex, s_third: complex, q: int) -> LValue:
    """L(1, chi chi_-3) for an even primitive chi mod q, 3 coprime to q, from
    tau = tau(chi) and s_third = S_chi(floor(q/3)) = sum_{n <= q/3} chi(n).

    Polya's Fourier expansion of S_chi at q/3 gives
    S_chi(floor(q/3)) = sqrt(3) tau(chi) L(1, conj(chi) chi_-3)/(2 pi)
    (Granville-Soundararajan, JAMS 2007), so with conj(tau) tau = q,
    L(1, chi chi_-3) = 2 pi tau conj(S)/(sqrt(3) q).  chi chi_-3 is primitive
    mod 3q, and the value carries that modulus's `l1_finite` allowance."""
    value = 2.0 * math.pi * tau * complex(s_third).conjugate() / (math.sqrt(3.0) * q)
    return _finite_lvalue(value, 3 * q)


def l1_finite(chi: DirichletCharacter) -> tuple[complex, LValue]:
    """(tau(chi), L(1, chi)) for one character by the kernel: tau from its
    component rows, L(1, chi) over the columns [0, ceil(q/2)) of its value
    table in column blocks, a float64 table for a real chi."""
    _require_primitive_nonprincipal(chi)
    rows = chi._rows(real=chi.order == 2)
    scan = _FiniteScan(chi, rows)
    for lo, block in _column_blocks(rows, chi.modulus, scan.stop):
        scan.add(lo, block)
    return scan.result()


def l1_exact_batch(chars: Sequence[DirichletCharacter]) -> np.ndarray:
    """L(1, chi) by `l1_finite` for each of `chars`, in input order."""
    return np.array([l1_finite(chi)[1].value for chi in chars], dtype=np.complex128)


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


def _afe_sums(X: np.ndarray, w: np.ndarray, err: list) -> tuple:
    """(A, B, err), one entry per delta of `_afe_weights`' (w, err):
    A = sum chi(n) w1(n), B = sum conj(chi(n)) w0(n) and err their
    allowance, from chi(n) for n = 1..N in X."""
    # (sum w re chi, sum w im chi) from X's float view, per row of w
    re, im = (w @ X.view(np.float64).reshape(-1, 2)).T
    A = [complex(r, s) for r, s in zip(re[0::2], im[0::2])]
    B = [complex(r, -s) for r, s in zip(re[1::2], im[1::2])]
    return A, B, err


def _afe_solve(A: list, B: list, err: list, i: int, j: int) -> tuple[complex, float, float]:
    """(L(1, chi), error bound, conditioning) from the sums at deltas i, j:
    A_i + eps B_i = A_j + eps B_j gives eps, then L = A_i + eps B_i.

    With |eps| = 1, errors e_k in the sums move L by at most
    (e_i + e_j)(1 + |B_i| / |B_j - B_i|); the conditioning is
    |B_j - B_i| / max(|A_i|, |B_i|)."""
    dB = B[j] - B[i]
    eps = (A[i] - A[j]) / dB
    bound = (err[i] + err[j]) * (1.0 + abs(B[i]) / abs(dB))
    return A[i] + eps * B[i], bound, abs(dB) / max(abs(A[i]), abs(B[i]))


def l1_afe(chars: Sequence[DirichletCharacter]) -> list[LValue]:
    """L(1, chi) for primitive non-principal characters of odd moduli below
    2**31 by the smoothed approximate functional equation, in input order.

    Each reads chi(n) only for n <= N = afe_length(q) ~ 5 sqrt(q)
    (`character.values_up_to`, which builds no table of length q), so it
    costs O(sqrt q) where the finite formulas cost O(q).  The root number
    eps(chi) is not computed from tau: L(1, chi) = A(delta) + eps B(delta)
    holds at every delta, so two deltas determine both (Rubinstein,
    arXiv math/0412181).  The characters of one modulus share the values'
    discrete logs and the weights (`_afe_weights`, built once for the
    parities present), so each costs four length-N dot products;
    a solve whose conditioning is below _AFE_MIN_CONDITIONING is redone
    with a third, wider delta over a longer sum (its `param` stays the
    first N), keeping the best-conditioned pair.  A 2-adic
    component raises ConstraintError.
    """
    out: list = [None] * len(chars)
    by_q: dict[int, list[int]] = {}
    for i, chi in enumerate(chars):
        _require_primitive_nonprincipal(chi)
        by_q.setdefault(chi.modulus, []).append(i)
    for q, idx in by_q.items():
        N = afe_length(q)
        weights = _afe_weights(q, {chars[i].parity() == -1 for i in idx}, _AFE_DELTAS[:2], N)
        wide: dict = {}  # the third delta's, per parity on first use
        for i, row in zip(idx, values_up_to([chars[i] for i in idx], N)):
            chi = chars[i]
            odd = chi.parity() == -1
            value, bound, cond = _afe_solve(*_afe_sums(row[1:], *weights[odd]), 0, 1)
            if not cond >= _AFE_MIN_CONDITIONING:
                N3 = afe_length(q, _AFE_DELTAS[2])
                if odd not in wide:
                    wide.update(_afe_weights(q, (odd,), _AFE_DELTAS, N3))
                solved = _afe_sums(next(values_up_to([chi], N3))[1:], *wide[odd])
                value, bound, cond = max(
                    (_afe_solve(*solved, *pair) for pair in ((0, 1), (0, 2), (1, 2))),
                    key=lambda v: v[2],
                )
            out[i] = LValue(value, SMOOTHED_AFE, float(N), bound, rigorous=False)
    return out
