"""Character-sum maxima M(chi), the half-sum identity, and the bridges
from M(chi) to L-values.

max_partial_sum is one cumulative sum over a period of chi's complex
table, read in column blocks (`character._column_blocks`), with no array
of length q held; it returns only M(chi) and what is derived from it.  It
is the full-period reference for `report.evaluate_character`, whose one
prefix scan (`report._PrefixScan`) reads M(chi), L(1, chi) and
S(floor(q/3)) off the same prefix sums: for even chi with 3 coprime to q,
S(floor(q/3)) = sqrt(3) tau(chi) L(1, conj(chi) (./3))/(2 pi) is the even
bridge's L-value, so an even_sum member builds no table mod 3q; for a real
chi that scan stops at ceil(q/2), guarded by `_half_period_sum`.
half_sum_check builds its own table and sums its half period with fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .character import DirichletCharacter, _column_blocks, _row_values, kronecker_character, product_character
from .errors import ConstraintError
from .lfunction import gauss_sum, l1_exact

# log log q ratios are meaningless for tiny moduli; suppressed below this
_RATIO_MIN_MODULUS = 16


@dataclass(frozen=True)
class MsumRecord:
    """M(chi) = max_x |S(x)|, S(x) = sum_{n<=x} chi(n), the first maximizer
    of the computed |S(x)| (see max_partial_sum; for a real chi, whose sums
    are exact integers, the first maximizer itself, which lies below
    ceil(q/2) -- see `report._PrefixScan`), and the normalized ratios

    ratio_odd  = M*pi/(sqrt(q)*loglog q)        -- target e^gamma for odd chi
    ratio_even = M*pi*sqrt(3)/(sqrt(q)*loglog q) -- target e^gamma for even chi

    Both ratios are None for q < 16.
    """

    M: float
    argmax: int
    ratio_odd: Optional[float]
    ratio_even: Optional[float]


def _check_period_sum(total: complex, q: int, want: complex = 0.0,
                      what: str = "period sum") -> None:
    """A full period of a non-principal character sums to 0, and a real
    chi's half period to `_half_period_sum`; a table (or an L(1) behind
    `want`) that misses by more than 1e-6 sqrt(q) is corrupt."""
    if abs(total - want) > 1e-6 * max(1.0, math.sqrt(q)):
        raise AssertionError(f"{what} {total} is not ~{want}")


def _half_period_sum(chi: DirichletCharacter, rows: list, tau: complex, l1: complex) -> complex:
    """S(floor(q/2)) for a primitive real chi, from tau(chi) and L(1, chi);
    `rows` are chi's float64 component rows (`DirichletCharacter._rows`).

    even chi: 0, as S(q-1-x) = -S(x) at x = floor(q/2) (for even q,
              chi(q/2) = 0 makes S(q/2) = S(q/2 - 1));
    odd chi:  (2 - chi(2)) tau L(1, chi)/(i pi), the half-sum identity of
              `half_sum_check` (conj is moot for real chi), which holds for
              every primitive odd chi, 2-adic q included, where chi(2) = 0.
    chi(2) is read off the rows (`character._row_values`)."""
    if chi.parity() == 1:
        return 0.0
    chi2 = float(_row_values(rows, np.array([2]))[0])
    return (2.0 - chi2) * tau * l1 / (1j * math.pi)


def max_partial_sum(chi: DirichletCharacter) -> MsumRecord:
    """Exact scan of one period of chi's complex table, real chi included:
    M = max_{1<=x<=q} |sum_{n<=x} chi(n)|.

    argmax is the first maximizer of the computed |S(x)|: |S(q-1-x)| = |S(x)|,
    so for non-real chi roundoff picks which of the two is reported.  The
    period-sum check |S(q-1)| ~ 0 guards against table corruption.  This
    is the full-period reference for `report.evaluate_character`, which
    shares none of this loop and scans a real chi on [0, ceil(q/2)) only.
    """
    if chi.is_principal:
        raise ConstraintError(
            "M(chi) is undefined for principal characters (linear growth)"
        )
    q, prefix, M, argmax = chi.modulus, 0, -1.0, 0
    for lo, block in _column_blocks(chi._rows(), q):
        block[0] += prefix
        np.cumsum(block, out=block)
        mags = np.abs(block)
        i = int(np.argmax(mags))
        if mags[i] > M:
            M, argmax = float(mags[i]), lo + i
        prefix = block[-1]
    _check_period_sum(prefix, q)
    return _msum_record(q, M, argmax)


def _msum_record(q: int, M: float, argmax: int) -> MsumRecord:
    """M(chi) and its argmax with the ratios, which are None below q = 16."""
    ratio_odd = ratio_even = None
    if q >= _RATIO_MIN_MODULUS:
        norm = math.sqrt(q) * math.log(math.log(q))
        ratio_odd = M * math.pi / norm
        ratio_even = M * math.pi * math.sqrt(3.0) / norm
    return MsumRecord(M=M, argmax=argmax, ratio_odd=ratio_odd, ratio_even=ratio_even)


@dataclass(frozen=True)
class HalfSumCheck:
    char_id: str
    lhs: complex
    rhs: complex
    abs_diff: float


def half_sum_check(chi: DirichletCharacter) -> HalfSumCheck:
    """sum_{n<=q/2} chi(n) = (2 - conj(chi)(2)) tau(chi)/(i pi) * conj(L(1,chi))
    for odd primitive chi of odd modulus.

    The lhs is a compensated (fsum) sum over half a period; the rhs comes
    from the compensated oracles gauss_sum and l1_exact.
    """
    if chi.parity() != -1:
        raise ConstraintError("half-sum identity requires an odd character")
    if not chi.is_primitive:
        raise ConstraintError("half-sum identity requires a primitive character")
    q = chi.modulus
    if q % 2 == 0:
        raise ConstraintError("half-sum identity tested on odd moduli only")
    vals = chi.value_table()
    _check_period_sum(vals.sum(), q)
    half = vals[1 : q // 2 + 1]
    lhs = complex(math.fsum(half.real), math.fsum(half.imag))
    tau = gauss_sum(chi)
    l1 = l1_exact(chi).value
    chi2 = chi.eval(2).to_complex().conjugate()
    rhs = (2.0 - chi2) * tau / (1j * math.pi) * l1.conjugate()
    return HalfSumCheck(chi.char_id, lhs, rhs, abs(lhs - rhs))


@dataclass(frozen=True)
class BridgeRecord:
    char_id: str
    bound_kind: str  # "odd" or "even"
    lhs: float  # M(chi)
    rhs: float  # the proven lower bound on M(chi)
    violated: bool

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


_BRIDGE_SLACK = 1e-9


def bridge_bounds(chi: DirichletCharacter) -> BridgeRecord:
    """Lower bounds for M(chi) in terms of L-values, for even-order chi.

    odd chi:  M(chi) >= (sqrt(q)/pi) |L(1, chi)|
    even chi: M(chi) >= (sqrt(3q)/(2 pi)) |L(1, chi * (./3))|, needs 3 ∤ q;
              |S(floor(q/3))| equals the right side (Polya's expansion)
    """
    if chi.order % 2 != 0:
        raise ConstraintError("bridge bounds require a character of even order")
    if not chi.is_primitive:
        raise ConstraintError("bridge bounds require a primitive character")
    q = chi.modulus
    M = max_partial_sum(chi).M
    if chi.parity() == -1:
        rhs = math.sqrt(q) / math.pi * abs(l1_exact(chi).value)
        kind = "odd"
    else:
        if q % 3 == 0:
            raise ConstraintError(
                "even-parity bridge needs 3 coprime to the modulus"
            )
        twisted = product_character(chi, kronecker_character(-3))
        if not (twisted.is_primitive and twisted.parity() == -1):
            raise AssertionError(f"{twisted.char_id} is not primitive and odd")
        rhs = math.sqrt(3 * q) / (2 * math.pi) * abs(l1_exact(twisted).value)
        kind = "even"
    return BridgeRecord(chi.char_id, kind, M, rhs, violated=M < rhs - _BRIDGE_SLACK)
