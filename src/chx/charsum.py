"""Character-sum maxima M(chi), the half-sum identity, and the bridges
from M(chi) to L-values.

max_partial_sum is one cumulative sum over a period, `_MScan`, which reads
the complex value table in column blocks (`character._column_blocks`) and
holds no array of length q; it returns only M(chi) and what is derived from
it, and is the full-period reference for `report.evaluate_character`, which
scans a real chi over half a period of a float64 table.  Each block `_MScan`
has added holds its prefix sums, so `evaluate_character` reads
S(floor(q/3)) there: for even chi with 3 coprime to q it is the even
bridge's L-value, S(floor(q/3)) = sqrt(3) tau(chi) L(1, conj(chi) (./3))/(2 pi),
so an even_sum member builds no table mod 3q.
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

CSV_COLUMNS = (
    "char_id",
    "q",
    "order",
    "parity",
    "M",
    "argmax",
    "L1_abs",
    "ratio_odd",
    "ratio_even",
)


@dataclass(frozen=True)
class MsumRecord:
    """M(chi) = max_x |S(x)|, S(x) = sum_{n<=x} chi(n), the first maximizer
    of the computed |S(x)| (see max_partial_sum; for a real chi, whose sums
    are exact integers, the first maximizer itself, which lies below
    ceil(q/2) -- see `_MScan`), and the normalized ratios

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
    period-sum check |prefix(q)| ~ 0 guards against table corruption.  This
    is the full-period reference for `report.evaluate_character`, which
    scans a real chi on [0, ceil(q/2)) only.
    """
    if chi.is_principal:
        raise ConstraintError(
            "M(chi) is undefined for principal characters (linear growth)"
        )
    scan = _MScan(chi.modulus)
    for lo, block in _column_blocks(chi._rows(), chi.modulus):
        scan.add(lo, block)
    return scan.record()


class _MScan:
    """M(chi) and its first maximizer over the columns [0, stop) of a value
    table (complex128, or float64 for a real chi) read in column blocks, in
    order.

    stop = q scans a period: `max_partial_sum`, and every complex chi in
    `report.evaluate_character`.  A real chi is scanned on its float64 table
    over [0, ceil(q/2)) only: S(q-1-x) = -chi(-1) S(x) exactly, and its
    prefix sums are integers, exact in float64, so M and the first maximizer
    both lie there (the partner q-1-x of any x >= ceil(q/2) is smaller).

    `add` turns each block into its prefix sums in place (the caller may
    read S(x) at any of its columns afterwards): the running prefix
    is added into the block's first entry before `np.cumsum`, so every sum
    has the bits of one cumulative sum over the whole table.  The first
    maximizer across blocks is kept.  `record(want)` checks the last sum,
    S(stop - 1), against `want`: 0 over a period; over half a period
    S(floor(q/2)) = `_half_period_sum`, which ties M to L(1, chi)."""

    def __init__(self, q: int, stop: int | None = None):
        self.q = q
        self.stop = q if stop is None else stop
        self.prefix = 0
        self.M, self.argmax = -1.0, 0

    def add(self, lo: int, block: np.ndarray) -> None:
        block[0] += self.prefix
        np.cumsum(block, out=block)  # block[x] = sum_{n<=lo+x} chi(n), as chi(0) = 0
        mags = np.abs(block)
        i = int(np.argmax(mags))  # the first computed argmax in the block
        if mags[i] > self.M:
            self.M, self.argmax = float(mags[i]), lo + i
        self.prefix = block[-1]

    def record(self, want: complex = 0.0) -> MsumRecord:
        q, M = self.q, self.M
        what = "period sum" if self.stop == q else "half-period sum"
        _check_period_sum(self.prefix, q, want, what)
        ratio_odd = ratio_even = None
        if q >= _RATIO_MIN_MODULUS:
            norm = math.sqrt(q) * math.log(math.log(q))
            ratio_odd = M * math.pi / norm
            ratio_even = M * math.pi * math.sqrt(3.0) / norm
        return MsumRecord(M=M, argmax=self.argmax, ratio_odd=ratio_odd, ratio_even=ratio_even)


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
