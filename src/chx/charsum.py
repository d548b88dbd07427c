"""Character-sum maxima M(chi), the half-sum identity, and the bridges
from M(chi) to L-values.

max_partial_sum is one cumulative sum over a period, `_MScan`, which reads
the value table in column blocks (`character._column_blocks`) and holds no
array of length q; it returns only M(chi) and what is derived from it.
half_sum_check builds its own table and sums its half period with fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .character import DirichletCharacter, _column_blocks, kronecker_character, product_character
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
    of the computed |S(x)| (see max_partial_sum), and the normalized ratios

    ratio_odd  = M*pi/(sqrt(q)*loglog q)        -- target e^gamma for odd chi
    ratio_even = M*pi*sqrt(3)/(sqrt(q)*loglog q) -- target e^gamma for even chi

    Both ratios are None for q < 16.
    """

    M: float
    argmax: int
    ratio_odd: Optional[float]
    ratio_even: Optional[float]


def _check_period_sum(total: complex, q: int) -> None:
    """A full period of a non-principal character sums to 0; a table that
    does not is corrupt."""
    if abs(total) > 1e-6 * max(1.0, math.sqrt(q)):
        raise AssertionError("period sum not ~0")


def max_partial_sum(chi: DirichletCharacter) -> MsumRecord:
    """Exact scan of one period: M = max_{1<=x<=q} |sum_{n<=x} chi(n)|.

    argmax is the first maximizer of the computed |S(x)|: |S(q-1-x)| = |S(x)|,
    so for non-real chi roundoff picks which of the two is reported.  The
    period-sum check |prefix(q)| ~ 0 guards against table corruption.
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
    """max_partial_sum over a value table read in column blocks, in order.

    `add` turns each block into its prefix sums in place: the running prefix
    is added into the block's first entry before `np.cumsum`, so every sum
    has the bits of one cumulative sum over the whole table.  The first
    maximizer across blocks is kept."""

    def __init__(self, q: int):
        self.q = q
        self.prefix = 0j
        self.M, self.argmax = -1.0, 0

    def add(self, lo: int, block: np.ndarray) -> None:
        block[0] += self.prefix
        np.cumsum(block, out=block)  # block[x] = sum_{n<=lo+x} chi(n), as chi(0) = 0
        mags = np.abs(block)
        i = int(np.argmax(mags))  # the first computed argmax in the block
        if mags[i] > self.M:
            self.M, self.argmax = float(mags[i]), lo + i
        self.prefix = block[-1]

    def record(self) -> MsumRecord:
        q, M = self.q, self.M
        _check_period_sum(self.prefix, q)
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
    even chi: M(chi) >= (sqrt(3q)/(2 pi)) |L(1, chi * (./3))|, needs 3 ∤ q
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
