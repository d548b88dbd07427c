"""Evaluation records, reference constants, and deterministic serialization.

`evaluate_character` reads a character's value table once, in one prefix
pass (`_PrefixScan`): M(chi), L(1, chi) and S(floor(q/3)) come off the
same prefix sums S(x).

All floats in serialized reports are rounded to 15 significant digits so
that repeated runs produce byte-identical files; a non-finite float is
written as null, so every report is strict JSON.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .character import DirichletCharacter, _check_table_size, _column_blocks
from .charsum import MsumRecord, _check_period_sum, _half_period_sum, _msum_record
from .lfunction import (
    LValue,
    _euler_from_rows,
    _finite_l1,
    _finite_lvalue,
    _half_turns,
    _require_primitive_nonprincipal,
    _tau,
    _twisted_l1_from_third,
)
from .errors import ConstraintError
from .ntheory import RHO_SEED_CONSTANT
# bench/test_bench.py::test_tracer_patches_every_binding asserts report.l1_exact
from .lfunction import l1_exact  # noqa: F401

_E_GAMMA = math.exp(np.euler_gamma)

# Labeled comparison constants for plots of extreme |L(1,chi)| and M(chi):
# e_gamma scales the extreme |L(1,chi)| ~ e^gamma log log Q lines;
# the /pi variants are the conjectured M(chi)/(sqrt(q) log log q) densities,
# and the 2x variants the corresponding conditional upper bounds.
REFERENCE_CONSTANTS = {
    "e_gamma": _E_GAMMA,
    "e_gamma_over_pi": _E_GAMMA / math.pi,
    "e_gamma_over_pi_sqrt3": _E_GAMMA / (math.pi * math.sqrt(3.0)),
    "two_e_gamma_over_pi": 2.0 * _E_GAMMA / math.pi,
    "two_e_gamma_over_pi_sqrt3": 2.0 * _E_GAMMA / (math.pi * math.sqrt(3.0)),
}


# the header of records.csv, one column per entry of `EvalRecord.csv_row`
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
class EvalRecord:
    """Full evaluation of one character, as serialized into reports."""

    char_id: str
    modulus: int
    order: int
    parity: int
    conductor: int
    L1: LValue
    L1_euler: Optional[LValue]
    L1_twisted: Optional[LValue]  # L(1, chi*xi) when a companion xi is given
    xi_id: Optional[str]
    M: float
    argmax: int
    tau_abs: float
    ratio_odd: Optional[float]
    ratio_even: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "char_id": self.char_id,
            "modulus": self.modulus,
            "order": self.order,
            "parity": self.parity,
            "conductor": self.conductor,
            "L1": self.L1.as_dict(),
            "L1_euler": self.L1_euler.as_dict() if self.L1_euler else None,
            "L1_twisted": self.L1_twisted.as_dict() if self.L1_twisted else None,
            "xi_id": self.xi_id,
            "M": self.M,
            "argmax": self.argmax,
            "tau_abs": self.tau_abs,
            "ratio_odd": self.ratio_odd,
            "ratio_even": self.ratio_even,
            "references": dict(REFERENCE_CONSTANTS),
        }

    def csv_row(self) -> list:
        return [
            self.char_id,
            self.modulus,
            self.order,
            self.parity,
            _f15(self.M),
            self.argmax,
            _f15(abs(self.L1.value)),
            _f15(self.ratio_odd) if self.ratio_odd is not None else "",
            _f15(self.ratio_even) if self.ratio_even is not None else "",
        ]


def evaluate_character(
    chi: DirichletCharacter,
    z: Optional[float] = None,
    xi: Optional[DirichletCharacter] = None,
) -> EvalRecord:
    """Evaluate L(1, chi) (exact and optionally Euler-truncated), M(chi),
    tau(chi), and optionally L(1, chi*xi) for a companion character xi.

    chi's component rows are built once: tau(chi) comes from them directly
    (exactly, for a real chi), as do the chi(p) of the Euler product
    (`lfunction._euler_from_rows`), and chi's value table is read from them
    once, in column blocks through one reused buffer
    (`character._column_blocks`), by one `_PrefixScan`: M(chi), L(1, chi)
    and S(floor(q/3)) are read off the prefix sums S(x).

    L(1, chi*xi) is read for xi = (./3), chi even and 3 coprime to q --
    every even_sum member -- from the same scan: the prefix sum
    S(floor(q/3)), which lies below ceil(q/2), gives it by Polya's
    expansion (`lfunction._twisted_l1_from_third`), so the member reads one
    table, mod q.  A principal xi (odd_sum's) leaves L1_twisted None, and
    any other xi raises ConstraintError before any table is built.  A
    member holds O(block + sum p^a) bytes, not O(q), and a modulus past
    the table cap is refused before any work, before even chi's order and
    conductor, which factor p - 1 for each prime p | q.
    """
    _check_table_size(chi.modulus)
    twisted = xi is not None and not xi.is_principal
    if twisted and not (xi.modulus == 3 and chi.parity() == 1 and chi.modulus % 3 != 0):
        raise ConstraintError(
            f"L(1, chi*xi) is read only for xi = (./3) with chi even and 3 coprime to q; "
            f"got chi {chi.char_id} (parity {chi.parity()}) and xi {xi.char_id}"
        )
    _require_primitive_nonprincipal(chi)
    q = chi.modulus
    rows = chi._rows(chi.order == 2)
    scan = _PrefixScan(chi, rows, twisted)
    for lo, block in _column_blocks(rows, q, scan.stop):
        scan.add(lo, block)
    l1, msum = scan.result()
    l1_euler = _euler_from_rows(rows, q, z) if z is not None else None
    l1_twisted = _twisted_l1_from_third(scan.tau, scan.s_third, q) if twisted else None
    xi_id = xi.char_id if twisted else None
    return EvalRecord(
        char_id=chi.char_id,
        modulus=chi.modulus,
        order=chi.order,
        parity=chi.parity(),
        conductor=chi.conductor,
        L1=l1,
        L1_euler=l1_euler,
        L1_twisted=l1_twisted,
        xi_id=xi_id,
        M=msum.M,
        argmax=msum.argmax,
        tau_abs=abs(scan.tau),
        ratio_odd=msum.ratio_odd,
        ratio_even=msum.ratio_even,
    )


class _PrefixScan:
    """One pass over a primitive chi's value table in column blocks, in
    order: `add` turns each block into its prefix sums S(x) in place (the
    running prefix is added into its first entry before `np.cumsum`, so
    every sum has the bits of one cumulative sum over the whole table), and
    everything `evaluate_character` reports is read off them.

    A complex chi is scanned over [0, stop = q).  A real chi (float64 rows
    of exact 0/+-1) over [0, stop = H), H = ceil(q/2), only: its prefix
    sums are exact integers and S(q-1-x) = -chi(-1) S(x), so M and its
    first maximizer lie there.

    - M(chi) and its first computed maximizer across blocks.
    - tau(chi) by `lfunction._tau`; a real chi's is exactly sqrt(q) or
      i sqrt(q) by parity (Gauss; chi is primitive).
    - L(1, chi) by the finite formulas of `lfunction.l1_exact`, folded onto
      a < H.  Odd chi needs no weights: by Abel summation
      sum_{a<H} (2a - q) chi(a) = 2[(H-1) S(H-1) - sum_{x<H-1} S(x)] - q S(H-1),
      so each block adds the sum of its prefix sums below H - 1 (exact for
      a real chi, whose L(1) then carries one rounding).  Even chi's
      weights 2 log sin(pi a/q) (`_weights`) meet each block before its
      cumsum in one fixed-order numpy reduction, not a BLAS product, so the
      bits do not depend on the BLAS pool.  The partials are added by fsum.
    - S(floor(q/3)) when `third`: L(1, chi (./3)) for even chi
      (`lfunction._twisted_l1_from_third`).

    `result` checks S(stop - 1): 0 over a period; over half a period
    S(floor(q/2)) = `charsum._half_period_sum`, which ties M to L(1, chi)."""

    def __init__(self, chi: DirichletCharacter, rows: list, third: bool = False):
        q = self.q = chi.modulus
        self.chi, self.rows = chi, rows
        self.odd = chi.parity() == -1
        self.real = rows[0].dtype == np.float64
        self.half = (q + 1) // 2
        self.stop = self.half if self.real else q
        self.third = q // 3 if third else None
        if self.real:
            self.tau = complex(0.0, math.sqrt(q)) if self.odd else complex(math.sqrt(q))
        else:
            self.tau = _tau(rows, q)
        self.prefix = 0
        self.M, self.argmax = -1.0, 0
        self.s_half = self.s_third = None
        self._turns = None
        self._partials = []

    def add(self, lo: int, block: np.ndarray) -> None:
        n, h = len(block), self.half
        first, hi = max(lo, 1), min(lo + n, h)  # chi(0) = 0 has no weight
        if not self.odd and first < hi:
            self._partials.append((block[first - lo : hi - lo] * self._weights(first, hi, n)).sum())
        block[0] += self.prefix
        np.cumsum(block, out=block)  # block[x] = S(lo + x), as chi(0) = 0
        mags = np.abs(block)
        i = int(np.argmax(mags))  # the first computed argmax in the block
        if mags[i] > self.M:
            self.M, self.argmax = float(mags[i]), lo + i
        if self.odd and lo < h - 1:
            self._partials.append(block[: h - 1 - lo].sum())
        if self.odd and lo < h <= lo + n:
            self.s_half = block[h - 1 - lo].item()
        if self.third is not None and lo <= self.third < lo + n:
            self.s_third = complex(block[self.third - lo])
        self.prefix = block[-1]

    def _weights(self, first: int, hi: int, width: int) -> np.ndarray:
        """2 log sin(pi a/q) on the columns [first, hi), 0 < first < hi <= H,
        of a block `width` wide: sin(theta0 + pi j/q) = sin theta0 cos(pi j/q)
        + cos theta0 sin(pi j/q), theta0 = pi first/q, from one
        (cos, sin)(pi j/q) table (`lfunction._half_turns`); both terms are
        >= 0 on (0, pi/2], so nothing cancels."""
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

    def result(self) -> tuple[LValue, MsumRecord]:
        """(L(1, chi), M(chi)'s record), once every block is added."""
        q, h, parts = self.q, self.half - 1, self._partials
        if self.real:
            total = math.fsum(parts)
        else:
            total = complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
        s = 2.0 * (h * self.s_half - total) - q * self.s_half if self.odd else total
        # the formulas take conj(chi(a)); a real chi's float s becomes complex(s),
        # whose imaginary part is +0.0, not -0.0, and records print that sign
        l1 = _finite_lvalue(_finite_l1(self.tau, complex(s.conjugate()), q, self.odd), q)
        want = _half_period_sum(self.chi, self.rows, self.tau, l1.value) if self.real else 0.0
        _check_period_sum(self.prefix, q, want, "half-period sum" if self.real else "period sum")
        return l1, _msum_record(q, self.M, self.argmax)


# ---------------------------------------------------------------------------
# deterministic serialization


def _f15(x: float) -> float:
    """Round to 15 significant digits (deterministic report floats)."""
    if x != x or x in (float("inf"), float("-inf")):
        return x
    return float(f"{x:.15g}")


def _json_float(x: float) -> Optional[float]:
    """_f15(x), or None (JSON null) for a non-finite x, which JSON cannot hold."""
    return _f15(x) if math.isfinite(x) else None


def _round_floats(obj):
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, complex):
        return {"re": _json_float(obj.real), "im": _json_float(obj.imag)}
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _json_float(float(obj))
    return obj


def canonical_json(obj) -> str:
    """Strict JSON: sorted keys, 15-digit floats, null for a non-finite float."""
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n")


def write_jsonl(path, dicts: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        for d in dicts:
            fh.write(canonical_json(d) + "\n")


def write_csv(path, rows: Iterable[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


@dataclass
class RunManifest:
    """Reproducibility envelope for one CLI run.  Two runs with the same
    manifest (timestamps excluded) produce byte-identical reports."""

    command: str
    params: dict
    version: str
    started_at: str
    finished_at: str
    output_paths: dict

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "version": self.version,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "output_paths": self.output_paths,
            # with the rng seeds in params, the run's only seeded randomness
            "rho_seed_constant": f"0x{RHO_SEED_CONSTANT:X}",
        }
