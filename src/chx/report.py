"""Evaluation records, reference constants, and deterministic serialization.

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
from .charsum import CSV_COLUMNS, _MScan, _half_period_sum
from .lfunction import (
    LValue,
    _FiniteScan,
    _euler_from_rows,
    _require_primitive_nonprincipal,
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
    (`character._column_blocks`).  Each block below ceil(q/2) feeds the
    L(1) sum, then every block becomes its own prefix sums for M(chi).  A
    complex chi (order >= 3) is read over its whole period as complex128.
    A real chi (order 2) is read as float64 rows of exact 0/+-1 over
    [0, ceil(q/2)) only: its prefix sums are exact integers and
    S(q-1-x) = -chi(-1) S(x), so M and the first maximizer argmax lie there
    exactly (`charsum._MScan`).  Its guard is the half-period identity
    (`charsum._half_period_sum`): S(floor(q/2)) is 0 for even chi and
    (2 - chi(2)) tau L(1, chi)/(i pi) for odd chi, which ties the M scan to
    the L(1) scan; a complex chi's is the period sum 0.

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
    q, real = chi.modulus, chi.order == 2
    rows = chi._rows(real)
    finite = _FiniteScan(chi, rows)
    sums = _MScan(q, finite.stop if real else q)
    for lo, block in _column_blocks(rows, q, sums.stop):
        finite.add(lo, block)  # the columns below ceil(q/2) only
        sums.add(lo, block)  # overwrites the block with its prefix sums: last
        if twisted and lo <= q // 3 < lo + len(block):
            s_third = complex(block[q // 3 - lo])
    tau, l1 = finite.result()
    msum = sums.record(_half_period_sum(chi, rows, tau, l1.value) if real else 0.0)
    l1_euler = _euler_from_rows(rows, q, z) if z is not None else None
    l1_twisted = _twisted_l1_from_third(tau, s_third, q) if twisted else None
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
        tau_abs=abs(tau),
        ratio_odd=msum.ratio_odd,
        ratio_even=msum.ratio_even,
    )


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


def write_csv(path, rows: Iterable[list], header=CSV_COLUMNS) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
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
