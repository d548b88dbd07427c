"""Partial-sum maxima, the half-sum identity, and bridge inequalities."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from chx import character
from chx.character import (
    all_characters,
    character_from_id,
    character_from_index,
    kronecker_character,
    principal_character,
)
from chx.charsum import (
    CSV_COLUMNS,
    MsumRecord,
    bridge_bounds,
    half_sum_check,
    max_partial_sum,
)
from chx.errors import ConstraintError
from chx.lfunction import l1_exact


def test_msum_known_small_cases():
    rec = max_partial_sum(kronecker_character(-4))
    assert rec.M == 1.0 and rec.argmax == 1
    # Legendre mod 7: partial sums peak at 1 + 1 after n = 2
    rec7 = max_partial_sum(character_from_index(7, 3))
    assert rec7.M == 2.0 and rec7.argmax == 2


def test_msum_matches_brute_force():
    for q in (5, 7, 9, 11, 12, 16, 21):
        for chi in all_characters(q):
            if chi.is_principal:
                continue
            vals = chi.value_table()
            sums = np.cumsum(vals)
            mags = np.abs(sums)
            rec = max_partial_sum(chi)
            assert abs(rec.M - mags.max()) < 1e-12
            assert rec.argmax == int(np.argmax(mags))
            # full-period character sum vanishes
            assert abs(sums[-1]) < 1e-10


def test_msum_conjugation_invariant():
    # |partial sums| are pointwise equal under conjugation, so M agrees;
    # the argmax may hop between tied indices by roundoff
    for q in (7, 11, 13, 19, 29):
        for chi in all_characters(q):
            if chi.is_principal:
                continue
            a = max_partial_sum(chi)
            b = max_partial_sum(chi.conjugate())
            assert abs(a.M - b.M) < 1e-12
            mags = np.abs(np.cumsum(chi.value_table()))
            assert abs(mags[b.argmax] - a.M) < 1e-12


@pytest.mark.parametrize("chi,parity", [
    (character_from_id("q=301771;comps=523:174,577:384"), 1),  # a pinned bench record
    (character_from_index(1009, 3), -1),
])
def test_msum_argmax_partner_attains_m(chi, parity):
    # S(q-1-x) = -chi(-1) S(x), so for non-real chi the computed |S| ties at
    # x and q-1-x up to roundoff, and either may be reported as argmax
    assert chi.order > 2 and chi.parity() == parity
    q, tol = chi.modulus, 1e-9 * math.sqrt(chi.modulus)
    mags = np.abs(np.cumsum(chi.value_table()))
    assert np.abs(mags - mags[::-1]).max() <= tol
    rec = max_partial_sum(chi)
    assert abs(mags[q - 1 - rec.argmax] - rec.M) <= tol


def test_msum_rejects_principal():
    with pytest.raises(ConstraintError):
        max_partial_sum(principal_character(7))


def test_msum_ratio_fields():
    rec = max_partial_sum(kronecker_character(-4))
    assert rec.ratio_odd is None and rec.ratio_even is None  # q < 16
    chi = character_from_index(101, 50)
    rec = max_partial_sum(chi)
    q, M = 101, rec.M
    assert abs(rec.ratio_odd - M * math.pi / (math.sqrt(q) * math.log(math.log(q)))) < 1e-12
    assert abs(rec.ratio_even / rec.ratio_odd - math.sqrt(3)) < 1e-12


def test_msum_record_fields():
    assert [f.name for f in dataclasses.fields(MsumRecord)] == [
        "M", "argmax", "ratio_odd", "ratio_even",
    ]


def test_period_sum_guard_on_both_paths(monkeypatch):
    # a corrupt table (one unit value doubled, in the one table builder) trips
    # the guard in the block scan and in the half-sum check's whole table
    chi = character_from_index(101, 1)
    table_rows = character._table_rows

    def corrupt(rows, q, lo=0, hi=None, out=None):
        out = table_rows(rows, q, lo, hi, out)
        if lo <= 1 < (q if hi is None else hi):
            out[:, 1 - lo] += 1.0
        return out

    monkeypatch.setattr(character, "_table_rows", corrupt)
    monkeypatch.setattr(character, "_BLOCK_ELEMENTS", 16)
    with pytest.raises(AssertionError, match="period sum"):
        max_partial_sum(chi)
    with pytest.raises(AssertionError, match="period sum"):
        half_sum_check(chi)


def test_half_sum_identity_small_sweep():
    worst = 0.0
    for q in range(3, 102, 2):
        for chi in all_characters(q):
            if not chi.is_primitive or chi.parity() != -1:
                continue
            rec = half_sum_check(chi)
            half = chi.value_table()[1 : q // 2 + 1]
            assert rec.lhs == complex(math.fsum(half.real), math.fsum(half.imag))
            worst = max(worst, rec.abs_diff)
    assert worst < 1e-10


def test_half_sum_guards():
    with pytest.raises(ConstraintError):
        half_sum_check(kronecker_character(5))  # even character
    with pytest.raises(ConstraintError):
        half_sum_check(kronecker_character(-4))  # even modulus
    chi = [c for c in all_characters(45) if c.conductor == 5 and c.parity() == -1][0]
    with pytest.raises(ConstraintError):
        half_sum_check(chi)  # imprimitive


def test_bridge_odd_branch_example():
    rec = bridge_bounds(kronecker_character(-4))
    assert rec.bound_kind == "odd"
    assert abs(rec.lhs - 1.0) < 1e-12
    assert abs(rec.rhs - 0.5) < 1e-12
    assert not rec.violated and rec.margin > 0.49


def test_bridge_even_branch_equality_case():
    # Legendre mod 5 meets the even-branch bound with equality
    rec = bridge_bounds(kronecker_character(5))
    assert rec.bound_kind == "even"
    assert abs(rec.lhs - rec.rhs) < 1e-12
    assert not rec.violated  # the 1e-9 slack absorbs roundoff


def test_bridge_guards():
    with pytest.raises(ConstraintError):
        bridge_bounds(character_from_index(13, 4))  # order 3 is odd
    with pytest.raises(ConstraintError):
        bridge_bounds(kronecker_character(21))  # even parity, 3 | q


def test_bridge_sweep_no_violations():
    for q in list(range(3, 60)) + [101, 163]:
        if q % 4 == 2:
            continue
        for chi in all_characters(q):
            if chi.is_principal or not chi.is_primitive or chi.order % 2:
                continue
            if chi.parity() == 1 and q % 3 == 0:
                continue
            assert not bridge_bounds(chi).violated


def test_csv_columns_frozen():
    assert CSV_COLUMNS == (
        "char_id", "q", "order", "parity", "M", "argmax",
        "L1_abs", "ratio_odd", "ratio_even",
    )


def test_msum_vs_l1_consistency():
    # sanity: the odd bridge ties the two quantities we report together
    chi = kronecker_character(-163)
    rec = max_partial_sum(chi)
    l1 = abs(l1_exact(chi).value)
    assert rec.M >= math.sqrt(163) / math.pi * l1 - 1e-9
