"""Evaluation records and deterministic serialization."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chx import character, cli, families, lfunction, ntheory, report, verify
from chx.character import (
    all_characters,
    character_from_id,
    character_from_index,
    kronecker_character,
    principal_character,
    product_character,
)
from chx.charsum import max_partial_sum
from chx.errors import ConstraintError
from chx.families import psi_tilde
from chx.lfunction import _finite_l1, _phases, _tau, gauss_sum, l1_exact
from chx.report import (
    REFERENCE_CONSTANTS,
    RunManifest,
    canonical_json,
    evaluate_character,
    write_csv,
    write_json,
    write_jsonl,
)


def test_reference_constants():
    eg = math.exp(np.euler_gamma)
    assert REFERENCE_CONSTANTS["e_gamma"] == eg
    assert REFERENCE_CONSTANTS["e_gamma_over_pi"] == eg / math.pi
    assert REFERENCE_CONSTANTS["two_e_gamma_over_pi_sqrt3"] == (
        2 * eg / (math.pi * math.sqrt(3))
    )


def test_evaluate_character_known_values():
    rec = evaluate_character(kronecker_character(-4))
    assert abs(abs(rec.L1.value) - math.pi / 4) < 1e-13
    assert rec.M == 1.0 and rec.argmax == 1
    assert rec.tau_abs == 2.0
    assert rec.parity == -1 and rec.order == 2


def test_evaluate_character_matches_oracles():
    xi = kronecker_character(-3)
    odd, even = character_from_index(1009, 7), character_from_index(1009, 8)
    composite = character_from_id("q=40;comps=2^3:3,5:1")
    assert (odd.parity(), even.parity(), composite.is_primitive) == (-1, 1, True)
    for chi in (odd, even, composite):
        twist = xi if chi.parity() == 1 else None  # L(1, chi*xi) is read for even chi only
        rec = evaluate_character(chi, xi=twist)
        assert abs(rec.L1.value - l1_exact(chi).value) < 1e-10
        assert abs(rec.tau_abs - abs(gauss_sum(chi))) < 1e-9
        if twist is None:
            assert rec.L1_twisted is None and rec.xi_id is None
        else:
            twisted = l1_exact(product_character(chi, xi)).value
            assert abs(rec.L1_twisted.value - twisted) < 1e-10


def test_evaluate_character_builds_one_table_per_character(monkeypatch):
    built = []
    table_rows = character._table_rows

    def counting(rows, q, lo=0, hi=None, out=None):
        built.append((q, lo, q if hi is None else hi))
        return table_rows(rows, q, lo, hi, out)

    def covered(q, stop):
        """The number of column ranges built mod q, which must cover
        [0, stop) once, in order, each starting where the last one ended."""
        spans = [(lo, hi) for m, lo, hi in built if m == q]
        assert spans and spans[0][0] == 0 and spans[-1][1] == stop
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        return len(spans)

    monkeypatch.setattr(character, "_table_rows", counting)
    monkeypatch.setattr(character, "_BLOCK_ELEMENTS", 7)
    chi = character_from_id("q=40;comps=2^3:3,5:1")
    evaluate_character(chi, z=100.0)
    assert {q for q, _, _ in built} == {40} and covered(40, 40) == 6  # [0, 40) once
    built.clear()
    evaluate_character(chi, z=100.0, xi=kronecker_character(-3))
    # chi is even and 3 does not divide 40: S(13) on chi's own table gives L(1, chi*xi)
    assert {q for q, _, _ in built} == {40} and covered(40, 40) == 6
    # M, tau and L(1) from one scan: a complex chi reads [0, q) once, a real
    # chi [0, ceil(q/2)) once
    for chi, stop, spans in ((character_from_id("q=120;comps=2^3:3,3:1,5:1"), 120, 18),
                             (kronecker_character(-120), 60, 9), (kronecker_character(-3), 2, 1)):
        built.clear()
        evaluate_character(chi)
        assert {q for q, _, _ in built} == {chi.modulus} and covered(chi.modulus, stop) == spans


def _whole_table(chi):
    """(M, argmax, tau) from chi's whole value table: one np.cumsum, and tau
    as the product over q_i || q of the dots of the table at the CRT lifts
    m[n] = n q/q_i mod q_i, 1 mod q/q_i with e(n/q_i) (one dot with e(n/q)
    for a prime power)."""
    W = chi.value_table()
    mags = np.abs(np.cumsum(W))
    i = int(np.argmax(mags))
    q, pas = chi.modulus, [c.pa for c in chi.components]
    if len(pas) == 1:
        tau = np.dot(W, _phases(q))
    else:
        lifts = [(np.arange(qi) * (q // qi) + qi * pow(qi, -1, q // qi)) % q for qi in pas]
        tau = math.prod(np.dot(W[m], _phases(len(m))) for m in lifts)
    return float(mags[i]), i, complex(tau)


def test_finite_scan_tau_reads_no_table(monkeypatch):
    # tau comes from the component rows with the bits of the whole table's
    # dots at the CRT lifts, and builds no table at all
    chars = [principal_character(1), kronecker_character(-4), kronecker_character(-8),
             next(c for c in all_characters(64) if c.is_primitive), character_from_index(1009, 7),
             character_from_id("q=301771;comps=523:174,577:384"),
             character_from_id("q=8072;comps=2^3:3,1009:5"),
             next(c for c in all_characters(840) if c.is_primitive)]
    want = [_whole_table(chi)[2] for chi in chars]

    def refuse(*args, **kwargs):
        raise AssertionError("tau built a value table")

    monkeypatch.setattr(character, "_table_rows", refuse)
    got = [_tau(chi._rows(), chi.modulus) for chi in chars]
    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
    assert got[0] == 1.0 + 0.0j  # q = 1: no components


def _close(got, want, rel=1e-13):
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("block", [7, 1000])  # below and above each p^a
@pytest.mark.parametrize("char_id,xi", [
    ("q=301771;comps=523:174,577:384", None),  # a k = 3 search member whose argmax is a roundoff tie
    ("q=8072;comps=2^3:3,1009:5", -3),  # a 2-adic component, and its chi*xi
])
def test_streamed_member_matches_whole_table(char_id, xi, block, monkeypatch):
    # M, argmax and tau keep the bits of the whole table in any column blocks;
    # L(1) adds its blocks' partial sums by fsum, so it is tied to l1_exact instead
    chi = character_from_id(char_id)
    xi = kronecker_character(xi) if xi else None
    monkeypatch.setattr(character, "_BLOCK_ELEMENTS", block)
    rec = evaluate_character(chi, xi=xi)
    M, argmax, tau = _whole_table(chi)
    assert (rec.M, rec.argmax, rec.tau_abs) == (M, argmax, abs(tau))
    assert _close(rec.L1.value, l1_exact(chi).value)
    if xi is not None:
        twisted = product_character(chi, xi)
        assert _close(rec.L1_twisted.value, l1_exact(twisted).value)
        msum, tau = max_partial_sum(twisted), _tau(twisted._rows(), twisted.modulus)
        assert (msum.M, msum.argmax, tau) == _whole_table(twisted)
        l1 = evaluate_character(twisted).L1
        # an even chi's L(1, chi*xi) comes from its own S(floor(q/3)), not chi*xi's table
        assert abs(l1.value - rec.L1_twisted.value) <= rec.L1_twisted.error_bound
        assert (l1.method, l1.error_bound) == (rec.L1_twisted.method, rec.L1_twisted.error_bound)


def _hex(z: complex) -> tuple:
    """z's two parts as float.hex, so the sign of a zero counts."""
    return z.real.hex(), z.imag.hex()


def _assert_real_path_matches_references(chi, xi=None):
    """evaluate_character on a real chi: M and argmax equal the full-period
    complex scan's exactly, and L(1) (and L(1, chi*xi)) lie within their
    error_bound of l1_exact.  An odd chi's L(1) is the finite formula at
    the exact integer s = sum_{a<ceil(q/2)} (2a - q) chi(a), summed here in
    Python ints: the scan's Abel sums over S(x) round nothing."""
    rec, ref = evaluate_character(chi, xi=xi), max_partial_sum(chi)
    assert (rec.M, rec.argmax) == (ref.M, ref.argmax), chi.char_id
    assert rec.argmax < (chi.modulus + 1) // 2
    assert abs(rec.L1.value - l1_exact(chi).value) <= rec.L1.error_bound, chi.char_id
    if chi.parity() == -1:
        q = chi.modulus
        e, units = chi.values_at(np.arange((q + 1) // 2))
        s = sum((2 * a - q) * (1 - 2 * x) for a, x in enumerate(e.tolist()) if units[a])
        want = _finite_l1(complex(0.0, math.sqrt(q)), complex(s), q, True)
        assert _hex(rec.L1.value) == _hex(want), chi.char_id
    if xi is not None:
        twisted = l1_exact(product_character(chi, xi)).value
        assert abs(rec.L1_twisted.value - twisted) <= rec.L1_twisted.error_bound, chi.char_id


def test_real_path_matches_references_on_every_small_discriminant():
    # every fundamental d with |d| <= 3000, both signs, 2-adic d included;
    # tau is sqrt(q) or i sqrt(q) by parity, with no dot
    ds = [d for n in range(3, 3001) for d in (n, -n) if ntheory.is_fundamental_discriminant(d)]
    assert len(ds) == 1820 and {d % 8 for d in ds if d % 2 == 0} == {0, 4}
    for d in ds:
        chi = kronecker_character(d)
        _assert_real_path_matches_references(chi)
        tau = report._PrefixScan(chi, chi._rows(real=True)).tau
        assert tau == (math.sqrt(d) if d > 0 else 1j * math.sqrt(-d))
        assert abs(tau - gauss_sum(chi)) <= 1e-13 * math.sqrt(abs(d)), d


def test_real_path_matches_references_on_the_bench_search_members():
    # the 15 real members of the bench's search_mix: orderk k = 2 and even_sum
    # k = 2 at Q = 2e5, the latter with their twist chi * (./3)
    orderk = [chi for _, chi in families.pigeonhole_with_retry(families.OrderKFamilySpec(2e5, 2)).pairs]
    spec = families.QuadTwistSpec(2e5, 2, 1)
    even = [m.chi for m in families.twisted_family(spec).members]
    assert (len(orderk), len(even)) == (10, 5)
    for chi in orderk:
        _assert_real_path_matches_references(chi)
    for chi in even:
        _assert_real_path_matches_references(chi, spec.xi)


@pytest.mark.parametrize("char_id", [
    "q=1000037;comps=1000037:250009",  # order 4
    "q=1000003;comps=1000003:166667",  # order 6
    "q=1000003;comps=1000003:1",  # order q - 1
    "q=4000037;comps=4000037:1000009",
    "q=4000039;comps=4000039:666673",
    "q=4000039;comps=4000039:1",
])
def test_odd_complex_l1_from_the_prefix_sums(char_id):
    # a complex odd chi's L(1) by Abel summation over its prefix sums, which
    # are not exact, still lies within its error_bound of l1_exact
    chi = character_from_id(char_id)
    assert chi.parity() == -1 and chi.order in (4, 6, chi.modulus - 1)
    rec = evaluate_character(chi)
    assert abs(rec.L1.value - l1_exact(chi).value) <= rec.L1.error_bound


def test_real_member_bits_do_not_depend_on_the_blas_pool():
    # an even member's weighted sum is a fixed-order numpy reduction, not a
    # BLAS product, whose splitting follows the OpenBLAS pool size
    code = ("from chx.character import character_from_id; from chx.report import evaluate_character; "
            "rec = evaluate_character(character_from_id('q=6488689;comps=2017:1008,3217:1608')); "
            "print(rec.L1.value.real.hex(), rec.L1.value.imag.hex(), rec.M, rec.argmax)")
    src = str(Path(report.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] and outs[0] == outs[1]


def _assert_twist_from_the_third(chi, xi, oracle=l1_exact):
    """An even chi's L(1, chi*xi), xi = (./3), from its own S(floor(q/3)):
    within its error_bound of `oracle` on chi*xi, with the allowance of
    chi*xi's modulus."""
    rec = evaluate_character(chi, xi=xi)
    want = oracle(product_character(chi, xi))
    assert abs(rec.L1_twisted.value - want.value) <= rec.L1_twisted.error_bound, chi.char_id
    assert (rec.L1_twisted.method, rec.L1_twisted.error_bound) == ("exact_finite", want.error_bound)


def test_twist_from_the_third_on_every_small_even_discriminant():
    xi = kronecker_character(-3)
    ds = [d for d in range(5, 3001) if d % 3 and ntheory.is_fundamental_discriminant(d)]
    assert len(ds) == 679
    for d in ds:
        _assert_twist_from_the_third(kronecker_character(d), xi)


@pytest.mark.parametrize("Q", [2e5, 1e6])
@pytest.mark.parametrize("k", [2, 4])
def test_twist_from_the_third_on_the_even_sum_members(Q, k):
    # l1_exact mod 3q is the oracle at Q = 2e5; at Q = 1e6 (3q up to 5e6,
    # where it takes 14 s and 330 MB in all) evaluate_character mod 3q is
    spec = families.QuadTwistSpec(Q, k, 1)
    members = [m.chi for m in families.twisted_family(spec).members]
    assert len(members) == (5 if Q == 2e5 else 8)
    for chi in members:
        assert chi.parity() == 1 and chi.modulus % 3
        _assert_twist_from_the_third(chi, spec.xi, l1_exact if Q == 2e5 else lambda c: evaluate_character(c).L1)


def test_an_even_sum_member_builds_tables_mod_q_only(monkeypatch):
    built = []
    table_rows = character._table_rows

    def recording(rows, q, lo=0, hi=None, out=None):
        built.append(q)
        return table_rows(rows, q, lo, hi, out)

    monkeypatch.setattr(character, "_table_rows", recording)
    for k in (2, 4):
        spec = families.QuadTwistSpec(2e5, k, 1)
        for m in families.twisted_family(spec).members:
            built.clear()
            evaluate_character(m.chi, z=math.log(2e5) ** 2, xi=spec.xi)
            assert set(built) == {m.chi.modulus}, m.chi.char_id


@pytest.mark.parametrize("d", [3001, -2999, -8])  # even, odd, odd and 2-adic
def test_half_period_guard_trips_on_a_corrupt_row(d, monkeypatch):
    # chi(1) flipped in chi's one component row: the table, tau and L(1) all
    # read it, and S(floor(q/2)) misses the half-period identity
    component_rows = character._component_rows

    def corrupt(c, labels, roots, logs):
        vals = component_rows(c, labels, roots, logs)
        vals[:, 1] *= -1
        return vals

    chi = kronecker_character(d)
    assert len(chi.components) == 1
    monkeypatch.setattr(character, "_component_rows", corrupt)
    with pytest.raises(AssertionError, match="half-period sum"):
        evaluate_character(chi)


def test_each_member_takes_its_path(monkeypatch):
    # a k = 3 member is scanned over its whole period as complex128 (its pinned
    # argmax lies past ceil(q/2)); a quadratic one over [0, ceil(q/2)) as float64
    seen = []
    column_blocks = report._column_blocks

    def recording(rows, q, stop=None):
        for lo, block in column_blocks(rows, q, stop):
            seen.append((block.dtype, lo + len(block)))
            yield lo, block

    monkeypatch.setattr(report, "_column_blocks", recording)
    rec = evaluate_character(character_from_id("q=301771;comps=523:174,577:384"))
    assert rec.order == 3 and rec.argmax == 288491
    assert {dt for dt, _ in seen} == {np.dtype(np.complex128)} and seen[-1][1] == 301771
    seen.clear()
    rec = evaluate_character(kronecker_character(-2999))
    assert rec.order == 2
    assert {dt for dt, _ in seen} == {np.dtype(np.float64)} and seen[-1][1] == 1500


def test_evaluate_character_holds_no_table():
    # chi's table alone is 16 MB; its column blocks and weights are not
    chi = psi_tilde(997, 1009, 2)
    tracemalloc.start()
    try:
        evaluate_character(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_an_even_member_past_the_cap_at_3q_reads_its_own_table(monkeypatch):
    # q is under the table cap and 3q = 69321639 is over it: L(1, chi*xi)
    # comes from chi's own S(floor(q/3)), tied here to the AFE mod 3q
    built = set()
    table_rows = character._table_rows

    def recording(rows, q, lo=0, hi=None, out=None):
        built.add(q)
        return table_rows(rows, q, lo, hi, out)

    chi, xi = character_from_id("q=23107213;comps=4801:1,4813:1"), kronecker_character(-3)
    assert 3 * chi.modulus > character._DLOG_TABLE_CAP >= chi.modulus
    monkeypatch.setattr(character, "_table_rows", recording)
    rec = evaluate_character(chi, xi=xi)
    assert built == {chi.modulus}
    (afe,) = lfunction.l1_afe([product_character(chi, xi)])
    assert abs(rec.L1_twisted.value - afe.value) <= rec.L1_twisted.error_bound + afe.error_bound


@pytest.mark.parametrize("d,xi", [
    (-4, -3),  # odd chi
    (12, -3),  # even chi, 3 | q
    (13, 5),  # even chi, xi other than (./3)
])
def test_evaluate_character_refuses_other_twists_first(d, xi, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a value table was built before the twist check")

    monkeypatch.setattr(character, "_table_rows", refuse)
    with pytest.raises(ConstraintError, match="only for xi = "):
        evaluate_character(kronecker_character(d), xi=kronecker_character(xi))


def test_evaluate_character_with_twist():
    rec = evaluate_character(character_from_index(5, 2), xi=kronecker_character(-3))
    assert rec.xi_id == "q=3;comps=3:1"
    assert rec.L1_twisted is not None
    # a principal xi, as odd_sum passes, reads no twist
    rec = evaluate_character(character_from_index(5, 1), xi=principal_character(1))
    assert rec.xi_id is None and rec.L1_twisted is None


def test_canonical_json_determinism():
    rec = evaluate_character(kronecker_character(5), z=100.0)
    s1 = canonical_json(rec.to_json_dict())
    s2 = canonical_json(rec.to_json_dict())
    assert s1 == s2
    # floats are capped at 15 significant digits
    obj = json.loads(s1)
    assert obj["L1"]["abs"] == float(f"{abs(rec.L1.value):.15g}")


def test_canonical_json_handles_numpy_scalars():
    obj = {"a": np.float64(1 / 3), "b": np.int64(7), "c": np.bool_(True),
           "d": complex(1, -2), "e": [np.float64(0.1)]}
    s = canonical_json(obj)
    parsed = json.loads(s)
    assert parsed["b"] == 7 and parsed["c"] is True
    assert parsed["d"] == {"re": 1.0, "im": -2.0}


def test_write_helpers_roundtrip(tmp_path):
    rows = [["a", 1], ["b", 2]]
    write_csv(tmp_path / "t.csv", rows, header=("name", "x"))
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == "name,x"
    write_json(tmp_path / "t.json", {"k": 0.5})
    assert json.loads((tmp_path / "t.json").read_text()) == {"k": 0.5}
    write_jsonl(tmp_path / "t.jsonl", [{"i": 1}, {"i": 2}])
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(x)["i"] for x in lines] == [1, 2]


def test_csv_row_matches_header():
    from chx.charsum import CSV_COLUMNS

    rec = evaluate_character(kronecker_character(-4))
    assert len(rec.csv_row()) == len(CSV_COLUMNS)


def _strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_canonical_json_writes_non_finite_as_null():
    obj = {"a": math.inf, "b": [np.float64(-math.inf)], "c": complex(math.nan, 1.0)}
    assert _strict_loads(canonical_json(obj)) == {"a": None, "b": [None], "c": {"re": None, "im": 1.0}}


def test_eval_record_is_strict_json(tmp_path, capsys):
    # below z = 3 the Euler band is infinite
    assert cli.main(["eval", "--q", "13", "--t", "4", "--z", "2.5", "--out", str(tmp_path)]) == 0
    rec = _strict_loads((tmp_path / "record.json").read_text())
    assert rec["L1_euler"]["err"] is None
    _strict_loads((tmp_path / "manifest.json").read_text())


def test_manifest_rho_seed_constant_is_ntheorys():
    man = RunManifest("eval", {}, "0", "a", "b", {}).to_json_dict()
    assert man["rho_seed_constant"] == f"0x{ntheory.RHO_SEED_CONSTANT:X}" == "0x9E3779B97F4A7C15"


def test_empty_bridge_scan_is_strict_json():
    # no character to scan leaves min_margin at +inf
    detail = _strict_loads(canonical_json(verify._check_bridges(2).detail))
    assert detail["min_margin"] is None
