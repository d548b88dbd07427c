"""Exact character arithmetic: tables, orders, conductors, ids."""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from chx import character
from chx.character import (
    RootOfUnity,
    all_characters,
    character_from_components,
    character_from_id,
    character_from_index,
    kronecker_character,
    order_k_characters,
    order_witness,
    principal_character,
    product_character,
    psi_q,
    values_up_to,
)
from chx.errors import ConstraintError, ResourceError
from chx.lfunction import _phases
from chx.ntheory import factor, kronecker, sieve_primes, smallest_primitive_root_mod_pp


def test_root_of_unity_lowest_terms():
    assert RootOfUnity(6, 2) == RootOfUnity(3, 1)
    assert RootOfUnity(8, 6) == RootOfUnity(4, 3)
    assert (RootOfUnity(3, 1) * RootOfUnity(3, 2)) == RootOfUnity.one()
    assert RootOfUnity(4, 1) ** 2 == RootOfUnity(2, 1)
    assert RootOfUnity(5, 2).conjugate() == RootOfUnity(5, 3)
    z = RootOfUnity.zero()
    assert z.is_zero and (z * RootOfUnity(3, 1)).is_zero


def test_root_of_unity_as_int():
    assert RootOfUnity.one().as_int() == 1
    assert RootOfUnity(2, 1).as_int() == -1
    assert RootOfUnity.zero().as_int() == 0
    with pytest.raises(ConstraintError):
        RootOfUnity(3, 1).as_int()


def test_root_of_unity_to_complex():
    z = RootOfUnity(8, 3).to_complex()
    assert abs(z - complex(math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4))) < 1e-15


@pytest.mark.parametrize("order", [1458, 1024])
def test_to_complex_within_an_ulp_of_the_root(order):
    # the angle is taken in (-pi, pi], so it is rounded at most at pi: every
    # exponent lies within 6.5e-16 of the exact root (1.3e-15 for an angle
    # rounded at up to 2 pi, at order 1458)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        worst = max(abs(mpmath.mpc(RootOfUnity(order, e).to_complex())
                        - mpmath.expjpi(mpmath.mpf(2 * e) / order)) for e in range(order))
    assert worst <= 6.5e-16


def _table_props(chi):
    q = chi.modulus
    vals = chi.value_table()
    assert vals.shape == (q,)
    for n in range(q):
        if math.gcd(n, q) != 1:
            assert vals[n] == 0
    # complete multiplicativity on units
    for a in range(1, min(q, 30)):
        for b in range(1, min(q, 30)):
            if math.gcd(a, q) == 1 and math.gcd(b, q) == 1:
                assert abs(vals[a * b % q] - vals[a] * vals[b]) < 1e-12


def test_value_table_multiplicative():
    for q in (3, 4, 5, 8, 9, 12, 16, 21, 40, 45):
        for chi in all_characters(q):
            _table_props(chi)


@functools.lru_cache(maxsize=None)
def _reference_units(p, a):
    """(n, j, s, f) over the units n mod p^a, from Python's pow alone:
    n = g^j for the least primitive root g (odd p), or n = (-1)^s 5^f (p = 2)."""
    pa = p**a
    if p != 2:
        g = smallest_primitive_root_mod_pp(p, a)
        j = list(range(pa // p * (p - 1)))
        return [pow(g, x, pa) for x in j], j, None, None
    m5 = 1 << max(a - 2, 0)
    sf = [(s, f) for s in (0, 1) for f in range(m5)]
    return [(-1) ** s * pow(5, f, pa) % pa for s, f in sf], None, *zip(*sf)


def _reference_table(chi):
    """An independent table formula: each unit mod p^a is written as g^j or
    (-1)^s 5^f by `_reference_units`, and sent to zeta_phi^e, e the exponent
    its component's label gives (label t0 * 2^(a-2) + t1 on 2^a)."""
    def component(p, a, t):
        pa = p**a
        phi = pa // p * (p - 1)
        n, j, s, f = _reference_units(p, a)
        if p != 2:
            e = t * np.array(j)
        else:
            m5 = 1 << max(a - 2, 0)
            t0, t1 = divmod(t, m5)
            e = t0 * np.array(s) * (phi // 2) + t1 * np.array(f) * (phi // m5)
        roots = np.exp(2j * np.pi * np.arange(phi) / phi)
        vals = np.zeros(pa, dtype=np.complex128)
        vals[n] = roots[e % phi]
        return vals

    q = chi.modulus
    if q == 1:
        return np.ones(1, dtype=np.complex128)
    if len(chi.components) == 1:
        return component(chi.components[0].p, chi.components[0].a, chi.components[0].t)
    out = np.ones(q, dtype=np.complex128)
    idx = np.arange(q, dtype=np.int64)
    for c in chi.components:
        out *= component(c.p, c.a, c.t)[idx % c.pa]
    return out


@pytest.mark.parametrize("q", [1, 13, 40, 81, 1009])
def test_value_tables_match_reference(q):
    chars = [kronecker_character(1)] if q == 1 else list(all_characters(q))
    for chi in chars:
        assert np.array_equal(chi.value_table(), _reference_table(chi))


MATRIX_MODULI = [1, 3, 4, 8, 9, 12, 13, 40, 64, 81, 120, 360]


@pytest.mark.parametrize("q", MATRIX_MODULI)
def test_character_matrix_matches_value_tables(q):
    chars = list(all_characters(q))
    cm = character.CharacterMatrix(q)
    assert cm.order.size == len(chars)
    blocks = list(cm.blocks(np.arange(len(chars))))
    W = np.concatenate([w for _, w in blocks])
    assert np.array_equal(np.concatenate([r for r, _ in blocks]), np.arange(len(chars)))
    for i, chi in enumerate(chars):
        assert np.array_equal(W[i], chi.value_table())
        assert np.array_equal(W[i], _reference_table(chi))
        assert cm.character(i) == chi
    assert cm.primitive.tolist() == [chi.is_primitive for chi in chars]
    assert cm.parity.tolist() == [chi.parity() for chi in chars]
    assert cm.order.tolist() == [chi.order for chi in chars]


def _table_rows_from_ones(rows, q, lo=0, hi=None):
    """The value tables' columns [lo, hi) with every component multiplied
    into ones through the same slices and period views as `_table_rows`."""
    hi = q if hi is None else hi
    w = hi - lo
    out = np.ones((len(rows[0]) if rows else 1, w), dtype=np.complex128)
    for r in rows:
        pa = r.shape[1]
        phase = lo % pa
        head = min(w, -phase % pa)
        out[:, :head] *= r[:, phase : phase + head]
        k = (w - head) // pa
        out[:, head : head + k * pa].reshape(len(out), k, pa)[...] *= r[:, None, :]
        tail = w - head - k * pa
        out[:, w - tail :] *= r[:, :tail]
    return out


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_table_rows_match_multiplying_into_ones(monkeypatch):
    # the first component is written, not multiplied into ones: same bits,
    # signed zeros included, for every block of every CharacterMatrix(q <= 400)
    seen, table_rows = [], character._table_rows

    def checked(rows, q):
        got = table_rows(rows, q)
        _assert_same_bits(got, _table_rows_from_ones(rows, q))
        seen.append(q)
        return got

    monkeypatch.setattr(character, "_table_rows", checked)
    for q in range(1, 401):
        cm = character.CharacterMatrix(q)
        for _ in cm.blocks(np.arange(cm.order.size)):
            pass
    assert sorted(set(seen)) == list(range(1, 401))


def test_table_rows_match_multiplying_into_ones_on_search_members():
    # the bench search_mix members: orderk k = 2, 3 and even_sum k = 2 at Q = 2e5,
    # whole and in column blocks that start at every phase
    from chx import families

    chars = [chi for k in (2, 3)
             for _, chi in families.pigeonhole_with_retry(families.OrderKFamilySpec(2e5, k)).pairs]
    twist = families.QuadTwistSpec(2e5, 2, 1)
    chars += [m.chi for m in families.twisted_family(twist).members]
    assert len(chars) >= 10
    for chi in chars:
        rows, q = chi._rows(), chi.modulus
        assert len(rows) >= 2
        _assert_same_bits(character._table_rows(rows, q), _table_rows_from_ones(rows, q))
        for lo in (1, q // 3, q - 1000):
            hi = min(q, lo + 5000)
            _assert_same_bits(character._table_rows(rows, q, lo, hi), _table_rows_from_ones(rows, q, lo, hi))


@pytest.mark.parametrize("q", [13, 120, 360])
def test_character_matrix_blocks_stay_in_budget(q, monkeypatch):
    cm = character.CharacterMatrix(q)
    rows = np.arange(cm.order.size)
    full = np.concatenate([w for _, w in cm.blocks(rows)])
    picked = rows[cm.primitive | (cm.parity == -1)]
    for budget in (q, 5 * q + 3, 4096):
        monkeypatch.setattr(character, "_BLOCK_ELEMENTS", budget)
        blocks = list(cm.blocks(picked))
        assert len(blocks) == -(-len(picked) // (budget // q))
        assert all(w.size <= budget for _, w in blocks)
        assert np.array_equal(np.concatenate([r for r, _ in blocks]), picked)
        assert np.array_equal(np.concatenate([w for _, w in blocks]), full[picked])
    monkeypatch.setattr(character, "_BLOCK_ELEMENTS", q // 2)  # below one row: one row a block
    assert [w.shape for _, w in cm.blocks(rows[:3])] == [(1, q)] * 3


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 16, 45, 64, 120, 360, 840, 1009, 1155, 2048])
def test_character_matrix_sums_match_blocks(q):
    # prime, odd and 2-adic prime powers (mod 2: one factor of order 1),
    # composites with up to four components, and q = 1 (the point n = 0)
    cm = character.CharacterMatrix(q)
    rows = np.arange(cm.order.size)
    W = np.concatenate([w for _, w in cm.blocks(rows)])
    rng = np.random.default_rng(q)
    f = rng.standard_normal((2, 3, q)) + 1j * rng.standard_normal((2, 3, q))
    got = cm.sums(f)
    assert got.shape == (2, 3, rows.size)
    err = np.abs(got - f @ W.T) / np.abs(f).sum(axis=-1, keepdims=True)
    assert err.max() <= 1e-15
    x = f[0, 0].real  # one real f
    assert np.abs(cm.sums(x) - W @ x).max() <= 1e-15 * np.abs(x).sum()


def test_character_matrices_plan_each_prime_power_once(monkeypatch):
    # a scan builds each p^a's label facts and unit grid once, and its
    # matrices agree with fresh ones, sums included
    calls = []
    facts, unit_grid = character._facts, character._unit_grid

    def spy_facts(p, a, t):
        calls.append(("facts", p, a))
        return facts(p, a, t)

    def spy_grid(p, a):
        calls.append(("grid", p, a))
        return unit_grid(p, a)

    monkeypatch.setattr(character, "_facts", spy_facts)
    monkeypatch.setattr(character, "_unit_grid", spy_grid)
    scanned = [(cm, cm.sums(_phases(cm.modulus))) for cm in character.character_matrices(range(1, 361))]
    monkeypatch.undo()
    prime_powers = {pa for q in range(2, 361) for pa in factor(q).factors}
    assert sorted(calls) == sorted((kind, p, a) for kind in ("facts", "grid") for p, a in prime_powers)
    assert [cm.modulus for cm, _ in scanned] == list(range(1, 361))
    for cm, sums in scanned:
        fresh = character.CharacterMatrix(cm.modulus)
        assert np.array_equal(cm.order, fresh.order)
        assert np.array_equal(cm.primitive, fresh.primitive)
        assert np.array_equal(cm.parity, fresh.parity)
        assert np.array_equal(sums, fresh.sums(_phases(cm.modulus)))


def test_character_matrices_drop_each_plan_after_its_last_modulus(monkeypatch):
    # a plan lives while a later modulus of the scan still reads it
    made = {}
    plan = character._plan

    def spy(p, a):
        out = plan(p, a)
        made[p, a] = weakref.ref(out[0])
        return out

    monkeypatch.setattr(character, "_plan", spy)
    alive = []
    for cm in character.character_matrices([7, 21, 5, 15, 9]):
        alive.append(sorted(pa for pa, ref in made.items() if ref() is not None))
    assert alive == [[(7, 1)], [(3, 1), (7, 1)], [(3, 1), (5, 1)], [(3, 1), (5, 1)], [(3, 2)]]


def _sums_by_ifftn(cm, x):
    """sum_n chi(n) x[..., n] for every row of cm, by one ifftn over the unit grid."""
    q = cm.modulus
    n = np.zeros((), dtype=np.int64)
    for c in cm.components:
        lift = q // c.pa * pow(q // c.pa, -1, c.pa)
        grid = character._unit_grid(c.p, c.a) * lift % q
        n = (n.reshape(n.shape + (1,) * grid.ndim) + grid) % q
    axes = tuple(range(x.ndim - 1, x.ndim - 1 + n.ndim))
    return (np.fft.ifftn(x[..., n], axes=axes) * n.size).reshape(x.shape[:-1] + (n.size,))


def _assert_sums_match_ifftn(moduli):
    rng = np.random.default_rng(7)
    for q in moduli:
        cm = character.CharacterMatrix(q)
        f = rng.standard_normal((2, q)) + 1j * rng.standard_normal((2, q))
        for x in (f, _phases(q), f[0].real):
            got, want = cm.sums(x), _sums_by_ifftn(cm, x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), q  # the same bits, signed zeros too


def test_sums_one_axis_matches_ifftn():
    # a cyclic unit group (odd p^a, and 2, 4) takes one ifft pass
    moduli = [q for q in range(2, 401) if len(factor(q).factors) == 1 and (q % 2 or q <= 4)]
    assert len(moduli) == 91  # 77 odd primes, 12 higher odd prime powers, 2 and 4
    assert all(character._unit_grid(*factor(q).factors[0]).ndim == 1 for q in moduli)
    _assert_sums_match_ifftn(moduli)


def test_sums_axis_by_axis_match_ifftn():
    # composites and 2^a, a >= 3: one ifft pass per axis, last axis first
    _assert_sums_match_ifftn([q for q in range(1, 401) if len(factor(q).factors) != 1 or q % 8 == 0])


def _peak_over_output(build):
    """The tracemalloc peak of build() over the bytes of the tables it
    returns, its caches (log tables, roots) warmed by a first call."""
    build()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tables = build()
        return (tracemalloc.get_traced_memory()[1] - base) / sum(w.nbytes for w in tables)
    finally:
        tracemalloc.stop()


def test_value_table_peak_is_one_table():
    # each component multiplies into a period view of the table: no q-length
    # index array, gather or second table
    for labels in ({1009: 5, 1013: 7}, {8: 3, 3: 1, 5: 2, 1009: 5}):
        chi = character_from_components(math.prod(labels), labels)
        assert _peak_over_output(lambda: [chi.value_table()]) <= 1.25
    cm = character.CharacterMatrix(360)
    rows = np.arange(cm.order.size)
    assert _peak_over_output(lambda: [w for _, w in cm.blocks(rows)]) <= 1.25


@pytest.mark.parametrize("p,a", [(2, a) for a in range(1, 13)] + [(3, 5), (5, 4), (1009, 1), (3, 7)])
def test_component_rows_match_the_gather(p, a):
    # exponents written onto the unit grid give every label's row, complex
    # and real, with the bits of the gather through the grid's inverse tables
    c = character._Component(p, a, 0)
    grid, roots = character._unit_grid(p, a), c.roots()
    labels = np.arange(c.group_order)
    step = max(1, (1 << 18) // c.pa)
    for lo in range(0, len(labels), step):
        chunk = labels[lo : lo + step]
        for r in (roots, None):
            got, want = character._component_rows(c, chunk, r, grid), _gathered_rows(c, chunk, r)
            assert got.dtype == want.dtype and got.shape == want.shape == (len(chunk), c.pa)
            assert got.tobytes() == want.tobytes(), (p, a, lo, r is None)


@pytest.mark.parametrize("chi,real,per_entry", [
    (character_from_index(1000003, 7), False, 48.0),  # int64 exponents, roots, values, grid: 8 + 16 + 16 + 8
    (kronecker_character(-1000003), True, 25.0),  # exponents, signs, values, grid: 8 + 1 + 8 + 8
])
def test_rows_peak_holds_no_log_table(chi, real, per_entry):
    # a prime modulus's one component row peaks at its exponents, values and
    # unit grid, with no q-length digit-log table or second exponent array
    chi._rows(real)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        chi._rows(real)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert round(peak / chi.modulus, 1) <= per_entry


def test_character_matrix_checks_table_size(monkeypatch):
    monkeypatch.setattr(character, "_DLOG_TABLE_CAP", 1 << 9)
    with pytest.raises(ResourceError):
        character.CharacterMatrix(1 << 9 | 1)


@pytest.mark.parametrize("q", [32, 64, 96, 128])
def test_primitive_character_and_powers_match_tables(q):
    # every character mod q: the primitive character's table, read at n mod f,
    # is the table on the units, and chi ** e is the table to the e-th power
    units = np.gcd(np.arange(q), q) == 1
    for chi in all_characters(q):
        vals = chi.value_table()
        prim = chi.primitive_character()
        f = prim.modulus
        assert f == chi.conductor and prim.is_primitive
        assert np.max(np.abs(prim.value_table()[np.arange(q) % f][units] - vals[units])) < 1e-12
        for e in (-1, 2, 3, chi.order, 2 * chi.order + 1):
            power = (chi**e).value_table()
            assert not power[~units].any()
            assert np.max(np.abs(power[units] - vals[units] ** e)) < 1e-12


def test_order_matches_brute_force():
    for q in (5, 8, 9, 13, 16, 21, 36, 40, 64, 96, 128):
        for chi in all_characters(q):
            e = 1
            psi = chi
            while not psi.is_principal:
                psi = psi * chi
                e += 1
            assert chi.order == e


def test_conductor_matches_induction_scan():
    # oracle: the conductor is the least f | q such that chi is trivial on
    # units n = 1 mod f
    for q in (5, 8, 9, 12, 16, 24, 45, 60, 64, 72, 96, 128):
        for chi in all_characters(q):
            vals = chi.value_table()
            f_oracle = None
            for f in sorted(factor(q).divisors()):
                # chi induced from modulus f iff trivial on units = 1 mod f
                if all(
                    abs(vals[n % q] - 1) < 1e-12
                    for n in range(1, q + 1)
                    if math.gcd(n, q) == 1 and n % f == 1 % f
                ):
                    f_oracle = f
                    break
            assert chi.conductor == f_oracle
            assert chi.is_primitive == (f_oracle == q)


def test_all_characters_complete():
    for q in (3, 4, 8, 9, 15, 16, 24, 35):
        chars = list(all_characters(q))
        phi = factor(q).euler_phi()
        assert len(chars) == phi
        assert len({c.char_id for c in chars}) == phi
        assert sum(1 for c in chars if c.is_principal) == 1


def test_char_id_roundtrip():
    for q in (4, 9, 13, 40, 56, 105):
        for chi in all_characters(q):
            again = character_from_id(chi.char_id)
            assert again == chi
            assert again.char_id == chi.char_id


def test_char_id_rejects_garbage():
    non_canonical = ("q=5;comps=5:1,5:2", "q=5;comps=5^1:2", "q=5;comps=5: 1",
                     "q= 5;comps=5:1", "q=5;comps=5:01", "q=5;comps=5:+1",
                     "x=5;comps=5:1")
    for bad in ("", "q=;comps=", "q=10;comps=2:1", "nonsense") + non_canonical:
        with pytest.raises(ValueError):
            character_from_id(bad)


def test_character_from_index_and_order():
    chi = character_from_index(13, 4)
    assert chi.order == 3 and chi.modulus == 13
    assert character_from_index(13, 0).is_principal
    with pytest.raises(ValueError):
        character_from_index(13, 13)
    with pytest.raises(ValueError):
        character_from_index(10, 1)


def test_character_from_components():
    chi = character_from_components(45, {9: 1, 5: 2})  # keyed by prime power
    assert chi.modulus == 45
    assert chi == character_from_id(chi.char_id)
    with pytest.raises(ValueError):
        character_from_components(45, {9: 1})  # missing the 5-part


def test_kronecker_character_agrees_with_symbol():
    for d in (-84, -43, -20, -8, -7, -4, -3, 5, 8, 12, 13, 21, 40, 73):
        chi = kronecker_character(d)
        assert chi.modulus == abs(d)
        assert chi.order == (2 if d != 1 else 1)
        assert chi.is_primitive
        assert chi.parity() == (1 if d > 0 else -1)
        vals = chi.value_table()
        for n in range(1, abs(d) + 1):
            assert abs(vals[n % abs(d)] - kronecker(d, n)) < 1e-12
    with pytest.raises(ValueError):
        kronecker_character(15)  # not a fundamental discriminant


def test_principal_character():
    chi = principal_character(12)
    assert chi.is_principal and chi.order == 1 and chi.conductor == 1
    assert principal_character(1).modulus == 1
    assert principal_character(1).eval(0) == RootOfUnity.one()


def test_order_k_characters_counts():
    def phi(k):
        return sum(1 for a in range(1, k + 1) if math.gcd(a, k) == 1)

    for q, k in ((13, 3), (13, 4), (29, 7), (31, 5), (41, 8)):
        chars = order_k_characters(q, k)
        assert len(chars) == phi(k)
        assert all(c.order == k for c in chars)
        assert len({c.char_id for c in chars}) == len(chars)


def test_psi_q_is_order_k():
    for q, k in ((13, 3), (29, 4), (31, 6)):
        chi = psi_q(q, k)
        assert chi.order == k and chi.is_primitive and chi.modulus == q


def test_product_and_conjugate():
    a = character_from_index(13, 4)
    b = kronecker_character(-3)
    prod = product_character(a, b)
    assert prod.modulus == 39
    va, vb, vp = a.value_table(), b.value_table(), prod.value_table()
    for n in range(39):
        assert abs(vp[n] - va[n % 13] * vb[n % 3]) < 1e-12
    conj = a.conjugate()
    assert np.allclose(conj.value_table(), np.conj(va))
    assert (a * conj).is_principal
    assert (a**3).is_principal and not (a**2).is_principal


def test_parity_is_sign_at_minus_one():
    for q in (4, 5, 8, 13, 16, 21, 40, 64, 81, 120):
        for chi in all_characters(q):
            assert chi.parity() == chi.eval(q - 1).as_int() == chi.eval(-1).as_int()


def test_parity_builds_no_table(monkeypatch):
    chars = [character_from_index(1009, 7), kronecker_character(-8),
             character_from_components(120, {8: 3, 3: 1, 5: 2})]

    def refuse(*args):
        raise AssertionError("parity built a table")

    monkeypatch.setattr(character, "_unit_grid", refuse)
    monkeypatch.setattr(character, "_power_table", refuse)
    assert [chi.parity() for chi in chars] == [-1, -1, 1]


@pytest.mark.parametrize("d", [-4, 8, -8, 5, -7, -20, 24, -24, 40, -40, 56, -163])
def test_values_at_matches_kronecker_symbol(d):
    chi = kronecker_character(d)
    ns = np.arange(-3 * abs(d), 3 * abs(d) + 1)
    e, units = chi.values_at(ns)
    got = np.where(units, 1 - 2 * e, 0)
    assert got.tolist() == [kronecker(d, int(n)) for n in ns]


@pytest.mark.parametrize("q", [13, 40, 64, 81, 120, 1009])
def test_values_at_matches_value_table(q):
    ns = np.arange(-q, 2 * q)
    for chi in all_characters(q):
        vals = chi.value_table()[ns % q]
        e, units = chi.values_at(ns)
        exact = np.where(units, np.exp(2j * np.pi * e / chi.order), 0)
        assert np.max(np.abs(exact - vals)) < 1e-12
        assert np.max(np.abs(chi.complex_at(ns) - vals)) < 1e-12
        assert np.array_equal(units, np.gcd(ns, q) == 1)


def test_complex_at_is_to_complex():
    chi = character_from_components(120, {8: 3, 3: 1, 5: 1})
    ns = list(range(-130, 250))
    want = [chi.eval(n).to_complex() if math.gcd(n, 120) == 1 else 0j for n in ns]
    assert chi.complex_at(ns).tolist() == want


def test_eval_reduces_large_and_negative_n():
    chi = character_from_components(81, {81: 5})
    assert chi.eval(-1) == chi.eval(80) == RootOfUnity(2, 1)
    assert chi.eval(10**30 + 1) == chi.eval((10**30 + 1) % 81)
    assert chi.eval(-(10**30) - 1) == chi.eval(-(10**30 + 1) % 81)
    assert chi.eval(3 * 10**30).is_zero


def test_values_at_past_int64_products():
    # q above 2**31: exponents are exact Python ints, dlogs by baby-step/giant-step
    q = 2147483659
    g = smallest_primitive_root_mod_pp(q, 1)
    chi = character_from_index(q, 3)
    assert chi.eval(pow(g, 12345, q)) == RootOfUnity(q - 1, 3 * 12345)
    assert chi.eval(10**40) == chi.eval(10) ** 40
    e, units = chi.values_at([g, q - 1, 0, 2 * q])
    assert chi.order == (q - 1) // 3 and e.tolist() == [1, chi.order // 2, 0, 0]
    assert units.tolist() == [True, True, False, False]


def test_eval_exact_vs_table():
    chi = character_from_index(17, 3)
    vals = chi.value_table()
    for n in range(40):
        r = chi.eval(n)
        want = vals[n % 17]
        assert abs((0 if r.is_zero else r.to_complex()) - want) < 1e-12


def test_order_witness_exact():
    rng = np.random.default_rng(7)
    ps = [int(p) for p in sieve_primes(2000).primes]
    for k in (2, 3, 4, 6):
        pool = [p for p in ps if p % k == 1]
        for _ in range(10):
            i, j = rng.choice(len(pool), size=2, replace=False)
            q1, q2 = sorted((pool[i], pool[j]))
            psi1, psi2 = psi_q(q1, k), psi_q(q2, k)
            tilde = product_character(psi1, psi2.conjugate())
            n = order_witness(q1, q2, k)
            assert n % q1 != 0 and n % q2 != 0
            assert tilde.eval(n) == RootOfUnity(k, 1)


def test_character_structure_properties():
    chi = character_from_index(13, 4)
    assert chi.order == 3 and chi.conductor == 13
    assert chi.is_primitive and chi.parity() == 1


def _log_tables(p, a):
    """One digit-log table per cyclic factor: n = prod_j g_j^log_j[n] mod p^a
    (units only; -1 elsewhere), the inverse of `_unit_grid`."""
    pa = p**a
    units = character._unit_grid(p, a)
    tables = []
    for j, m in enumerate(units.shape):
        table = np.full(pa, -1, dtype=np.int64)
        # the digit d_j, broadcast along axis j of `units`
        table[units] = np.arange(m, dtype=np.int64).reshape((m,) + (1,) * (units.ndim - 1 - j))
        tables.append(table)
    return tuple(tables)


def _gathered_rows(c, labels, roots):
    """`_component_rows` by a gather: each unit's exponent read through the
    inverse tables of `_unit_grid`, then its root (or 1.0/-1.0 for roots None)."""
    factors = c.factors
    e = character._exponents(factors, character._digits(factors, labels[:, None]), _log_tables(c.p, c.a))
    vals = roots[e] if roots is not None else np.where(e == 0, 1.0, -1.0)
    vals[:, :: c.p] = 0
    return vals


def _table_oracle(chi):
    """(e, units) of chi at n = 0..q-1, as `values_at` gives them, but with
    every digit log gathered from the inverse tables of `_unit_grid`."""
    q = chi.modulus
    n = np.arange(q)
    lam = math.lcm(1, *(c.group_order for c in chi.components))
    e = np.zeros(q, dtype=np.int64)
    for c in chi.components:
        logs = [table[n % c.pa] for table in _log_tables(c.p, c.a)]
        e += character._exponents(c.factors, c.digits, logs) * (lam // c.group_order)
    units = np.gcd(n, q) == 1
    return np.where(units, e % lam // (lam // chi.order), 0), units


def _sample(q, count=12):
    """About `count` characters mod q, spread over all of them, the last kept."""
    chars = list(all_characters(q))
    return chars[:: max(1, len(chars) // count)] + chars[-1:]


# 2^a for a = 1..12, a 2-adic composite, an odd prime and an odd prime power
@pytest.mark.parametrize("q", [2**a for a in range(1, 13)] + [120, 1009, 3**5])
def test_points_need_no_log_table(q, monkeypatch):
    # values_at, eval and complex_at at every residue mod q, as the tables give them
    chars = _sample(q)
    want = [_table_oracle(chi) for chi in chars]

    def refuse(*args):
        raise AssertionError("a point read built a unit grid")

    monkeypatch.setattr(character, "_unit_grid", refuse)
    n = np.arange(q)
    for chi, (e, units) in zip(chars, want, strict=True):
        got_e, got_units = chi.values_at(n)
        assert np.array_equal(got_e, e) and np.array_equal(got_units, units), chi.char_id
        roots = [RootOfUnity(chi.order, int(x)).to_complex() if u else 0j for x, u in zip(e, units)]
        assert chi.complex_at(n).tolist() == roots, chi.char_id
    chi, (e, units) = chars[-1], want[-1]
    assert [chi.eval(int(x)) for x in n] == [
        RootOfUnity(chi.order, int(x)) if u else RootOfUnity.zero() for x, u in zip(e, units)
    ]


@pytest.mark.parametrize("a,cap", [(10, 1 << 9), (30, None)])
def test_two_adic_points_past_the_cap(a, cap, monkeypatch):
    # n = (-1)^d0 5^d1 mod 2^a: d0 is read off the character with digits (1, 0),
    # and d1 off the one with digits (0, 1), of order 2^(a-2)
    if cap is not None:
        monkeypatch.setattr(character, "_DLOG_TABLE_CAP", cap)
    pa = 1 << a
    assert pa > character._DLOG_TABLE_CAP
    minus, five = (character_from_components(pa, {pa: t}) for t in (1 << (a - 2), 1))
    assert minus.order == 2 and five.order == 1 << (a - 2)
    n = np.array([1, 3, 5, 7, pa - 1, pa - 3, 12345, pa // 3, 2 * pa // 3 + 1, pa - 5] + [0, 2, pa // 2])
    (d0, units), (d1, _) = minus.values_at(n), five.values_at(n)
    assert units.tolist() == (n % 2 == 1).tolist()
    for x, e0, e1 in zip(n[units].tolist(), d0[units].tolist(), d1[units].tolist()):
        assert (-1) ** e0 * pow(5, e1, pa) % pa == x % pa
    assert minus.parity() == -1 and minus.eval(pa - 1) == RootOfUnity(2, 1)


def test_real_rows_are_the_real_part_of_the_complex_rows():
    # exact 0/+-1 float64 rows for every real character, 2-adic ones included
    for d in (-4, -8, 8, 5, -3, 12, -1003, 1001, 3001, -2999, 2005, -7 * 8):
        chi = kronecker_character(d)
        real = chi._rows(real=True)
        assert all(r.dtype == np.float64 for r in real)
        for r, c in zip(real, chi._rows(), strict=True):
            assert np.array_equal(r, c.real) and set(np.unique(r)) <= {-1.0, 0.0, 1.0}
        table = character._table_rows(real, chi.modulus)[0]
        assert np.array_equal(table, chi.value_table().real)


@pytest.mark.parametrize("q,t,cap", [(1009, 7, 1000), (3**7, 5, 2000)])
def test_dlog_bsgs_matches_table(q, t, cap, monkeypatch):
    # every point's dlogs come from baby-step/giant-step, one pass per call,
    # whatever the table cap
    chi = character_from_components(q, {q: t})
    ns = range(3 * q)
    want_e, want_units = (np.tile(x, 3) for x in _table_oracle(chi))
    want = [RootOfUnity(chi.order, int(x)) if u else RootOfUnity.zero()
            for x, u in zip(want_e, want_units)]
    monkeypatch.setattr(character, "_DLOG_TABLE_CAP", cap)
    monkeypatch.setattr(character, "_unit_grid", None)  # any grid or table use fails
    built = []
    baby_steps = character._baby_steps
    monkeypatch.setattr(character, "_baby_steps", lambda *a: built.append(a) or baby_steps(*a))
    assert [chi.eval(n) for n in ns] == want
    assert len(built) == len(ns)  # one table per call
    built.clear()
    e, units = chi.values_at(np.array(ns))
    assert np.array_equal(e, want_e) and np.array_equal(units, want_units)
    assert len(built) == 1


@pytest.mark.parametrize("q", [13, 45, 1009, 1155, 2187, 4, 8, 64, 120, 1024, 8072])
def test_values_up_to_matches_value_table(q):
    # principal, imprimitive and primitive characters alike, past one period
    chars = list(itertools.islice(all_characters(q), 40))
    N = 3 * q + 7
    n = np.arange(N + 1)
    blocks = values_up_to(chars, N, character._least_prime_factors(N))
    rows = np.concatenate([block.copy() for _, block in blocks])  # one buffer serves every block
    for chi, vals in zip(chars, rows, strict=True):
        want = chi.value_table()[n % q]
        assert np.array_equal(vals == 0, want == 0)
        assert np.abs(vals - want).max() <= 1e-13, chi.char_id


@pytest.mark.parametrize("q", [13, 1009, 1155, 2187, 8072, 100003])
def test_values_up_to_within_an_ulp_of_the_roots(q):
    """Every block entry lies within 1e-15 of the exact root zeta_order^e
    (its two table roots have angles in (-pi, pi]), and so within 2e-15 of
    `complex_at`, whose one angle is taken in (-pi, pi] too."""
    mpmath = pytest.importorskip("mpmath")
    chars = list(itertools.islice(all_characters(q), 1, None, max(1, q // 12)))
    N = min(3 * q + 7, 700)
    n = np.arange(N + 1)
    seen = 0
    with mpmath.workdps(30):
        exact_root = functools.lru_cache(maxsize=None)(
            lambda e, order: complex(mpmath.expjpi(mpmath.mpf(2 * e) / order)))
        for lo, block in values_up_to(chars, N, character._least_prime_factors(N)):
            for chi, vals in zip(chars[lo:], block):
                e, units = chi.values_at(n)
                exact = [exact_root(x, chi.order) if u else 0j for x, u in zip(e.tolist(), units.tolist())]
                assert np.abs(vals - exact).max() <= 1e-15, chi.char_id
                assert np.abs(vals - chi.complex_at(n)).max() <= 2e-15, chi.char_id
                seen += 1
    assert seen == len(chars)


def test_least_prime_factors():
    spf = character._least_prime_factors(1000)
    assert spf[:2].tolist() == [0, 1]
    assert spf[2:].tolist() == [next(p for p in range(2, n + 1) if n % p == 0) for n in range(2, 1001)]
    assert np.array_equal(np.flatnonzero(spf == np.arange(1001))[2:], sieve_primes(1000).primes)
    # spf's primes are sieve_primes' at every N, squares of primes and their neighbours included
    for N in [*range(2, 50), 120, 121, 122, 960, 961, 962, 10**5]:
        spf = character._least_prime_factors(N)
        assert np.array_equal(np.flatnonzero(spf == np.arange(N + 1))[2:], sieve_primes(N).primes), N
        least = np.arange(N + 1)
        for p in sieve_primes(N).primes[::-1].tolist():  # the least prime written last
            least[p::p] = p
        assert np.array_equal(spf, least), N
    assert character._least_prime_factors(1).tolist() == [0, 1]


def test_values_up_to_edges():
    spf = character._least_prime_factors(10)  # a longer array serves shorter N
    assert list(values_up_to([], 10, spf)) == []
    with pytest.raises(ValueError):
        list(values_up_to([character_from_index(13, 1), character_from_index(17, 1)], 10, spf))
    # 2-adic components are read through their logs, one per cyclic factor
    ((lo, (vals,)),) = values_up_to([kronecker_character(-4)], 10, spf)
    assert lo == 0 and np.abs(vals - [0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0]).max() <= 1e-15
    ((lo, (vals,)),) = values_up_to([kronecker_character(1)], 3, spf)
    assert lo == 0 and vals.tolist() == [1, 1, 1, 1]
    with pytest.raises(ResourceError):  # int64 exponent products stay exact below 2**31
        list(values_up_to([character_from_index(2147483659, 3)], 10, spf))


@pytest.mark.parametrize("p,a", [(2, a) for a in range(1, 13)] + [(3, 7), (1009, 1)])
def test_component_logs_are_additive(p, a):
    # log_j(x y) = log_j(x) + log_j(y) mod m_j, and prod_j g_j^log_j(n) = n
    c = character._Component(p, a, 0)
    rng = np.random.default_rng(a)
    x, y = rng.integers(0, 10 * c.pa, (2, 200))
    units = (x % p != 0) & (y % p != 0)
    x, y = x[units], y[units]
    for (_, m), lx, ly, lxy in zip(c.factors, c.logs(x), c.logs(y), c.logs(x * y), strict=True):
        assert np.array_equal(lxy, (lx + ly) % m) and lxy.min() >= 0 and lxy.max() < m
    got = [math.prod(pow(g, int(log[i]), c.pa) for (g, _), log in zip(c.factors, c.logs(x))) % c.pa
           for i in range(len(x))]
    assert got == (x % c.pa).tolist()


def test_row_values_read_the_table():
    # a real chi's +-1 rows give every bit of its table; a complex chi's within 1e-15
    n = np.arange(-50, 500)
    for chi in (kronecker_character(-8), kronecker_character(-2999), kronecker_character(40),
                character_from_index(1009, 7), character_from_id("q=8072;comps=2^3:3,1009:5")):
        real = chi.order == 2
        got = character._row_values(chi._rows(real), n)
        want = chi.value_table()[n % chi.modulus]
        assert got.dtype == (np.float64 if real else np.complex128)
        if real:
            assert np.array_equal(got, want.real)
        else:
            assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("g,m,pa", [(3, 1, 7), (2, 2, 5), (5, 1023, 1031), (7, 1024, 2053),
                                    (3, 1025, 4099), (2, 4097, 8209), (11, 3000, 2**31 + 11)])
def test_power_table_matches_pow(g, m, pa):
    table = character._power_table(g, m, pa)
    assert table.dtype == (object if pa >= 2**31 else np.int64)
    assert table.tolist() == [pow(g, j, pa) for j in range(m)]


def test_dlog_bsgs_baby_table_sized_for_the_points(monkeypatch):
    q = 100003
    (g, m), = character._factors(q, 1)
    ns = sieve_primes(2000).primes
    sizes = []
    baby_steps = character._baby_steps
    monkeypatch.setattr(character, "_baby_steps", lambda *a: sizes.append(a[1]) or baby_steps(*a))
    x = character._dlog_bsgs(ns, g, m, q)
    assert sizes == [math.isqrt(m * len(ns)) + 1]  # ~sqrt(m * points), not sqrt(m)
    assert np.array_equal(x, _log_tables(q, 1)[0][ns])
    assert all(pow(g, int(e), q) == n for e, n in zip(x, ns.tolist()))


@pytest.mark.parametrize("cap", [64, 4096])
def test_dlog_bsgs_capped_passes(cap, monkeypatch):
    # a capped baby-step table splits the grid into passes: one point each at
    # cap 64, cap / 4 // ceil(m / cap) points each (and a short last) at 4096
    q = 100003
    (g, m), = character._factors(q, 1)
    primes = sieve_primes(2000).primes
    ns = np.concatenate([[1, q - 1], primes, primes[::7], [q - 1, 1, 2]])
    monkeypatch.setattr(character, "_BABY_STEP_CAP", cap)
    sizes, passes = [], []
    baby_steps, merge_ranks = character._baby_steps, character._merge_ranks
    monkeypatch.setattr(character, "_baby_steps", lambda *a: sizes.append(a[1]) or baby_steps(*a))
    monkeypatch.setattr(character, "_merge_ranks", lambda *a: passes.append(len(a[1])) or merge_ranks(*a))
    x = character._dlog_bsgs(ns, g, m, q)
    assert sizes == [cap] and len(passes) > 2 and sum(passes) == len(ns) * -(-m // cap)
    assert np.array_equal(x, _log_tables(q, 1)[0][ns])
    assert all(pow(g, int(e), q) == n for e, n in zip(x, ns.tolist()))


def test_baby_steps_are_int64_past_int32_products():
    # past 2**31 the power table holds Python ints; the sorted steps need not
    q = 2147483659
    (g, m), = character._factors(q, 1)
    values, js = character._baby_steps(g, 1000, q)
    assert values.dtype == np.int64 and js.dtype == np.int64
    assert np.all(values[1:] > values[:-1])
    assert [pow(g, int(j), q) for j in js] == values.tolist()
