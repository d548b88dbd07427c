"""Gauss sums, exact L(1) formulas, series oracle, Euler truncation."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chx import character, lfunction
from chx._special import erfc_sqrt
from chx.character import (
    CharacterMatrix,
    all_characters,
    character_from_id,
    character_from_index,
    kronecker_character,
    principal_character,
)
from chx.errors import ConstraintError, ResourceError
from chx.ntheory import sieve_primes
from chx.lfunction import (
    PrimeSumSpec,
    digamma_weights,
    gauss_sum,
    l1_exact,
    l1_exact_batch,
    l1_series_oracle,
    l1_truncated_euler,
    prime_sum,
)
from chx.report import _PrefixScan, evaluate_character


def test_gauss_sum_closed_forms():
    assert abs(gauss_sum(kronecker_character(-4)) - 2j) < 1e-14
    assert abs(gauss_sum(kronecker_character(5)) - math.sqrt(5)) < 1e-14
    assert abs(gauss_sum(kronecker_character(-3)) - 1j * math.sqrt(3)) < 1e-14


def test_gauss_sum_modulus_sqrt_q():
    for q in (5, 7, 9, 13, 16, 29, 45):
        for chi in all_characters(q):
            if not chi.is_primitive:
                continue
            assert abs(abs(gauss_sum(chi)) - math.sqrt(q)) < 1e-11


def test_gauss_sum_rejects_imprimitive():
    chi = [c for c in all_characters(12) if c.conductor == 3][0]
    with pytest.raises(ConstraintError):
        gauss_sum(chi)


def test_l1_closed_forms():
    # odd quadratic: pi / (w sqrt(q)) times the class number
    v4 = l1_exact(kronecker_character(-4))
    assert abs(v4.value - math.pi / 4) < 1e-13
    v3 = l1_exact(kronecker_character(-3))
    assert abs(v3.value - math.pi / (3 * math.sqrt(3))) < 1e-13
    # even quadratic: 2 log(fundamental unit) / sqrt(q)
    v5 = l1_exact(kronecker_character(5))
    golden = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(v5.value - golden) < 1e-13
    assert v5.method == "exact_finite"
    assert v5.error_bound < 1e-12 and not math.isnan(v5.error_bound)


def test_l1_exact_rejects_principal_and_imprimitive():
    with pytest.raises(ConstraintError):
        l1_exact(principal_character(5))
    chi = [c for c in all_characters(12) if c.conductor == 3][0]
    with pytest.raises(ConstraintError):
        l1_exact(chi)


def test_series_oracle_digamma_matches_closed_form():
    chi = kronecker_character(-4)
    lv = l1_series_oracle(chi, 16, tail="digamma")
    assert abs(lv.value - math.pi / 4) < 1e-14
    assert lv.method == "dirichlet_series"


def test_series_oracle_bound_tail_encloses():
    for d in (-4, 5, -3, 13, -8):
        chi = kronecker_character(d)
        q = chi.modulus
        lv = l1_series_oracle(chi, 50 * q * q, tail="bound")
        assert lv.rigorous
        exact = l1_exact(chi).value
        assert abs(lv.value - exact) <= lv.error_bound


def test_series_oracle_rejects_small_n():
    chi = kronecker_character(-4)
    with pytest.raises(ConstraintError):
        l1_series_oracle(chi, 10)  # N < q^2


def test_digamma_weights_telescopes_partial_sums():
    # sum_{n <= K q} chi(n)/n converges to sum_a chi(a) w_a with
    # w_a = -psi(a/q)/q; check against a long plain partial sum
    chi = character_from_index(7, 2)
    w = digamma_weights(7)
    vals = chi.value_table()
    target = np.dot(vals, w)
    N = 7 * 200000
    n = np.arange(1, N + 1)
    plain = np.sum(vals[n % 7] / n)
    assert abs(plain - target) < 1e-4  # plain tail is O(q/N)
    assert abs(target - l1_exact(chi).value) < 1e-13


def test_exact_vs_oracle_sweep():
    worst = 0.0
    for q in (5, 7, 8, 9, 11, 12, 13, 16, 19, 23, 29):
        for chi in all_characters(q):
            if chi.is_principal or not chi.is_primitive:
                continue
            a = l1_exact(chi).value
            b = l1_series_oracle(chi, q * q, tail="digamma").value
            worst = max(worst, abs(a - b) / abs(b))
    assert worst < 1e-12


def test_euler_truncation_approaches_exact():
    chi = kronecker_character(-4)
    exact = l1_exact(chi).value
    errs = [abs(l1_truncated_euler(chi, z).value - exact) for z in (10, 100, 10000)]
    assert errs[2] < errs[0]
    assert errs[2] < 5e-3
    lv = l1_truncated_euler(chi, 1000)
    assert lv.method == "euler_truncated" and lv.param == 1000
    assert not lv.rigorous and lv.error_bound > 0


def test_euler_truncation_is_the_pointwise_product():
    # the vectorized chi(p) and the left-to-right division leave every bit
    for chi in (character_from_index(1009, 7), character_from_id("q=40;comps=2^3:3,5:1")):
        want = 1.0 + 0.0j
        for p in sieve_primes(5000).primes.tolist():
            if chi.modulus % p:
                want /= 1.0 - chi.eval(p).to_complex() / p
        assert l1_truncated_euler(chi, 5000).value == want


def test_euler_truncation_refuses_huge_z(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"sieve_primes({limit}) ran before the z check")

    monkeypatch.setattr(lfunction, "sieve_primes", refuse)
    with pytest.raises(ResourceError, match="2\\*\\*26"):
        l1_truncated_euler(kronecker_character(-4), 2**26 + 1)


def test_euler_truncation_below_first_prime_is_one():
    lv = l1_truncated_euler(kronecker_character(5), 1.5)
    assert lv.value == 1.0


def test_prime_sum_window_example():
    chi = kronecker_character(-4)
    # primes 3, 5, 7: -1/3 + 1/5 - 1/7
    got = prime_sum(chi, PrimeSumSpec(2, 8))
    assert abs(got - (-1 / 3 + 1 / 5 - 1 / 7)) < 1e-15


def test_prime_sum_is_the_pointwise_fsum():
    chi = character_from_index(1009, 7)
    w = PrimeSumSpec(3, 3000)
    terms = [chi.eval(p).to_complex() / p for p in w.primes().tolist()]
    want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert prime_sum(chi, w) == want


def test_prime_sum_spec_validation():
    with pytest.raises(ValueError):
        PrimeSumSpec(1, 10)  # y >= 2
    with pytest.raises(ValueError):
        PrimeSumSpec(10, 10)  # z > y
    assert PrimeSumSpec(2, 14).primes().tolist() == [3, 5, 7, 11, 13]


def test_l1_exact_batch_matches_pointwise():
    groups = [[c for c in all_characters(q) if not c.is_principal and c.is_primitive]
              for q in (5, 7, 12, 13, 29, 40)]
    grouped = [chi for g in groups for chi in g]
    # moduli cycled entry by entry, as random_l1_baseline draws them
    interleaved = [chi for row in itertools.zip_longest(*groups) for chi in row if chi is not None]
    for chars in (grouped, interleaved):
        batch = l1_exact_batch(chars)
        for chi, b in zip(chars, batch, strict=True):
            assert b == evaluate_character(chi).L1.value
            assert abs(l1_exact(chi).value - b) < 1e-11


def _assert_tied_to_oracles(chi, tau, l1):
    """tau within 1e-13 relative of gauss_sum, L(1) within error_bound of l1_exact."""
    want = l1_exact(chi)
    assert abs(tau - gauss_sum(chi)) <= 1e-13 * math.sqrt(chi.modulus), chi.char_id
    assert abs(l1 - want.value) <= want.error_bound, chi.char_id


# primes (13, 1009), odd composite (45), 2-adic (64), and composites with a
# 2-adic component whose tau has three or four prime-power factors (120, 360,
# 840); the smallest half periods [1, ceil(q/2)): one column (3, 4), and q/2
# a non-unit (4, 8)
KERNEL_MODULI = [3, 4, 5, 8, 13, 45, 64, 120, 360, 840, 1009]


# (tau, L(1)) by the one-character scan and by the all-characters sums


@pytest.mark.parametrize("q", KERNEL_MODULI)
def test_tau_l1_one_table_matches_the_reference_formula(q):
    """tau from the component rows (`_tau`) and L(1) from evaluate_character's
    one scan of one table (one column block at these q) agree with the
    compensated reference formulas gauss_sum and l1_exact on every
    primitive character."""
    chars = [chi for chi in all_characters(q) if chi.is_primitive]
    assert {chi.parity() for chi in chars} == ({-1} if q in (3, 4) else {1, -1})
    for chi in chars:
        tau, lv = lfunction._tau(chi._rows(), q), evaluate_character(chi).L1
        assert type(tau) is complex and type(lv.value) is complex
        _assert_tied_to_oracles(chi, tau, lv.value)


@pytest.mark.parametrize("q", sorted({5, 12, 40, 81, *KERNEL_MODULI}))
def test_tau_l1_rows_matches_the_kernel(q):
    """tau = sum_n chi(n) e(n/q) and L(1, chi) = sum_n chi(n) w[n] (w the
    digamma weights) from CharacterMatrix.sums, for all rows at once, agree
    with `_tau` and evaluate_character on each primitive row and with the
    reference formulas."""
    cm = CharacterMatrix(q)
    tau, l1 = cm.sums(np.stack([lfunction._phases(q), digamma_weights(q)]))
    for row in np.flatnonzero(cm.primitive):
        chi = cm.character(row)
        want_tau, want_l1 = lfunction._tau(chi._rows(), q), evaluate_character(chi).L1
        assert abs(tau[row] - want_tau) < 1e-12 and abs(l1[row] - want_l1.value) < 1e-12
        _assert_tied_to_oracles(chi, tau[row], l1[row])


def test_lvalue_as_dict_keys():
    d = l1_exact(kronecker_character(-4)).as_dict()
    assert set(d) == {"re", "im", "abs", "method", "param", "err"}


def _l1_digamma_oracle(chi, mpmath):
    """L(1, chi) = -(1/q) sum_a chi(a) digamma(a/q) at the working precision,
    chi(a) = exp(2 pi i e/order) from the exact exponents."""
    q = chi.modulus
    e, units = chi.values_at(np.arange(q))
    total = mpmath.mpc(0)
    for a in np.flatnonzero(units).tolist():
        root = mpmath.expjpi(mpmath.mpf(2 * int(e[a])) / chi.order)
        total += root * mpmath.digamma(mpmath.mpf(a) / q)
    return complex(-total / q)


def test_l1_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    sample = [kronecker_character(-163), character_from_index(4001, 1000)]
    for q in (8, 40, 45, 64, 81, 1009, 1155, 2003, 4001):
        for parity in (1, -1):
            sample.append(next(c for c in all_characters(q)
                               if c.is_primitive and c.order > 1 and c.parity() == parity))
    # the AFE takes every sample modulus, 2-adic ones included, both parities
    afe = dict(zip(sample, lfunction.l1_afe(sample)))
    with mpmath.workdps(30):
        for chi in sample:
            want = _l1_digamma_oracle(chi, mpmath)
            for lv in (l1_exact(chi), evaluate_character(chi).L1, afe[chi]):
                assert abs(lv.value - want) <= lv.error_bound, (chi.char_id, lv.method)


def _primitive_sample(q: int, per_parity: int) -> list:
    """The first `per_parity` primitive non-principal characters mod q of each parity."""
    chars = [c for c in all_characters(q) if c.is_primitive and c.order > 1]
    return [c for p in (1, -1) for c in [c for c in chars if c.parity() == p][:per_parity]]


def _assert_afe_within_bound(chars, values):
    for chi, lv in zip(chars, values, strict=True):
        assert lv.method == lfunction.SMOOTHED_AFE and lv.param == lfunction.afe_length(chi.modulus)
        assert abs(lv.value - l1_exact(chi).value) <= lv.error_bound, chi.char_id


AFE_MODULI = [13, 45, 81, 105, 1009, 1155, 2187, 4001]


def test_l1_afe_matches_exact_within_its_bound():
    chars = [chi for q in AFE_MODULI for chi in _primitive_sample(q, 6)]
    values = lfunction.l1_afe(chars[::-1])[::-1]  # input order is kept across moduli
    _assert_afe_within_bound(chars, values)
    # the bound is explicit: the Gamma tails past N and roundoff, no wider than ~1e-11
    assert all(0 < lv.error_bound < 1e-10 and not lv.rigorous for lv in values)


@pytest.mark.parametrize("q", [1009, 100003])
@pytest.mark.parametrize("deltas", [lfunction._AFE_DELTAS[:2], lfunction._AFE_DELTAS])
def test_afe_weights_share_erfc_rows_across_parities(q, deltas, monkeypatch):
    N = lfunction.afe_length(q, deltas[-1])
    alone = {odd: lfunction._afe_weights(q, (odd,), deltas, N)[odd] for odd in (False, True)}
    calls = []
    erfc_sqrt = lfunction.erfc_sqrt
    monkeypatch.setattr(lfunction, "erfc_sqrt", lambda t: calls.append(np.shape(t)) or erfc_sqrt(t))
    both = lfunction._afe_weights(q, (False, True), deltas, N)
    assert calls == [(2 * len(deltas) - 1, N)]  # the delta = 1 row serves both parities
    n = np.arange(1, N + 1, dtype=np.float64)
    x = (math.pi / q) * n * n
    for odd in (False, True):
        w, err = both[odd]
        assert np.array_equal(w, alone[odd][0]) and err == alone[odd][1]
        if odd:  # x / delta and (1/delta) x are the same bits
            for k, delta in enumerate(deltas):
                assert np.array_equal(w[2 * k + 1], (math.pi / math.sqrt(q)) * erfc_sqrt(x / delta))


def test_l1_afe_one_erfc_call_per_modulus(monkeypatch):
    # the rows of every parity present, in one call: 3 rows for both, 2 for one
    calls = []
    erfc_sqrt = lfunction.erfc_sqrt
    monkeypatch.setattr(lfunction, "erfc_sqrt", lambda t: calls.append(np.shape(t)) or erfc_sqrt(t))
    chars = _primitive_sample(1009, 3) + _primitive_sample(4001, 3)
    lfunction.l1_afe(chars)
    assert calls == [(3, lfunction.afe_length(1009)), (3, lfunction.afe_length(4001))]
    calls.clear()
    lfunction.l1_afe([chi for chi in chars if chi.parity() == -1])
    assert calls == [(2, lfunction.afe_length(1009)), (2, lfunction.afe_length(4001))]


def test_l1_afe_third_delta_when_ill_conditioned(monkeypatch):
    """A solve below the conditioning threshold is redone with the third
    delta over the longer sum; forcing the threshold sends every one there."""
    chars = _primitive_sample(1009, 4) + _primitive_sample(105, 2)
    plain = lfunction.l1_afe(chars)
    lengths, tables = [], []
    values_up_to = lfunction.values_up_to

    def record(group, N, spf):
        lengths.append((len(group), N))
        tables.append(spf)
        return values_up_to(group, N, spf)

    monkeypatch.setattr(lfunction, "values_up_to", record)
    monkeypatch.setattr(lfunction, "_AFE_MIN_CONDITIONING", math.inf)
    forced = lfunction.l1_afe(chars)
    assert lfunction.l1_afe(chars) == forced  # deterministic
    N3 = {q: lfunction.afe_length(q, lfunction._AFE_DELTAS[2]) for q in (105, 1009)}
    assert lengths[:len(lengths) // 2] == (
        [(8, lfunction.afe_length(1009))] + [(1, N3[1009])] * 8
        + [(4, lfunction.afe_length(105))] + [(1, N3[105])] * 4
    )
    # one least-prime-factor array per call, long enough for every N3
    assert all(t is tables[0] for t in tables[:len(tables) // 2]) and len(tables[0]) > max(N3.values())
    _assert_afe_within_bound(chars, forced)
    assert all(abs(a.value - b.value) <= a.error_bound + b.error_bound
               for a, b in zip(plain, forced))


def _bits(values) -> list:
    return [(lv.value.real.hex(), lv.value.imag.hex(), lv.error_bound.hex()) for lv in values]


@pytest.mark.parametrize("forced", [False, True])
def test_l1_afe_value_bits_do_not_depend_on_the_call(forced, monkeypatch):
    """A character's value has the same bits alone as in a call with others,
    in any order: mod 100003 (N = 1596, ten rows a block) the 26 characters
    fill three blocks of mixed parity.  Forcing the threshold sends every
    character through the third delta too."""
    if forced:
        monkeypatch.setattr(lfunction, "_AFE_MIN_CONDITIONING", math.inf)
    big = [character_from_index(100003, t) for t in range(1, 100002, 3847)]
    assert len(big) > character._BLOCK_ELEMENTS // (lfunction.afe_length(100003) + 1) * 2
    assert {chi.parity() for chi in big} == {1, -1}
    chars = big + _primitive_sample(1155, 3) + _primitive_sample(8072, 3)
    together = _bits(lfunction.l1_afe(chars))
    assert _bits(lfunction.l1_afe(chars[::-1]))[::-1] == together
    assert [b for chi in chars for b in _bits(lfunction.l1_afe([chi]))] == together
    _assert_afe_within_bound(chars[26:], lfunction.l1_afe(chars[26:]))


def test_l1_afe_bits_do_not_depend_on_the_blas_pool():
    # the sums are fixed-order numpy reductions, not BLAS products; this held
    # before them too (at Q = 1e6), and stays pinned here
    code = ("from chx.character import character_from_index; from chx.lfunction import l1_afe; "
            "from chx.ntheory import sieve_primes; "
            "ps = sieve_primes(4000000).primes[-200::40].tolist() + [100003]; "
            "chars = [character_from_index(q, t) for q in ps for t in (1, 2, 3, 12345, 99999, q // 2)]; "
            "print([(lv.value.real.hex(), lv.value.imag.hex(), lv.error_bound.hex()) for lv in l1_afe(chars)])")
    src = str(Path(lfunction.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] and outs[0] == outs[1]


def test_l1_afe_builds_no_log_table(monkeypatch):
    # the AFE takes every dlog by baby-step/giant-step, however small the modulus
    chars = _primitive_sample(1009, 3) + _primitive_sample(1155, 3) + _primitive_sample(8072, 3)
    want = [l1_exact(chi) for chi in chars]
    monkeypatch.setattr(character, "_build_log_tables", None)  # any table use fails
    values = lfunction.l1_afe(chars)
    assert all(abs(lv.value - w.value) <= lv.error_bound for lv, w in zip(values, want))


@pytest.mark.parametrize("q,per_parity", [(8, None), (16, None), (40, None), (120, None), (1024, 20), (8072, 20)])
def test_l1_afe_on_two_adic_moduli(q, per_parity):
    # every primitive chi mod 8, 16, 40 and 120; mod 1024 and 8072 about
    # per_parity of each parity, spread over the labels
    chars = [c for c in all_characters(q) if c.is_primitive and c.order > 1]
    groups = [[c for c in chars if c.parity() == p] for p in (1, -1)]
    assert all(groups)
    chars = [c for g in groups for c in g[:: len(g) // per_parity if per_parity else 1]]
    _assert_afe_within_bound(chars, lfunction.l1_afe(chars))


def test_l1_afe_refuses_principal_and_imprimitive():
    with pytest.raises(ConstraintError):
        lfunction.l1_afe([principal_character(13)])
    with pytest.raises(ConstraintError):
        lfunction.l1_afe([next(c for c in all_characters(45) if not c.is_primitive and c.order > 1)])


# the even weights 2 log sin(pi a/q) of report._PrefixScan, from one (cos, sin) table


def _scan_weights(chi, width):
    """_PrefixScan's folded weights over [1, ceil(q/2)) in blocks of `width`
    columns, as `add` asks for them."""
    scan = _PrefixScan(chi, chi._rows(real=chi.order == 2))
    return np.concatenate([scan._weights(max(lo, 1), min(lo + width, scan.half), width)
                           for lo in range(0, scan.half, width)])


@pytest.mark.parametrize("char_id", [
    "q=13;comps=13:2",  # below one block
    "q=8072;comps=2^3:1,1009:2",  # a 2-adic component, one block
    "q=131072;comps=2^17:1",  # 2-adic, four blocks
    "q=1000003;comps=1000003:2",  # 31 blocks
])
def test_even_weights_match_log_sin(char_id):
    # within 4 ulp of np.log(np.sin(.)) relative to max(|w|, 2): where
    # |w| < 2 that is 4 ulp relative in the sine itself
    chi = character_from_id(char_id)
    assert chi.is_primitive and chi.parity() == 1
    q = chi.modulus
    want = 2.0 * np.log(np.sin((math.pi / q) * np.arange(1, (q + 1) // 2, dtype=np.float64)))
    for width in (1 << 14, 1000):
        got = _scan_weights(chi, width)
        assert len(got) == len(want)
        assert np.all(np.abs(got - want) <= 4 * lfunction._EPS * np.maximum(np.abs(want), 2.0))


def test_euler_from_rows_matches_the_oracle():
    # chi(p) from the component rows: a real chi's +-1 give every bit of the
    # oracle, a complex chi's roots within 1e-12
    chars = [kronecker_character(-4), kronecker_character(-2999), kronecker_character(3001),
             character_from_index(1009, 7), character_from_id("q=40;comps=2^3:3,5:1"),
             character_from_id("q=301771;comps=523:174,577:384"),
             character_from_id("q=8072;comps=2^3:3,1009:5")]
    for chi in chars:
        real = chi.order == 2
        for z in (1.5, 2.0, 100.0, 5000.0):
            want = l1_truncated_euler(chi, z)
            got = lfunction._euler_from_rows(chi._rows(real), chi.modulus, z)
            assert (got.method, got.param, got.rigorous) == (want.method, want.param, want.rigorous)
            if real:
                assert (got.value, got.error_bound) == (want.value, want.error_bound)
            else:
                assert abs(got.value - want.value) <= 1e-12, (chi.char_id, z)
                assert got.error_bound == pytest.approx(want.error_bound, rel=0, abs=1e-12)
