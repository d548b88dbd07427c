"""Primes, factorization, symbols, and discriminant utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chx import ntheory
from chx.ntheory import (
    factor,
    is_fundamental_discriminant,
    is_kth_power,
    is_prime,
    kronecker,
    sieve_primes,
    smallest_primitive_root,
    squarefree_mask,
)


def _naive_primes(limit):
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


def test_sieve_matches_naive():
    table = sieve_primes(2000)
    assert table.primes.tolist() == _naive_primes(2000)
    assert table.count() == 303


def test_sieve_segmented_consistent():
    # one segment at the default size; spot check pi(x)
    table = sieve_primes(10**6)
    assert table.count() == 78498
    assert int(table.primes[-1]) == 999983


@pytest.mark.parametrize("segment", [7, 4096, 4099])
def test_sieve_segments_match_naive(segment, monkeypatch):
    # shrink the segment so a small limit spans many segments; at 7 even the
    # limits up to 64, and the base primes' own sieves, span several
    want = _naive_primes(10**5)
    monkeypatch.setattr(ntheory, "_SEGMENT", segment)
    got = sieve_primes(10**5).primes
    assert got.dtype == np.int64 and got.tolist() == want
    for limit in range(2, 65):
        assert sieve_primes(limit).primes.tolist() == _naive_primes(limit)


def test_sieve_rejects_bad_limits():
    for bad in (1, 0, -5, 2.0, 2**33):
        with pytest.raises(ValueError):
            sieve_primes(bad)


def test_prime_table_in_range_strict():
    table = sieve_primes(100)
    assert table.in_range(7, 20).tolist() == [11, 13, 17, 19]
    # both endpoints excluded even when prime
    assert table.in_range(7.0, 19.0).tolist() == [11, 13, 17]


def test_prime_table_in_range_matches_a_mask():
    table = sieve_primes(1000)
    primes = table.primes
    rng = np.random.default_rng(5)
    bounds = [*rng.uniform(-5, 1005, 400), *primes[:60].tolist(),
              *(primes[:60] + 0.5).tolist(), *(primes[:60] - 0.5).tolist(), 0, 1, 2, 1000]
    for lo in bounds[::3]:
        for hi in bounds[::7]:
            want = primes[(primes > lo) & (primes < hi)]
            assert np.array_equal(table.in_range(lo, hi), want), (lo, hi)


def test_is_prime_against_sieve():
    table = set(sieve_primes(3000).primes.tolist())
    for n in range(3000):
        assert is_prime(n) == (n in table)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_factor_reassembles():
    for n in list(range(1, 2000)) + [2**31 - 1, 600851475143, 10**12 + 39]:
        fm = factor(n)
        prod = 1
        for p, a in fm.factors:
            assert is_prime(p)
            prod *= p**a
        assert prod == n


def test_factor_checks_come_before_the_cache():
    assert factor(5).factors == ((5, 1),)
    assert factor(5) is factor(5)  # cached
    for bad in (5.0, np.int64(5), "5", 0, -5, 2**63):
        with pytest.raises(ValueError):
            factor(bad)
    assert factor(2**63 - 1).n == 2**63 - 1


def test_factor_semiprime_rho_path():
    p, q = 1000003, 1000033
    fm = factor(p * q)
    assert fm.factors == ((p, 1), (q, 1))


def test_factorization_arithmetic_functions():
    fm = factor(360)  # 2^3 3^2 5
    assert fm.big_omega() == 6
    assert fm.euler_phi() == 96
    assert fm.divisor_count() == 24
    assert fm.mobius() == 0
    assert not fm.is_squarefree()
    assert sorted(fm.divisors())[:5] == [1, 2, 3, 4, 5]
    assert factor(105).mobius() == -1
    assert factor(1).factors == ()


def test_smallest_primitive_root_values():
    # the least primitive root for small primes, cross-checked by hand
    known = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 17: 3, 19: 2, 23: 5, 29: 2, 31: 3, 41: 6}
    for q, g in known.items():
        assert smallest_primitive_root(q) == g
    for q in (101, 409, 997):
        g = smallest_primitive_root(q)
        # g has full order q-1
        seen = {pow(g, e, q) for e in range(q - 1)}
        assert len(seen) == q - 1


def test_kronecker_euler_criterion():
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        for d in range(-30, 31):
            if d % q == 0:
                continue
            ls = pow(d % q, (q - 1) // 2, q)
            assert kronecker(d, q) == (ls if ls <= 1 else ls - q)


def test_kronecker_special_cases():
    assert kronecker(-4, 2) == 0
    assert kronecker(5, 2) == -1  # 5 = 5 mod 8
    assert kronecker(17, 2) == 1
    assert kronecker(-3, 1) == 1
    assert kronecker(7, -1) == 1 and kronecker(-7, -1) == -1
    # complete multiplicativity in the lower argument
    for d in (-8, -3, 5, 12, 13):
        for m in range(1, 40):
            for n in range(1, 40):
                assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


def test_fundamental_discriminants():
    fund = [d for d in range(-50, 51) if d and is_fundamental_discriminant(d)]
    assert fund == [-47, -43, -40, -39, -35, -31, -24, -23, -20, -19, -15,
                    -11, -8, -7, -4, -3, 1, 5, 8, 12, 13, 17, 21, 24, 28, 29,
                    33, 37, 40, 41, 44]


def test_is_kth_power():
    assert is_kth_power(64, 2) and is_kth_power(64, 3) and is_kth_power(64, 6)
    assert not is_kth_power(63, 2)
    assert is_kth_power(1, 7)
    assert not is_kth_power(2**40 + 1, 2)


def test_squarefree_mask_matches_mobius():
    mask = squarefree_mask(500)
    assert mask.shape == (501,)
    for n in range(1, 501):
        assert bool(mask[n]) == (factor(n).mobius() != 0)


def test_factor_below_5000_matches_trial_division():
    for n in range(1, 5001):
        m, out, p = n, {}, 2
        while p * p <= m:
            while m % p == 0:
                m, out[p] = m // p, out.get(p, 0) + 1
            p += 1
        if m > 1:
            out[m] = out.get(m, 0) + 1
        assert factor(n).factors == tuple(sorted(out.items())), n


@pytest.mark.parametrize("n", [
    1031**2, 1021 * 1031, 1031 * 1033, 1031**6, 3 * 1031**5,  # both sides of 2**10
    (2**31 - 1) ** 2, 2147483587 * 2147483629,
    999983**2, 1000003**2, 999983 * 1000003, 2**61 - 1,
])
def test_factor_past_the_trial_primes(n):
    prod = 1
    for p, a in factor(n).factors:
        assert is_prime(p), p
        prod *= p**a
    assert prod == n
