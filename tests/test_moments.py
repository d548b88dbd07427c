"""Moment experiments: combinatorial coefficients and empirical averages."""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chx import moments
from chx.errors import ResourceError
from chx.families import OrderKFamilySpec, _kronecker_column, generate_family
from chx.lfunction import PrimeSumSpec, prime_sum
from chx.moments import (
    MomentSpec,
    QuadFamilySpec,
    b_coefficient,
    b_identity_check,
    b_product_inequality_check,
    diagonal_terms,
    empirical_moment,
    empirical_moments,
)
from chx.ntheory import factor, sieve_primes

W5 = PrimeSumSpec(2, 14)  # primes 3, 5, 7, 11, 13


def test_b_coefficient_multinomial():
    assert b_coefficient(1, 7, W5) == 1
    assert b_coefficient(2, 15, W5) == 2          # 3*5 and 5*3
    assert b_coefficient(2, 9, W5) == 1           # 3*3 only
    assert b_coefficient(3, 3 * 5 * 7, W5) == 6   # 3! orderings
    assert b_coefficient(3, 3 * 3 * 5, W5) == 3   # 3!/2!
    assert b_coefficient(2, 21, PrimeSumSpec(2, 6)) == 0  # 7 outside window
    assert b_coefficient(1, 4, W5) == 0
    assert b_coefficient(2, 7, W5) == 0           # wrong number of factors


def test_b_coefficient_bounds():
    for n in range(1, 500):
        for r in (1, 2, 3):
            b = b_coefficient(r, n, W5)
            assert 0 <= b <= math.factorial(r)


def test_b_coefficient_arrays(monkeypatch):
    ns = np.arange(1, 2001)
    ps = [int(p) for p in W5.primes()]
    for r in (1, 2, 3, 4):
        got = b_coefficient(r, ns, W5)
        assert got.dtype == np.int64 and got.shape == ns.shape
        assert got.tolist() == [b_coefficient(r, n, W5) for n in ns.tolist()]
        counts = _b_counts(ps, r)
        assert got.tolist() == [counts[n] for n in ns.tolist()]
    grid = b_coefficient(2, ns.reshape(40, 50), W5)
    assert grid.tolist() == b_coefficient(2, ns, W5).reshape(40, 50).tolist()
    assert type(b_coefficient(2, 15, W5)) is int and b_coefficient(2, 15, W5) == 2
    # a wide window sieves only up to sqrt(max n), so it returns quickly
    limits = []
    sieve = moments.sieve_primes

    def spy(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(moments, "sieve_primes", spy)
    wide = PrimeSumSpec(2, 1e6)
    small = [int(p) for p in sieve_primes(2000).in_range(2, 2001)]
    for r in (1, 2):
        counts = _b_counts(small, r)
        assert b_coefficient(r, ns, wide).tolist() == [counts[n] for n in ns.tolist()]
    assert limits == [44, 44]
    for bad in (np.array([5, 0, 7]), [3, -1], 0, 2**63, [2**63], 5.0, np.array([1.0])):
        with pytest.raises(ValueError):
            b_coefficient(1, bad, W5)
    with pytest.raises(ValueError):
        b_coefficient(0, ns, W5)


def _b_by_factor(r, n, window):
    fs = dict(factor(n).factors)
    if sum(fs.values()) != r or not all(window.y < p < window.z for p in fs):
        return 0
    return math.factorial(r) // math.prod(map(math.factorial, fs.values()))


def test_b_coefficient_large_n_in_a_wide_window(monkeypatch):
    # n up to 2**63 in a window reaching 1e12: trial division stops at 2**10,
    # and the cofactors past (2**10 + 1)**2 are factored
    limits = []
    sieve = moments.sieve_primes

    def spy(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(moments, "sieve_primes", spy)
    wide = PrimeSumSpec(2, 1e12)
    p, q, s = 10_000_000_019, 1_000_000_007, 4_999_999_937  # primes
    assert b_coefficient(1, p, wide) == 1
    assert b_coefficient(2, q * s, wide) == 2
    assert b_coefficient(2, q * s, PrimeSumSpec(2, 2e9)) == 0  # s outside
    ns = np.array([q * q, 3 * q, 1031 * 1033, 1031**2, 2 * q, q * s, 1021 * 1031,
                   3 * 5 * q, 9 * q, 7 * 1031 * 1033, 2**62 + 1, 2**63 - 1, 1, 17])
    for r in (1, 2, 3):
        for window in (wide, PrimeSumSpec(1025, 1e12), PrimeSumSpec(2, 1032)):
            got = b_coefficient(r, ns, window)
            assert got.tolist() == [_b_by_factor(r, int(n), window) for n in ns.tolist()]
    assert max(limits) == 2**10


def test_b_coefficient_past_int64_factorials():
    # r! passes int64 from r = 21; b_r(n) itself stays far below it
    w = PrimeSumSpec(2, 100)
    for r, n in ((21, 3**21), (25, 3**20 * 5**5), (33, 3**30 * 5 * 89 * 97), (39, 3**39)):
        want = math.factorial(r)
        for p in (3, 5, 89, 97):
            a = 0
            while n % p**(a + 1) == 0:
                a += 1
            want //= math.factorial(a)
        assert b_coefficient(r, n, w) == want
        assert b_coefficient(r, np.array([n, n + 1]), w).tolist() == [want, 0]
    assert b_coefficient(40, 3**39, w) == 0


def test_product_inequality_reports_an_inflated_pair(monkeypatch):
    real = moments.b_coefficient
    window = PrimeSumSpec(2, 8)  # primes 3, 5, 7
    # 27 = 9 * 3 is the one (r1, r2) = (2, 1) pair with that product; C(3, 2) b_2(9) b_1(3) = 3
    monkeypatch.setattr(moments, "b_coefficient",
                        lambda r, n, w: real(r, n, w) + 3 * (np.asarray(n) == 27))
    assert b_product_inequality_check(2, 1, window, 10**6) == [(9, 3, 4, 3)]
    # every pair inflated: all reported, n1-major, in multiset order
    monkeypatch.setattr(moments, "b_coefficient", lambda r, n, w: real(r, n, w) + 100)
    side1 = [(9, 1), (15, 2), (21, 2), (25, 1), (35, 2), (49, 1)]  # (n1, b_2(n1))
    got = b_product_inequality_check(2, 1, window, 10**6)
    want = [(n1, n2, real(3, n1 * n2, window) + 100, 3 * b1) for n1, b1 in side1 for n2 in (3, 5, 7)]
    assert got == want


def test_empirical_moments_match_one_r_at_a_time(monkeypatch):
    # one build of the prime sums serves every r, with the same bits
    built = []

    def spy(fn):
        def counted(*args):
            built.append(fn.__name__)
            return fn(*args)
        return counted

    for name in ("_quadratic_prime_sums", "_orderk_prime_sums"):
        monkeypatch.setattr(moments, name, spy(getattr(moments, name)))
    cases = ((QuadFamilySpec(1e4), PrimeSumSpec(10, 500), (1, 2, 3)),
             (OrderKFamilySpec(1e4, 2), PrimeSumSpec(10, 300), (1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fam, window, rs in cases:
            built.clear()
            recs = empirical_moments(fam, rs, window)
            assert len(built) == 1
            assert recs == [empirical_moment(MomentSpec(fam, r, window)) for r in rs]
            assert [rec.r for rec in recs] == list(rs)


def test_b_identity_exact():
    rec = b_identity_check(2, 1, PrimeSumSpec(2, 7))
    assert rec.lhs == rec.rhs == Fraction(64, 225)  # (1/3 + 1/5)^2
    assert rec.equal
    for t in (1, 2, 3, 4, 5):
        for alpha in (1, 2):
            assert b_identity_check(t, alpha, W5).equal


def test_b_identity_guards():
    with pytest.raises(ValueError):
        b_identity_check(7, 1, W5)  # t cap keeps the expansion exact
    with pytest.raises(ResourceError):
        b_identity_check(2, 1, PrimeSumSpec(2, 100))  # too many primes


def test_b_product_inequality_no_violations():
    for r1 in (1, 2, 3):
        for r2 in (1, 2, 3):
            assert b_product_inequality_check(r1, r2, PrimeSumSpec(2, 8), 10**6) == []


def test_diagonal_terms_exact_value():
    # r = 1, k = 2: sum_p b_1(p^2)/p^2 = 1/9 + 1/25 over primes {3, 5}
    assert diagonal_terms(1, 2, PrimeSumSpec(2, 7)) == Fraction(34, 225)
    # bound 2^r r! (sum 1/p^2)^r holds with exact arithmetic
    s = Fraction(1, 9) + Fraction(1, 25)
    for r in (1, 2, 3):
        val = diagonal_terms(r, 2, PrimeSumSpec(2, 7))
        assert val <= 2**r * math.factorial(r) * s**r


def _b_counts(ps: list[int], r: int) -> Counter:
    """b_r(n) for every n, by counting the ordered r-tuples of `ps`."""
    return Counter(math.prod(t) for t in itertools.product(ps, repeat=r))


def test_diagonal_terms_past_2_63():
    # r = 3, k = 6 on 3..13: n1 n2^5 reaches 13^18 > 2^63 (factor refuses it);
    # every exponent is below k, so only n1 = n2 pairs count
    want = sum((Fraction(b * b, n * n) for n, b in _b_counts([3, 5, 7, 11, 13], 3).items()), Fraction(0))
    assert diagonal_terms(3, 6, W5) == want


def _is_kth_power_over(n: int, k: int, ps: list[int]) -> bool:
    """Whether n is a k-th power, n a product of the primes `ps`: divide each out."""
    for p in ps:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % k:
            return False
    return n == 1


@pytest.mark.parametrize("window", [W5, PrimeSumSpec(2, 8)])
def test_diagonal_terms_match_the_pairwise_sum(window):
    ps = [int(p) for p in window.primes()]
    for r in range(1, 5):
        b = _b_counts(ps, r)
        for k in range(2, 9):
            want = sum(
                (Fraction(b1 * b2, n1 * n2) for n1, b1 in b.items() for n2, b2 in b.items()
                 if _is_kth_power_over(n1 * n2 ** (k - 1), k, ps)),
                Fraction(0),
            )
            assert diagonal_terms(r, k, window) == want, (r, k)


def test_diagonal_terms_caps():
    with pytest.raises(ResourceError):
        diagonal_terms(5, 2, PrimeSumSpec(2, 7))


def test_quad_family_spec_d_values():
    ds = QuadFamilySpec(100).d_values().tolist()
    positive = [5, 13, 17, 21, 29, 33, 37, 41, 53, 57, 61, 65, 69, 73, 77, 85, 89, 93, 97]
    # the positive d first, then the negative ones in order of |d|
    assert ds[: len(positive)] == positive
    negative = ds[len(positive):]
    assert negative[:6] == [-3, -7, -11, -15, -19, -23]
    assert negative == sorted(negative, reverse=True) and 1 not in np.abs(ds).tolist()


def test_quadratic_moment_brute_force():
    fam = QuadFamilySpec(300)
    window = PrimeSumSpec(2, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = empirical_moment(MomentSpec(fam, 2, window))
    ds = fam.d_values()
    ps = [int(p) for p in window.primes()]
    brute = 0.0
    for d in ds.tolist():
        s = sum(_kronecker_column(np.array([d]), p)[0] / p for p in ps)
        brute += abs(s) ** 4  # r = 2: |sum|^{2r}
    brute /= len(ds)
    assert rec.lhs_avg == pytest.approx(brute, rel=1e-13)


def test_orderk_moment_brute_force():
    spec = OrderKFamilySpec(400, 2)
    window = PrimeSumSpec(2, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = empirical_moment(MomentSpec(spec, 1, window))
    brute = [abs(prime_sum(chi, window)) ** 2 for _, chi in generate_family(spec)]
    assert rec.family_size == len(brute)
    assert rec.lhs_avg == pytest.approx(sum(brute) / len(brute), rel=1e-13)


def test_moment_implied_constant_reasonable():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = empirical_moment(MomentSpec(QuadFamilySpec(1e4), 1, PrimeSumSpec(10, 500)))
    assert 0 < rec.implied_constant <= 10.0
    assert rec.rhs_main > 0


def test_moment_regime_warning_fires():
    # the kept-range guarantee scales like (log Q)^A; far outside it we warn
    with pytest.warns(UserWarning):
        empirical_moment(MomentSpec(QuadFamilySpec(1e4), 3, PrimeSumSpec(10, 5000)))


def test_moment_warnings_point_at_the_caller():
    # both public functions warn at the line that called them
    quad = (QuadFamilySpec(1e4), PrimeSumSpec(10, 5000), 3)  # r past the regime
    low = (OrderKFamilySpec(1e4, 3), PrimeSumSpec(2, 30), 1)  # y <= k
    for fam, window, r in (quad, low):
        for call in (lambda: empirical_moment(MomentSpec(fam, r, window)),
                     lambda: empirical_moments(fam, (r,), window)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert caught and {w.filename for w in caught} == {__file__}


def test_moment_rejects_empty_family():
    spec = OrderKFamilySpec(400, 11)  # empty pair family
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            empirical_moment(MomentSpec(spec, 1, PrimeSumSpec(2, 30)))
