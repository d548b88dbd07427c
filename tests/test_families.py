"""Pair families, pigeonhole buckets, discriminant censuses, twists."""

from __future__ import annotations

import math
import multiprocessing
import pickle

import numpy as np
import pytest

from chx import character, families
from chx.character import RootOfUnity, character_from_index, kronecker_character, psi_q
from chx.errors import ConstraintError
from chx.families import (
    OrderKFamilySpec,
    QuadTwistSpec,
    _evaluate_many,
    _kronecker_column,
    count_fundamental_discriminants,
    extremal_pipeline,
    family_size,
    generate_family,
    pigeonhole_search,
    pigeonhole_with_retry,
    psi_tilde,
    random_l1_baseline,
    signature_discriminants,
    signature_of,
    twisted_family,
)
from chx.lfunction import l1_exact_batch
from chx.ntheory import factor, is_kth_power, sieve_primes
from chx.report import evaluate_character


def test_family_spec_validation():
    with pytest.raises(ValueError):
        OrderKFamilySpec(8, 2)
    with pytest.raises(ValueError):
        OrderKFamilySpec(400, 1)
    spec = OrderKFamilySpec(400, 2)
    assert spec.y == pytest.approx(math.log(400))
    assert spec.window == (20.0, 40.0)


def test_specs_derive_the_papers_values():
    for Q in (16, 400, 1e4, 2e5, 1e6):
        # orderk: y = log Q, below the window start sqrt(Q) for every Q >= 16
        spec = OrderKFamilySpec(Q, 3)
        assert spec.y == math.log(Q) and spec.y < spec.window[0]
    for Q in (16**3, 1e4, 2e5, 1e6):
        # twists: the parity fixes xi, and y = log Q / 3
        odd, even = QuadTwistSpec(Q, 2, -1), QuadTwistSpec(Q, 2, 1)
        assert odd.xi.is_principal and odd.xi.modulus == 1
        assert even.xi.char_id == "q=3;comps=3:1"
        assert odd.y == even.y == math.log(Q) / 3.0


def test_family_order2_q400():
    spec = OrderKFamilySpec(400, 2)
    fam = list(generate_family(spec))
    assert len(fam) == family_size(spec) == 6
    m, chi = fam[0]
    assert m == 667 and chi.char_id == "q=667;comps=23:11,29:14"
    for m, chi in fam:
        assert chi.order == 2 and chi.is_primitive and chi.conductor == m


def test_family_empty_when_no_usable_primes():
    spec = OrderKFamilySpec(400, 11)  # no p = 1 mod 11 in (20, 40)
    assert family_size(spec) == 0
    assert list(generate_family(spec)) == []


def test_psi_tilde_properties():
    chi = psi_tilde(103, 137, 2)
    assert chi.order == 2 and chi.conductor == 103 * 137
    with pytest.raises(ValueError):
        psi_tilde(103, 103, 2)


def test_signature_of_exponents():
    chi = psi_tilde(103, 137, 2)
    sig = signature_of(chi, 2, (2, 3, 5, 7))
    assert all(e in (0, 1) for e in sig)
    sig3 = signature_of(psi_tilde(109, 157, 3), 3, (2, 5))
    assert all(e in (0, 1, 2) for e in sig3)


@pytest.mark.parametrize("Q", [1e4, 2e5, 1e6])
@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_signatures_are_psi_q_values(Q, k, monkeypatch):
    # the power walk reads every window prime's signature as psi_q's values do
    def refuse(*args):
        raise AssertionError("a signature built a unit grid")

    spec = OrderKFamilySpec(Q, k)
    sig_primes = [p for p in (2, 3, 5, 7, 11, 13) if p <= math.log(Q)]
    want = [signature_of(psi_q(q, k), k, sig_primes) for q in spec.window_primes().tolist()]
    monkeypatch.setattr(character, "_unit_grid", refuse)
    assert families._signatures(spec) == (sig_primes, spec.window_primes().tolist(), want)
    assert len(want) > 1


def test_pigeonhole_q1e4_bucket():
    res = pigeonhole_search(OrderKFamilySpec(1e4, 2))
    assert res.n_window_primes == 21
    assert res.n_buckets == 13
    assert res.bucket == (103, 113, 137)
    assert len(res.pairs) == 3
    assert res.guarantee == 2
    assert not res.substituted
    # the pigeonhole floor is honored
    assert len(res.bucket) >= res.guarantee
    # construction postcondition: trivial on every signature prime
    for m, chi in res.pairs:
        for p in res.sig_primes:
            if m % p:
                assert chi.eval(int(p)) == RootOfUnity.one()


def test_pigeonhole_retry_lowers_y():
    spec = OrderKFamilySpec(400, 2)  # y = log 400 ~ 5.99: signature primes 2, 3, 5
    bare = pigeonhole_search(spec)
    assert bare.pairs == [] and bare.n_buckets == 4
    res = pigeonhole_with_retry(spec)
    assert res.substituted and res.y_used == 2.0
    assert len(res.pairs) >= 1


def test_pigeonhole_retry_signs_each_window_prime_once(monkeypatch):
    # k = 6 at Q = 1e6 retries down to y = 2 over 68 window primes: one power
    # walk each
    calls = []
    walk = families._psi_q_signature

    def counting(q, k, sig_primes):
        calls.append(q)
        return walk(q, k, sig_primes)

    monkeypatch.setattr(families, "_psi_q_signature", counting)
    res = pigeonhole_with_retry(OrderKFamilySpec(1e6, 6))
    assert res.substituted and res.n_window_primes == 68
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 68


def test_census_small_exact():
    rec = count_fundamental_discriminants(100, 1, 1)
    assert rec.count == 19
    assert rec.main_term == pytest.approx(20.264236728, abs=1e-6)
    assert rec.deviation < 5.0
    # d = 1 is excluded: the 19 values start at 5
    fund = [d for d in range(2, 101)
            if d % 4 == 1 and factor(d).is_squarefree()]
    assert len(fund) == 19


def test_census_depends_on_radical_of_2m():
    a = count_fundamental_discriminants(3000, 3, -1)
    b = count_fundamental_discriminants(3000, 6, -1)
    assert a.count == b.count and a.main_term == b.main_term


def test_census_brute_force_negative():
    rec = count_fundamental_discriminants(500, 15, -1)
    brute = sum(
        1 for n in range(2, 501)
        if n % 4 == 3 and factor(n).is_squarefree() and math.gcd(n, 15) == 1
    )
    assert rec.count == brute


def test_signature_discriminants_example():
    sig = signature_discriminants(100, 1, 3.5, {2: 1, 3: 1})
    assert sig.d_values.tolist() == [73, 97]
    assert sig.sig_primes == (2, 3)


def test_signature_discriminants_warns_by_the_bound_it_is_handed():
    # twisted_family hands in D = Q^(1/3): the warning names that bound's log
    with pytest.warns(UserWarning, match=r"y=5 exceeds the log of the discriminant bound, log 20 = 3;"):
        sig = signature_discriminants(20, 1, 5.0, {})
    assert sig.sig_primes == (2, 3, 5)


def test_signature_discriminants_mod8():
    sig = signature_discriminants(200, 1, 2.5, {2: -1})
    assert len(sig.d_values) > 0
    assert all(d % 8 == 5 for d in sig.d_values.tolist())


def test_signature_partition_identity():
    # the 2^pi(y) signature classes partition the census with m = P(y)
    Q, y = 3000.0, 8.0
    sig_primes = [2, 3, 5, 7]
    total = 0
    for bits in range(16):
        eps = {p: (1 if bits >> i & 1 else -1) for i, p in enumerate(sig_primes)}
        total += len(signature_discriminants(Q, 1, y, eps).d_values)
    census = count_fundamental_discriminants(Q, 105, 1)
    assert total == census.count == 326


def test_kronecker_column_matches_scalar():
    from chx.ntheory import kronecker

    ds = signature_discriminants(500, -1, 2.5, {2: 1}).d_values
    for p in (2, 3, 5, 7, 11, 13):
        col = _kronecker_column(ds, p)
        for d, v in zip(ds.tolist(), col.tolist()):
            assert v == kronecker(int(d), p)


def test_quad_twist_spec_guards():
    with pytest.raises(ConstraintError):
        QuadTwistSpec(1e4, 3, 1)  # odd order cannot survive a twist
    with pytest.raises(ValueError):
        QuadTwistSpec(1000, 2, 1)  # scale floor
    with pytest.raises(ValueError):
        QuadTwistSpec(1e4, 2, 0)
    for k in (0, 1):  # not an order at all: a usage error, as in OrderKFamilySpec
        with pytest.raises(ValueError, match="integer >= 2"):
            QuadTwistSpec(1e4, k, 1)


def test_twisted_family_even_mode():
    fam = twisted_family(QuadTwistSpec(1e4, 2, 1))
    assert (fam.q1, fam.q2) == (31, 41)
    assert [m.d for m in fam.members] == [-11, -19]
    for mem in fam.members:
        assert mem.chi.order == 2 and mem.chi.parity() == 1
        assert mem.chi.conductor == abs(mem.d) * 31 * 41
        assert mem.chi.is_primitive
        # epsilon * delta * d > 0 with |d| inside the twist budget
        assert 0 < fam.psi.parity() * 1 * mem.d
        assert abs(mem.d) <= 1e4 ** (1 / 3)


def test_twisted_family_odd_mode_may_be_empty():
    fam = twisted_family(QuadTwistSpec(1e4, 2, -1))
    assert fam.members == []  # no d survives the mod-8 and budget filters


def test_twisted_family_larger_scale_nonempty():
    fam = twisted_family(QuadTwistSpec(1e6, 2, -1))
    assert len(fam.members) >= 1
    for mem in fam.members:
        assert mem.chi.parity() == -1 and mem.chi.order == 2
        assert mem.chi.conductor == abs(mem.d) * fam.q1 * fam.q2


def test_quadratic_twist_charsum_calibration():
    # |sum_d chi_d(n)| over the census discriminants is far below
    # 10 d(m) sqrt(Q) n^{1/4} log(n)^{1/2} for non-square n
    Q = 1e5
    rng = np.random.default_rng(11)
    base = count_fundamental_discriminants(Q, 1, 1)
    ds = signature_discriminants(Q, 1, 2.0, {}).d_values
    assert len(ds) == base.count
    for m, dm in ((1, 1), (15, 4)):
        keep = ds[np.gcd(ds, m) == 1]
        for n in rng.integers(2, 10**4, size=50):
            n = int(n)
            if is_kth_power(n, 2):
                continue
            col = np.ones(len(keep), dtype=np.int64)
            for p, a in factor(n).factors:
                col *= _kronecker_column(keep, p) ** a
            bound = 10 * dm * math.sqrt(Q) * n**0.25 * math.log(n) ** 0.5
            assert abs(int(col.sum())) <= bound


def test_pipeline_modes_and_ranking():
    res = extremal_pipeline(1e4, 2, "orderk")
    assert res.family_size == 3
    l1s = [abs(r.L1.value) for r in res.records]
    assert l1s == sorted(l1s, reverse=True)
    assert res.top.modulus == 14111
    ev = extremal_pipeline(1e4, 2, "even_sum")
    ms = [r.M for r in ev.records]
    assert ms == sorted(ms, reverse=True)
    assert all(r.parity == 1 for r in ev.records)
    assert all(r.xi_id == "q=3;comps=3:1" for r in ev.records)
    # references carry the trend normalizations
    assert res.references["e_gamma_loglog_Q"] == pytest.approx(
        math.exp(np.euler_gamma) * math.log(math.log(1e4))
    )


def test_pipeline_odd_sum_members():
    res = extremal_pipeline(2e5, 2, "odd_sum")
    assert res.family_size == 2
    assert all(r.parity == -1 and r.xi_id is None for r in res.records)
    ms = [r.M for r in res.records]
    assert ms == sorted(ms, reverse=True)


def test_pipeline_caps_even_sum_members_at_their_own_modulus(monkeypatch):
    # no table mod 3q is built, so a cap at the largest member's q refuses none
    plain = extremal_pipeline(2e5, 2, "even_sum")
    q_max = max(r.modulus for r in plain.records)
    monkeypatch.setattr(character, "_DLOG_TABLE_CAP", q_max)
    assert extremal_pipeline(2e5, 2, "even_sum").records == plain.records


def test_pipeline_guards():
    with pytest.raises(ValueError):
        extremal_pipeline(100, 2, "orderk")  # Q floor
    with pytest.raises(ValueError):
        extremal_pipeline(1e4, 2, "sideways")
    with pytest.raises(ConstraintError):
        extremal_pipeline(1e4, 3, "odd_sum")  # odd k cannot be twisted


def test_pipeline_jobs_equivalent():
    a = extremal_pipeline(1e4, 2, "orderk", jobs=1)
    b = extremal_pipeline(1e4, 2, "orderk", jobs=2)
    assert [r.char_id for r in a.records] == [r.char_id for r in b.records]
    assert all(
        x.L1.value == y.L1.value and x.M == y.M
        for x, y in zip(a.records, b.records)
    )


def test_random_baseline_deterministic():
    a = random_l1_baseline(1e4, count=40)
    b = random_l1_baseline(1e4, count=40)
    assert np.array_equal(a, b)
    assert a.shape == (40,)
    assert np.all((a > 0.05) & (a < 10.0))
    c = random_l1_baseline(1e4, count=40, seed=1)
    assert not np.array_equal(a, c)


def _baseline_characters(Q, count, seed=20260815, n_moduli=25):
    """The characters random_l1_baseline draws, restated: the moduli first,
    then one rng.integers per entry, in entry order."""
    rng = np.random.default_rng(seed)
    ps = sieve_primes(int(4 * Q) + 1).in_range(Q, 4 * Q)
    moduli = rng.choice(ps, size=min(n_moduli, len(ps)), replace=False)
    chars = []
    for i in range(count):
        q = int(moduli[i % len(moduli)])
        chars.append(character_from_index(q, int(rng.integers(1, q - 1))))
    return chars


@pytest.mark.parametrize("seed", [None, 3])  # None: the library's default seed
def test_random_baseline_matches_the_finite_formulas(seed):
    """The AFE values agree with l1_exact_batch on the same drawn characters."""
    kwargs = {} if seed is None else {"seed": seed}
    got = random_l1_baseline(1e4, count=40, **kwargs)
    want = np.abs(l1_exact_batch(_baseline_characters(1e4, 40, **kwargs)))
    assert np.all(np.abs(got - want) <= 1e-11 * want)


def test_members_pickle_to_equal_records():
    chi = psi_tilde(557, 859, 2)
    clone = pickle.loads(pickle.dumps(chi))
    assert evaluate_character(clone, z=100.0) == evaluate_character(chi, z=100.0)


class _RecordingPool:
    """In-process stand-in for multiprocessing.Pool that records its size
    and sends the function and each argument through pickle."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        fn = pickle.loads(pickle.dumps(fn))
        return [fn(pickle.loads(pickle.dumps(x))) for x in items]


@pytest.mark.parametrize("n_chars,jobs,sizes", [(2, 8, [2]), (3, 2, [2]), (1, 4, []), (3, 1, [])])
def test_pool_never_exceeds_members(n_chars, jobs, sizes, monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    chars = [kronecker_character(d) for d in (5, 8, 13)][:n_chars]
    xi = kronecker_character(-3)
    records = _evaluate_many(chars, 50.0, xi, jobs)
    assert _RecordingPool.sizes == sizes
    assert records == [evaluate_character(chi, z=50.0, xi=xi) for chi in chars]
