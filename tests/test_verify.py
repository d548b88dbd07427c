"""The verify scans over character matrices: counts, pass flags, and that a
corrupted weight, matrix row or character sum fails the check it feeds."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from chx import character, verify
from chx.character import CharacterMatrix
from chx.lfunction import PrimeSumSpec
from chx.moments import QuadFamilySpec
from chx.ntheory import kronecker

# (check, arguments, the detail counts of the per-character loops they replaced)
SMALL = [
    (verify._check_gauss_modulus, (130,), {"n_characters": 3104, "spot_sample": 3}),
    (verify._check_half_sum, (41,), {"n_characters": 147}),
    (verify._check_exact_vs_series, (60,), {"n_characters": 661}),
    (verify._check_bridges, (60,), {"n_odd_branch": 333, "n_even_branch": 112, "violations": 0}),
    (verify._check_polya_vinogradov, (60,), {"n_characters": 1042}),
    (verify._check_euler_calibration, (100, 200, 1e3), {"n_characters": 3125, "n_over_5pct": 0}),
]
IDS = [check.__name__ for check, _, _ in SMALL]


@pytest.mark.parametrize("check,args,counts", SMALL, ids=IDS)
def test_scan_counts_and_pass(check, args, counts):
    res = check(*args)
    assert res.passed, res.detail
    assert {k: res.detail[k] for k in counts} == counts


@pytest.mark.parametrize("check,args", [(c, a) for c, a, _ in SMALL] + [(verify._check_afe_vs_exact, ())],
                         ids=IDS + ["_check_afe_vs_exact"])
def test_scans_plan_each_prime_power_once(check, args, monkeypatch):
    # every scan shares one dict of prime-power plans across its moduli
    planned = []
    plan = character._plan

    def spy(p, a):
        planned.append((p, a))
        return plan(p, a)

    monkeypatch.setattr(character, "_plan", spy)
    check(*args)
    assert planned and len(planned) == len(set(planned))


def test_gauss_modulus_below_one_spot_period():
    # fewer than 997 characters: the first scanned one is tied instead
    res = verify._check_gauss_modulus(30)
    assert res.passed and res.detail["n_characters"] == 168
    assert res.detail["spot_sample"] == 1


def test_spot_sample_ordinals():
    seen = []
    spot = verify._Spot(3, lambda chi, x: seen.append((chi.char_id, x)) or 0.0)
    cm = CharacterMatrix(13)
    rows = np.arange(1, 12)
    spot.add(cm, rows[:4], rows[:4] * 10)  # ordinals 1..4
    spot.add(cm, rows[4:], rows[4:] * 10)  # ordinals 5..11
    assert spot.n == 11 and spot.diffs() == [0.0] * 3
    assert seen == [(cm.character(r).char_id, 10 * r) for r in (3, 6, 9)]
    short = verify._Spot(3, lambda chi, x: float(x))
    short.add(cm, rows[:2], np.array([7.0, 8.0]))
    assert short.diffs() == [7.0]  # the first scanned character
    assert verify._Spot(3, None).diffs() == []


def _corrupt_rows(monkeypatch):
    """chi(1) (chi(0) mod 1) off by 1e-6 in every row, as `blocks` yields the
    rows and as `sums` reads them: row r's sum gains 1e-6 f[..., 1]."""
    blocks, sums = CharacterMatrix.blocks, CharacterMatrix.sums

    def corrupt_blocks(self, rows):
        for r, W in blocks(self, rows):
            W = W.copy()
            W[:, min(1, W.shape[1] - 1)] *= 1 + 1e-6
            yield r, W

    def corrupt_sums(self, f):
        return sums(self, f) + 1e-6 * np.asarray(f)[..., min(1, self.modulus - 1), None]

    monkeypatch.setattr(CharacterMatrix, "blocks", corrupt_blocks)
    monkeypatch.setattr(CharacterMatrix, "sums", corrupt_sums)


@pytest.mark.parametrize("check,args,counts", SMALL, ids=IDS)
def test_corrupted_rows_fail(check, args, counts, monkeypatch):
    _corrupt_rows(monkeypatch)
    assert not check(*args).passed


# the checks whose sums over n come from CharacterMatrix.sums
SUMS = [(check, args) for check, args, _ in SMALL if check is not verify._check_polya_vinogradov]


@pytest.mark.parametrize("check,args", SUMS, ids=[check.__name__ for check, _ in SUMS])
def test_corrupted_sums_fail(check, args, monkeypatch):
    sums = CharacterMatrix.sums
    monkeypatch.setattr(CharacterMatrix, "sums", lambda self, f: sums(self, f) * (1 + 1e-6))
    assert not check(*args).passed


@pytest.mark.parametrize(
    "check,args,weights",
    [
        (verify._check_gauss_modulus, (60,), "_phases"),
        (verify._check_half_sum, (41,), "_phases"),
        (verify._check_exact_vs_series, (60,), "_phases"),
        (verify._check_exact_vs_series, (60,), "digamma_weights"),
        (verify._check_bridges, (60,), "digamma_weights"),
        (verify._check_euler_calibration, (100, 200, 1e3), "_euler_logs"),
        (verify._check_half_sum, (41,), "digamma_weights"),
    ],
)
def test_corrupted_weights_fail(check, args, weights, monkeypatch):
    # the weight vectors f the scans pass to CharacterMatrix.sums
    original = getattr(verify, weights)
    monkeypatch.setattr(verify, weights, lambda *a: original(*a) * (1 + 1e-6))
    assert not check(*args).passed


# (check, arguments of a range that holds no character to scan, its zero counts)
EMPTY = [
    (verify._check_gauss_modulus, (0,), {"n_characters": 0}),
    (verify._check_half_sum, (2,), {"n_characters": 0}),
    (verify._check_exact_vs_series, (2,), {"n_characters": 0}),
    (verify._check_bridges, (2,), {"n_odd_branch": 0, "n_even_branch": 0}),
    (verify._check_polya_vinogradov, (2,), {"n_characters": 0}),
    (verify._check_euler_calibration, (1000, 1008), {"n_characters": 0}),
]


@pytest.mark.parametrize("check,args,counts", EMPTY, ids=[c.__name__ for c, _, _ in EMPTY])
def test_empty_scan_fails(check, args, counts):
    res = check(*args)
    assert not res.passed
    assert {k: res.detail[k] for k in counts} == counts


@pytest.mark.parametrize("q", [3, 4, 8, 9, 12, 45, 120, 1009])
def test_half_period_max_partial_sums(q):
    # S(q-1-x) = -chi(-1) S(x) for every non-principal chi, imprimitive ones too
    cm = CharacterMatrix(q)
    for _, W in cm.blocks(np.flatnonzero(cm.order > 1)):
        full = np.abs(np.cumsum(W, axis=1)).max(axis=1)
        assert np.allclose(verify._max_partial_sums(W), full, rtol=0, atol=1e-10)


def test_quad_moment_oracle_matches_exact_average():
    # the Gram product against the per-d average of (sum_p chi_d(p)/p)^2 in rationals
    fam, window = QuadFamilySpec(2000), PrimeSumSpec(10, 100)
    ps = [int(p) for p in window.primes()]
    ds = [int(d) for d in fam.d_values()]
    exact = sum(sum(Fraction(kronecker(d, p), p) for p in ps) ** 2 for d in ds) / len(ds)
    assert abs(verify._quad_moment_oracle_r1(fam, window) / exact - 1) <= 1e-14


def test_afe_vs_exact_ties_and_fails_when_corrupted(monkeypatch):
    res = verify._check_afe_vs_exact()
    assert res.passed, res.detail
    assert res.detail["n_characters"] == 78 and res.detail["worst_over_bound"] <= 1.0
    original = verify.l1_afe

    def corrupt(chars):  # off by 1e-9 relative, far outside any AFE error_bound
        return [dataclasses.replace(lv, value=lv.value * (1 + 1e-9)) for lv in original(chars)]

    monkeypatch.setattr(verify, "l1_afe", corrupt)
    assert not verify._check_afe_vs_exact().passed


def test_b_combinatorics_fails_when_b_coefficient_is_wrong(monkeypatch):
    # b_2(15) = 2 (3 * 5 and 5 * 3) by the tuple count; one too many fails the check
    assert verify._check_b_combinatorics().passed
    real = verify.b_coefficient

    def off_by_one(r, n, w):
        return real(r, n, w) + (r == 2) * (np.asarray(n) == 15)

    monkeypatch.setattr(verify, "b_coefficient", off_by_one)
    assert not verify._check_b_combinatorics().passed


def test_suite_table_pins_every_check():
    # read without running a check: dropping one from a suite fails here
    v = verify
    assert verify._SUITES == {
        "identities": (v._check_gauss_modulus, v._check_half_sum, v._check_exact_vs_series,
                       v._check_afe_vs_exact, v._check_b_combinatorics),
        "census": (v._check_order_counts, v._check_pair_witness, v._check_fundamental_census),
        "bounds": (v._check_bridges, v._check_euler_calibration, v._check_polya_vinogradov),
        "moments": (v._check_quad_moments, v._check_orderk_moments),
    }
    assert verify.SUITE_NAMES == ("identities", "census", "bounds", "moments")
    assert [len(checks) for checks in verify._SUITES.values()] == [5, 3, 3, 2]


def test_bridges_tie_the_even_bound_to_the_third(monkeypatch):
    # |S(floor(q/3))| = (sqrt(3q)/(2 pi)) |L(1, chi*(./3))| for each even row;
    # a table off by 1e-6 at n = 1 misses it by 1e-6, past 1e-8 sqrt(q)
    res = verify._check_bridges(60)
    assert res.passed and 0 < res.detail["third_gap"] <= 1e-13
    blocks = CharacterMatrix.blocks

    def corrupt_blocks(self, rows):
        for r, W in blocks(self, rows):
            W = W.copy()
            W[:, 1] += 1e-6
            yield r, W

    monkeypatch.setattr(CharacterMatrix, "blocks", corrupt_blocks)
    res = verify._check_bridges(60)
    assert not res.passed and res.detail["third_gap"] > 1e-8
