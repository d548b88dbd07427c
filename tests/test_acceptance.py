"""Acceptance gates: exact identities, censuses, calibrated bounds, moment
constants, extremal trends, and byte-level determinism.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line (visible under
pytest -s or in captured output) with the measured quantity next to its
pinned tolerance, then asserts the criterion and its runtime cap.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from chx.character import character_from_id
from chx.cli import main
from chx.families import extremal_pipeline, random_l1_baseline
from chx.verify import (
    _check_b_combinatorics,
    _check_bridges,
    _check_euler_calibration,
    _check_exact_vs_series,
    _check_fundamental_census,
    _check_gauss_modulus,
    _check_half_sum,
    _check_order_counts,
    _check_orderk_moments,
    _check_pair_witness,
    _check_quad_moments,
)

E_GAMMA = math.exp(np.euler_gamma)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_order_census():
    t0 = time.perf_counter()
    chk = _check_order_counts(2000)
    dt = time.perf_counter() - t0
    ok = chk.passed and dt < 30.0
    _report(1, ok, f"phi(k) counts over {chk.detail['cells']} (k, q) cells, "
                   f"k in 2..8, prime q < 2000, brute-force cross-check; "
                   f"{dt:.1f}s < 30s")
    assert ok, chk.detail


def test_criterion_02_pair_witness():
    t0 = time.perf_counter()
    chk = _check_pair_witness(100)
    dt = time.perf_counter() - t0
    ok = chk.passed and chk.detail["n_pairs"] == 100 and dt < 30.0
    _report(2, ok, f"{chk.detail['n_pairs']} random prime pairs, k in "
                   f"{{2,3,4,6}}: primitive, order k, conductor q1*q2, "
                   f"witness = zeta_k exactly; {dt:.1f}s < 30s")
    assert ok, chk.detail


def test_criterion_03_identity_suite():
    t0 = time.perf_counter()
    g = _check_gauss_modulus(1000)
    h = _check_half_sum(400)
    s = _check_exact_vs_series(500)
    dt = time.perf_counter() - t0
    ok = g.passed and h.passed and s.passed and dt < 300.0
    _report(3, ok,
            f"(a) | |tau|-sqrt(q) |/sqrt(q) worst {g.detail['worst_rel']:.2e} "
            f"<= 1e-9, q <= 1000; "
            f"(b) half-sum worst {h.detail['worst_abs_diff']:.2e} < 1e-8, "
            f"odd q <= 400; "
            f"(c) exact-vs-series worst {float(s.detail['worst_rel']):.2e} "
            f"<= 1e-8, q <= 500; {dt:.1f}s < 300s")
    assert ok, (g.detail, h.detail, s.detail)


def test_criterion_04_bridge_bounds():
    t0 = time.perf_counter()
    chk = _check_bridges(400)
    dt = time.perf_counter() - t0
    ok = chk.passed and dt < 120.0
    d = chk.detail
    _report(4, ok, f"{d['violations']} violations over {d['n_odd_branch']} odd "
                   f"+ {d['n_even_branch']} even branch characters, q <= 400, "
                   f"1e-9 slack (min margin {d['min_margin']:.1e}); "
                   f"{dt:.1f}s < 120s")
    assert ok, chk.detail


def test_criterion_05_discriminant_census():
    t0 = time.perf_counter()
    chk = _check_fundamental_census()
    dt = time.perf_counter() - t0
    ok = chk.passed and dt < 120.0
    _report(5, ok, f"m in {{1,3,15,105}} x delta = +-1 x Q in {{1e4,1e5,1e6}}: "
                   f"worst |count - main|/(d(m) sqrt(Q)) = "
                   f"{chk.detail['worst_deviation']:.3f} <= 5; {dt:.1f}s < 120s")
    assert ok, chk.detail


def test_criterion_06_combinatorics_suite():
    t0 = time.perf_counter()
    chk = _check_b_combinatorics()
    dt = time.perf_counter() - t0
    ok = chk.passed and dt < 60.0
    d = chk.detail
    _report(6, ok, f"b_r multinomial to n = {d['multinomial_n_max']}, "
                   f"{d['identity_cases']} exact power identities, "
                   f"{d['product_inequality_cases']} product-inequality cases "
                   f"with zero violations, diagonal bound exact; "
                   f"{dt:.1f}s < 60s")
    assert ok, chk.detail


def test_criterion_07_euler_calibration():
    t0 = time.perf_counter()
    chk = _check_euler_calibration()
    dt = time.perf_counter() - t0
    ok = chk.passed and dt < 300.0
    d = chk.detail
    _report(7, ok, f"fraction with rel err > 5% at z = 1e4: "
                   f"{d['fraction']:.4f} < 0.01 over {d['n_characters']} "
                   f"characters, prime q in [1000, 2000] "
                   f"(worst {d['worst_rel']:.3f}); {dt:.1f}s < 300s")
    assert ok, chk.detail


def test_criterion_08_moment_calibration():
    t0 = time.perf_counter()
    quad = _check_quad_moments()
    ordk = _check_orderk_moments()
    dt = time.perf_counter() - t0
    ok = quad.passed and ordk.passed and dt < 600.0
    qc, oc = quad.detail["implied_constants"], ordk.detail["implied_constants"]
    _report(8, ok, f"quadratic |d| <= 1e5 implied constants "
                   f"{[round(qc[f'r{r}'], 3) for r in (1, 2, 3)]} <= 10; "
                   f"order-2 Q = 1e4 constants "
                   f"{[round(oc[f'r{r}'], 4) for r in (1, 2)]} <= 10; "
                   f"r = 1 oracle rel diffs "
                   f"{quad.detail['oracle_rel_diff_r1']:.1e}, "
                   f"{ordk.detail['oracle_rel_diff_r1']:.1e} <= 1e-12; "
                   f"{dt:.1f}s < 600s")
    assert ok, (quad.detail, ordk.detail)


def test_criterion_09_extremal_trend():
    t0 = time.perf_counter()
    qs = (1e4, 1e5, 1e6)
    p95 = {Q: float(np.percentile(random_l1_baseline(Q), 95)) for Q in qs}
    post_ok, mono_ok, floor_ok = True, True, True
    beats = {}
    tops = {}
    for k in (2, 3, 4):
        maxima = []
        beats[k] = 0
        for Q in qs:
            res = extremal_pipeline(Q, k, "orderk")
            assert res.family_size >= 1
            # (a) construction postconditions, exact arithmetic
            for rec in res.records:
                chi = character_from_id(rec.char_id)
                post_ok &= chi.order == k and chi.is_primitive
                post_ok &= rec.parity == chi.parity()
                for p in (2, 3, 5, 7, 11, 13):
                    if p <= res.y_used and rec.modulus % p:
                        v = chi.eval(p)
                        post_ok &= (not v.is_zero) and v.order == 1
            top = abs(res.top.L1.value)
            maxima.append(top)
            tops[(k, Q)] = top
            # (c) extreme-value floor
            floor_ok &= top >= E_GAMMA * math.log(math.log(Q)) - 1.5
            # (d) against the random baseline of comparable conductor
            beats[k] += top > p95[Q]
        # (b) monotone in Q
        mono_ok &= maxima == sorted(maxima)
    beat_ok = all(beats[k] >= 2 for k in (2, 3, 4))
    dt = time.perf_counter() - t0
    ok = post_ok and mono_ok and floor_ok and beat_ok and dt < 1200.0
    _report(9, ok, f"k in {{2,3,4}} x Q in {{1e4,1e5,1e6}}: postconditions "
                   f"{'exact' if post_ok else 'VIOLATED'}; max|L1| monotone "
                   f"{mono_ok}; floor e^gamma loglog Q - 1.5 {floor_ok} "
                   f"(e.g. k=2: {tops[(2, 1e4)]:.3f}/{tops[(2, 1e5)]:.3f}/"
                   f"{tops[(2, 1e6)]:.3f}); beats 95th pct in "
                   f"{[beats[k] for k in (2, 3, 4)]} of 3 cells (need >= 2); "
                   f"{dt:.1f}s < 1200s")
    assert ok, (post_ok, mono_ok, floor_ok, beats)


def test_criterion_10_verify_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = main(["verify", "all", "--out", str(out)])
        assert code == 0
        outs.append((out / "summary.json").read_bytes())
    dt = time.perf_counter() - t0
    identical = outs[0] == outs[1]
    parsed = json.loads(outs[0])
    ok = identical and parsed["passed"] is True
    _report(10, ok, f"verify all run twice in one process: summary JSONs "
                    f"byte-identical = {identical} ({len(outs[0])} bytes), "
                    f"all suites passed; {dt:.1f}s")
    assert ok
