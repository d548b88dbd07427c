"""Verification suites: exact identities, censuses, bounds, and moment
calibrations, each returning deterministic machine-readable check records.

The character scans take all characters of one modulus at once, as the rows
of its `character.CharacterMatrix`, and walk their moduli through
`character.character_matrices`, which plans each prime power (its label
facts and unit grid) once per scan.  Each linear sum over n -- tau(chi) by
its definition, L(1, chi) by the digamma weights and by the finite formulas,
the half sum, the log of the Euler product -- is one `CharacterMatrix.sums`
call per modulus, a DFT over the unit group; only M(chi), a row-wise
cumulative sum over the first half period, reads the value rows
(`CharacterMatrix.blocks`).
Fixed spot samples tie each scan to the per-character functions that stay
the authority (`gauss_sum`, `l1_exact`, the digamma series,
`half_sum_check`, `max_partial_sum`, `bridge_bounds`, `l1_truncated_euler`),
so a regression in either side fails the suite.  A scan that reaches no
character fails.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .character import CharacterMatrix, character_matrices, order_k_characters, order_witness
from .charsum import _BRIDGE_SLACK, bridge_bounds, half_sum_check, max_partial_sum
from .families import (
    OrderKFamilySpec,
    _legendre_table,
    count_fundamental_discriminants,
    generate_family,
    psi_tilde,
)
from .lfunction import (
    PrimeSumSpec,
    _finite_l1,
    _log_sines,
    _phases,
    _tau,
    digamma_weights,
    gauss_sum,
    l1_afe,
    l1_exact,
    l1_series_oracle,
    l1_truncated_euler,
    prime_sum,
)
from .moments import (
    QuadFamilySpec,
    b_coefficient,
    b_identity_check,
    b_product_inequality_check,
    diagonal_terms,
    empirical_moments,
)
from .ntheory import sieve_primes

_SEED = 20260815


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict


@dataclass(frozen=True)
class SuiteResult:
    """One suite's check results, with each check's wall seconds (in the
    same order), which stay out of the JSON dict."""

    suite: str
    checks: list
    seconds: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "n_checks": len(self.checks),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# scans over the character matrix of each modulus


class _Spot:
    """The spot ties of a vectorized scan to its per-character oracle.

    The sample is every `every`-th scanned character, counting from 1, or
    the first scanned character when the scan holds fewer than `every`.
    `tie(chi, *values)` gives the discrepancy of one sampled character from
    its values in the scan.  `n` counts the scanned characters.
    """

    def __init__(self, every: int, tie):
        self.every, self.tie = every, tie
        self.n = 0
        self._diffs: list = []
        self._first = None

    def add(self, cm: CharacterMatrix, rows: np.ndarray, *values) -> None:
        """Scan rows of cm, with the per-row values of the scan."""
        if self.n == 0:
            self._first = (cm.character(rows[0]), *(v[0] for v in values))
        for i in range((-self.n - 1) % self.every, len(rows), self.every):
            self._diffs.append(float(self.tie(cm.character(rows[i]), *(v[i] for v in values))))
        self.n += len(rows)

    def diffs(self) -> list:
        """The discrepancies of the sample."""
        if self._diffs or self._first is None:
            return self._diffs
        return [float(self.tie(*self._first))]

    def passed(self, ok: bool) -> bool:
        """The scan's verdict: `ok`, and at least one character scanned (a
        scan of nothing checks nothing, so it fails)."""
        return ok and self.n > 0


class _Worst:
    """The largest of a scanned quantity (NaN counts as +inf) and the id of
    the first character that reaches it."""

    def __init__(self):
        self.value, self.char_id = 0.0, None

    def add(self, cm: CharacterMatrix, rows: np.ndarray, x: np.ndarray) -> None:
        x = np.where(np.isnan(x), np.inf, x)
        i = int(np.argmax(x))
        if x[i] > self.value:
            self.value, self.char_id = float(x[i]), cm.character(rows[i]).char_id


def _max_partial_sums(W: np.ndarray) -> np.ndarray:
    """M(chi) = max_x |S(x)|, S(x) = sum_{n<=x} chi(n), for each row of value
    tables W of non-principal characters.  S(q-1-x) = -chi(-1) S(x), so the
    maximum is taken over x < ceil(q/2)."""
    return np.abs(np.cumsum(W[:, : (W.shape[1] + 1) // 2], axis=1)).max(axis=1)


# ---------------------------------------------------------------------------
# identities suite


def _gauss_tie(chi) -> float:
    """How far the oracle gauss_sum is from |tau| = sqrt(q), and the
    production tau (`_tau`, from the component rows) from gauss_sum,
    relative to sqrt(q)."""
    tau = gauss_sum(chi)
    rq = math.sqrt(chi.modulus)
    return max(abs(abs(tau) - rq), abs(_tau(chi._rows(), chi.modulus) - tau)) / rq


def _check_gauss_modulus(q_max: int = 1000) -> CheckResult:
    """|tau(chi)| = sqrt(q) within 1e-9 relative for all primitive chi, with
    tau(chi) = sum_n chi(n) e(n/q) by its definition; every 997th character
    is also tied to gauss_sum, and so is the production tau."""
    worst = _Worst()
    spot = _Spot(997, _gauss_tie)
    # no primitive characters for q = 2 mod 4
    for cm in character_matrices(q for q in range(1, q_max + 1) if q == 1 or q % 4 != 2):
        q = cm.modulus
        rows = np.flatnonzero(cm.primitive)
        rq = math.sqrt(q)
        worst.add(cm, rows, np.abs(np.abs(cm.sums(_phases(q))[rows]) - rq) / rq)
        spot.add(cm, rows)
    ties = spot.diffs()
    spot_worst = max(ties, default=0.0)
    return CheckResult(
        "gauss_modulus",
        spot.passed(worst.value <= 1e-9 and spot_worst <= 1e-9),
        {
            "q_max": q_max,
            "n_characters": spot.n,
            "worst_rel": worst.value,
            "worst_char": worst.char_id,
            "spot_sample": len(ties),
            "spot_worst_rel": spot_worst,
        },
    )


def _half_sum_tie(chi, lhs, rhs) -> float:
    rec = half_sum_check(chi)
    return max(abs(lhs - rec.lhs), abs(rhs - rec.rhs))


def _check_half_sum(q_max: int = 400) -> CheckResult:
    """Half-sum identity abs_diff < 1e-8 for odd primitive chi, odd q;
    every 499th character is also tied to half_sum_check."""
    worst = _Worst()
    spot = _Spot(499, _half_sum_tie)
    for cm in character_matrices(range(3, q_max + 1, 2)):
        q = cm.modulus
        rows = np.flatnonzero(cm.primitive & (cm.parity == -1))
        n = np.arange(q)
        f = np.stack([_phases(q), (1 <= n) & (n <= q // 2), n == 2, digamma_weights(q)])
        tau, lhs, chi2, l1 = cm.sums(f)[:, rows]
        rhs = (2.0 - np.conj(chi2)) * tau / (1j * math.pi) * np.conj(l1)
        worst.add(cm, rows, np.abs(lhs - rhs))
        spot.add(cm, rows, lhs, rhs)
    spot_worst = max(spot.diffs(), default=0.0)
    return CheckResult(
        "half_sum_identity",
        spot.passed(worst.value < 1e-8 and spot_worst <= 1e-10),
        {
            "q_max": q_max,
            "n_characters": spot.n,
            "worst_abs_diff": worst.value,
            "worst_char": worst.char_id,
            "spot_worst_abs": spot_worst,
        },
    )


def _exact_vs_series_tie(chi, lex, oracle) -> float:
    d1 = abs(l1_exact(chi).value - lex)
    d2 = abs(l1_series_oracle(chi).value - oracle)
    return max(d1, d2)


def _check_exact_vs_series(q_max: int = 500) -> CheckResult:
    """The finite formulas for L(1, chi) vs the digamma-tailed series, <= 1e-8
    relative; every 499th character ties them to l1_exact and the series
    oracle."""
    worst = _Worst()
    spot = _Spot(499, _exact_vs_series_tie)
    for cm in character_matrices(q for q in range(3, q_max + 1) if q % 4 != 2):
        q = cm.modulus
        rows = np.flatnonzero(cm.primitive)
        logsin = np.zeros(q)
        logsin[1:] = _log_sines(q)
        f = np.stack([_phases(q), np.arange(q, dtype=np.float64), logsin, digamma_weights(q)])
        tau, s_odd, s_even, oracle = cm.sums(f)[:, rows]
        # the weights are real: sum_a conj(chi(a)) w[a] is the conjugate of the sum
        lex = np.where(cm.parity[rows] == -1, _finite_l1(tau, np.conj(s_odd), q, True),
                       _finite_l1(tau, np.conj(s_even), q, False))
        worst.add(cm, rows, np.abs(lex - oracle) / np.abs(oracle))
        spot.add(cm, rows, lex, oracle)
    spot_worst = max(spot.diffs(), default=0.0)
    return CheckResult(
        "exact_vs_series",
        spot.passed(worst.value <= 1e-8 and spot_worst <= 1e-10),
        {
            "q_max": q_max,
            "n_characters": spot.n,
            "worst_rel": worst.value,
            "worst_char": worst.char_id,
            "spot_worst_abs": spot_worst,
        },
    )


# primes, prime powers, odd composites of up to four primes, and 2-adic moduli
_AFE_SAMPLE_MODULI = (40, 45, 105, 120, 125, 693, 1009, 1024, 1155, 2187, 4001, 8072, 10007)


def _check_afe_vs_exact() -> CheckResult:
    """The smoothed AFE (`l1_afe`) against l1_exact on a fixed sample: the
    first, middle and last primitive characters of each parity mod each of
    _AFE_SAMPLE_MODULI, each within the AFE's own error_bound."""
    chars = []
    for cm in character_matrices(_AFE_SAMPLE_MODULI):
        for parity in (1, -1):
            rows = np.flatnonzero(cm.primitive & (cm.order > 1) & (cm.parity == parity))
            chars += [cm.character(r) for r in sorted({rows[0], rows[len(rows) // 2], rows[-1]})]
    afe = l1_afe(chars)
    diffs = np.array([abs(lv.value - l1_exact(chi).value) for chi, lv in zip(chars, afe)])
    ratios = diffs / np.array([lv.error_bound for lv in afe])
    ratios = np.where(np.isnan(ratios), np.inf, ratios)
    i = int(np.argmax(ratios))
    return CheckResult(
        "afe_vs_exact",
        bool(ratios[i] <= 1.0),
        {
            "moduli": list(_AFE_SAMPLE_MODULI),
            "n_characters": len(chars),
            "worst_abs": float(np.max(diffs)),
            "worst_over_bound": float(ratios[i]),
            "worst_char": chars[i].char_id,
        },
    )


def _check_b_combinatorics() -> CheckResult:
    """b_r against a direct tuple count, exact power identities, product inequality
    sweep, and the diagonal bound (all exact arithmetic)."""
    w = PrimeSumSpec(2, 14)  # primes 3, 5, 7, 11, 13
    details: dict = {}
    ok = True
    # b_r(n) against a direct count of the ordered r-tuples of window primes
    # with product n (at most 5**4 tuples, no factorization), bounded by r!
    ps = [int(p) for p in w.primes()]
    ns = np.arange(1, 2001)
    for r in (1, 2, 3, 4):
        count = Counter(math.prod(t) for t in itertools.product(ps, repeat=r))
        b = b_coefficient(r, ns, w)
        ok &= b.tolist() == [count[n] for n in ns.tolist()]
        ok &= 0 <= b.min() and b.max() <= math.factorial(r)
    details["multinomial_n_max"] = 2000
    # exact identities sum b_t(n)/n^alpha = (sum 1/p^alpha)^t
    ident = []
    for t in range(1, 6):
        for alpha in (1, 2, 3):
            rec = b_identity_check(t, alpha, w)
            ident.append(rec.equal)
    hand = b_identity_check(2, 1, PrimeSumSpec(2, 7))
    ok &= all(ident) and hand.lhs == Fraction(64, 225) and hand.equal
    details["identity_cases"] = len(ident)
    # product inequality r1 + r2 <= 6, primes {3,5,7}
    sweep = PrimeSumSpec(2, 8)
    n_cases = 0
    for r1 in range(1, 6):
        for r2 in range(1, 7 - r1):
            v = b_product_inequality_check(r1, r2, sweep, 10**9)
            ok &= v == []
            n_cases += 1
    details["product_inequality_cases"] = n_cases
    # diagonal bound (diagonal_terms itself asserts the 2^r r! bound)
    diag: dict = {}
    for r in (1, 2, 3):
        for k in (2, 3, 4):
            val = diagonal_terms(r, k, w)
            diag[f"r{r}_k{k}"] = float(val)
    ok &= diagonal_terms(1, 2, PrimeSumSpec(2, 7)) == Fraction(34, 225)
    details["diagonal_values"] = diag
    return CheckResult("b_combinatorics", bool(ok), details)


# ---------------------------------------------------------------------------
# census suite


def _check_order_counts(q_max: int = 2000) -> CheckResult:
    """Exactly phi(k) order-k characters mod a prime q = 1 mod k, checked
    against a brute-force order scan over all q-1 characters: the character
    of index t has order (q-1)/gcd(t, q-1)."""
    cells, ok = 0, True
    primes = [int(p) for p in sieve_primes(q_max).primes if p < q_max]
    for k in range(2, 9):
        phi_k = sum(1 for a in range(1, k + 1) if math.gcd(a, k) == 1)
        for q in primes:
            if q % k != 1:
                continue
            chars = order_k_characters(q, k)
            brute = np.count_nonzero((q - 1) // np.gcd(np.arange(q - 1), q - 1) == k)
            ok &= len(chars) == phi_k == brute
            ok &= all(chi.order == k for chi in chars)
            cells += 1
    return CheckResult(
        "order_k_census", bool(ok), {"q_max": q_max, "cells": cells}
    )


def _check_pair_witness(n_pairs: int = 100) -> CheckResult:
    """Random prime pairs: psi_tilde primitive of order exactly k and
    conductor q1 q2, witness value = zeta_k in exact arithmetic."""
    rng = np.random.default_rng(_SEED)
    ps = sieve_primes(10**4).primes
    ok, done = True, 0
    per_k = n_pairs // 4
    for k in (2, 3, 4, 6):
        pool = [int(q) for q in ps if q % k == 1]
        for _ in range(per_k):
            q1, q2 = (int(x) for x in rng.choice(len(pool), size=2, replace=False))
            q1, q2 = sorted((pool[q1], pool[q2]))
            chi = psi_tilde(q1, q2, k)
            ok &= chi.is_primitive and chi.order == k and chi.conductor == q1 * q2
            n = order_witness(q1, q2, k)
            rou = chi.eval(n)
            ok &= (not rou.is_zero) and rou.order == k and rou.exponent == 1
            done += 1
    return CheckResult("pair_witness", bool(ok), {"n_pairs": done, "k_values": [2, 3, 4, 6]})


def _check_fundamental_census() -> CheckResult:
    """|count - main term| <= 5 d(m) sqrt(Q) for the discriminant census."""
    worst, ok, cells = 0.0, True, []
    for Q in (1e4, 1e5, 1e6):
        for m in (1, 3, 15, 105):
            for delta in (1, -1):
                rec = count_fundamental_discriminants(Q, m, delta)
                worst = max(worst, rec.deviation)
                ok &= rec.deviation <= 5.0
                cells.append(
                    {"Q": Q, "m": m, "delta": delta, "count": rec.count,
                     "deviation": rec.deviation}
                )
    return CheckResult(
        "fundamental_census", bool(ok), {"worst_deviation": worst, "cells": cells}
    )


# ---------------------------------------------------------------------------
# bounds suite


_CHI_MINUS_3 = np.array([0.0, 1.0, -1.0])  # (-3 | n) by n mod 3


def _twisted_digamma_weights(q: int) -> np.ndarray:
    """f with sum_r chi(r) f[r] = L(1, chi * (./3)) for chi mod q, 3 coprime
    to q: the digamma weights mod 3q times (-3 | n), folded onto r = n mod q
    over n = r + j q, j < 3, so no table mod 3q is built."""
    n = np.arange(3 * q)
    return (digamma_weights(3 * q) * _CHI_MINUS_3[n % 3]).reshape(3, q).sum(axis=0)


def _bridge_tie(chi, M, rhs) -> float:
    rec = bridge_bounds(chi)
    return max(abs(M - rec.lhs), abs(rhs - rec.rhs))


def _check_bridges(q_max: int = 400) -> CheckResult:
    """M(chi) >= (sqrt(q)/pi)|L(1,chi)| (odd) and
    M(chi) >= (sqrt(3q)/(2pi))|L(1, chi*(./3))| (even, 3 coprime to q),
    for every primitive even-order chi with q <= q_max; every 499th
    character is also tied to bridge_bounds.  An even chi's bound is
    attained at x = floor(q/3): |S(floor(q/3))| = (sqrt(3q)/(2pi))
    |L(1, chi*(./3))| (`lfunction._twisted_l1_from_third`) within
    1e-8 sqrt(q), the worst gap relative to sqrt(q) reported as
    `third_gap`.  So `min_margin`, the least M - bound over both branches,
    is 0 up to roundoff wherever the even bound is attained, and may read
    just below 0 on a passing check (-1.07e-14 at q_max 400, where the odd
    branch's least margin alone is 0.50); `violations` counts only the
    characters whose M falls short of the bound by more than _BRIDGE_SLACK."""
    n_odd = violations = 0
    min_margin = float("inf")
    third_gap = 0.0
    spot = _Spot(499, _bridge_tie)
    for cm in character_matrices(q for q in range(3, q_max + 1) if q % 4 != 2):
        q = cm.modulus
        keep = cm.primitive & (cm.order % 2 == 0)
        if q % 3 == 0:
            keep &= cm.parity == -1  # the even bridge needs 3 coprime to q
        rows = np.flatnonzero(keep)
        if not len(rows):
            continue
        odd = cm.parity[rows] == -1
        # chi * (./3) mod 3q is odd and primitive for even chi with 3 coprime to q
        # (when 3 | q every kept row is odd and the twisted sums go unread)
        f = np.stack([digamma_weights(q), _twisted_digamma_weights(q)])
        l1, l1_twisted = cm.sums(f)[:, rows]
        rhs = np.where(odd, math.sqrt(q) / math.pi * np.abs(l1),
                       math.sqrt(3 * q) / (2 * math.pi) * np.abs(l1_twisted))
        M, S_third = [], []
        for _, W in cm.blocks(rows):
            M.append(_max_partial_sums(W))
            S_third.append(W[:, : q // 3 + 1].sum(axis=1))
        M = np.concatenate(M)
        gaps = np.abs(np.abs(np.concatenate(S_third)) - rhs)[~odd] / math.sqrt(q)
        third_gap = float(np.max(gaps, initial=third_gap))  # a NaN gap stays, and fails
        violations += int(np.count_nonzero(~(M >= rhs - _BRIDGE_SLACK)))
        min_margin = min(min_margin, float((M - rhs).min()))
        n_odd += int(np.count_nonzero(odd))
        spot.add(cm, rows, M, rhs)
    spot_worst = max(spot.diffs(), default=0.0)
    return CheckResult(
        "bridge_bounds",
        spot.passed(violations == 0 and spot_worst <= 1e-10 and third_gap <= 1e-8),
        {
            "q_max": q_max,
            "n_odd_branch": n_odd,
            "n_even_branch": spot.n - n_odd,
            "violations": violations,
            "min_margin": min_margin,
            "spot_worst_abs": spot_worst,
            "third_gap": third_gap,
        },
    )


_EULER_REL_TOL = 0.05  # the 5% of the "n_over_5pct" detail


def _euler_logs(q: int, primes: np.ndarray, weights: list) -> np.ndarray:
    """f with sum_n chi(n) f[n] = log prod_p (1 - chi(p)/p)^-1 over `primes`
    for every chi mod q: sum_m chi(p^m)/(m p^m) puts the row m of `weights`,
    1/(m p^m) on a prefix of the primes, at p^m mod q.  A p dividing q lands
    on non-units, which no character reads."""
    f = np.zeros(q)
    pm = np.ones(len(primes), dtype=np.int64)
    for w in weights:
        pm = pm[: len(w)] * primes[: len(w)] % q
        f += np.bincount(pm, weights=w, minlength=q)
    return f


def _check_euler_calibration(q_lo: int = 1000, q_hi: int = 2000, z: float = 1e4) -> CheckResult:
    """Fraction of primitive chi mod primes in [q_lo, q_hi] whose truncated
    Euler product (exp of `_euler_logs`' sum) misses L(1, chi) by more than
    5% must be below 1%."""
    plist = sieve_primes(int(z)).primes.astype(np.int64)
    plist = plist[plist <= z]
    # the weights 1/(m p^m), one row per m, over the p with p^-m >= 2^-60 (a prefix)
    weights, p, m = [], plist.astype(np.float64), 1
    while len(p):
        weights.append(1.0 / (m * p**m))
        p, m = p[p ** -(m + 1) >= 2.0**-60], m + 1
    n_bad = 0
    worst = _Worst()

    def tie(chi, euler, lex):
        d1 = abs(l1_truncated_euler(chi, z).value - euler)
        d2 = abs(l1_exact(chi).value - lex)
        return max(d1, d2)

    spot = _Spot(9973, tie)
    moduli = [int(q) for q in sieve_primes(q_hi).primes if q_lo <= q <= q_hi]
    for cm in character_matrices(moduli):
        q = cm.modulus
        rows = np.flatnonzero(cm.order > 1)
        log_euler, lex = cm.sums(np.stack([_euler_logs(q, plist, weights), digamma_weights(q)]))[:, rows]
        euler = np.exp(log_euler)
        rel = np.abs(euler - lex) / np.abs(lex)
        worst.add(cm, rows, rel)
        n_bad += int(np.count_nonzero(~(rel <= _EULER_REL_TOL)))
        spot.add(cm, rows, euler, lex)
    spot_worst = max(spot.diffs(), default=0.0)
    frac = n_bad / max(spot.n, 1)
    return CheckResult(
        "euler_calibration",
        spot.passed(frac < 0.01 and spot_worst <= 1e-10),
        {
            "q_range": [q_lo, q_hi],
            "z": z,
            "n_characters": spot.n,
            "n_over_5pct": n_bad,
            "fraction": frac,
            "worst_rel": worst.value,
            "spot_worst_abs": spot_worst,
        },
    )


def _check_polya_vinogradov(q_max: int = 1000) -> CheckResult:
    """Empirical sanity M(chi) <= sqrt(q) log q for all non-principal chi;
    every 9973rd character is also tied to max_partial_sum."""
    worst = _Worst()
    spot = _Spot(9973, lambda chi, M: abs(M - max_partial_sum(chi).M))
    for cm in character_matrices(range(3, q_max + 1)):
        q = cm.modulus
        bound = math.sqrt(q) * math.log(q)
        for rows, W in cm.blocks(np.flatnonzero(cm.order > 1)):
            M = _max_partial_sums(W)
            worst.add(cm, rows, M / bound)
            spot.add(cm, rows, M)
    spot_worst = max(spot.diffs(), default=0.0)
    return CheckResult(
        "polya_vinogradov_sanity",
        spot.passed(worst.value <= 1.0 and spot_worst <= 1e-10),
        {
            "q_max": q_max,
            "n_characters": spot.n,
            "worst_ratio": worst.value,
            "spot_worst_abs": spot_worst,
        },
    )


# ---------------------------------------------------------------------------
# moments suite


def _implied_constants(family, rs, window: PrimeSumSpec) -> tuple:
    """The empirical moments of `family` at each r in rs over `window`, from
    one build of its prime sums (their regime warnings silenced): the records
    by r, and their implied constants keyed "r<r>"."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recs = {rec.r: rec for rec in empirical_moments(family, rs, window)}
    return recs, {f"r{r}": rec.implied_constant for r, rec in recs.items()}


def _quad_moment_oracle_r1(fam: QuadFamilySpec, window: PrimeSumSpec) -> float:
    """sum_d |sum_p chi_d(p)/p|^2 / |family| by the swapped double sum over
    prime pairs: with C[i] = chi_d(p_i) over the family's d (exact 1, -1, 0),
    the inner character sums are the Gram matrix C C^T, added up over blocks
    of 4096 columns (5 MB); its entries are integers, exact in float64, so
    the blocks change no bit.  Each window prime's table of chi_d(p) over
    d mod p is built once (the window's primes are odd, as y >= 2)."""
    ds = fam.d_values()
    primes = window.primes().tolist()
    tables = [_legendre_table(p) for p in primes]
    gram = np.zeros((len(primes), len(primes)))
    for lo in range(0, len(ds), 4096):
        block = ds[lo : lo + 4096]
        C = np.array([t[np.mod(block, p)] for t, p in zip(tables, primes)], dtype=np.float64)
        gram += C @ C.T
    ps = np.array(primes, dtype=np.float64)
    return float(np.sum(gram / np.outer(ps, ps))) / len(ds)


def _check_quad_moments() -> CheckResult:
    fam = QuadFamilySpec(1e5)
    window = PrimeSumSpec(10, 1000)
    recs, implied = _implied_constants(fam, (1, 2, 3), window)
    oracle = _quad_moment_oracle_r1(fam, window)
    rel = abs(recs[1].lhs_avg - oracle) / abs(oracle)
    return CheckResult(
        "quadratic_moments",
        all(c <= 10.0 for c in implied.values()) and rel <= 1e-12,
        {
            "Q": 1e5,
            "window": [10, 1000],
            "family_size": recs[1].family_size,
            "implied_constants": implied,
            "oracle_rel_diff_r1": rel,
        },
    )


def _check_orderk_moments() -> CheckResult:
    spec = OrderKFamilySpec(1e4, 2)
    window = PrimeSumSpec(10, 1000)
    recs, implied = _implied_constants(spec, (1, 2), window)
    # independent member-by-member oracle via prime_sum
    total = 0.0
    n = 0
    for _, chi in generate_family(spec):
        total += abs(prime_sum(chi, window)) ** 2
        n += 1
    rel = abs(recs[1].lhs_avg - total / n) / (total / n)
    return CheckResult(
        "orderk_moments",
        all(c <= 10.0 for c in implied.values()) and rel <= 1e-12,
        {
            "Q": 1e4,
            "k": 2,
            "window": [10, 1000],
            "family_size": n,
            "implied_constants": implied,
            "oracle_rel_diff_r1": rel,
        },
    )


# ---------------------------------------------------------------------------


# each suite's checks, in the order they run and report
_SUITES = {
    "identities": (_check_gauss_modulus, _check_half_sum, _check_exact_vs_series,
                   _check_afe_vs_exact, _check_b_combinatorics),
    "census": (_check_order_counts, _check_pair_witness, _check_fundamental_census),
    "bounds": (_check_bridges, _check_euler_calibration, _check_polya_vinogradov),
    "moments": (_check_quad_moments, _check_orderk_moments),
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(name: str) -> list:
    """Run one named suite, or all of them, timing each check."""
    if name != "all" and name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}"
        )
    results = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        checks, seconds = [], []
        for check in _SUITES[suite]:
            t0 = time.perf_counter()
            checks.append(check())
            seconds.append(time.perf_counter() - t0)
        results.append(SuiteResult(suite, checks, seconds))
    return results
