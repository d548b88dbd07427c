"""Character families over prime windows and quadratic-twist families.

The order-k family pairs primes q1 < q2 from (sqrt(Q), 2 sqrt(Q)) with
q_i = 1 mod k and forms psi_tilde = psi_{q1} * conj(psi_{q2}); the
pigeonhole filter keeps the largest class of primes whose canonical
characters share all values on small primes, so every surviving pair has
psi_tilde(p) = 1 there.  The quadratic-twist family multiplies one such
base character by Kronecker characters chi_d with controlled signature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import Iterator, Mapping, Sequence

import numpy as np
import numpy.random  # noqa: F401 -- numpy loads it lazily; load it here, not in the first call

from .character import (
    _DLOG_TABLE_CAP,
    DirichletCharacter,
    _check_table_size,
    character_from_index,
    kronecker_character,
    principal_character,
    product_character,
    psi_q,
)
from .errors import ConstraintError, ResourceError
from .lfunction import l1_afe
from .ntheory import factor, sieve_primes, smallest_primitive_root_mod_pp, squarefree_mask
from .report import REFERENCE_CONSTANTS, evaluate_character

Signature = tuple  # per-prime value exponents in Z/k, one entry per p <= y


@dataclass(frozen=True)
class OrderKFamilySpec:
    """Family of psi_tilde_m, m = q1 q2, over the prime window
    (sqrt(Q), 2 sqrt(Q)) with q_i = 1 mod k; y = log Q is the signature
    cutoff (below sqrt(Q), where the window starts, for every Q >= 16)."""

    Q: float
    k: int

    def __post_init__(self):
        if not self.Q >= 16:
            raise ValueError(f"family scale must satisfy Q >= 16, got {self.Q}")
        if not (isinstance(self.k, int) and self.k >= 2):
            raise ValueError(f"character order must be an integer >= 2, got {self.k}")

    @property
    def y(self) -> float:
        return math.log(self.Q)

    @property
    def window(self) -> tuple[float, float]:
        r = math.sqrt(self.Q)
        return (r, 2.0 * r)

    def window_primes(self) -> np.ndarray:
        lo, hi = self.window
        ps = sieve_primes(max(3, int(math.ceil(hi)))).in_range(lo, hi)
        return ps[ps % self.k == 1]


def psi_tilde(q1: int, q2: int, k: int) -> DirichletCharacter:
    """psi_{q1} * conj(psi_{q2}): primitive of order k and conductor q1*q2."""
    if q1 == q2:
        raise ValueError("pair primes must be distinct")
    chi = product_character(psi_q(q1, k), psi_q(q2, k).conjugate())
    if not (chi.order == k and chi.conductor == q1 * q2 and chi.is_primitive):
        raise AssertionError(f"psi_tilde({q1}, {q2}, {k}) is not primitive of order {k}")
    return chi


def generate_family(spec: OrderKFamilySpec) -> Iterator[tuple[int, DirichletCharacter]]:
    """All (m, psi_tilde_m), streamed in ascending (q1, q2) order."""
    ps = [int(p) for p in spec.window_primes()]
    for q1, q2 in combinations(ps, 2):
        yield q1 * q2, psi_tilde(q1, q2, spec.k)


def family_size(spec: OrderKFamilySpec) -> int:
    n = len(spec.window_primes())
    return n * (n - 1) // 2


def signature_of(
    psi: DirichletCharacter, k: int, sig_primes: Sequence[int]
) -> Signature:
    """Exponent vector of psi on the signature primes, entries in Z/k: read
    off psi's values, the oracle for `_signatures`' modular powers."""
    e, units = psi.values_at(sig_primes)
    if not units.all() or k % psi.order != 0:
        raise AssertionError(f"{psi.char_id} is not k-th root valued on {sig_primes}, k={k}")
    return tuple((e * (k // psi.order)).tolist())


@dataclass(frozen=True)
class PigeonholeResult:
    spec: OrderKFamilySpec
    y_used: float
    sig_primes: tuple
    best_signature: Signature
    bucket: tuple  # primes sharing the best signature, ascending
    pairs: list  # [(m, psi_tilde_m)] ordered by (q1, q2)
    n_window_primes: int
    n_buckets: int
    guarantee: int  # pigeonhole floor ceil(n / k^{pi(y)}) on the bucket size
    substituted: bool = False  # True when y was lowered to get a pair


def _psi_q_signature(q: int, k: int, sig_primes: Sequence[int]) -> Signature:
    """psi_q's signature on sig_primes (all below the prime q = 1 mod k),
    with no table: psi_q(p) = zeta_k^j for p^((q-1)/k) = h^j mod q, where
    h = g^((q-1)/k) for the least primitive root g, so j is read off the
    walk h^0, ..., h^(k-1)."""
    e = (q - 1) // k
    h = pow(smallest_primitive_root_mod_pp(q, 1), e, q)
    walk = [pow(h, j, q) for j in range(k)]
    return tuple(walk.index(pow(p, e, q)) for p in sig_primes)


def _signatures(spec: OrderKFamilySpec) -> tuple[list, list, list]:
    """The signature primes p <= y, the window primes, and each window
    prime's signature on all the signature primes."""
    sig_primes = sieve_primes(max(2, int(math.floor(spec.y)))).primes
    sig_primes = [int(p) for p in sig_primes if p <= spec.y]
    ps = [int(p) for p in spec.window_primes()]
    sigs = [_psi_q_signature(q, spec.k, sig_primes) for q in ps]
    return sig_primes, ps, sigs


def _pigeonhole(
    spec: OrderKFamilySpec, sig_primes: list, ps: list, sigs: list, y_used: float, substituted: bool
) -> PigeonholeResult:
    """Bucket the window primes by the prefix of their signatures on sig_primes."""
    n = len(sig_primes)
    buckets: dict = {}
    for q, sig in zip(ps, sigs):
        buckets.setdefault(sig[:n], []).append(q)
    # the largest bucket, ties to the lexicographically least signature
    best = min(buckets, key=lambda s: (-len(buckets[s]), s), default=())
    bucket = tuple(buckets.get(best, ()))
    guarantee = -(-len(ps) // spec.k**n)  # ceil division
    if len(bucket) < guarantee:
        raise AssertionError(f"bucket of {len(bucket)} below the pigeonhole floor {guarantee}")
    pairs = [
        (q1 * q2, psi_tilde(q1, q2, spec.k)) for q1, q2 in combinations(bucket, 2)
    ]
    return PigeonholeResult(
        spec=spec,
        y_used=y_used,
        sig_primes=tuple(sig_primes),
        best_signature=best,
        bucket=bucket,
        pairs=pairs,
        n_window_primes=len(ps),
        n_buckets=len(buckets),
        guarantee=guarantee,
        substituted=substituted,
    )


def pigeonhole_search(spec: OrderKFamilySpec) -> PigeonholeResult:
    """Bucket window primes by the signature of psi_q on primes <= y and
    return the largest bucket (ties: lexicographically least signature)
    with all its pairs.  Every pair satisfies psi_tilde(p) = 1 for p <= y."""
    return _pigeonhole(spec, *_signatures(spec), spec.y, substituted=False)


def pigeonhole_with_retry(spec: OrderKFamilySpec) -> PigeonholeResult:
    """pigeonhole_search, retried with the largest signature cutoff that
    yields at least one pair (trimming the largest signature prime each
    time).  Each window prime's signature is computed once; a retry buckets
    by a prefix of it.  The substitution is recorded on the result.  Raises
    ConstraintError when no cutoff yields a pair (fewer than two window
    primes)."""
    sig_primes, ps, sigs = _signatures(spec)
    res = _pigeonhole(spec, sig_primes, ps, sigs, spec.y, substituted=False)
    while not res.pairs and sig_primes:
        sig_primes = sig_primes[:-1]
        y_used = float(sig_primes[-1]) if sig_primes else 2.0
        res = _pigeonhole(spec, sig_primes, ps, sigs, y_used, substituted=True)
    if not res.pairs:
        raise ConstraintError(
            f"no prime pair: window ({spec.window[0]:.1f}, {spec.window[1]:.1f}) "
            f"has {len(ps)} primes = 1 mod {spec.k}; a pair needs >= 2"
        )
    return res


# ---------------------------------------------------------------------------
# fundamental-discriminant censuses


@dataclass(frozen=True)
class CensusRecord:
    Q: float
    m: int
    delta: int
    count: int
    main_term: float
    deviation: float  # |count - main_term| / (d(m) sqrt(Q))


def _discriminant_mask(limit: int, delta: int) -> np.ndarray:
    """Mask over n = |d| <= limit of fundamental d = delta*n with d = 1 mod 4
    (i.e. n squarefree with n = delta mod 4), d = 1 itself excluded."""
    n = np.arange(limit + 1)
    mask = squarefree_mask(limit) & (n % 4 == (1 if delta == 1 else 3))
    if delta == 1 and limit >= 1:
        mask[1] = False
    return mask


def count_fundamental_discriminants(Q: float, m: int, delta: int) -> CensusRecord:
    """Exact census of fundamental d = 1 mod 4 with 0 < delta*d <= Q and
    gcd(d, m) = 1, against the main term (3/pi^2) Q prod_{p|2m}(1+1/p)^{-1}."""
    if not Q >= 100:
        raise ValueError(f"census needs Q >= 100, got {Q}")
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    limit = int(math.floor(Q))
    mask = _discriminant_mask(limit, delta)
    fm = factor(m)
    m_primes = [p for p, _ in fm.factors]
    for p in m_primes:
        if p > 2:  # d is odd, so powers of 2 in m never obstruct
            mask[::p] = False
    count = int(np.count_nonzero(mask))
    main = 3.0 / math.pi**2 * Q
    for p in sorted(set([2] + m_primes)):
        main /= 1.0 + 1.0 / p
    deviation = abs(count - main) / (fm.divisor_count() * math.sqrt(Q))
    return CensusRecord(Q, m, delta, count, main, deviation)


@dataclass(frozen=True)
class SignatureDiscriminants:
    d_values: np.ndarray  # signed, ascending |d|
    reference_count: float  # Q / (2^{pi(y)} log y)
    y: float
    sig_primes: tuple


def _kronecker_column(d_values: np.ndarray, p: int) -> np.ndarray:
    """chi_d(p) = kronecker(d, p) for an array of d, vectorized per prime."""
    if p == 2:
        r = np.mod(d_values, 8)
        out = np.zeros(len(d_values), dtype=np.int64)
        out[(r == 1) | (r == 7)] = 1
        out[(r == 3) | (r == 5)] = -1
        out[np.mod(d_values, 2) == 0] = 0
        return out
    table = -np.ones(p, dtype=np.int64)
    table[np.mod(np.arange(p) ** 2, p)] = 1
    table[0] = 0
    return table[np.mod(d_values, p)]


def signature_discriminants(
    Q: float, delta: int, y: float, eps: Mapping[int, int]
) -> SignatureDiscriminants:
    """Fundamental d = 1 mod 4, 0 < delta*d <= Q, gcd(d, P(y)) = 1, with
    chi_d(p) = eps[p] for every signature prime p <= y present in eps.

    Primes p <= y missing from eps contribute only the coprimality
    condition.  The count is reported against Q / (2^{pi(y)} log y).
    """
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    if not y >= 2:
        raise ValueError(f"signature cutoff needs y >= 2, got {y}")
    if y > math.log(Q) * (1.0 + 1e-12):
        warnings.warn(
            f"signature cutoff y={y:.3g} exceeds the log of the discriminant bound, "
            f"log {Q:.3g} = {math.log(Q):.3g}; the family may be empty",
            stacklevel=2,
        )
    limit = int(math.floor(Q))
    mask = _discriminant_mask(limit, delta)
    sig_primes = [int(p) for p in sieve_primes(max(2, int(y))).primes if p <= y]
    d = delta * np.arange(limit + 1)
    for p in sig_primes:
        mask[::p] = False
        if p in eps:
            target = int(eps[p])
            if target not in (1, -1):
                raise ValueError(f"eps[{p}] must be +1 or -1, got {eps[p]}")
            mask &= _kronecker_column(d, p) == target
    ds = d[mask]
    reference = Q / (2 ** len(sig_primes) * math.log(y))
    return SignatureDiscriminants(ds, reference, y, tuple(sig_primes))


# ---------------------------------------------------------------------------
# quadratic-twist family


@dataclass(frozen=True)
class QuadTwistSpec:
    """Twists chi = psi * chi_d of a pigeonholed order-k base character psi
    (conductor q1 q2 from the window (Q^{1/3}, 2 Q^{1/3})) by fundamental
    d = 1 mod 4 with 0 < eps*delta*d <= Q^{1/3} and chi_d(p) = xi(p) for
    p <= y = log Q / 3, p coprime to the conductor of xi.  The parity delta
    fixes xi: principal (mod 1) for delta = -1, (./3) for delta = +1."""

    Q: float
    k: int
    delta: int

    def __post_init__(self):
        if not self.Q >= 16**3:
            raise ValueError(f"twist family needs Q >= {16 ** 3}, got {self.Q}")
        if not (isinstance(self.k, int) and self.k >= 2):
            raise ValueError(f"character order must be an integer >= 2, got {self.k}")
        if self.k % 2 != 0:
            raise ConstraintError(
                "quadratic twists preserve order k only for even k; "
                f"got k={self.k}"
            )
        if self.delta not in (1, -1):
            raise ValueError("delta must be +1 or -1")

    @cached_property  # built once: twisted_family and the search each read it
    def xi(self) -> DirichletCharacter:
        return principal_character(1) if self.delta == -1 else kronecker_character(-3)

    @property
    def y(self) -> float:
        return math.log(self.Q) / 3.0

    @property
    def D(self) -> float:
        return self.Q ** (1.0 / 3.0)


@dataclass(frozen=True)
class TwistedMember:
    d: int
    chi: DirichletCharacter


@dataclass(frozen=True)
class TwistedFamily:
    spec: QuadTwistSpec
    psi: DirichletCharacter
    q1: int
    q2: int
    base_y_used: float
    base_substituted: bool
    members: list


def twisted_family(spec: QuadTwistSpec) -> TwistedFamily:
    """Build the twist family; every member is primitive of order k,
    conductor |d| q1 q2, and parity delta."""
    base_scale = spec.Q ** (2.0 / 3.0)
    base_spec = OrderKFamilySpec(base_scale, spec.k)  # y = log Q^{2/3}
    res = pigeonhole_with_retry(base_spec)
    _, psi = res.pairs[0]
    q1, q2 = res.bucket[0], res.bucket[1]
    epsilon = psi.parity()
    ell = spec.xi.modulus
    ps = sieve_primes(max(2, int(spec.y))).primes
    ps = ps[(ps <= spec.y) & (ell % ps != 0)]
    e, _ = spec.xi.values_at(ps)  # xi is real: xi(p) = (-1)^e away from ell
    eps_map = dict(zip(ps.tolist(), (1 - 2 * e).tolist()))
    sig = signature_discriminants(spec.D, epsilon * spec.delta, spec.y, eps_map)
    members = []
    for d in sig.d_values:
        d = int(d)
        if math.gcd(d, ell * q1 * q2) != 1:
            continue
        chi = product_character(psi, kronecker_character(d))
        cond = abs(d) * q1 * q2
        if not (chi.order == spec.k and chi.is_primitive):
            raise AssertionError(f"twist by d={d} is not primitive of order {spec.k}")
        if not (chi.conductor == cond and chi.parity() == spec.delta):
            raise AssertionError(f"twist by d={d} has the wrong conductor or parity")
        members.append(TwistedMember(d, chi))
    return TwistedFamily(spec, psi, q1, q2, res.y_used, res.substituted, members)


# ---------------------------------------------------------------------------
# extremal pipeline and random baselines


@dataclass(frozen=True)
class PipelineResult:
    mode: str
    Q: float
    k: int
    y_used: float
    substituted: bool
    family_size: int
    records: list  # ranked EvalRecord list
    references: dict

    @property
    def top(self):
        return self.records[0] if self.records else None


def extremal_pipeline(Q: float, k: int, mode: str, jobs: int = 1) -> PipelineResult:
    """Run one search: orderk ranks pigeonholed psi_tilde by |L(1, .)|;
    odd_sum / even_sum rank twisted characters by M(chi).  Each mode fixes
    its family: orderk at y = log Q, odd_sum at (delta, xi) = (-1, principal),
    even_sum at (+1, (./3)), both at y = log Q / 3; every member's L1_euler
    is truncated at z = (log Q)^2."""
    if mode not in ("orderk", "odd_sum", "even_sum"):
        raise ValueError(f"unknown search mode {mode!r}")
    if not Q >= 1e4:
        raise ValueError(f"search needs Q >= 1e4, got {Q}")
    # every member's conductor exceeds a floor: q1 q2 > Q for orderk, and
    # |d| q1 q2 > 3 Q^{2/3} for the twists (|d| >= 3, q_i > Q^{1/3})
    min_conductor = Q if mode == "orderk" else 3.0 * Q ** (2.0 / 3.0)
    if min_conductor >= _DLOG_TABLE_CAP:
        raise ResourceError(
            f"--Q {Q:g} is out of scale for {mode}: every member's conductor would "
            f"exceed {min_conductor:.4g} >= 2**{_DLOG_TABLE_CAP.bit_length() - 1}, "
            "the value-table cap"
        )
    z = math.log(Q) ** 2  # truncation (log Q)^A at A = 2
    xi = None
    if mode == "orderk":
        spec = OrderKFamilySpec(Q, k)
        res = pigeonhole_with_retry(spec)
        chars = [chi for _, chi in res.pairs]
        y_used, substituted = res.y_used, res.substituted
    else:
        tspec = QuadTwistSpec(Q, k, -1 if mode == "odd_sum" else 1)
        xi = tspec.xi
        fam = twisted_family(tspec)
        if not fam.members:
            raise ConstraintError(
                f"empty family: {mode} at Q={Q:g} has no fundamental d with |d| <= "
                f"Q^(1/3) = {tspec.D:.4g} and the required signature up to y = {tspec.y:.4g}"
            )
        chars = [mem.chi for mem in fam.members]
        y_used, substituted = fam.base_y_used, fam.base_substituted
    # refuse before evaluating any member
    _check_table_size(max((chi.modulus for chi in chars), default=1))
    records = _evaluate_many(chars, z, xi, jobs)
    if mode == "orderk":
        records.sort(key=lambda r: (-abs(r.L1.value), r.char_id))
    else:
        records.sort(key=lambda r: (-r.M, r.char_id))
    refs = dict(REFERENCE_CONSTANTS)
    refs["e_gamma_loglog_Q"] = refs["e_gamma"] * math.log(math.log(Q))
    return PipelineResult(
        mode=mode,
        Q=Q,
        k=k,
        y_used=y_used,
        substituted=substituted,
        family_size=len(records),
        records=records,
        references=refs,
    )


def _evaluate_many(chars, z, xi, jobs):
    evaluate = partial(evaluate_character, z=z, xi=xi)
    if jobs > 1 and len(chars) > 1:
        import multiprocessing as mp

        with mp.Pool(min(jobs, len(chars))) as pool:
            return pool.map(evaluate, chars)
    return [evaluate(chi) for chi in chars]


_BASELINE_MODULI = 25  # prime moduli random_l1_baseline draws its characters from


def random_l1_baseline(Q: float, count: int = 500, seed: int = 20260815) -> np.ndarray:
    """|L(1, chi)| for `count` random non-principal characters of prime
    modulus in (Q, 4Q) (conductors comparable to the family's q1*q2 in
    (Q, 4Q)): 25 moduli drawn first, then one index t in [1, q-1) per
    character, cycling through the moduli.  Deterministic for a fixed seed.
    The values come from the smoothed approximate functional equation
    (`lfunction.l1_afe`), in O(sqrt q) per character."""
    rng = np.random.default_rng(seed)
    ps = sieve_primes(int(4 * Q) + 1).in_range(Q, 4 * Q)
    if len(ps) == 0:
        raise ConstraintError(f"no usable prime moduli in ({Q}, {4 * Q})")
    moduli = rng.choice(ps, size=min(_BASELINE_MODULI, len(ps)), replace=False)
    chars = []
    for i in range(count):
        q = int(moduli[i % len(moduli)])
        chars.append(character_from_index(q, int(rng.integers(1, q - 1))))
    return np.array([lv.abs for lv in l1_afe(chars)])
