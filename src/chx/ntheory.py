"""Integer kernel: sieving, factorization, primitive roots, Kronecker symbol.

`sieve_primes` is the one prime source: every other module takes its primes
from it.  One segmented Eratosthenes loop serves every limit, and it sieves
its own base primes.

Everything here is exact integer arithmetic.  Python integers are unbounded,
so modular products never overflow; the numpy paths below stay within int64
by construction (moduli are capped at 2**32).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SEGMENT = 1 << 22
_SIEVE_LIMIT_MAX = 1 << 32
# mixing constant of the rho rng's seed: the library's only fixed randomness
RHO_SEED_CONSTANT = 0x9E3779B97F4A7C15


def _sieve(limit: int) -> np.ndarray:
    """Primes <= limit by Eratosthenes over _SEGMENT-byte segments from 0.
    The base primes up to sqrt(limit) come from the same loop (at most 5
    levels deep at 2**32)."""
    base = _sieve(math.isqrt(limit)).tolist() if limit >= 4 else []
    chunks = []
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, limit)
        seg = bytearray([1]) * (hi - lo + 1)
        if lo == 0:
            seg[0:2] = b"\x00\x00"
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, -(-lo // p) * p)
            seg[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
        # astype copies: keeping flatnonzero's own array raised peak RSS
        chunk = np.flatnonzero(np.frombuffer(seg, dtype=np.uint8)).astype(np.int64)
        chunk += lo
        chunks.append(chunk)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


@dataclass
class PrimeTable:
    """Sorted primes up to ``limit`` as an int64 array."""

    limit: int
    primes: np.ndarray

    def count(self) -> int:
        return int(self.primes.size)

    def in_range(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p < hi (both ends strict)."""
        # searchsorted compares float bounds as floats, and its sides
        # exclude a prime equal to either bound
        i = int(np.searchsorted(self.primes, lo, side="right"))
        j = int(np.searchsorted(self.primes, hi, side="left"))
        return self.primes[i : max(i, j)]


def sieve_primes(limit: int) -> PrimeTable:
    """All primes up to ``limit`` (2 <= limit <= 2**32): the package's one
    prime source."""
    if not isinstance(limit, int):
        raise ValueError(f"sieve limit must be an integer, got {limit!r}")
    if limit < 2 or limit > _SIEVE_LIMIT_MAX:
        raise ValueError(f"sieve limit {limit} outside [2, 2**32]")
    return PrimeTable(limit=limit, primes=_sieve(limit))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p**a with p ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def big_omega(self) -> int:
        return sum(a for _, a in self.factors)

    def mobius(self) -> int:
        if any(a > 1 for _, a in self.factors):
            return 0
        return -1 if len(self.factors) % 2 else 1

    def euler_phi(self) -> int:
        out = 1
        for p, a in self.factors:
            out *= p ** (a - 1) * (p - 1)
        return out

    def divisor_count(self) -> int:
        out = 1
        for _, a in self.factors:
            out *= a + 1
        return out

    def is_squarefree(self) -> bool:
        return all(a == 1 for _, a in self.factors)

    def divisors(self) -> list[int]:
        """All divisors of n, ascending."""
        divs = [1]
        for p, a in self.factors:
            divs = [d * p**e for d in divs for e in range(a + 1)]
        return sorted(divs)


# the trial-division primes, all below 2**10: once they are divided out,
# every prime left is >= 1031, and 1031**2 > 2**20
_TRIAL_PRIMES = tuple(_sieve(1 << 10).tolist())


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite n (no prime factor below 2**10)."""
    rng = random.Random(n * RHO_SEED_CONSTANT & (2**64 - 1))
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor(n: int) -> Factorization:
    """Factor 1 <= n < 2**63 by trial division, Miller-Rabin, and Brent rho."""
    if not isinstance(n, int):
        raise ValueError(f"factor expects an integer, got {n!r}")
    if n < 1 or n >= 2**63:
        raise ValueError(f"factor argument {n} outside [1, 2**63)")
    return _factor(n)


# character_matrices and principal_character factor each scan modulus again
@lru_cache(maxsize=4096, typed=True)
def _factor(n: int) -> Factorization:
    out: dict[int, int] = {}
    rem = n
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            out[p] = out.get(p, 0) + 1
            rem //= p
    # rem is prime if the loop stopped early; otherwise no part on the stack
    # has a prime factor below 2**10, so a part below 2**20 is prime
    stack = [rem] if rem > 1 else []
    while stack:
        m = stack.pop()
        if m < 1 << 20 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            stack += (d, m // d)
    return Factorization(n=n, factors=tuple(sorted(out.items())))


def smallest_primitive_root(q: int) -> int:
    """Least primitive root modulo an odd prime q."""
    return smallest_primitive_root_mod_pp(q, 1)


@lru_cache(maxsize=None)
def smallest_primitive_root_mod_pp(p: int, a: int) -> int:
    """Least generator of the (cyclic) unit group mod p**a, p an odd prime."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    pa = p**a
    m = pa // p * (p - 1)
    prime_divs = [r for r, _ in factor(m).factors]
    for g in range(2, pa):
        if g % p == 0:
            continue
        if all(pow(g, m // r, pa) != 1 for r in prime_divs):
            return g
    raise AssertionError(f"no generator found mod {p}**{a}")  # unreachable


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n), extended to all integers n.

    (d|0) is 1 for d = +-1 and 0 otherwise; (d|-1) is -1 exactly when d < 0.
    """
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    # factor of 2 in n: supplement (d|2) depends on d mod 8
    twos = (n & -n).bit_length() - 1
    n >>= twos
    if twos % 2 == 1 and d % 8 in (3, 5):
        result = -result
    # Jacobi symbol (d|n) for odd n > 0 by reciprocity
    d %= n
    while d != 0:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(d: int) -> bool:
    """d = 1 mod 4 squarefree, or d = 4m with m squarefree, m = 2,3 mod 4."""
    if d == 0:
        raise ValueError("0 is not a discriminant")
    if d % 4 == 1:
        return factor(abs(d)).is_squarefree()
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and factor(abs(m)).is_squarefree()
    return False


def is_kth_power(n: int, k: int) -> bool:
    """Whether every exponent in the factorization of n is divisible by k."""
    if n < 1:
        raise ValueError(f"is_kth_power expects n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"is_kth_power expects k >= 1, got {k}")
    if k == 1 or n == 1:
        return True
    return all(a % k == 0 for _, a in factor(n).factors)


def squarefree_mask(limit: int) -> np.ndarray:
    """Boolean array s of length limit+1 with s[n] true iff n is squarefree.

    s[0] is false.  Used for bulk discriminant scans.
    """
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    if limit >= 4:
        for p in sieve_primes(math.isqrt(limit)).primes.tolist():
            mask[p * p :: p * p] = False
    return mask
