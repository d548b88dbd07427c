"""Dirichlet characters as exact objects.

A character mod q is stored componentwise over the prime powers p^a || q.
`_factors(p, a)` writes the unit group mod p^a once, as cyclic factors
(g_j, m_j): <g> of order phi(p^a) for odd p (g the least generator), <1>
mod 2, <3> mod 4, and <-1> x <5> mod 2^a, a >= 3.  A component is one label
t whose mixed-radix digits d_j over the m_j give chi(g_j) = zeta_{m_j}^{d_j}
(t0 * 2^(a-2) + t1 on 2^a).  Order, parity, products and powers are digit
rules over the factors, on one label or on an array of labels; only the
conductor has a closed form per p.

Values are roots of unity carried as exact (order, exponent) pairs; nothing
is embedded into floating point until a caller asks for a complex value or a
bulk value table.  Each component reads points by one `logs(n)`, for an int
array n: a digit log per cyclic factor, additive mod m_j, read by
`values_at` (so `eval` and `complex_at`) and `values_up_to`.  It builds no
table, but takes each point's logs by baby-step/giant-step (`_dlog_bsgs`),
to g for odd p, and on 2^a, a >= 3, writes n = (-1)^d0 5^d1 with d0 read off
n mod 4 and d1 the log of +-n to 5.  The parity is read from the labels.

Value tables have one builder, `_table_rows`, which writes any column range
[lo, hi) of them: each component's rows come from its roots of unity,
read at exponents written straight onto the units of its `_unit_grid`
(`_component_rows`, p^a entries; the unit at grid index (i_0, i_1, ...) has
digit logs i_j, so no inverse table is built; a real character's are
float64 rows of exact 0/+-1, and its table takes their dtype); the first
component is written in and the others multiply in, in component order,
through slices and period views that start at phase lo mod p^a, so an
entry has the same bits whichever range it is built in.
`DirichletCharacter.value_table` (one row, all columns), `_column_blocks`
(one row from its component rows, in column blocks of _BLOCK_ELEMENTS up
to a stop column, through one reused buffer: O(block + sum p^a) bytes, the
way search members are evaluated) and `CharacterMatrix.blocks` (row blocks
of all characters mod q) all call it.
`CharacterMatrix.sums(f)` gives sum_n chi(n) f[n] for every chi mod q with
no table at all: one DFT of f read on the grid of digit logs (`_unit_grid`),
taken as one ifft pass per axis of the grid, last axis first, as
`np.fft.ifftn` takes it.
A matrix reads each component's label facts and unit grid from a plan
(`_plan(p, a)`), for its `blocks` and its `sums` alike;
`character_matrices(moduli)` yields the matrices of a scan from one dict of
plans, so each p^a is planned once per scan, and drops each plan after the
last modulus it divides (there is no module cache).

`values_up_to(chars, N, spf)` gives chi(n) for n <= N only, for characters of
one modulus below 2**31, with no table of length q, as blocks of rows: each
component's `logs` of the primes up to N (read off a least-prime-factor
array, `_least_prime_factors`, which a caller may share across moduli), in
one `_dlog_bsgs` pass whose baby-step table is sized for the number of
points, extended by complete multiplicativity; a block's exponents are one
int64 array, and its values the products of a coarse and a fine table of
about sqrt(lam) roots each (`_root_tables`, lam the group exponent), so a
row's bits depend on q alone, not on the characters beside it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np
import numpy.fft  # noqa: F401 -- numpy loads it lazily; load it here, not in the first call

from .errors import ConstraintError, ResourceError
from .ntheory import (
    factor,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    sieve_primes,
    smallest_primitive_root_mod_pp,
)

_DLOG_TABLE_CAP = 1 << 26  # value tables and their component rows up to here; points have no cap
_NUMPY_MODULUS_CAP = 1 << 31  # int64 products stay exact below this
# baby-step table entries (64 MB with their indices); a pass of `_dlog_bsgs`
# holds at most a quarter as many giant-step keys, 32 B each at once (32 MB)
_BABY_STEP_CAP = 1 << 22
_BLOCK_ELEMENTS = 1 << 14  # entries per value block (256 KB): 16 MB blocks measured slower


@dataclass(frozen=True)
class RootOfUnity:
    """Exact zeta_order^exponent, or the absorbing zero.

    Instances are kept in lowest terms (gcd(exponent, order) = 1, or the
    pair (1, 0) for the value 1), so structural equality is value equality.
    """

    order: int
    exponent: int
    is_zero: bool = False

    def __post_init__(self):
        if self.is_zero:
            object.__setattr__(self, "order", 1)
            object.__setattr__(self, "exponent", 0)
            return
        if self.order < 1:
            raise ValueError(f"root of unity needs order >= 1, got {self.order}")
        e = self.exponent % self.order
        g = math.gcd(e, self.order)
        if g > 1 or e == 0:
            object.__setattr__(self, "order", self.order // g if e else 1)
            object.__setattr__(self, "exponent", e // g if e else 0)
        else:
            object.__setattr__(self, "exponent", e)

    @classmethod
    def zero(cls) -> "RootOfUnity":
        return cls(1, 0, True)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(1, 0)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if self.is_zero or other.is_zero:
            return RootOfUnity.zero()
        n = math.lcm(self.order, other.order)
        e = self.exponent * (n // self.order) + other.exponent * (n // other.order)
        return RootOfUnity(n, e)

    def __pow__(self, k: int) -> "RootOfUnity":
        if self.is_zero:
            if k <= 0:
                raise ZeroDivisionError("0 ** nonpositive power")
            return self
        return RootOfUnity(self.order, self.exponent * k)

    def conjugate(self) -> "RootOfUnity":
        if self.is_zero:
            return self
        return RootOfUnity(self.order, -self.exponent)

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        if self.order == 1:
            return 1 + 0j
        if self.order == 2:
            return -1 + 0j
        if self.order == 4:
            return 1j if self.exponent == 1 else -1j
        # the angle in (-pi, pi], as `_root_tables` takes it: rounded at most at pi, not 2 pi
        e = self.exponent - self.order if 2 * self.exponent > self.order else self.exponent
        return cmath.exp(2j * cmath.pi * e / self.order)

    def as_int(self) -> int:
        """The value as an integer, defined only for 0 and ±1."""
        if self.is_zero:
            return 0
        if self.order == 1:
            return 1
        if self.order == 2:
            return -1
        raise ConstraintError(f"zeta_{self.order}^{self.exponent} is not 0 or ±1")


# ---------------------------------------------------------------------------
# the unit group mod p^a as cyclic factors


@lru_cache(maxsize=None)
def _factors(p: int, a: int) -> tuple[tuple[int, int], ...]:
    """(Z/p^a)^x as a product of cyclic factors (generator g_j, order m_j).

    The trivial group mod 2 is one factor of order 1, so every component
    has at least one digit."""
    if p != 2:
        return ((smallest_primitive_root_mod_pp(p, a), p ** (a - 1) * (p - 1)),)
    if a == 1:
        return ((1, 1),)
    if a == 2:
        return ((3, 2),)
    return ((2**a - 1, 2), (5, 2 ** (a - 2)))


def _digits(factors, t) -> list:
    """The mixed-radix digits d_j of label(s) t over the orders m_j (the last
    digit least significant); t is an int or an int array."""
    out = []
    for _, m in factors[:0:-1]:
        t, d = divmod(t, m)
        out.append(d)
    return [t, *out[::-1]]


def _label(factors, digits) -> int:
    """The label of the digits d_j, each reduced mod m_j."""
    t = 0
    for (_, m), d in zip(factors, digits):
        t = t * m + d % m
    return t


def _gcd(x, m):
    """gcd of a label's int (of any size) or of a label array, with m."""
    return math.gcd(x, m) if isinstance(x, int) else np.gcd(x, m)


def _facts(p: int, a: int, t) -> tuple:
    """(order, conductor, first digit) of the character(s) with label(s) t
    mod p^a, for an int or an int array t.

    The order is lcm_j m_j / gcd(d_j, m_j).  The conductor is 1 for the
    principal character, else the least p^c with the character trivial on
    the units 1 mod p^c."""
    factors = _factors(p, a)
    digits = _digits(factors, t)
    orders = [m // _gcd(d, m) for (_, m), d in zip(factors, digits)]
    order = orders[0]
    for o in orders[1:]:
        order = order * o // _gcd(o, order)
    if p == 2:  # 1 + 2^c Z = <5^(2^(c-2))> for c >= 2
        f = 4 * math.prod(orders[1:])
    else:  # 1 + p^c Z = <g^(p^(c-1) (p-1))> for c >= 1
        f = p * _gcd(order, p ** (a - 1))
    return order, f ** (order > 1), digits[0]


def _exponents(factors, digits, logs):
    """e with chi(n) = zeta_phi^e, phi = prod m_j, from the digit logs
    log_j[n] of the points: e = sum_j d_j (phi / m_j) log_j[n] mod phi."""
    phi = math.prod(m for _, m in factors)
    e = None
    for (_, m), d, log in zip(factors, digits, logs):
        term = d * (phi // m) * log
        e = term if e is None else e + term
    return e % phi


def _check_table_size(size: int) -> None:
    if size > _DLOG_TABLE_CAP:
        raise ResourceError(f"value table of size {size} exceeds cap 2**26")


def _power_table(g: int, m: int, pa: int) -> np.ndarray:
    """powers[j] = g^j mod p^a for j < m: int64 below 2**31, whose products
    stay exact, Python ints above.  Each pass doubles the filled prefix in
    place: powers[n + j] = powers[j] * g^n."""
    out = np.empty(m, dtype=np.int64 if pa < _NUMPY_MODULUS_CAP else object)
    out[0] = 1
    n = 1
    while n < m:
        k = min(n, m - n)
        step = out[n : n + k]
        np.multiply(out[:k], pow(g, n, pa), out=step)
        np.remainder(step, pa, out=step)
        n += k
    return out


def _unit_grid(p: int, a: int) -> np.ndarray:
    """units[d_0, d_1, ...] = prod_j g_j^d_j mod p^a, one axis per cyclic
    factor (g_j, m_j) of `_factors(p, a)`."""
    pa = p**a
    factors = _factors(p, a)
    units = _power_table(*factors[0], pa)
    for g, m in factors[1:]:
        units = units[..., None] * _power_table(g, m, pa) % pa
    return units


def _baby_steps(g: int, s: int, pa: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, j): g^j mod p^a for j < s in sorted order, and each one's j.
    The values are distinct, as s is at most the order of g, so any sort
    gives the same permutation and the default (unstable) one is enough.
    They are int64 even past 2**31, as they are below p^a < 2**63 (the range
    `factor` accepts): only their products need Python ints."""
    powers = _power_table(g, s, pa).astype(np.int64, copy=False)
    j = np.argsort(powers)
    return powers[j], j


def _merge_ranks(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(values, keys) for sorted `values` and sorted `keys`:
    each key's position in one stable argsort of the runs [keys, values],
    which timsort merges in a linear pass, less the keys before it (a key
    sorts before the values equal to it, as the left side asks)."""
    order = np.argsort(np.concatenate([keys, values]), kind="stable")
    return np.flatnonzero(order < len(keys)) - np.arange(len(keys))


def _dlog_bsgs(ns, g: int, m: int, pa: int) -> np.ndarray:
    """x < m with g^x = n mod p^a for each unit n of the int array `ns`, g of
    order m, by baby-step/giant-step over one shared baby-step table.

    The table holds s ~ sqrt(m * len(ns)) steps, so the ceil(m/s) giant steps
    of every point form a grid of about s entries too: O(sqrt(m * points))
    work in all, in a few numpy calls per pass.  A pass takes at most
    _BABY_STEP_CAP / 4 keys (32 MB), as four int64 arrays of them are live
    at once: the grid, its sort order, the sorted keys and their positions.
    The keys are sorted, and their positions in the table are read by
    merging the two sorted runs (`_merge_ranks`) rather than by one search
    per key, and are scattered back to the grid, so the first hit of each
    point is read as if the keys had been searched unsorted."""
    ns = np.asarray(ns) % pa
    s = min(m, math.isqrt(m * max(1, len(ns))) + 1, _BABY_STEP_CAP)
    values, js = _baby_steps(g, s, pa)
    giants = _power_table(pow(g, -s, pa), -(-m // s), pa)  # g^(-s i): x = i s + j covers x < m
    out = np.empty(len(ns), dtype=np.int64)
    chunk = max(1, _BABY_STEP_CAP // 4 // len(giants))  # points per pass
    for lo in range(0, len(ns), chunk):
        grid = (ns[lo : lo + chunk, None] * giants % pa).astype(np.int64, copy=False)
        order = np.argsort(grid, axis=None)
        keys = grid.ravel()[order]
        found = _merge_ranks(values, keys)
        pos = keys.reshape(grid.shape)  # the sorted keys' buffer, reused for the positions
        keys[order] = found
        del order, keys, found
        np.minimum(pos, s - 1, out=pos)
        hit = values[pos] == grid
        i = hit.argmax(axis=1)  # the first hit is the x below m
        rows = np.arange(len(grid))
        if not hit[rows, i].all():
            bad = ns[lo + int(np.argmin(hit[rows, i]))]
            raise ArithmeticError(f"no discrete log of {bad} mod {pa}")
        out[lo : lo + len(grid)] = i * s + js[pos[rows, i]]
    return out


# ---------------------------------------------------------------------------
# components


@dataclass(frozen=True)
class _Component:
    """Character on the unit group mod p^a with chi(g_j) = zeta_{m_j}^{d_j}
    on the cyclic factors (g_j, m_j) of `_factors(p, a)`; d_j are the
    mixed-radix digits of the label t."""

    p: int
    a: int
    t: int

    @property
    def pa(self) -> int:
        return self.p**self.a

    @property
    def factors(self) -> tuple:
        return _factors(self.p, self.a)

    @property
    def group_order(self) -> int:
        return self.pa // self.p * (self.p - 1)

    @property
    def digits(self) -> list:
        return _digits(self.factors, self.t)

    def conductor(self) -> int:
        return _facts(self.p, self.a, self.t)[1]

    def logs(self, n: np.ndarray) -> list:
        """The digit logs of an int array n >= 0, one array per cyclic factor
        (g_j, m_j), each additive mod m_j (meaningless at non-units), by
        baby-step/giant-step with no table, of any p^a: to the generator of
        a cyclic group, and on 2^a, a >= 3, n = (-1)^d0 5^d1 with d0 read off
        n mod 4 and d1 the log of +-n to 5, in the subgroup 1 mod 4."""
        n = n % self.pa
        units = n % self.p != 0
        u = n[units]
        logs = [np.zeros_like(n) for _ in self.factors]
        if len(self.factors) > 1:
            logs[0][units] = u % 4 // 2
            u = np.where(u % 4 == 3, self.pa - u, u)
        logs[-1][units] = _dlog_bsgs(u, *self.factors[-1], self.pa).astype(n.dtype, copy=False)
        return logs

    def roots(self) -> np.ndarray:
        """zeta_phi^j for j < phi = phi(p^a), shared by every label."""
        m = self.group_order
        return np.exp(2j * np.pi * np.arange(m) / m)

    def with_digits(self, digits) -> "_Component":
        return _Component(self.p, self.a, _label(self.factors, digits))

    def scaled(self, e: int) -> "_Component":
        return self.with_digits([d * e for d in self.digits])


# ---------------------------------------------------------------------------
# the character class


class DirichletCharacter:
    """Exact Dirichlet character; construct via the module-level helpers."""

    __slots__ = ("modulus", "components", "_order", "_conductor")

    def __init__(self, modulus: int, components: tuple):
        self.modulus = modulus
        self.components = components
        self._order = None
        self._conductor = None

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        if self._order is None:
            self._read_facts()
        return self._order

    @property
    def conductor(self) -> int:
        if self._conductor is None:
            self._read_facts()
        return self._conductor

    def _read_facts(self) -> None:
        """The order and the conductor, from one `_facts` read per component."""
        facts = [_facts(c.p, c.a, c.t) for c in self.components]
        self._order = math.lcm(1, *(f[0] for f in facts))
        self._conductor = math.prod(f[1] for f in facts)

    @property
    def is_principal(self) -> bool:
        return self.order == 1

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def parity(self) -> int:
        """chi(-1) from the labels: -1 is g_0^(m_0/2) on each component, so
        (-1)^d_0 there, d_0 the first digit."""
        odd = sum(c.digits[0] for c in self.components) % 2
        return -1 if odd else 1

    @property
    def char_id(self) -> str:
        comps = ",".join(
            (f"{c.p}:{c.t}" if c.a == 1 else f"{c.p}^{c.a}:{c.t}")
            for c in self.components
        )
        return f"q={self.modulus};comps={comps}"

    def __repr__(self):
        return f"DirichletCharacter({self.char_id!r})"

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.modulus, self.components))

    # -- evaluation --------------------------------------------------------

    def values_at(self, n) -> tuple[np.ndarray, np.ndarray]:
        """(e, units) for an int array n: chi(n) = zeta_order^e exactly where
        `units`, and chi(n) = 0 (with e = 0) elsewhere."""
        q = self.modulus
        # int64 products stay exact below the cap; above it, Python ints
        n = np.asarray(n, dtype=np.int64 if q < _NUMPY_MODULUS_CAP else object) % q
        lam = math.lcm(1, *(c.group_order for c in self.components))
        e = np.zeros_like(n)
        for c in self.components:
            e += _exponents(c.factors, c.digits, c.logs(n)) * (lam // c.group_order)
        units = np.gcd(n, q) == 1
        # on units chi(n) is an order-th root of unity, so lam/order divides e
        return np.where(units, e % lam // (lam // self.order), 0), units

    def complex_at(self, n) -> np.ndarray:
        """chi(n) as complex128, each value bit-identical to its to_complex()."""
        e, units = self.values_at(n)
        distinct, where = np.unique(e, return_inverse=True)
        roots = [RootOfUnity(self.order, int(x)).to_complex() for x in distinct]
        out = np.array(roots, dtype=np.complex128)[where]
        out[~units] = 0
        return out

    def eval(self, n: int) -> RootOfUnity:
        n %= self.modulus  # in Python: n may be negative or past int64
        e, units = self.values_at([n])
        return RootOfUnity(self.order, int(e[0])) if units[0] else RootOfUnity.zero()

    __call__ = eval

    def value_table(self) -> np.ndarray:
        """chi(n) for n = 0..q-1 as complex128 (0 on non-units)."""
        return _table_rows(self._rows(), self.modulus)[0]

    def _rows(self, real: bool = False) -> list:
        """Each component's values mod p^a, as `_table_rows` takes them:
        complex128, or for `real` (chi of order <= 2, whose components are
        all real) float64 rows of exact 0 and +-1.  A modulus past the table
        cap is refused first."""
        _check_table_size(self.modulus)
        return [_component_rows(c, np.array([c.t]), None if real else c.roots(), _unit_grid(c.p, c.a))
                for c in self.components]

    # -- algebra -----------------------------------------------------------

    def conjugate(self) -> "DirichletCharacter":
        return self ** (-1)

    def __pow__(self, e: int) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(c.scaled(e) for c in self.components))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        return product_character(self, other)

    # -- conductor machinery -------------------------------------------------

    def primitive_character(self) -> "DirichletCharacter":
        """The primitive character that induces this one."""
        comps = []
        for c in self.components:
            f = c.conductor()
            if f == 1:
                continue
            a0 = next(b for b in range(1, c.a + 1) if c.p**b == f)
            # c(g_j) = zeta_m^x at the generators g_j mod f is the digit x m_j / m there
            factors = _factors(c.p, a0)
            gens = np.array([g for g, _ in factors], dtype=object)
            m, digits = c.group_order, []
            for x, (_, mj) in zip(_exponents(c.factors, c.digits, c.logs(gens)).tolist(), factors):
                if x * mj % m:
                    raise AssertionError(f"zeta_{m}^{x} is not an {mj}-th root of unity")
                digits.append(x * mj // m)
            comps.append(_Component(c.p, a0, _label(factors, digits)))
        return DirichletCharacter(self.conductor, tuple(comps))


# ---------------------------------------------------------------------------
# value tables


def _component_rows(c, labels: np.ndarray, roots: np.ndarray | None, grid: np.ndarray) -> np.ndarray:
    """The values mod p^a of the component characters with index `labels`,
    one row each, from the roots of unity `roots` = c.roots() and the units
    `grid` = _unit_grid(c.p, c.a); `c` is any component of that p^a.  The
    unit grid[i_0, i_1, ...] has digit logs i_j, so its exponent
    sum_j d_j (phi / m_j) i_j mod phi is written straight onto it: in place
    for a cyclic group (i d_0 mod phi at g^i), with no inverse table.  For
    real characters, `roots` None gives float64 rows with no roots: a unit's
    exponent is 0 or phi/2, so its value is 1 or -1 exactly."""
    e = np.zeros((len(labels), c.pa), dtype=np.int64)  # non-units are zeroed below
    if grid.ndim == 1:  # in place: no second exponent array is held beside e
        e[:, grid] = np.arange(len(grid))
        e *= labels[:, None]
        e %= len(grid)
    else:
        digits = _digits(c.factors, labels.reshape((-1,) + (1,) * grid.ndim))
        e[:, grid] = _exponents(c.factors, digits, np.indices(grid.shape, sparse=True))
    vals = roots[e] if roots is not None else np.where(e == 0, 1.0, -1.0)
    vals[:, :: c.p] = 0
    return vals


def _table_rows(rows: list, q: int, lo: int = 0, hi: int | None = None, out=None) -> np.ndarray:
    """Columns [lo, hi) (by default all of [0, q)) of the value tables mod q
    whose components have the values `rows` (one `_component_rows` array per
    component, in component order), one table per row, of the rows' dtype,
    written into `out` when given.

    The first component is written in and each later one multiplied in, in
    component order: a head of the columns up to the next multiple of p^a,
    the whole periods as a (rows, periods, p^a) view, and a tail, each
    against the component's row from the phase of its first column mod p^a.
    There is no index array or gather, so every entry has the same bits in
    any range, and the same as multiplying the first component into ones.
    A single component's rows are the whole table as they stand; q = 1 has
    no components and its table is ones."""
    hi = q if hi is None else hi
    w = hi - lo
    if out is None:
        if len(rows) == 1 and w == q:
            return rows[0]
        out = np.empty((len(rows[0]) if rows else 1, w), dtype=_dtype(rows))
    if not rows:
        out[...] = 1
    for i, r in enumerate(rows):
        pa = r.shape[1]
        phase = lo % pa
        head = min(w, -phase % pa)
        k = (w - head) // pa
        tail = w - head - k * pa
        periods = out[:, head : head + k * pa].reshape(len(out), k, pa)  # a view: writes go to out
        if i == 0:
            out[:, :head] = r[:, phase : phase + head]
            periods[...] = r[:, None, :]
            out[:, w - tail :] = r[:, :tail]
        else:
            out[:, :head] *= r[:, phase : phase + head]
            periods *= r[:, None, :]
            out[:, w - tail :] *= r[:, :tail]
    return out


def _row_values(rows: list, n: np.ndarray) -> np.ndarray:
    """chi(n) for an int array n from one character's component rows
    (`DirichletCharacter._rows`): the product of the rows' entries at
    n mod p^a, in component order, of the rows' dtype."""
    out = np.ones(len(n), dtype=_dtype(rows))
    for r in rows:
        out *= r[0, n % r.shape[1]]
    return out


def _dtype(rows: list) -> np.dtype:
    """The dtype of the tables of `rows`: theirs (complex128 for q = 1)."""
    return rows[0].dtype if rows else np.dtype(np.complex128)


def _column_blocks(rows: list, q: int, stop: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, columns [lo, lo + _BLOCK_ELEMENTS) of the one table of `rows`)
    up to column `stop` (by default q), all written into one buffer of the
    rows' dtype."""
    stop = q if stop is None else stop
    buf = np.empty((1, min(stop, _BLOCK_ELEMENTS)), dtype=_dtype(rows))
    for lo in range(0, stop, _BLOCK_ELEMENTS):
        hi = min(lo + _BLOCK_ELEMENTS, stop)
        yield lo, _table_rows(rows, q, lo, hi, buf[:, : hi - lo])[0]


def _least_prime_factors(N: int) -> np.ndarray:
    """spf[n] for n = 0..N: the least prime factor of n >= 2, and n itself
    below 2, so the primes up to N are the n >= 2 with spf[n] = n.  One
    vector step per prime p <= sqrt(N), taken from `sieve_primes`."""
    spf = np.arange(N + 1)
    for p in sieve_primes(max(2, math.isqrt(N))).primes.tolist():
        view = spf[p * p :: p]
        np.minimum(view, p, out=view)
    return spf


def _root_tables(lam: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(s, coarse, fine) with zeta_lam^e = coarse[e // s] * fine[e % s] for
    0 <= e < lam, s = ceil(sqrt(lam)): coarse[k] = zeta_lam^(s k) and
    fine[i] = zeta_lam^i, s direct values each, every angle taken in
    (-pi, pi] (s k mod lam, less lam past lam/2) so that it is rounded at
    most at pi, not 2 pi."""
    s = math.isqrt(lam - 1) + 1
    turns = s * np.arange(s) % lam
    turns[2 * turns > lam] -= lam
    step = 2j * math.pi / lam
    return s, np.exp(step * turns), np.exp(step * np.arange(s))


def values_up_to(chars: Sequence[DirichletCharacter], N: int, spf: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, block) with block[i, n] = chi(n) for chi = chars[lo + i] and
    n = 0..N, as complex128, in blocks of at most max(1, _BLOCK_ELEMENTS //
    (N + 1)) rows in input order, for characters of one modulus q below
    2**31, with no table of length q.  Every block is written into one
    buffer, so a block is read before the next is asked for.  `spf` is
    `_least_prime_factors` of N or more (one array may serve many moduli);
    its primes up to N are the points.

    Each component's digit logs are taken at the primes p <= N once for all
    of `chars` (`_Component.logs`), and each factor's extended to every
    n <= N by complete multiplicativity, log(n) = log(spf(n)) + log(n/spf(n))
    mod m_j, over the doubling ranges [2^k, 2^(k+1)): ~log2 N vector steps.
    A block's exponents e(n) = sum_j d_j (lam/m_j) log_j(n) mod lam (lam
    the exponent of the unit group, d_j each row's digits) are one int64
    array, exact: the sum is below lam sum_j m_j <= lam (phi(q) + 1) < 2**63.
    chi(n) = zeta_lam^e is read off `_root_tables(lam)`, which depend only
    on q, so a row has the same bits whichever characters share its call.
    """
    if len({chi.modulus for chi in chars}) > 1:
        raise ValueError("values_up_to needs characters of one modulus")
    if not chars:
        return
    q, comps = chars[0].modulus, chars[0].components
    if q >= _NUMPY_MODULUS_CAP:
        raise ResourceError(f"values_up_to needs a modulus below 2**31, got {q}")
    spf = spf[: N + 1]
    n = np.arange(N + 1)
    primes = np.flatnonzero(spf == n)[2:]
    units = np.ones(N + 1, dtype=bool)
    units[0] = q == 1
    units[primes] = q % primes != 0
    coprime = primes[units[primes]]
    logs = []  # each component's digit logs, one array per cyclic factor
    for c in comps:
        logs.append([np.zeros(N + 1, dtype=np.int64) for _ in c.factors])
        for log, at_primes in zip(logs[-1], c.logs(coprime)):
            log[coprime] = at_primes
    lo = 4
    while lo <= N:
        # spf(n) <= sqrt(n) and n / spf(n) <= n / 2 lie below 2^k: both are done
        ns = n[lo : 2 * lo]
        ns = ns[spf[ns] != ns]
        p, r = spf[ns], ns // spf[ns]
        units[ns] = units[p] & units[r]
        for c, comp_logs in zip(comps, logs):
            for (_, m), log in zip(c.factors, comp_logs):
                log[ns] = (log[p] + log[r]) % m
        lo *= 2
    lam = math.lcm(1, *(c.group_order for c in comps))
    s, coarse, fine = _root_tables(lam)
    nonunits = np.flatnonzero(~units)
    step = min(max(1, _BLOCK_ELEMENTS // (N + 1)), len(chars))
    # every block is written into the same four buffers, with no temporaries
    e, t = np.empty((2, step, N + 1), dtype=np.int64)
    vals, fine_vals = np.empty((2, step, N + 1), dtype=np.complex128)
    for lo in range(0, len(chars), step):
        block = chars[lo : lo + step]
        k = len(block)
        e_k, t_k, vals_k, fine_k = e[:k], t[:k], vals[:k], fine_vals[:k]
        e_k[...] = 0
        for j, (c, comp_logs) in enumerate(zip(comps, logs)):
            digits = _digits(c.factors, np.array([chi.components[j].t for chi in block]))
            for (_, m), d, log in zip(c.factors, digits, comp_logs):
                e_k += np.multiply((d * (lam // m))[:, None], log, out=t_k)
        e_k -= np.multiply(np.floor_divide(e_k, lam, out=t_k), lam, out=t_k)  # e mod lam
        np.floor_divide(e_k, s, out=t_k)
        np.take(coarse, t_k, out=vals_k, mode="clip")  # the indices are in range: no checked copy
        np.subtract(e_k, np.multiply(t_k, s, out=t_k), out=t_k)
        vals_k *= np.take(fine, t_k, out=fine_k, mode="clip")
        vals_k[:, nonunits] = 0
        yield lo, vals_k


# ---------------------------------------------------------------------------
# the value matrix of all characters of one modulus


def _plan(p: int, a: int) -> tuple:
    """What every matrix with the component p^a reads of it: the (value
    order, primitive, odd) arrays of all its index labels, in label order,
    and its `_unit_grid`, all read-only."""
    order, conductor, first = _facts(p, a, np.arange(p**a // p * (p - 1)))
    plan = (order, conductor == p**a, first % 2 == 1, _unit_grid(p, a))
    for x in plan:
        x.flags.writeable = False
    return plan


def character_matrices(moduli) -> Iterator[CharacterMatrix]:
    """CharacterMatrix(q) for each q of `moduli` in turn, each prime power's
    `_plan` built once for the scan and dropped after the last modulus it
    divides, so a scan holds only the plans it will read again."""
    moduli = list(moduli)
    parts = [factor(q).factors for q in moduli]
    last = {pa: i for i, pas in enumerate(parts) for pa in pas}
    plans: dict = {}
    for i, q in enumerate(moduli):
        yield CharacterMatrix(q, plans)
        for pa in parts[i]:
            if last[pa] == i:
                del plans[pa]


class CharacterMatrix:
    """The value tables of all phi(q) characters mod q as the rows of one
    matrix, in `all_characters(q)` order.

    `components` are the principal character's, one per p^a || q.  Row r
    has the component index labels np.unravel_index(r, shape); its
    exact facts `primitive`, `parity` (chi(-1)) and `order` are arrays read
    from the labels, built with no table.  The values come from `blocks`, in
    row blocks of at most _BLOCK_ELEMENTS entries, by the same `_table_rows`.
    Each component's label facts and unit grid come from `plans`, keyed
    (p, a), built there on first use (`character_matrices` shares one dict
    across a scan).
    """

    def __init__(self, q: int, plans: dict | None = None):
        _check_table_size(q)
        self.modulus = q
        self.components = principal_character(q).components
        plans = {} if plans is None else plans
        for c in self.components:
            if (c.p, c.a) not in plans:
                plans[c.p, c.a] = _plan(c.p, c.a)
        self._plans = [plans[c.p, c.a] for c in self.components]
        self.shape = tuple(len(plan[0]) for plan in self._plans)
        order = np.ones(1, dtype=np.int64)
        primitive, odd = np.ones(1, dtype=bool), np.zeros(1, dtype=bool)
        for o, prim, od, _ in self._plans:  # each component a new last axis
            order = np.lcm(order[..., None], o)
            primitive = primitive[..., None] & prim
            odd = odd[..., None] ^ od
        self.order, self.primitive = order.ravel(), primitive.ravel()
        self.parity = np.where(odd.ravel(), -1, 1)

    def _labels(self, rows: np.ndarray) -> np.ndarray:
        """The index labels of `rows`: one row per component, one column per row."""
        if not self.shape:  # q = 1
            return np.zeros((0, len(rows)), dtype=np.int64)
        return np.array(np.unravel_index(rows, self.shape), dtype=np.int64)

    def character(self, row: int) -> DirichletCharacter:
        """The character of one row."""
        labels = self._labels(np.array([row]))[:, 0]
        comps = tuple(_Component(c.p, c.a, int(t)) for c, t in zip(self.components, labels))
        return DirichletCharacter(self.modulus, comps)

    def blocks(self, rows) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(rows, values) for the row indices `rows`, in blocks of at most
        _BLOCK_ELEMENTS entries: values[i] is the table of row rows[i]."""
        q = self.modulus
        rows = np.asarray(rows, dtype=np.int64)
        step = max(1, _BLOCK_ELEMENTS // q)
        roots = [c.roots() for c in self.components]
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            comp_rows = [_component_rows(c, lab, r, grid)
                         for c, lab, r, (*_, grid) in zip(self.components, self._labels(chunk), roots, self._plans)]
            yield chunk, _table_rows(comp_rows, q)

    def sums(self, f: np.ndarray) -> np.ndarray:
        """sum_n chi_r(n) f[..., n] for every row r, in row order (a new last
        axis), for f of length q on its last axis.

        chi(n) = prod_j exp(2 pi i d_j L_j(n) / m_j) (d_j the row's digits,
        L_j(n) the digit logs of n), so this is one DFT of f read on the
        grid of each component's `_unit_grid`, lifted to mod q by its CRT
        idempotent; the digits in C order are the row index."""
        q = self.modulus
        n = np.zeros((), dtype=np.int64)  # q = 1: the one point n = 0
        for c, (*_, units) in zip(self.components, self._plans):
            lift = q // c.pa * pow(q // c.pa, -1, c.pa)  # 1 mod p^a, 0 mod q/p^a
            grid = units * lift % q
            n = (n.reshape(n.shape + (1,) * grid.ndim) + grid) % q
        f = np.asarray(f)[..., n]
        for axis in range(-1, -1 - n.ndim, -1):  # ifftn's passes, last axis first: its bits
            f = np.fft.ifft(f, axis=axis)
        return (f * n.size).reshape(f.shape[: f.ndim - n.ndim] + (n.size,))


# ---------------------------------------------------------------------------
# constructors


def principal_character(q: int) -> DirichletCharacter:
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    comps = tuple(_Component(p, a, 0) for p, a in factor(q).factors)
    return DirichletCharacter(q, comps)


def character_from_index(q: int, t: int) -> DirichletCharacter:
    """chi mod an odd prime q with chi(g) = zeta_{q-1}^t, g the least
    primitive root."""
    return characters_from_indices(q, [t])[0]


def characters_from_indices(q: int, ts: Sequence[int]) -> list[DirichletCharacter]:
    """`character_from_index(q, t)` for each t of `ts`, in order, with the
    modulus checked once."""
    if q < 3 or not is_prime(q):
        raise ValueError(f"modulus {q} is not an odd prime")
    for t in ts:
        if not 0 <= t < q - 1:
            raise ValueError(f"index {t} out of range [0, {q - 1})")
    return [DirichletCharacter(q, (_Component(q, 1, t),)) for t in ts]


def character_from_components(q: int, labels: dict[int, int]) -> DirichletCharacter:
    """General constructor from {p^a: index-label} over the factorization of q."""
    comps = []
    seen = {}
    for p, a in factor(q).factors:
        pa = p**a
        if pa not in labels:
            raise ValueError(f"missing component for {p}^{a} in modulus {q}")
        comps.append(_Component(p, a, labels[pa]))
        if not 0 <= labels[pa] < comps[-1].group_order:
            raise ValueError(f"index {labels[pa]} out of range for modulus {p}^{a}")
        seen[pa] = True
    if len(seen) != len(labels):
        extra = set(labels) - set(seen)
        raise ValueError(f"components {sorted(extra)} do not divide modulus {q}")
    return DirichletCharacter(q, tuple(comps))


def character_from_id(char_id: str) -> DirichletCharacter:
    """Inverse of ``DirichletCharacter.char_id``; only canonical ids parse."""
    try:
        qpart, cpart = char_id.split(";", 1)
        if not (qpart.startswith("q=") and cpart.startswith("comps=")):
            raise ValueError("missing q= or comps=")
        q = int(qpart[2:])
        labels = {}
        body = cpart[len("comps=") :]
        if body:
            for item in body.split(","):
                ppart, tpart = item.split(":")
                if "^" in ppart:
                    p, a = ppart.split("^")
                    labels[int(p) ** int(a)] = int(tpart)
                else:
                    labels[int(ppart)] = int(tpart)
    except ValueError as exc:
        raise ValueError(f"malformed character id {char_id!r}") from exc
    chi = character_from_components(q, labels)
    if chi.char_id != char_id:
        raise ValueError(f"non-canonical character id {char_id!r}; canonical is {chi.char_id!r}")
    return chi


def all_characters(q: int):
    """All phi(q) characters mod q, in lexicographic component-index order."""
    base = principal_character(q)
    ranges = [range(c.group_order) for c in base.components]
    for labels in itertools.product(*ranges):
        comps = tuple(_Component(c.p, c.a, lab) for c, lab in zip(base.components, labels))
        yield DirichletCharacter(q, comps)


def order_k_characters(q: int, k: int) -> list[DirichletCharacter]:
    """The phi(k) characters of order exactly k mod a prime q = 1 mod k."""
    psi = psi_q(q, k)
    return [psi**a for a in range(1, k + 1) if math.gcd(a, k) == 1]


def psi_q(q: int, k: int) -> DirichletCharacter:
    """The canonical order-k character mod q: psi(g) = zeta_k for the least
    primitive root g."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if q < 3 or not is_prime(q):
        raise ValueError(f"modulus {q} is not an odd prime")
    if (q - 1) % k != 0:
        raise ConstraintError(f"q = {q} is not 1 mod k = {k}")
    return character_from_index(q, (q - 1) // k)


def product_character(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product; moduli must be coprime (or equal)."""
    q1, q2 = chi1.modulus, chi2.modulus
    if math.gcd(q1, q2) == 1:
        comps = sorted(chi1.components + chi2.components, key=lambda c: c.p)
        return DirichletCharacter(q1 * q2, tuple(comps))
    if q1 == q2:
        comps = tuple(
            c1.with_digits([x + y for x, y in zip(c1.digits, c2.digits)])
            for c1, c2 in zip(chi1.components, chi2.components)
        )
        return DirichletCharacter(q1, comps)
    raise ConstraintError(
        f"moduli {q1} and {q2} are neither coprime nor equal; induce to a common modulus first"
    )


def kronecker_character(d: int) -> DirichletCharacter:
    """The real character n -> (d|n) mod |d| for a fundamental discriminant d.

    d = 1 yields the modulus-1 constant character.
    """
    if not is_fundamental_discriminant(d):
        raise ConstraintError(f"{d} is not a fundamental discriminant")
    q = abs(d)
    if q == 1:
        return DirichletCharacter(1, ())
    comps = []
    for p, a in factor(q).factors:
        pa = p**a
        lift = q // pa * pow(q // pa, -1, pa)  # 1 mod p^a, 0 mod q/p^a
        # (d|.) = ±1 = zeta_m^d_j at each generator g_j, read at its CRT lift
        # n = g_j mod p^a, n = 1 mod q/p^a
        factors = _factors(p, a)
        digits = [0 if kronecker(d, (1 + (g - 1) * lift) % q) == 1 else m // 2
                  for g, m in factors]
        comps.append(_Component(p, a, _label(factors, digits)))
    chi = DirichletCharacter(q, tuple(comps))
    if chi.conductor != q:
        raise AssertionError(f"kronecker character mod {q} came out imprimitive")
    return chi


def order_witness(q1: int, q2: int, k: int) -> int:
    """n = a*q2 + 1 < q1*q2 with (psi_q1 * conj(psi_q2))(n) = zeta_k exactly."""
    if q1 == q2:
        raise ConstraintError("witness needs distinct prime moduli")
    g = smallest_primitive_root_mod_pp(q1, 1)
    a = (g - 1) * pow(q2, -1, q1) % q1
    n = a * q2 + 1
    psi = product_character(psi_q(q1, k), psi_q(q2, k).conjugate())
    val = psi.eval(n)
    if val != RootOfUnity(k, 1):
        raise AssertionError(f"witness {n} evaluated to {val}")
    return n

