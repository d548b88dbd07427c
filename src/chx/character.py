"""Dirichlet characters as exact objects.

A character mod q is stored componentwise over the prime powers p^a || q.
For odd p the unit group mod p^a is cyclic with canonical generator g (the
least one); the component is the index t with chi(g) = zeta_m^t, m = phi(p^a).
For p = 2 the group is trivial (a = 1), {±1} (a = 2), or <-1> x <5> (a >= 3),
indexed by (t0, t1).

Values are roots of unity carried as exact (order, exponent) pairs; nothing
is embedded into floating point until a caller asks for a complex value or a
bulk value table.  Each component has one point evaluator, `exponents(n)`
for an int array n (dlog-table gather up to p^a = 2**26, baby-step/giant-step
above), read by `values_at`, `eval` and `complex_at`.  The parity is read
from the indices.

Value tables have one builder, `_table_rows`: each component's rows come
from its roots of unity by a gather over its log tables (`_component_rows`),
and the components multiply in, gathered to n mod p^a.  `value_tables`
(one character at a time) and `CharacterMatrix.blocks` (row blocks of all
characters mod q) both call it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ConstraintError, ResourceError
from .ntheory import factor, is_prime, smallest_primitive_root_mod_pp

_DLOG_TABLE_CAP = 1 << 26  # full tables up to here, baby-step/giant-step above
_NUMPY_MODULUS_CAP = 1 << 31  # int64 products stay exact below this


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
        return cmath.exp(2j * cmath.pi * self.exponent / self.order)

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
# per prime-power tables


def _check_table_size(size: int) -> None:
    if size > _DLOG_TABLE_CAP:
        raise ResourceError(f"value table of size {size} exceeds cap 2**26")


def _power_table(p: int, a: int) -> np.ndarray:
    """powers[j] = g^j mod p^a for the canonical generator g, j < phi(p^a)."""
    pa = p**a
    _check_table_size(pa)
    if pa >= _NUMPY_MODULUS_CAP:  # int64 block products below stay exact
        raise AssertionError(f"power table modulus {pa} not below 2**31")
    g = smallest_primitive_root_mod_pp(p, a)
    m = pa // p * (p - 1)
    block = min(1024, m)
    head = np.empty(block, dtype=np.int64)
    x = 1
    for j in range(block):
        head[j] = x
        x = x * g % pa
    out = np.empty(m, dtype=np.int64)
    out[:block] = head
    step = pow(g, block, pa)
    filled = block
    cur = head
    while filled < m:
        n = min(block, m - filled)
        cur = cur * step % pa
        out[filled : filled + n] = cur[:n]
        filled += n
    return out


@lru_cache(maxsize=8)
def _dlog_table(p: int, a: int) -> np.ndarray:
    """dlog[n] = j with g^j = n mod p^a (units only; -1 elsewhere)."""
    pa = p**a
    powers = _power_table(p, a)
    table = np.full(pa, -1, dtype=np.int64)
    table[powers] = np.arange(powers.size, dtype=np.int64)
    return table


@lru_cache(maxsize=8)
def _two_adic_tables(a: int) -> tuple[np.ndarray, np.ndarray]:
    """(sign[n], five_log[n]) with n = (-1)^sign * 5^five_log mod 2^a, a >= 3."""
    pa = 1 << a
    _check_table_size(pa)
    m5 = 1 << (a - 2)
    sign = np.full(pa, -1, dtype=np.int64)
    fivelog = np.full(pa, -1, dtype=np.int64)
    x = 1
    for j in range(m5):
        sign[x] = 0
        fivelog[x] = j
        y = pa - x
        sign[y] = 1
        fivelog[y] = j
        x = x * 5 % pa
    return sign, fivelog


def _baby_steps(g: int, s: int, pa: int) -> dict:
    """{g^j mod p^a: j} for j < s (the least j for repeated values)."""
    baby = {}
    x = 1
    for j in range(s):
        baby.setdefault(x, j)
        x = x * g % pa
    return baby


def _dlog_bsgs(ns, g: int, m: int, pa: int) -> list[int]:
    """x < m with g^x = n mod p^a for each n of `ns`, by baby-step/giant-step
    over one shared baby-step table."""
    s = math.isqrt(m - 1) + 1
    baby = _baby_steps(g, s, pa)
    step = pow(g, -s, pa)
    out = []
    for n in ns:
        cur = n % pa
        for i in range(s + 1):
            j = baby.get(cur)
            if j is not None:
                out.append((i * s + j) % m)
                break
            cur = cur * step % pa
        else:
            raise ArithmeticError(f"no discrete log of {n} mod {pa}")
    return out


# ---------------------------------------------------------------------------
# components


@dataclass(frozen=True)
class _OddComponent:
    """Character on the cyclic unit group mod p^a, p odd."""

    p: int
    a: int
    t: int

    @property
    def pa(self) -> int:
        return self.p**self.a

    @property
    def group_order(self) -> int:
        return self.pa // self.p * (self.p - 1)

    def value_order(self) -> int:
        m = self.group_order
        return m // math.gcd(self.t, m)

    def conductor(self) -> int:
        if self.t == 0:
            return 1
        d = self.value_order()
        c = 1
        while d % self.p == 0:
            d //= self.p
            c += 1
        if (self.p - 1) % d != 0:
            raise AssertionError(f"value order {d} prime to {self.p} does not divide p-1")
        return self.p**c

    def index_label(self) -> int:
        return self.t

    def exponents(self, n: np.ndarray) -> np.ndarray:
        """e with chi(n) = zeta_m^e, m = phi(p^a), for an int array n >= 0;
        entries at non-units are meaningless."""
        m, pa = self.group_order, self.pa
        n = n % pa
        if pa <= _DLOG_TABLE_CAP:
            return self.t * _dlog_table(self.p, self.a)[n.astype(np.int64, copy=False)] % m
        units = n % self.p != 0
        j = np.zeros_like(n)
        g = smallest_primitive_root_mod_pp(self.p, self.a)
        j[units] = _dlog_bsgs([int(x) for x in n[units]], g, m, pa)
        return self.t * j % m

    def roots(self) -> np.ndarray:
        """zeta_m^j for j < m = phi(p^a), shared by every index t."""
        m = self.group_order
        return np.exp(2j * np.pi * np.arange(m) / m)

    def scaled(self, e: int) -> "_OddComponent":
        return _OddComponent(self.p, self.a, self.t * e % self.group_order)


@dataclass(frozen=True)
class _TwoComponent:
    """Character on the unit group mod 2^a: trivial (a=1), {±1} (a=2),
    or <-1> x <5> (a>=3) with index pair (t0, t1)."""

    a: int
    t0: int
    t1: int

    @property
    def p(self) -> int:
        return 2

    @property
    def pa(self) -> int:
        return 1 << self.a

    @property
    def group_order(self) -> int:
        return self.pa // 2

    @property
    def m5(self) -> int:
        return 1 << (self.a - 2) if self.a >= 3 else 1

    def value_order(self) -> int:
        if self.a == 1:
            return 1
        if self.a == 2:
            return 2 if self.t0 else 1
        five = self.m5 // math.gcd(self.t1, self.m5)
        return math.lcm(2 if self.t0 else 1, five)

    def conductor(self) -> int:
        if self.a == 1:
            return 1
        if self.a == 2:
            return 4 if self.t0 else 1
        five = self.m5 // math.gcd(self.t1, self.m5)
        if five > 1:
            return 4 * five
        return 4 if self.t0 else 1

    def index_label(self) -> int:
        if self.a <= 2:
            return self.t0
        return self.t0 * self.m5 + self.t1

    def exponents(self, n: np.ndarray) -> np.ndarray:
        """e with chi(n) = zeta_m^e, m = phi(2^a), for an int array n >= 0;
        entries at non-units are meaningless."""
        n = n % self.pa
        if self.a == 1:
            return np.zeros_like(n)
        if self.a == 2:
            return self.t0 * (n // 2)  # n in {1, 3}
        sign, fivelog = _two_adic_tables(self.a)
        n = n.astype(np.int64, copy=False)
        # -1 = zeta_m^m5 and zeta_m5 = zeta_m^2, m = 2 m5
        return (self.t0 * self.m5 * sign[n] + 2 * self.t1 * fivelog[n]) % self.group_order

    def roots(self) -> np.ndarray:
        """zeta_m5^j for j < m5, shared by every index pair (a >= 3 reads them)."""
        m5 = self.m5
        return np.exp(2j * np.pi * np.arange(m5) / m5)

    def scaled(self, e: int) -> "_TwoComponent":
        return _TwoComponent(self.a, self.t0 * e % 2, self.t1 * e % self.m5)


def _make_component(p: int, a: int, label: int):
    if p == 2:
        if a == 1:
            if label != 0:
                raise ValueError("the unit group mod 2 is trivial")
            return _TwoComponent(1, 0, 0)
        if a == 2:
            if label not in (0, 1):
                raise ValueError(f"index {label} out of range for modulus 4")
            return _TwoComponent(2, label, 0)
        m5 = 1 << (a - 2)
        if not 0 <= label < 2 * m5:
            raise ValueError(f"index {label} out of range for modulus 2^{a}")
        return _TwoComponent(a, label // m5, label % m5)
    comp = _OddComponent(p, a, label)
    if not 0 <= label < comp.group_order:
        raise ValueError(f"index {label} out of range for modulus {p}^{a}")
    return comp


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
            self._order = math.lcm(1, *(c.value_order() for c in self.components))
        return self._order

    @property
    def conductor(self) -> int:
        if self._conductor is None:
            self._conductor = math.prod(c.conductor() for c in self.components)
        return self._conductor

    @property
    def is_principal(self) -> bool:
        return self.order == 1

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def parity(self) -> int:
        """chi(-1) from the indices: (-1)^t per odd component, (-1)^t0 on 2^a."""
        odd = sum(c.t0 if c.p == 2 else c.t for c in self.components) % 2
        return -1 if odd else 1

    @property
    def char_id(self) -> str:
        comps = ",".join(
            (f"{c.p}:{c.index_label()}" if c.a == 1 else f"{c.p}^{c.a}:{c.index_label()}")
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
            e += c.exponents(n).astype(n.dtype, copy=False) * (lam // c.group_order)
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
        return next(value_tables([self]))

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
            if c.p == 2:
                a0 = f.bit_length() - 1
                if a0 == 2:
                    comps.append(_TwoComponent(2, c.t0, 0))
                else:
                    m5_0 = 1 << (a0 - 2)
                    comps.append(_TwoComponent(a0, c.t0, c.t1 // (c.m5 // m5_0)))
            else:
                a0 = 0
                ff = f
                while ff > 1:
                    ff //= c.p
                    a0 += 1
                g0 = smallest_primitive_root_mod_pp(c.p, a0)
                e = int(c.exponents(np.array([g0], dtype=object))[0])  # c(g0) = zeta_m^e
                m, m0 = c.group_order, f // c.p * (c.p - 1)
                if e * m0 % m != 0:
                    raise AssertionError(f"zeta_{m}^{e} is not an {m0}-th root of unity")
                comps.append(_OddComponent(c.p, a0, e * m0 // m))
        return DirichletCharacter(self.conductor, tuple(comps))


# ---------------------------------------------------------------------------
# value tables


def _component_rows(c, labels: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The values mod p^a of the component characters with index `labels`,
    one row each, from the roots of unity `roots` = c.roots(); `c` is any
    component of that p^a."""
    if c.p != 2:
        vals = roots[labels[:, None] * _dlog_table(c.p, c.a) % c.group_order]
        vals[:, :: c.p] = 0
        return vals
    vals = np.zeros((len(labels), c.pa), dtype=np.complex128)
    vals[:, 1] = 1.0
    if c.a == 2:
        vals[:, 3] = np.where(labels == 1, -1.0, 1.0)
    if c.a <= 2:
        return vals
    t0, t1 = np.divmod(labels, c.m5)
    sign, fivelog = _two_adic_tables(c.a)
    units = np.flatnonzero(sign >= 0)
    vals[:, units] = roots[t1[:, None] * fivelog[units] % c.m5] * np.where(
        (t0[:, None] * sign[units]) % 2, -1.0, 1.0
    )
    return vals


def _table_rows(comps: tuple, labels: np.ndarray, roots: list, q: int) -> np.ndarray:
    """The value tables mod q of the characters with components like `comps`
    and index labels `labels` (one row per component, one column per
    character), one table per row, from `roots` = [c.roots() for c in comps].

    Each component's rows are gathered to n mod p^a and multiplied in, in
    component order."""
    if len(comps) == 1:
        return _component_rows(comps[0], labels[0], roots[0])
    out = np.ones((labels.shape[1], q), dtype=np.complex128)
    idx = np.arange(q, dtype=np.int64)
    for c, lab, r in zip(comps, labels, roots):
        out *= _component_rows(c, lab, r).take(idx % c.pa, axis=1)
    return out


def value_tables(chars: Sequence[DirichletCharacter]) -> Iterator[np.ndarray]:
    """The value tables of characters sharing one modulus q, in input order.

    Each component's roots of unity are computed once for all of `chars`;
    the tables are built one at a time as they are consumed, so a caller
    that keeps no table alive holds at most one.  Raises ValueError if the
    moduli differ.
    """
    if len({chi.modulus for chi in chars}) > 1:
        raise ValueError("value_tables needs characters of one modulus")
    if not chars:
        return
    q, comps = chars[0].modulus, chars[0].components
    _check_table_size(q)
    roots = [c.roots() for c in comps]
    for chi in chars:
        labels = np.array([c.index_label() for c in chi.components], dtype=np.int64)
        yield _table_rows(comps, labels.reshape(-1, 1), roots, q)[0]


# ---------------------------------------------------------------------------
# the value matrix of all characters of one modulus

_BLOCK_ELEMENTS = 1 << 14  # entries per row block (256 KB): 16 MB blocks measured slower


def _label_facts(c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value order, primitive, odd) for every index label of the component
    mod p^a, in label order; `c` is any component of that p^a."""
    if c.p != 2:
        m = c.group_order
        t = np.arange(m)
        order = m // np.gcd(t, m)
        # conductor p^(1 + v_p(order)) for t != 0, and v_p(order) <= a - 1
        return order, (order > 1) & (order % (c.pa // c.p) == 0), t % 2 == 1
    if c.a <= 2:
        t0 = np.arange(c.a)  # one label mod 2, two mod 4
        return 1 + t0, (c.a == 2) & (t0 == 1), t0 == 1
    m5 = c.m5
    t0, t1 = np.divmod(np.arange(2 * m5), m5)
    five = m5 // np.gcd(t1, m5)
    return np.lcm(1 + t0, five), five == m5, t0 == 1


class CharacterMatrix:
    """The value tables of all phi(q) characters mod q as the rows of one
    matrix, in `all_characters(q)` order.

    Row r has the component index labels np.unravel_index(r, shape); its
    exact facts `primitive`, `parity` (chi(-1)) and `order` are arrays read
    from the labels, built with no table.  The values come from `blocks`, in
    row blocks of at most _BLOCK_ELEMENTS entries, built like `value_tables`.
    """

    def __init__(self, q: int):
        _check_table_size(q)
        self.modulus = q
        self._base = principal_character(q).components
        facts = [_label_facts(c) for c in self._base]
        self.shape = tuple(len(f[0]) for f in facts)
        order = np.ones(self.shape, dtype=np.int64)
        primitive = np.ones(self.shape, dtype=bool)
        odd = np.zeros(self.shape, dtype=bool)
        for axis, (o, prim, od) in enumerate(facts):
            along = [-1 if i == axis else 1 for i in range(len(facts))]
            order = np.lcm(order, o.reshape(along))
            primitive = primitive & prim.reshape(along)
            odd = odd ^ od.reshape(along)
        self.order = order.ravel()
        self.primitive = primitive.ravel()
        self.parity = np.where(odd.ravel(), -1, 1)

    def _labels(self, rows: np.ndarray) -> np.ndarray:
        """The index labels of `rows`: one row per component, one column per row."""
        if not self.shape:  # q = 1
            return np.zeros((0, len(rows)), dtype=np.int64)
        return np.array(np.unravel_index(rows, self.shape), dtype=np.int64)

    def character(self, row: int) -> DirichletCharacter:
        """The character of one row."""
        labels = self._labels(np.array([row]))[:, 0]
        comps = tuple(_make_component(c.p, c.a, int(t)) for c, t in zip(self._base, labels))
        return DirichletCharacter(self.modulus, comps)

    def blocks(self, rows) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(rows, values) for the row indices `rows`, in blocks of at most
        _BLOCK_ELEMENTS entries: values[i] is the table of row rows[i]."""
        q = self.modulus
        rows = np.asarray(rows, dtype=np.int64)
        step = max(1, _BLOCK_ELEMENTS // q)
        roots = [c.roots() for c in self._base]
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            yield chunk, _table_rows(self._base, self._labels(chunk), roots, q)


# ---------------------------------------------------------------------------
# constructors


def principal_character(q: int) -> DirichletCharacter:
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    comps = tuple(_make_component(p, a, 0) for p, a in factor(q).factors)
    return DirichletCharacter(q, comps)


def character_from_index(q: int, t: int) -> DirichletCharacter:
    """chi mod an odd prime q with chi(g) = zeta_{q-1}^t, g the least
    primitive root."""
    if q < 3 or not is_prime(q):
        raise ValueError(f"modulus {q} is not an odd prime")
    if not 0 <= t < q - 1:
        raise ValueError(f"index {t} out of range [0, {q - 1})")
    return DirichletCharacter(q, (_OddComponent(q, 1, t),))


def character_from_components(q: int, labels: dict[int, int]) -> DirichletCharacter:
    """General constructor from {p^a: index-label} over the factorization of q."""
    comps = []
    seen = {}
    for p, a in factor(q).factors:
        pa = p**a
        if pa not in labels:
            raise ValueError(f"missing component for {p}^{a} in modulus {q}")
        comps.append(_make_component(p, a, labels[pa]))
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
    ranges = []
    for c in base.components:
        if c.p == 2:
            ranges.append(range(2 * c.m5 if c.a >= 3 else (2 if c.a == 2 else 1)))
        else:
            ranges.append(range(c.group_order))
    for labels in itertools.product(*ranges):
        comps = tuple(_make_component(c.p, c.a, lab) for c, lab in zip(base.components, labels))
        yield DirichletCharacter(q, comps)


def order_k_characters(q: int, k: int) -> list[DirichletCharacter]:
    """The phi(k) characters of order exactly k mod a prime q = 1 mod k."""
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    if q < 3 or not is_prime(q):
        raise ValueError(f"modulus {q} is not an odd prime")
    if (q - 1) % k != 0:
        raise ConstraintError(f"q = {q} is not 1 mod k = {k}")
    step = (q - 1) // k
    return [
        character_from_index(q, alpha * step)
        for alpha in range(1, k + 1)
        if math.gcd(alpha, k) == 1
    ]


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
        comps = []
        for c1, c2 in zip(chi1.components, chi2.components):
            if c1.p == 2:
                comps.append(
                    _TwoComponent(c1.a, (c1.t0 + c2.t0) % 2, (c1.t1 + c2.t1) % c1.m5)
                )
            else:
                comps.append(_OddComponent(c1.p, c1.a, (c1.t + c2.t) % c1.group_order))
        return DirichletCharacter(q1, tuple(comps))
    raise ConstraintError(
        f"moduli {q1} and {q2} are neither coprime nor equal; induce to a common modulus first"
    )


def kronecker_character(d: int) -> DirichletCharacter:
    """The real character n -> (d|n) mod |d| for a fundamental discriminant d.

    d = 1 yields the modulus-1 constant character.
    """
    from .ntheory import is_fundamental_discriminant, kronecker

    if not is_fundamental_discriminant(d):
        raise ConstraintError(f"{d} is not a fundamental discriminant")
    q = abs(d)
    if q == 1:
        return DirichletCharacter(1, ())
    comps = []
    for p, a in factor(q).factors:
        pa = p**a
        cof = q // pa
        # evaluate (d|.) on each generator of the p^a component via CRT lifts
        def crt_lift(r):
            # n = r mod p^a, n = 1 mod cof
            return (r * cof * pow(cof, -1, pa) + pa * pow(pa, -1, cof) * 1) % q if cof > 1 else r

        if p == 2:
            if a == 2:
                comps.append(_TwoComponent(2, (1 - kronecker(d, crt_lift(3))) // 2, 0))
            else:  # a == 3 for fundamental d
                t0 = (1 - kronecker(d, crt_lift(7))) // 2  # 7 = -1 mod 8
                t1 = (1 - kronecker(d, crt_lift(5))) // 2
                comps.append(_TwoComponent(3, t0, t1))
        else:
            g = smallest_primitive_root_mod_pp(p, a)
            m = pa // p * (p - 1)
            v = kronecker(d, crt_lift(g))
            comps.append(_OddComponent(p, a, 0 if v == 1 else m // 2))
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

