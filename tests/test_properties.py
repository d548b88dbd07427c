"""Property tests of the character machinery on random small moduli.

Hypothesis draws are derandomized and the example counts bounded, so the
module runs the same cases every time in a few seconds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chx.character import all_characters, character_from_id  # noqa: E402
from chx.ntheory import factor  # noqa: E402

Q_MAX = 200
_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def _characters(draw, count=1):
    """`count` characters sharing one modulus q <= Q_MAX."""
    q = draw(st.integers(1, Q_MAX))
    chars = list(all_characters(q))
    idx = st.integers(0, len(chars) - 1)
    return tuple(chars[draw(idx)] for _ in range(count))


def _conductor_by_induction(chi):
    """Scan oracle: the least f | q with chi(n) = 1 for every unit n = 1 mod f."""
    for f in factor(chi.modulus).divisors():
        e, units = chi.values_at(np.arange(1 + f, chi.modulus, f))
        if not e[units].any():
            return f
    raise AssertionError("induction scan found no conductor")


@_SETTINGS
@given(_characters())
def test_conductor_matches_induction_oracle(chars):
    (chi,) = chars
    assert chi.conductor == _conductor_by_induction(chi)


@_SETTINGS
@given(_characters())
def test_char_id_roundtrip_property(chars):
    (chi,) = chars
    assert character_from_id(chi.char_id) == chi


@_SETTINGS
@given(_characters(), st.integers(0, 10**4), st.integers(0, 10**4))
def test_completely_multiplicative(chars, m, n):
    (chi,) = chars
    assert chi.eval(m * n) == chi.eval(m) * chi.eval(n)


@_SETTINGS
@given(_characters())
def test_parity_is_value_at_minus_one(chars):
    (chi,) = chars
    assert chi.parity() == chi.eval(chi.modulus - 1).as_int()


@_SETTINGS
@given(_characters(count=2))
def test_row_orthogonality(chars):
    chi, psi = chars
    q = chi.modulus
    inner = np.dot(chi.value_table(), np.conj(psi.value_table())) / factor(q).euler_phi()
    assert abs(inner - (1.0 if chi == psi else 0.0)) < 1e-9


@_SETTINGS
@given(_characters())
def test_primitive_character_induces(chars):
    (chi,) = chars
    q = chi.modulus
    prim = chi.primitive_character()
    assert prim.modulus == chi.conductor and prim.is_primitive
    for n in range(1, 3 * q + 1):
        if math.gcd(n, q) == 1:
            assert prim.eval(n) == chi.eval(n)
