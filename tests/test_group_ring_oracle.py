"""Group-ring arithmetic on int numerators against the per-term scalar loop.

``GroupRingElement`` keeps one int numerator row per group element over one
shared denominator, and its product keeps one int accumulator per group
element.  The oracle here is the loop it replaced: a list of
``ExactScalar`` coefficients, each product term a scalar product added into
its output coefficient.  Every operation must give the oracle's values, and
every coefficient read back must be in the canonical form of ``scalars``.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import scalar_from_vector  # noqa: E402

from paraunitary.errors import InternalCheckError  # noqa: E402
from paraunitary.groups import (  # noqa: E402
    CharacterTable,
    GroupRingElement,
    character_table,
    cyclic,
    dihedral,
    elementary_abelian_2,
    symmetric_3,
)
from paraunitary.idempotents import from_group  # noqa: E402
from paraunitary.scalars import (  # noqa: E402
    CYCLOTOMIC,
    PRIME_FIELD,
    QQ,
    ExactScalar,
    cyclotomic,
    prime_field,
    zero,
)

RINGS = [QQ, *(cyclotomic(n) for n in (3, 4, 5, 8, 12)), prime_field(5), prime_field(7)]
# every builtin family; dihedral(4) and symmetric_3() are not abelian
GROUPS = [cyclic(1), cyclic(5), elementary_abelian_2(3), dihedral(4), symmetric_3()]
per_case = pytest.mark.parametrize(
    "ring, table",
    [(r, t) for r in RINGS for t in GROUPS],
    ids=[f"{r}-{t.name}" for r in RINGS for t in GROUPS],
)


# --- the oracle: one ExactScalar per coefficient, one scalar product per term


def oracle_mul(table, ring, a, b):
    out = [zero(ring)] * table.order
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if y.is_zero():
                continue
            k = table.mul[i][j]
            out[k] = out[k] + x * y
    return out


def oracle_star(table, a):
    out = [None] * table.order
    for i, x in enumerate(a):
        out[table.inv[i]] = x.conj()
    return out


def canonical(w: GroupRingElement) -> tuple:
    """Assert the canonical form of ``w`` and of each coefficient read
    back; return the coefficients."""
    p = w.ring.p
    if p is not None:
        assert w.den == 1 and all(0 <= c < p for r in w.rows for c in r)
    else:
        assert w.den > 0 and math.gcd(w.den, *(c for r in w.rows for c in r)) == 1
    for c in w.coeffs:
        nums, den = c.value
        assert c.ring is w.ring and len(nums) == w.ring.degree
        if p is not None:
            assert den == 1 and 0 <= nums[0] < p
        else:
            assert den > 0 and math.gcd(den, *nums) == 1
    return w.coeffs


# --- coefficients with distinct denominators, many of them zero


def _fractions(ring):
    # no denominator divisible by 5 or 7, so every value lies in F_5 and F_7
    dens = [1, 2, 3, 4, 6, 8, 9, 12] if ring.p is None else [1, 2, 3, 4, 6]
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens))


def scalars(ring):
    q = _fractions(ring)
    if ring.kind == CYCLOTOMIC:
        vector = st.lists(st.one_of(st.just(Fraction(0)), q), min_size=ring.degree, max_size=ring.degree)
        return vector.map(lambda v: scalar_from_vector(ring, v))
    return q.map(lambda v: ExactScalar.from_rational(ring, v))


def coefficient_lists(ring, table):
    coeff = st.one_of(st.just(zero(ring)), scalars(ring))
    dense = st.lists(coeff, min_size=table.order, max_size=table.order)
    return st.one_of(st.just([zero(ring)] * table.order), dense)


@per_case
@given(data=st.data())
@settings(max_examples=15)
def test_int_arithmetic_gives_the_oracle_values(ring, table, data):
    a = data.draw(coefficient_lists(ring, table), "a")
    b = data.draw(coefficient_lists(ring, table), "b")
    u, v = GroupRingElement(table, ring, a), GroupRingElement(table, ring, b)
    assert canonical(u) == tuple(a) and canonical(v) == tuple(b)
    assert canonical(u * v) == tuple(oracle_mul(table, ring, a, b))
    assert canonical(v * u) == tuple(oracle_mul(table, ring, b, a))
    assert canonical(u + v) == tuple(x + y for x, y in zip(a, b))
    assert canonical(u - v) == tuple(x - y for x, y in zip(a, b))
    assert canonical(u.star()) == tuple(oracle_star(table, a))
    assert (u == v) == (a == b)
    assert u.is_zero() == all(x.is_zero() for x in a)
    assert (u - u).is_zero() and (u + v) - v == u
    assert u * v == GroupRingElement(table, ring, oracle_mul(table, ring, a, b))


@pytest.mark.parametrize("ring", RINGS, ids=[str(r) for r in RINGS])
def test_a_non_central_element_with_coefficients_over_2_and_3(ring):
    s3 = symmetric_3()
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = [0, half, 0, 0, third, 0]  # (12)/2 + (123)/3
    b = [third, 0, half, 0, 0, 0]  # 1/3 + (13)/2
    u, v = GroupRingElement(s3, ring, a), GroupRingElement(s3, ring, b)
    a, b = u.coeffs, v.coeffs
    assert u * v != v * u
    assert canonical(u * v) == tuple(oracle_mul(s3, ring, a, b))
    assert canonical(v * u) == tuple(oracle_mul(s3, ring, b, a))
    assert canonical(u + v) == tuple(x + y for x, y in zip(a, b))
    assert canonical(u.star()) == tuple(oracle_star(s3, a))
    assert u.den == (1 if ring.kind == PRIME_FIELD else 6)


@pytest.mark.parametrize("ring", [QQ, cyclotomic(4), prime_field(7)], ids=str)
def test_a_repeated_character_fails_the_group_ring_clauses(ring):
    # the table lists the trivial character twice and drops another one:
    # the idempotents are symmetric but do not sum to 1
    table = elementary_abelian_2(2)
    chars = character_table(table).characters
    wrong = CharacterTable(table, (chars[0], replace(chars[0], name="chi0'"), *chars[2:]))
    with pytest.raises(InternalCheckError, match="group-ring idempotents of C2\\^2"):
        from_group(table, ring, wrong)
