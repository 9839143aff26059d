"""Property tests for the scalar rings, and sympy oracles for cyclotomic
products and inverses.

Every result is also checked against the canonical form of its ``(nums,
den)`` value, which ``ExactScalar.__eq__`` and ``__hash__`` rely on: on Q and
Q(zeta_N) ``den > 0`` and ``gcd(den, *nums) == 1``, on F_p ``den == 1`` and
a numerator in ``[0, p)``.
"""

import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
# a wrong zeta fold can make a division or a reduction loop forever: fail instead
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paraunitary.laurent import poly_from_text  # noqa: E402
from paraunitary.scalars import (  # noqa: E402
    CYCLOTOMIC,
    PRIME_FIELD,
    QQ,
    ExactScalar,
    cast_scalar,
    cyclotomic,
    embed,
    one,
    prime_field,
    scalar_to_json,
    scalar_to_text,
    zero,
    zeta,
)

RINGS = [QQ, cyclotomic(4), cyclotomic(8), cyclotomic(12), prime_field(7)]
RING_IDS = [str(r) for r in RINGS]

_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def elements(ring):
    if ring.kind == PRIME_FIELD:
        return st.integers(0, ring.p - 1).map(lambda v: ExactScalar.from_rational(ring, v))
    if ring.kind == CYCLOTOMIC:
        coeff = st.one_of(st.just(Fraction(0)), _fractions)
        return st.lists(coeff, min_size=ring.degree, max_size=ring.degree).map(
            lambda c: ExactScalar.from_vector(ring, c)
        )
    return _fractions.map(lambda q: ExactScalar.from_rational(ring, q))


def canonical(x: ExactScalar) -> ExactScalar:
    """Assert the canonical form of ``x.value`` in its ring; return ``x``."""
    nums, den = x.value
    assert type(nums) is tuple and len(nums) == x.ring.degree
    assert all(type(c) is int for c in nums) and type(den) is int
    if x.ring.kind == PRIME_FIELD:
        assert den == 1 and 0 <= nums[0] < x.ring.p
    else:
        assert den > 0 and math.gcd(den, *nums) == 1
    return x


def triples(ring):
    e = elements(ring)
    return st.tuples(e, e, e)


per_ring = pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
# Each ring is its own parametrized case, so 40 examples each keep the file fast.
few = settings(max_examples=40)


@per_ring
@given(data=st.data())
@few
def test_field_axioms(ring, data):
    a, b, c = data.draw(triples(ring))
    z, u = canonical(zero(ring)), canonical(one(ring))
    assert canonical(a + b) == b + a
    assert canonical(a * b) == b * a
    assert canonical((a + b) + c) == a + (b + c)
    assert canonical((a * b) * c) == a * (b * c)
    assert canonical(a * (b + c)) == canonical(a * b + a * c)
    assert a + z == a and a * u == a
    assert canonical(a + (-a)) == z
    assert canonical(a - b) == a + (-b)
    assert canonical(a * z) == z
    assert hash(a * b) == hash(b * a)


@per_ring
@given(data=st.data())
@few
def test_conj_is_an_involutive_automorphism(ring, data):
    a, b, _ = data.draw(triples(ring))
    assert canonical(a.conj()).conj() == a
    assert canonical((a + b).conj()) == a.conj() + b.conj()
    assert canonical((a * b).conj()) == a.conj() * b.conj()
    assert one(ring).conj() == one(ring)
    if ring.kind == CYCLOTOMIC:
        assert zeta(ring).conj() * zeta(ring) == one(ring) != zeta(ring) * zeta(ring)


@per_ring
@given(data=st.data())
@few
def test_inverse(ring, data):
    a, b, _ = data.draw(triples(ring))
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert canonical(a * canonical(a.inverse())) == one(ring)
    assert canonical(b / a) * a == b


@given(triples(cyclotomic(4)))
@few
def test_embed_z4_into_z8_is_a_homomorphism(abc):
    a, b, _ = abc
    z8 = cyclotomic(8)
    ea, eb = canonical(embed(a, z8)), canonical(embed(b, z8))
    assert canonical(embed(a + b, z8)) == ea + eb
    assert canonical(embed(a * b, z8)) == ea * eb
    assert embed(a.conj(), z8) == ea.conj()
    assert embed(one(a.ring), z8) == one(z8)
    assert (ea == eb) == (a == b)


# (N, p) with p = 1 mod N, so F_p holds a primitive N-th root of unity
CASTS = [(8, 17), (3, 7), (6, 7), (12, 13)]


@pytest.mark.parametrize("n, p", CASTS, ids=[f"zeta{n}-F{p}" for n, p in CASTS])
@given(data=st.data())
@few
def test_cast_to_a_prime_field_is_a_ring_homomorphism(n, p, data):
    """zeta_N -> a primitive N-th root mod p, on elements whose denominators
    are prime to p (the others have no image)."""
    src, dst = cyclotomic(n), prime_field(p)
    coeff = st.one_of(st.just(Fraction(0)), _fractions.filter(lambda q: q.denominator % p))
    element = st.lists(coeff, min_size=src.degree, max_size=src.degree).map(lambda c: ExactScalar.from_vector(src, c))
    a, b = data.draw(element), data.draw(element)
    ca, cb = cast_scalar(a, dst), cast_scalar(b, dst)
    assert ca.ring == cb.ring == dst
    assert cast_scalar(a + b, dst) == ca + cb
    assert cast_scalar(a * b, dst) == ca * cb
    assert cast_scalar(one(src), dst) == one(dst)
    assert cast_scalar(zero(src), dst) == zero(dst)
    root = cast_scalar(zeta(src), dst)
    assert [k for k in range(1, n + 1) if root**k == one(dst)] == [n]


@per_ring
@given(data=st.data())
@few
def test_json_form_and_text_round_trip(ring, data):
    a = data.draw(elements(ring))
    written = scalar_to_json(a)
    if ring.kind == CYCLOTOMIC:
        assert written == {"conductor": ring.conductor, "coeffs": [_text(c) for c in a.coeffs()]}
    elif ring.kind == PRIME_FIELD:
        assert written == {"p": ring.p, "v": a.rational_value()} and type(written["v"]) is int
    else:
        assert written == _text(a.rational_value())
    parsed = poly_from_text(scalar_to_text(a), ring).constant_value()
    assert canonical(parsed) == a


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def test_canonical_zero_and_one():
    for n in (1, 4, 8, 12):
        ring = cyclotomic(n)
        assert zero(ring).value == ((0,) * ring.degree, 1)
        assert one(ring).value == ((1,) + (0,) * (ring.degree - 1), 1)
        half = ExactScalar.from_vector(ring, [Fraction(2, 4)] + [0] * (ring.degree - 1))
        assert canonical(half + half) == one(ring)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
@given(data=st.data())
@few
def test_products_match_sympy_remainder_mod_phi(n, data):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    ring = cyclotomic(n)
    a, b = data.draw(elements(ring)), data.draw(elements(ring))
    expected = (_sympy_poly(a, sympy, x) * _sympy_poly(b, sympy, x)).rem(sympy.Poly(sympy.cyclotomic_poly(n, x), x))
    assert _sympy_poly(canonical(a * b), sympy, x) == expected


def _sympy_poly(a, sympy, x):
    """``a`` as a sympy polynomial over QQ in its power-basis coordinates."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in a.coeffs()]
    return sympy.Poly(list(reversed(coeffs)), x, domain="QQ")


def _dense(ring, seed):
    """An element of Q(zeta_N) with every power-basis coordinate in [-3, 3]."""
    rng = random.Random(seed)
    return ExactScalar.from_vector(ring, [rng.randint(-3, 3) for _ in range(ring.degree)])


@pytest.mark.parametrize("n", [8, 12, 60, 256, 840])
def test_inverse_matches_sympy_invert_mod_phi(n):
    """The inverse is unique, so two sympy checks pin it: for N <= 60
    ``sympy.invert`` modulo ``cyclotomic_poly`` computes it (at N = 256 that
    takes about a minute), and at every N the sympy remainder of ``a`` times
    the inverse, modulo Phi_N, is 1."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    ring = cyclotomic(n)
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    for seed in range(3):
        a = _dense(ring, seed)
        if seed == 1:
            a = a * ExactScalar.from_rational(ring, Fraction(5, 7)) + zeta(ring, 3)
        a_poly, inv_poly = _sympy_poly(a, sympy, x), _sympy_poly(canonical(a.inverse()), sympy, x)
        assert (a_poly * inv_poly).rem(phi) == sympy.Poly(1, x, domain="QQ")
        if n <= 60:
            assert inv_poly == sympy.invert(a_poly, phi)
