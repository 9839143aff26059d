"""Tests for the exact scalar tower."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from _random_objects import scalar_from_vector

from paraunitary import scalars
from paraunitary.errors import IncompatibleRings, NoSquareRoot, NoSuchRoot
from paraunitary.groups import GroupRingElement, symmetric_3
from paraunitary.scalars import (
    MAX_DEGREE,
    MAX_PRIME,
    QQ,
    RingDescriptor,
    _sqrt_mod_p,
    ExactScalar,
    cast_scalar,
    cyclotomic,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    is_prime,
    is_unit_modulus,
    multiplicative_order,
    one,
    prime_field,
    root_of_unity,
    scalar_sqrt,
    scalar_to_json,
    sqrt2,
    zero,
    zeta,
)

Z8 = cyclotomic(8)
Z12 = cyclotomic(12)
Z3 = cyclotomic(3)
Z4 = cyclotomic(4)
F7 = prime_field(7)
F5 = prime_field(5)


def rat(q, ring=QQ):
    return ExactScalar.from_rational(ring, Fraction(q))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(10**6 + 3)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        prime_field(9)
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_each_ring_is_one_interned_object():
    for ring in (QQ, Z8, Z3, F7, F5, cyclotomic(512), prime_field(MAX_PRIME)):
        args = (ring.kind, ring.conductor, ring.p)
        assert RingDescriptor(*args) is ring
        assert RingDescriptor.from_json(ring.to_json()) is ring
        assert copy.copy(ring) is ring and copy.deepcopy(ring) is ring
        assert pickle.loads(pickle.dumps(ring)) is ring
        assert copy.deepcopy([ring, {"r": ring}])[1]["r"] is ring
    assert RingDescriptor("rational") is QQ and cyclotomic(8) is Z8 and prime_field(7) is F7
    # equality and hashing are by identity, and identity is by (kind, conductor, p)
    assert Z8 == cyclotomic(8) and Z8 != Z4 and F5 != F7 and QQ != cyclotomic(1)
    assert len({QQ, Z8, cyclotomic(8), F7, prime_field(7)}) == 3
    assert "degree" in vars(RingDescriptor) and Z8.degree == 4 and F7.degree == 1
    with pytest.raises(AttributeError):
        Z8.conductor = 16


@pytest.mark.parametrize(
    "args",
    [("cyclotomic", 0, None), ("cyclotomic", 263, None), ("cyclotomic", 2 * MAX_DEGREE**2 + 1, None), ("cyclotomic", None, 7),
     ("prime_field", None, 9), ("prime_field", None, MAX_PRIME + 2), ("rational", 8, None), ("real", None, None)],
)
def test_an_invalid_ring_raises_on_every_call_and_is_never_stored(args):
    for _ in range(2):
        with pytest.raises(ValueError):
            RingDescriptor(*args)
    assert all(key != args for key in RingDescriptor._interned)


def test_basic_arithmetic_rational():
    a = rat("3/7")
    b = rat("2/5")
    assert (a + b).rational_value() == Fraction(29, 35)
    assert (a * b).rational_value() == Fraction(6, 35)
    assert (a / b).rational_value() == Fraction(15, 14)
    assert (-a).rational_value() == Fraction(-3, 7)


def test_mixed_ring_arithmetic_is_error():
    with pytest.raises(IncompatibleRings):
        rat(1) + rat(1, Z8)
    with pytest.raises(IncompatibleRings):
        rat(1, Z8) * zeta(Z12)


def test_zeta_powers_and_inverse():
    z = zeta(Z8)
    assert z**8 == one(Z8)
    assert z**4 == rat(-1, Z8)
    assert (z * z.inverse()).is_one()
    assert z.inverse() == z**7


def test_conj_examples():
    # conj(zeta_3) = zeta_3^2 = -1 - zeta_3
    z = zeta(Z3)
    assert z.conj() == scalar_from_vector(Z3, [-1, -1])
    assert z.conj() == z**2
    assert rat("3/7").conj() == rat("3/7")
    assert rat(5, F7).conj() == rat(5, F7)


def test_conj_is_ring_automorphism():
    rng = random.Random(7)
    for ring in (Z8, Z12, Z3, F7, QQ):
        for _ in range(25):
            if ring.kind == "cyclotomic":
                a = scalar_from_vector(
                    ring, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ring.degree)]
                )
                b = scalar_from_vector(
                    ring, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ring.degree)]
                )
            elif ring.kind == "prime_field":
                a, b = rat(rng.randrange(ring.p), ring), rat(rng.randrange(ring.p), ring)
            else:
                a, b = rat(rng.randint(-9, 9)), rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a


def test_ring_axioms_random():
    rng = random.Random(11)
    for ring in (Z8, Z3, F5, QQ):
        for _ in range(25):
            def draw():
                if ring.kind == "cyclotomic":
                    return scalar_from_vector(
                        ring, [Fraction(rng.randint(-3, 3)) for _ in range(ring.degree)]
                    )
                if ring.kind == "prime_field":
                    return rat(rng.randrange(ring.p), ring)
                return rat(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

            a, b, c = draw(), draw(), draw()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_is_unit_modulus():
    assert is_unit_modulus(zeta(Z8))
    assert not is_unit_modulus(rat("1/2"))
    assert is_unit_modulus(rat(6, F7))  # -1 mod 7
    assert not is_unit_modulus(rat(3, F7))
    # closure under products
    rng = random.Random(3)
    units = [zeta(Z8, k) for k in range(8)] + [-one(Z8)]
    for _ in range(20):
        a, b = rng.choice(units), rng.choice(units)
        assert is_unit_modulus(a * b)


def test_sqrt2():
    s = sqrt2(F7)
    assert s == rat(3, F7)
    assert s * s == rat(2, F7)
    t = sqrt2(Z8)
    assert t == zeta(Z8, 1) + zeta(Z8, 7)
    assert t * t == rat(2, Z8)
    with pytest.raises(NoSquareRoot):
        sqrt2(QQ)
    with pytest.raises(NoSquareRoot):
        sqrt2(prime_field(5))  # 5 = -3 mod 8
    with pytest.raises(NoSquareRoot):
        sqrt2(Z12)


def test_root_of_unity():
    assert root_of_unity(Z12, 4) == zeta(Z12, 3)
    assert root_of_unity(F7, 3) == rat(2, F7)
    with pytest.raises(NoSuchRoot):
        root_of_unity(QQ, 3)
    with pytest.raises(NoSuchRoot):
        root_of_unity(Z8, 3)
    with pytest.raises(NoSuchRoot):
        root_of_unity(F7, 4)
    for ring, n in ((Z12, 6), (Z12, 12), (Z8, 8), (F7, 6), (F5, 4), (QQ, 2)):
        w = root_of_unity(ring, n)
        assert (w**n).is_one()
        for k in range(1, n):
            assert not (w**k).is_one()


def test_embed():
    assert embed(rat("2/3"), Z8) == rat("2/3", Z8)
    z3_in_6 = embed(zeta(Z3), cyclotomic(6))
    assert z3_in_6 == zeta(cyclotomic(6), 2)
    with pytest.raises(IncompatibleRings):
        embed(zeta(Z8), Z12)
    # arithmetic preserved
    a, b = zeta(Z4), rat("1/2", Z4)
    big = cyclotomic(12)
    assert embed(a * b, big) == embed(a, big) * embed(b, big)
    # rationals into prime fields reduce denominators
    assert embed(rat("1/9"), F5) == rat(4, F5)
    with pytest.raises(IncompatibleRings):
        embed(rat("1/5"), F5)


def test_a_rational_value_embeds_between_conductors_that_do_not_divide():
    # the conductor test once came first: -1 in Q(zeta_4) could not reach Q(zeta_6)
    rng = random.Random(33)
    for n, m in [(4, 6), (6, 4), (3, 5), (5, 3), (8, 12), (12, 8), (9, 6), (7, 10)]:
        for _ in range(10):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            image = embed(rat(q, cyclotomic(n)), cyclotomic(m))
            assert image == rat(q, cyclotomic(m)) and image.ring is cyclotomic(m)
        with pytest.raises(IncompatibleRings, match=f"conductor {n} does not divide {m}"):
            embed(zeta(cyclotomic(n)), cyclotomic(m))


def test_a_number_no_ring_holds_on_the_left_is_a_type_error():
    # __rtruediv__ once divided NotImplemented by the scalar, which recursed without end
    for ring in (QQ, Z8, F7):
        a = rat(2, ring)
        for other in ("x", 1.5, None):
            with pytest.raises(TypeError):
                other / a
            with pytest.raises(TypeError):
                other - a
        assert 1 / a == a.inverse() and 1 - a == rat(-1, ring)


def test_a_difference_is_made_canonical_once(monkeypatch):
    # a - b was a + (-b): two canonical values, the first thrown away
    made = []
    original = scalars.canonical_value
    monkeypatch.setattr(scalars, "canonical_value", lambda *a: made.append(1) or original(*a))
    s3 = symmetric_3()
    for ring in (QQ, Z8, F7):
        a, b, want = rat("3/4", ring), rat("-5/6", ring), rat("19/12", ring)
        u, v = GroupRingElement(s3, ring, [a, 0, b, 0, 1, 0]), GroupRingElement(s3, ring, [b] * 6)
        made.clear()
        scalar_difference, element_difference = a - b, u - v
        assert len(made) == 2
        assert scalar_difference == want and element_difference.coeffs[0] == want


def test_cast_to_prime_field():
    w = root_of_unity(Z3, 3)
    assert cast_scalar(w, F7) == rat(2, F7)
    assert cast_scalar(rat("1/2", Z8), F7) == rat(4, F7)


def test_an_irrational_value_casts_into_a_prime_field_through_its_root():
    # zeta_3 -> 2, the least residue of order 3 mod 7: (1 + 2 zeta_3) / 2 -> 5 / 2 = 6
    assert cast_scalar(scalar_from_vector(Z3, [Fraction(1, 2), 1]), F7) == rat(6, F7)
    with pytest.raises(IncompatibleRings, match="vanishes mod 7"):
        cast_scalar(scalar_from_vector(Z3, [0, Fraction(1, 7)]), F7)


def test_scalar_sqrt():
    assert scalar_sqrt(rat("4/9")) == rat("2/3")
    with pytest.raises(NoSquareRoot):
        scalar_sqrt(rat(2))
    with pytest.raises(NoSquareRoot):
        scalar_sqrt(rat(-1))
    assert scalar_sqrt(rat(2, F7)) == rat(3, F7)
    with pytest.raises(NoSquareRoot):
        scalar_sqrt(rat(2, prime_field(3)))
    half = scalar_sqrt(rat("1/2", Z8))
    assert half * half == rat("1/2", Z8)
    m1 = scalar_sqrt(rat(-1, Z4))
    assert m1 * m1 == rat(-1, Z4)
    with pytest.raises(NoSquareRoot):
        scalar_sqrt(rat("1/2", Z4))


def test_sqrt_mod_p_matches_brute_force_below_200():
    for p in (q for q in range(2, 200) if is_prime(q)):
        for a in range(p):
            roots = [r for r in range(p) if r * r % p == a]
            r = _sqrt_mod_p(a, p)
            if not roots:
                assert r is None, (a, p)
            else:
                assert r in roots, (a, p)
                # both callers keep the representative in [0, p/2]
                assert min(r, (p - r) % p) == min(roots), (a, p)


def test_cyclotomic_only_helpers_reject_other_rings():
    for ring in (QQ, F7):
        with pytest.raises(IncompatibleRings):
            zeta(ring)


def test_multiplicative_order():
    assert multiplicative_order(zeta(Z8)) == 8
    assert multiplicative_order(-one(QQ)) == 2
    assert multiplicative_order(rat(2)) is None
    assert multiplicative_order(rat(3, F7)) == 6


def test_inverse_cyclotomic_random():
    rng = random.Random(5)
    for ring in (Z8, Z12, Z3):
        for _ in range(20):
            a = scalar_from_vector(
                ring, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ring.degree)]
            )
            if a.is_zero():
                continue
            assert (a * a.inverse()).is_one()


@pytest.mark.parametrize("n, budget", [(256, 1.0), (840, 3.0)])
def test_dense_cyclotomic_inverse_is_fast(n, budget):
    """The int extended Euclid inverts a dense element well within budget
    (about 0.06 s at N = 256 and 0.3 s at N = 840 on a 2-core x86 VM)."""
    ring = cyclotomic(n)
    rng = random.Random(n)
    a = scalar_from_vector(ring, [rng.randint(-3, 3) for _ in range(ring.degree)])
    started = time.perf_counter()
    inv = a.inverse()
    elapsed = time.perf_counter() - started
    assert (a * inv).is_one()
    assert elapsed < budget, f"inverse in Q(zeta_{n}) took {elapsed:.2f} s"


def test_rational_value_of_each_ring():
    assert rat("-3/7").rational_value() == Fraction(-3, 7)
    assert rat("1/2", Z8).rational_value() == Fraction(1, 2)
    assert rat(-1, F7).rational_value() == 6  # the representative in [0, p)
    with pytest.raises(ValueError):
        zeta(Z8).rational_value()


def test_scalar_to_json_writes_each_ring_in_its_canonical_form():
    cases = [
        (rat("3/7"), "3/7"),
        (rat(-2), "-2"),
        (rat(0), "0"),
        (zeta(Z8) * rat("1/2", Z8) + rat("1/3", Z8), {"conductor": 8, "coeffs": ["1/3", "1/2", "0", "0"]}),
        (zeta(Z8, 3) * rat("-6/4", Z8) + rat(2, Z8), {"conductor": 8, "coeffs": ["2", "0", "0", "-3/2"]}),
        (zero(Z12), {"conductor": 12, "coeffs": ["0", "0", "0", "0"]}),
        (rat(5, F7), {"p": 7, "v": 5}),
        (rat("-1/3", F7), {"p": 7, "v": 2}),
    ]
    for a, expected in cases:
        assert scalar_to_json(a) == expected
