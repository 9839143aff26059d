"""Oracles for the number theory under the scalar layer.

Every Q(zeta_N) operation reads one power table of zeta^k mod Phi_N, every
ring check reads one factorizer, and every square root one rule.  These
tests hold each to an oracle that shares none of that code, through the
public API only:

- the power table: ``zeta``, products, ``conj``, ``embed`` and the
  ``LaurentPoly`` product and star must equal the sympy remainder mod
  ``cyclotomic_poly(N)``, for N = 1 .. 40 and the large conductors 257
  (prime: one dense row) and 512 (Phi_N = x^256 + 1), both of the largest
  degree the ring limit admits, and 840;
- the factorizer: ``euler_phi`` and ``is_prime`` against sympy's
  ``totient`` and ``isprime``;
- square roots: ``sqrt2`` is ``scalar_sqrt`` of 2, squares to 2, and keeps
  its refusal messages; ``scalar_sqrt`` of a rational in Q(zeta_N) exists
  exactly when sympy's squarefree part allows it, and a rational with a
  large prime factor is refused at once;
- ``root_of_unity`` over F_p: the least residue of order n, against a
  brute-force search over every residue for p < 800, and in bounded time on
  a large p whose least element of order 5 lies near 1.5 * 10^8.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import scalar_from_vector, vector_from_scalar  # noqa: E402

from paraunitary.cli import main  # noqa: E402
from paraunitary.errors import NoSquareRoot  # noqa: E402
from paraunitary.laurent import LaurentPoly  # noqa: E402
from paraunitary.scalars import (  # noqa: E402
    MAX_DEGREE,
    MAX_PRIME,
    QQ,
    ExactScalar,
    cyclotomic,
    embed,
    euler_phi,
    is_prime,
    prime_field,
    root_of_unity,
    scalar_sqrt,
    sqrt2,
    zeta,
)

X = sympy.Symbol("x")
CONDUCTORS = list(range(1, 41)) + [257, 512, 840]
per_conductor = pytest.mark.parametrize("n", CONDUCTORS)
# 43 conductors, each its own case; sympy's remainder mod Phi_257 takes up to 0.1 s
few = settings(max_examples=5)


@lru_cache(maxsize=None)
def _phi(n: int):
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")


def _poly(a: ExactScalar, power=lambda i: i):
    """``a`` as a sympy polynomial in its power-basis coordinates, with the
    coordinate of zeta^i sent to x^power(i) for an injective ``power``."""
    terms = {(power(i),): sympy.Rational(c.numerator, c.denominator) for i, c in enumerate(vector_from_scalar(a)) if c}
    return sympy.Poly.from_dict(terms or {(0,): 0}, X, domain="QQ")


def _reduced(poly, n: int):
    return poly.rem(_phi(n))


def _power(k: int):
    return sympy.Poly(X**k, X, domain="QQ")


_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


def elements(ring):
    """Elements of Q(zeta_N) with at most 6 nonzero power-basis coordinates:
    dense at small N, and sparse enough at N = 257 that a product's sympy
    remainder takes 0.1 s, not the 2 s of a dense one."""
    d = ring.degree
    return st.dictionaries(st.integers(0, d - 1), _coeff, min_size=1, max_size=6).map(
        lambda c: scalar_from_vector(ring, [c.get(i, 0) for i in range(d)])
    )


@per_conductor
def test_zeta_is_the_remainder_of_x_to_the_k(n):
    ring = cyclotomic(n)
    rng = random.Random(n)
    ks = range(-n, 2 * n) if n <= 40 else rng.sample(range(-2 * n, 3 * n), 40) + [n - 1, n, euler_phi(n)]
    for k in ks:
        assert _poly(zeta(ring, k)) == _reduced(_power(k % n), n), k


@per_conductor
@given(data=st.data())
@few
def test_products_are_the_remainder_of_the_product(n, data):
    ring = cyclotomic(n)
    a, b = data.draw(elements(ring)), data.draw(elements(ring))
    assert _poly(a * b) == _reduced(_poly(a) * _poly(b), n)


@per_conductor
@given(data=st.data())
@few
def test_conj_is_the_remainder_of_zeta_to_the_minus_one(n, data):
    ring = cyclotomic(n)
    a = data.draw(elements(ring))
    assert _poly(a.conj()) == _reduced(_poly(a, lambda i: -i % n), n)


@pytest.mark.parametrize("n", [m for m in CONDUCTORS if euler_phi(2 * m) <= MAX_DEGREE])
@given(data=st.data())
@few
def test_embed_into_the_double_conductor_is_the_remainder_of_x_squared(n, data):
    ring, target = cyclotomic(n), cyclotomic(2 * n)
    a = data.draw(elements(ring))
    assert _poly(embed(a, target)) == _reduced(_poly(a, lambda i: 2 * i), 2 * n)


def laurent(ring):
    """A polynomial in y of at most 2 terms, exponents in [-2, 2]."""
    return st.dictionaries(st.integers(-2, 2), elements(ring), min_size=1, max_size=2).map(
        lambda terms: LaurentPoly(ring, ("y",), {(e,): c for e, c in terms.items()})
    )


def _by_exponent(f: LaurentPoly, power=lambda i: i) -> dict:
    return {e: _poly(c, power) for (e,), c in f.coefficients().items()}


@per_conductor
@given(data=st.data())
@few
def test_laurent_product_and_star_are_remainders(n, data):
    ring = cyclotomic(n)
    f, g = data.draw(laurent(ring)), data.draw(laurent(ring))
    product: dict = {}
    for e1, p1 in _by_exponent(f).items():
        for e2, p2 in _by_exponent(g).items():
            product[e1 + e2] = product[e1 + e2] + p1 * p2 if e1 + e2 in product else p1 * p2
    expected = {e: r for e, p in product.items() if not (r := _reduced(p, n)).is_zero}
    assert _by_exponent(f * g) == expected
    starred = {-e: _reduced(p, n) for e, p in _by_exponent(f, lambda i: -i % n).items()}
    assert _by_exponent(f.star()) == starred


# --- the factorizer ----------------------------------------------------------

def test_euler_phi_and_is_prime_match_sympy_below_3000():
    for n in range(1, 3000):
        assert euler_phi(n) == sympy.totient(n), n
        assert is_prime(n) == sympy.isprime(n), n
    assert not any(is_prime(n) for n in range(-5, 1))


@given(st.integers(1, 10**12))
@settings(max_examples=30)
def test_euler_phi_and_is_prime_match_sympy_up_to_10_to_the_12(n):
    assert euler_phi(n) == sympy.totient(n)
    assert is_prime(n) == sympy.isprime(n)


def test_the_largest_admitted_prime_is_prime():
    assert is_prime(MAX_PRIME) and euler_phi(MAX_PRIME) == MAX_PRIME - 1
    assert euler_phi(MAX_PRIME - 1) == sympy.totient(MAX_PRIME - 1)


# --- square roots ------------------------------------------------------------

@pytest.mark.parametrize("ring", [cyclotomic(8), cyclotomic(24), prime_field(7), prime_field(17), prime_field(2)], ids=str)
def test_sqrt2_is_the_square_root_of_2(ring):
    two = ExactScalar.from_rational(ring, 2)
    assert sqrt2(ring) ** 2 == two
    assert sqrt2(ring) == scalar_sqrt(two)


@pytest.mark.parametrize(
    "ring, message",
    [
        (QQ, "2 has no square root in Q"),
        (cyclotomic(4), "sqrt(2) needs 8 | conductor, got 4"),
        (prime_field(5), "2 is not a quadratic residue mod 5"),
    ],
    ids=str,
)
def test_sqrt2_refusals_keep_their_messages(ring, message):
    for call in (lambda: sqrt2(ring), lambda: scalar_sqrt(ExactScalar.from_rational(ring, 2))):
        with pytest.raises(NoSquareRoot) as exc:
            call()
        assert str(exc.value) == message


def _squarefree_part(q) -> int:
    """The squarefree part of |num| den, by sympy's factorization."""
    part = 1
    for prime, e in sympy.factorint(abs(q.numerator) * q.denominator).items():
        part *= prime ** (e % 2)
    return part


@pytest.mark.parametrize("ring", [cyclotomic(4), cyclotomic(8), cyclotomic(24), cyclotomic(6)], ids=str)
@given(num=st.integers(-200, 200), den=st.integers(1, 200))
@settings(max_examples=60)
def test_scalar_sqrt_of_a_rational_follows_its_squarefree_part(ring, num, den):
    q = Fraction(num, den)
    a = ExactScalar.from_rational(ring, q)
    part, n = _squarefree_part(q), ring.conductor
    has_root = q == 0 or (part in (1, 2) and (part == 1 or n % 8 == 0) and (q > 0 or n % 4 == 0))
    try:
        root = scalar_sqrt(a)
    except NoSquareRoot as exc:
        assert not has_root
        if part not in (1, 2):
            assert str(exc) == f"no square-root rule for {q}: its squarefree part is not 1, -1, 2 or -2"
    else:
        assert has_root and root * root == a


@pytest.mark.time_bound(1)
def test_the_root_of_a_rational_with_a_large_prime_factor_is_refused_fast(tmp_path, capsys):
    """P_11 = 1 / (1 + k^2) of the rank-1 projector of (1, k), k = 10^15 + 37;
    1 + k^2 is 2 * 5 * 173 * a 27-digit prime, so finding its squarefree
    part by trial division ran past 8 s."""
    k = 10**15 + 37
    n = 1 + k * k
    pipe = tmp_path / "rank1.json"
    pipe.write_text(json.dumps({
        "ring": {"kind": "cyclotomic", "conductor": 8},
        "steps": [
            {"op": "matrix", "bind": "P", "entries": [[f"1/{n}", f"{k}/{n}"], [f"{k}/{n}", f"{k * k}/{n}"]]},
            {"op": "factor_rank1", "bind": "v", "matrix": "$P"},
        ],
    }))
    assert main(["build", str(pipe)]) == 2
    message = f"no square-root rule for 1/{n}: its squarefree part is not 1, -1, 2 or -2"
    assert capsys.readouterr().err == f"build failed: step 2 (factor_rank1 -> v): {message}\n"


# --- primitive roots of unity over F_p ----------------------------------------

def _least_of_each_order(p: int) -> dict[int, int]:
    """The least residue of each order in F_p*, by computing the order of every residue."""
    divisors = [k for k in range(1, p) if (p - 1) % k == 0]
    least: dict[int, int] = {}
    for c in range(1, p):
        order = next(k for k in divisors if pow(c, k, p) == 1)
        least.setdefault(order, c)
    return least


def test_root_of_unity_is_the_least_residue_of_its_order_for_p_below_800():
    pairs = 0
    for p in (q for q in range(2, 800) if sympy.isprime(q)):
        ring = prime_field(p)
        for n, c in _least_of_each_order(p).items():
            assert root_of_unity(ring, n) == ExactScalar.from_rational(ring, c), (p, n)
            pairs += 1
    assert pairs == 1446  # 1307 with n > 1, and n = 1 for each of the 139 primes


@pytest.mark.time_bound(2)
def test_a_group_set_over_a_large_prime_finds_its_roots_of_unity_fast(tmp_path, capsys):
    """D_10 needs a primitive 5th root of unity mod 4294967291; the least one
    is 149005400, which a search upward from 2 took about 90 s to reach."""
    out = tmp_path / "d10.json"
    argv = ["idem", "group", "--family", "dihedral", "--order", "10"]
    assert main(argv + ["--ring", "prime_field", "--prime", "4294967291", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "idempotent-set: PASS\n"
    assert root_of_unity(prime_field(4294967291), 5) == ExactScalar.from_rational(prime_field(4294967291), 149005400)
