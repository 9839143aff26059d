"""The value contract of polynomials, scalars, matrices and sets.

``LaurentPoly`` and ``ExactScalar`` are values by contract, with plain slots:
no operation changes an operand, and copy, deepcopy and pickle round-trip
them.  ``PolyMatrix`` and ``IdempotentSet`` keep guarded slots, since they
carry a ``proof``: it cannot be assigned, and a copied or unpickled object
is rebuilt without it, so it never carries a proof it was not given by a
check or a constructor.
"""

import contextlib
import copy
import pickle
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paraunitary.groups import cyclic  # noqa: E402
from paraunitary.idempotents import IdempotentSet, from_group, verify_set  # noqa: E402
from paraunitary.laurent import LaurentPoly, exact_div  # noqa: E402
from paraunitary.polymatrix import PolyMatrix, determinant, is_paraunitary, rank  # noqa: E402
from paraunitary.scalars import CYCLOTOMIC, PRIME_FIELD, QQ, ExactScalar, cyclotomic, prime_field  # noqa: E402

RINGS = [QQ, prime_field(7), cyclotomic(8)]
per_ring = pytest.mark.parametrize("ring", RINGS, ids=[str(r) for r in RINGS])
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}
per_round_trip = pytest.mark.parametrize("round_trip", list(ROUND_TRIPS.values()), ids=list(ROUND_TRIPS))


def _scalar(ring, nums, den=1):
    if ring.kind == CYCLOTOMIC:
        return ExactScalar.from_vector(ring, [Fraction(a, den) for a in nums] + [0] * (ring.degree - len(nums)))
    return ExactScalar.from_rational(ring, Fraction(nums[0], den))


def _unitary(ring):
    """A 2x2 paraunitary matrix over ``ring``: diag(x, y^-1) with its rows swapped."""
    x, y = LaurentPoly.variable("x", ring), LaurentPoly.variable("y", ring)
    return PolyMatrix(ring, [[0, y**-1], [x, 0]])


# --- copy and pickle -----------------------------------------------------------

@per_ring
@per_round_trip
def test_a_scalar_round_trips(ring, round_trip):
    a = _scalar(ring, [3, 2], 5)
    b = round_trip(a)
    assert b == a and hash(b) == hash(a) and b.ring is ring
    assert b * b.inverse() == 1 and b + a == 2 * a and b.conj() == a.conj()


@per_ring
@per_round_trip
def test_a_polynomial_round_trips(ring, round_trip):
    x, y = LaurentPoly.variable("x", ring), LaurentPoly.variable("y", ring)
    f = _scalar(ring, [1, 2], 3) * x * y**-2 + x - 4
    g = round_trip(f)
    assert g == f and hash(g) == hash(f) and g.ring is ring and g.vars == f.vars
    assert g * f == f * f and g.star() == f.star() and exact_div(g * x, f) == x
    assert str(g) == str(f)


@per_ring
@per_round_trip
def test_a_matrix_round_trips_without_its_proof(ring, round_trip):
    m = _unitary(ring)
    assert is_paraunitary(m).ok and m.proof == "hermitian-half"
    c = round_trip(m)
    assert c == m and c.vars == m.vars and c.proof is None
    assert is_paraunitary(c).ok and c.proof == "hermitian-half"
    assert determinant(c) == determinant(m) and rank(c) == 2 and c * m == m * m


@per_round_trip
def test_a_set_round_trips_without_its_proof(round_trip):
    s = from_group(cyclic(3), cyclotomic(3))
    assert s.proof is not None
    c = round_trip(s)
    assert c == s and c.labels == s.labels and c.proof is None
    assert verify_set(c).ok and [rank(e) for e in c] == [rank(e) for e in s]


def test_a_proof_cannot_be_assigned():
    m = _unitary(QQ)
    with pytest.raises(AttributeError):
        m.proof = "hermitian-half"
    s = IdempotentSet([PolyMatrix.identity(QQ, 2)], check=False)
    with pytest.raises(AttributeError):
        s.proof = "rank"
    assert m.proof is None and s.proof is None


# --- no operation changes an operand ------------------------------------------

def _scalars(ring):
    if ring.kind == PRIME_FIELD:
        return st.integers(0, ring.p - 1).map(lambda v: ExactScalar.from_rational(ring, v))
    small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    if ring.kind == CYCLOTOMIC:
        return st.lists(small, min_size=ring.degree, max_size=ring.degree).map(lambda c: ExactScalar.from_vector(ring, c))
    return small.map(lambda q: ExactScalar.from_rational(ring, q))


def _polys(ring):
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.dictionaries(exps, _scalars(ring), max_size=3).map(lambda t: LaurentPoly(ring, ("x", "y"), t))


def _state(f: LaurentPoly):
    return f.vars, f.den, dict(f.terms)


@per_ring
@given(data=st.data())
@settings(max_examples=25)
def test_no_operation_changes_its_operands(ring, data):
    n = data.draw(st.integers(1, 3))
    cells = [[data.draw(_polys(ring)) for _ in range(n)] for _ in range(n)]
    f, g = cells[0][0], data.draw(_polys(ring))
    operands = [e for row in cells for e in row] + [g]
    before = [_state(e) for e in operands]
    f + g, f * g, g.star(), f - g
    if not g.is_zero():
        exact_div(f * g, g)
        with contextlib.suppress(ArithmeticError):  # f itself as the dividend, exact or not
            exact_div(f, g)
    m = PolyMatrix(ring, cells)
    determinant(m), rank(m), is_paraunitary(m).ok
    assert [_state(e) for e in operands] == before
    # the matrix's own (aligned) entries are left as they were too
    inner = [_state(e) for row in m.entries for e in row]
    determinant(m), rank(m), is_paraunitary(m).summary()
    assert [_state(e) for row in m.entries for e in row] == inner
