"""The value contract of polynomials, scalars, matrices and sets.

``LaurentPoly``, ``ExactScalar``, ``PolyMatrix`` and ``IdempotentSet`` are
values by one contract, with plain slots: no operation changes an operand,
and copy, deepcopy and pickle round-trip them.  A matrix or set carries a
``proof``, a read-only property over a write-once slot that only
``polymatrix._record`` writes: it cannot be assigned, and a copied or
unpickled object is rebuilt without it, so it never carries a proof it was
not given by a check or a constructor.  The proof and a matrix's stored
tangle blocks are the only slots an operation may write on an operand, and
only from None to a value.
"""

import contextlib
import copy
import pickle
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import scalar_from_vector  # noqa: E402

from paraunitary.constructors import (  # noqa: E402
    ArrangementPlan,
    MonomialAssignment,
    block_arrangement,
    monomial_sum,
    tangle,
)
from paraunitary.errors import NoSquareRoot  # noqa: E402
from paraunitary.groups import cyclic  # noqa: E402
from paraunitary.idempotents import (  # noqa: E402
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    from_group,
    merge,
    realify,
    tensor_sets,
    verify_set,
)
from paraunitary.laurent import LaurentPoly, exact_div  # noqa: E402
from paraunitary.polymatrix import (  # noqa: E402
    PolyMatrix,
    combination,
    determinant,
    is_paraunitary,
    mul,
    rank,
    tensor,
)
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
        return scalar_from_vector(ring, [Fraction(a, den) for a in nums] + [0] * (ring.degree - len(nums)))
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
        return st.lists(small, min_size=ring.degree, max_size=ring.degree).map(lambda c: scalar_from_vector(ring, c))
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


# --- no operation changes a matrix or a set -----------------------------------

CACHES = ("_proof", "_tangle_blocks")  # write-once: None until a check or a tangle sets it


def _slots(obj, path=()) -> dict:
    """Every slot value reachable from ``obj``, by its path: the slots of a
    matrix or set, the items of a tuple, a polynomial by its state, and a
    cache as the object it holds."""
    if isinstance(obj, (PolyMatrix, IdempotentSet)):
        out = {}
        for name in type(obj).__slots__:
            value = getattr(obj, name)
            out.update({path + (name,): value} if name in CACHES else _slots(value, path + (name,)))
        return out
    if isinstance(obj, tuple):
        return {k: v for i, x in enumerate(obj) for k, v in _slots(x, path + (i,)).items()}
    return {path: _state(obj) if isinstance(obj, LaurentPoly) else obj}


def _unchanged(operands, before, op: str) -> list:
    """The slots of ``operands`` after ``op``, asserted equal to ``before``
    but for a cache that went from None to a value."""
    after = [_slots(x) for x in operands]
    for old, new in zip(before, after):
        assert new.keys() == old.keys(), op
        for path, value in old.items():
            if path[-1] in CACHES:
                assert value is None or new[path] is value, (op, path)
            else:
                assert new[path] == value, (op, path)
    return after


def _monomial_matrix(ring, data, n):
    """A paraunitary n x n matrix: a permutation matrix with each 1 replaced
    by +-z^t."""
    perm = data.draw(st.permutations(range(n)))
    z = LaurentPoly.variable("z", ring)
    cells = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        cells[i][j] = data.draw(st.sampled_from([1, -1])) * z ** data.draw(st.integers(-2, 2))
    return PolyMatrix(ring, cells)


def _sets(ring):
    out = [diagonal_set(ring, 2), from_group(cyclic(2), ring)]
    if ring.kind == CYCLOTOMIC:
        out.append(from_group(cyclic(4), ring))  # two pairs of complex-conjugate members
    return out


@per_ring
@given(data=st.data())
@settings(max_examples=20)
def test_no_matrix_or_set_operation_changes_its_operands(ring, data):
    n = data.draw(st.integers(1, 3))
    a = PolyMatrix(ring, [[data.draw(_polys(ring)) for _ in range(n)] for _ in range(n)])
    # the nonzero entries of b use z, which a does not: a binary op re-keys both onto the union
    z = LaurentPoly.variable("z", ring)
    b = PolyMatrix(ring, [[data.draw(_polys(ring)) * z for _ in range(n)] for _ in range(n)])
    g = data.draw(_polys(ring))
    u, v = _monomial_matrix(ring, data, n), _monomial_matrix(ring, data, n)
    s = data.draw(st.sampled_from(_sets(ring)))
    if data.draw(st.booleans()):  # an unproven copy, which the set constructors prove
        s = IdempotentSet(s.members, s.labels, check=False)
    t = IdempotentSet(diagonal_set(ring, 2).members, check=False)
    k = len(s)
    p = _monomial_matrix(ring, data, s.n)
    c = data.draw(_scalars(ring).filter(lambda c: not c.is_zero()))
    order = data.draw(st.permutations(range(k)))
    cut = data.draw(st.integers(1, k))
    latin = [[(j - i) % k for j in range(k)] for i in range(k)]
    ops = {
        "+": lambda: a + b,
        "-": lambda: a - b,
        "negation": lambda: -a,
        "scale": lambda: a.scale(g),
        "mul": lambda: mul(a, b),
        "tensor": lambda: tensor(a, b),
        "adjoint": lambda: a.adjoint(),
        "transpose": lambda: a.transpose(),
        "substitute": lambda: a.substitute({name: c * LaurentPoly.variable("w", ring) for name in a.vars[:1]}),
        "combination": lambda: combination([g, 1], [a, b]),
        "is_paraunitary": lambda: (is_paraunitary(a).ok, is_paraunitary(u).ok),
        "determinant": lambda: determinant(a),
        "rank": lambda: rank(a),
        "tangle": lambda: tangle(u, v),
        "merge": lambda: merge(s, [order[:cut], order[cut:]] if cut < k else [order]),
        "realify": lambda: realify(s),
        "tensor_sets": lambda: tensor_sets(s, t),
        "conjugate_set": lambda: conjugate_set(s, p),
        "monomial_sum": lambda: monomial_sum(s, MonomialAssignment.build(ring, [1] * k, list(range(k)))),
        "block_arrangement": lambda: block_arrangement(s, ArrangementPlan.build(ring, latin, [["x"] * k] * k)),
    }
    operands = [a, b, u, v, p, s, t]
    state = [_slots(x) for x in operands]
    for op, run in ops.items():
        with contextlib.suppress(NoSquareRoot):  # a tangle over Q, which has no 1/sqrt2
            run()
        state = _unchanged(operands, state, op)
