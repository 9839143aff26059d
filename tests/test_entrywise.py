"""Entrywise matrix arithmetic computes one result per distinct tuple of entries.

``polymatrix._map_distinct`` calls its function once for each distinct
tuple of entry objects (keyed by ``id``) found at a cell position and puts
that result in every cell holding the tuple.  These tests check each op
routed through it against the per-cell computation it replaced, on
matrices that repeat entry objects, hold equal but distinct objects, and
sum to entries in which a variable cancels, and count the calls that the
sharing saves.
"""

import copy

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import generic_set_report  # noqa: E402
from paraunitary import polymatrix  # noqa: E402
from paraunitary.groups import dihedral  # noqa: E402
from paraunitary.idempotents import from_group  # noqa: E402
from paraunitary.laurent import LaurentPoly, dot, poly_from_text  # noqa: E402
from paraunitary.polymatrix import (  # noqa: E402
    PolyMatrix,
    _map_distinct,
    _sums_to_identity,
    combination,
    tensor,
)
from paraunitary.scalars import QQ, cyclotomic, prime_field  # noqa: E402

RINGS = [QQ, cyclotomic(8), prime_field(7)]
# few texts, so cells repeat; x and -x, x + 1 and 1 - x cancel x in a sum
TEXTS = ["x", "-x", "x + 1", "1 - x", "x*y^-1", "(1/2)*y", "2", "0", "y - x"]


def _pool(ring):
    return [poly_from_text(t, ring) for t in TEXTS]


@st.composite
def matrices(draw, ring, pool, rows, cols):
    """A matrix over ``pool``: each cell an index into it, and a flag that
    puts an equal but distinct copy of the entry in that cell."""
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            e = pool[draw(st.integers(0, len(pool) - 1))]
            row.append(copy.copy(e) if draw(st.booleans()) else e)
        grid.append(row)
    return PolyMatrix(ring, grid)


def assert_same(got: PolyMatrix, want: PolyMatrix):
    """Equal, on the same canonical variables, every entry on them."""
    assert got == want
    assert got.vars == want.vars
    assert all(e.vars == got.vars for row in got.entries for e in row)


@pytest.mark.parametrize("ring", RINGS, ids=[str(r) for r in RINGS])
@given(data=st.data())
@settings(max_examples=40)
def test_each_entrywise_op_equals_its_per_cell_computation(ring, data):
    pool = _pool(ring)
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a, b, c = (data.draw(matrices(ring, pool, rows, cols)) for _ in range(3))
    n = len(a.entries)
    union = tuple(sorted(set(a.vars) | set(b.vars) | set(c.vars)))

    def at(m, i, j):
        return m.entries[i][j].with_vars(union)

    for sign, got in ((1, a + b), (-1, a - b)):
        want = [[at(a, i, j)._combine(at(b, i, j), sign) for j in range(cols)] for i in range(n)]
        assert_same(got, PolyMatrix(ring, want))
    coeffs = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(3)]
    vars = tuple(sorted(set(union).union(*(f.used_vars() for f in coeffs))))
    aligned = [f.with_vars(vars) for f in coeffs]
    want = [
        [dot(ring, vars, aligned, [m.entries[i][j].with_vars(vars) for m in (a, b, c)]) for j in range(cols)]
        for i in range(n)
    ]
    assert_same(combination(coeffs, [a, b, c]), PolyMatrix(ring, want))
    t = tensor(a, b)
    want = [
        [a.entries[i][j] * b.entries[k][l] for j in range(cols) for l in range(cols)]
        for i in range(n) for k in range(n)
    ]
    assert_same(t, PolyMatrix(ring, want))
    for fn in (LaurentPoly.conj, lambda e: e * e, lambda e: 3):
        assert_same(a.map_entries(fn), PolyMatrix(ring, [[fn(e) for e in row] for row in a.entries]))
    assert_same(a.entrywise_star(), PolyMatrix(ring, [[e.star() for e in row] for row in a.entries]))
    assert_same(a.adjoint(), PolyMatrix(ring, [[a.entries[i][j].star() for i in range(n)] for j in range(cols)]))
    assert_same(-a, PolyMatrix(ring, [[-e for e in row] for row in a.entries]))
    for f in (pool[4], pool[2]):  # a monomial and a binomial factor
        assert_same(a.scale(f), PolyMatrix(ring, [[f * e for e in row] for row in a.entries]))
    if rows == cols:
        mats = [a, b, c]
        total = combination([1] * 3, mats)
        assert _sums_to_identity(mats) == (total == PolyMatrix.identity(ring, rows))
        rest = PolyMatrix.identity(ring, rows) - a - b
        assert _sums_to_identity([a, b, rest])


@pytest.mark.parametrize("ring", RINGS, ids=[str(r) for r in RINGS])
def test_a_variable_that_cancels_is_dropped_from_the_shared_entries(ring):
    x, mx, x1, one_minus_x = _pool(ring)[:4]
    a = PolyMatrix(ring, [[x, x, x1], [x, x1, x1]])
    b = PolyMatrix(ring, [[mx, mx, one_minus_x], [mx, one_minus_x, one_minus_x]])
    s = a + b
    assert s.vars == () and s == PolyMatrix(ring, [[0, 0, 2], [0, 2, 2]])
    assert all(e.vars == () for row in s.entries for e in row)
    # the two distinct sums stay two objects, each in every cell of its pair
    assert len({id(e) for row in s.entries for e in row}) == 2
    assert s.entries[0][0] is s.entries[1][0] and s.entries[0][2] is s.entries[1][2]
    # a monomial_sum-like combination in which y cancels, with x left
    y = poly_from_text("y", ring)
    c = combination([1, 1], [PolyMatrix(ring, [[x + y, y]]), PolyMatrix(ring, [[-y, -y]])])
    assert c.vars == ("x",) and c == PolyMatrix(ring, [[x, 0]])


def test_the_function_runs_once_per_distinct_tuple_of_entry_objects():
    x, mx, x1 = _pool(QQ)[:3]
    twin = copy.copy(x)  # equal to x, another object: a tuple of its own
    left = [[x, x, twin], [x1, x, twin]]
    right = [[mx, mx, mx], [mx, mx, mx]]
    seen = []

    def pairs(cells):
        seen.extend(cells)
        return [(id(p), id(q)) for p, q in cells]

    grid = _map_distinct(pairs, left, right)
    assert [(id(p), id(q)) for p, q in seen] == [(id(x), id(mx)), (id(twin), id(mx)), (id(x1), id(mx))]
    assert grid == tuple(tuple((id(p), id(q)) for p, q in zip(*rows)) for rows in zip(left, right))
    # rows of one grid may differ in length, as the lower triangle does
    assert _map_distinct(lambda cells: [len(cells)] * len(cells), [[x], [x, x1]]) == ((2,), (2, 2))


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_group_ring_set_costs_one_sum_per_group_element(monkeypatch):
    # the G-matrix of D4 (order 8) holds entry (i, j) = coefficient of
    # g_i^-1 g_j: 8 distinct tuples over 64 cells, one per group element
    s = from_group(dihedral(4), QQ)
    assert s.n == 8 and len(s) == 5
    dots = _count(monkeypatch, polymatrix, "dot")
    assert generic_set_report(s).ok
    assert len(dots) == 8  # the completeness clause: 64 sums cell by cell
    combines = _count(monkeypatch, LaurentPoly, "_combine")
    total = s.members[0] + s.members[1]
    assert len(combines) == 8  # 64 cell by cell
    assert total == PolyMatrix(s.ring, [[x + y for x, y in zip(*rows)] for rows in zip(*(m.entries for m in s.members[:2]))])


def test_the_completeness_clause_stops_at_the_first_cell_that_differs(monkeypatch):
    # members that miss I at cell (0, 0) already: one sum decides the clause
    s = from_group(dihedral(4), QQ)
    members = list(s.members)
    members[0] = members[0] + PolyMatrix(QQ, [[1 if (i, j) == (0, 0) else 0 for j in range(8)] for i in range(8)])
    dots = _count(monkeypatch, polymatrix, "dot")
    assert not _sums_to_identity(members)
    assert len(dots) == 1
