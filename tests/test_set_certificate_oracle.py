"""The ``rank`` certificate of ``verify_set`` against the pairwise check.

A set passes ``verify_set`` when its members sum to I, each is symmetric,
and their ranks are positive and sum to n; the generic check decides every
clause and every ordered pair by full products (``_naive_set_failures``).
The sets drawn here, over Q, Q(zeta_8) and F_5 or F_7 with 2 <= n <= 4, are the
projectors of orthonormal or orthogonal bases grouped at random, the same
sets with a symmetric transfer between two members (the sum and symmetry
kept, idempotency broken), and complete symmetric sets of random members.
"""

import pytest

pytest.importorskip("hypothesis")
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _fixtures import F5, F7  # noqa: E402
from _random_objects import Z8, generic_set_report, zeros  # noqa: E402
from paraunitary.idempotents import (  # noqa: E402
    IdempotentSet,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    merge,
)
from paraunitary.polymatrix import PolyMatrix, mul  # noqa: E402
from paraunitary.scalars import QQ, ExactScalar, zeta  # noqa: E402
from test_certificates import _naive_set_failures  # noqa: E402

RINGS = [QQ, Z8, F5, F7]


@st.composite
def scalars(draw, ring, real=False):
    """A small scalar of ``ring``; one the involution fixes when ``real``."""
    x = ExactScalar.from_rational(ring, draw(st.integers(-2, 2)))
    if ring is Z8 and not real:
        x = x + draw(st.integers(-2, 2)) * zeta(Z8, draw(st.integers(1, 7)))
    return x


@st.composite
def symmetric_matrices(draw, ring, n):
    """An n x n matrix with M* = M."""
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = draw(scalars(ring, real=True))
        for j in range(i + 1, n):
            grid[i][j] = draw(scalars(ring))
            grid[j][i] = grid[i][j].conj()
    return PolyMatrix(ring, grid)


def _reflection(ring, v) -> PolyMatrix:
    """I - 2 v* v / (v v*), which is symmetric and its own inverse, so its
    rows are orthonormal; I when v v* = 0."""
    row = PolyMatrix(ring, [v])
    norm = mul(row, row.adjoint()).entries[0][0]
    eye = PolyMatrix.identity(ring, len(v))
    if norm.is_zero():
        return eye
    return eye - mul(row.adjoint(), row).scale(2 * norm.constant_value().inverse())


@st.composite
def groupings(draw, n):
    """A partition of range(n) into nonempty groups."""
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return [g for g in ([i for i in range(n) if owner[i] == k] for k in range(n)) if g]


@st.composite
def basis_sets(draw, ring, n):
    """The projectors of the rows of a product of two reflections, grouped
    at random; over F_p, half the time from the rows scaled into an
    orthogonal basis that is not orthonormal."""
    q = PolyMatrix.identity(ring, n)
    for _ in range(2):
        v = [draw(scalars(ring)) for _ in range(n)]
        q = mul(q, _reflection(ring, v))
    rows = [PolyMatrix(ring, [list(r)]) for r in q.entries]
    grouping = draw(groupings(n))
    if ring.p is not None and draw(st.booleans()):
        units = [ExactScalar.from_rational(ring, draw(st.integers(1, ring.p - 1))) for _ in rows]
        return merge(from_orthogonal_basis_finite(ring, [r.scale(c) for r, c in zip(rows, units)]), grouping)
    return from_orthonormal_basis(ring, rows, grouping)


@st.composite
def transfers(draw, s):
    """``s`` with a symmetric D != 0 added to one member and taken from
    another."""
    if len(s) < 2:
        return s
    a, b = draw(st.permutations(range(len(s))))[:2]
    zero = zeros(s.ring, s.n, s.n)
    d = draw(symmetric_matrices(s.ring, s.n).filter(lambda d: d != zero))
    members = list(s.members)
    members[a], members[b] = members[a] + d, members[b] - d
    return IdempotentSet(members, check=False)


@st.composite
def symmetric_sets(draw, ring, n):
    """k - 1 random symmetric members, the last the rest of I."""
    k = draw(st.integers(2, 4))
    zero = zeros(ring, n, n)
    members = [draw(st.one_of(symmetric_matrices(ring, n), st.just(zero))) for _ in range(k - 1)]
    rest = PolyMatrix.identity(ring, n)
    for e in members:
        rest = rest - e
    return IdempotentSet([*members, rest], check=False)


@pytest.mark.parametrize("ring", RINGS, ids=[str(r) for r in RINGS])
@given(data=st.data())
@settings(max_examples=40)
def test_the_rank_certificate_gives_the_pairwise_verdict(ring, data):
    n = data.draw(st.integers(2, 4), "n")
    s = data.draw(basis_sets(ring, n), "basis set")
    for t in (s, data.draw(transfers(s), "transfer"), data.draw(symmetric_sets(ring, n), "symmetric set")):
        report, naive = generic_set_report(t), _naive_set_failures(t)
        assert report.ok == (not naive)
        assert report.failures == naive
    assert generic_set_report(s).ok
