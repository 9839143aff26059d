"""Tests for idempotent-set constructors and verification."""

from fractions import Fraction

import pytest

from _random_objects import generic_set_report

from paraunitary.errors import (
    IsotropicVector,
    NotCompleteSet,
    NotOrthonormal,
    NoSquareRoot,
    NotSquare,
)
from paraunitary.groups import cyclic, elementary_abelian_2, symmetric_3
from paraunitary.idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    factor_rank1,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    merge,
    realify,
    tensor_sets,
    verify_set,
)
from paraunitary.laurent import poly_from_text
from paraunitary.polymatrix import PolyMatrix, is_paraunitary, mul, rank, trace
from paraunitary.scalars import (
    QQ,
    ExactScalar,
    cyclotomic,
    prime_field,
    sqrt2,
    zeta,
)

Z4 = cyclotomic(4)
Z8 = cyclotomic(8)
F5 = prime_field(5)
F7 = prime_field(7)
F3 = prime_field(3)

V1 = [Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)]
V2 = [Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)]
V3 = [Fraction(2, 3), Fraction(-2, 3), Fraction(-1, 3)]


def ninth(rows):
    return PolyMatrix(QQ, [[Fraction(x, 9) for x in row] for row in rows])


P1 = ninth([(4, 2, 4), (2, 1, 2), (4, 2, 4)])
P2 = ninth([(1, 2, -2), (2, 4, -4), (-2, -4, 4)])
P3 = ninth([(4, -4, -2), (-4, 4, 2), (-2, 2, 1)])


def test_projections_from_orthonormal_basis():
    s = from_orthonormal_basis(QQ, [V1, V2, V3])
    assert list(s.members) == [P1, P2, P3]
    assert generic_set_report(s).ok
    assert [rank(m) for m in s.members] == [1, 1, 1]


def test_grouped_projections():
    s = from_orthonormal_basis(QQ, [V1, V2, V3], grouping=[[0], [1, 2]])
    assert s.members[0] == P1
    assert s.members[1] == P2 + P3
    assert rank(s.members[1]) == 2
    assert generic_set_report(s).ok


def test_orthonormal_rejects_bad_basis():
    with pytest.raises(NotOrthonormal):
        from_orthonormal_basis(QQ, [[1, 1], [1, -1]])  # not normalized
    with pytest.raises(NotOrthonormal):
        from_orthonormal_basis(QQ, [[1, 0], [1, 0]])


def test_complex_projectors():
    # v = (1/sqrt2)(-i, 1) needs 1/sqrt2, so work in Q(zeta_8)
    root2 = sqrt2(Z8)
    inv_root2 = root2.inverse()
    i8 = zeta(Z8, 2)
    v1 = [-i8 * inv_root2, inv_root2]
    v2 = [i8 * inv_root2, inv_root2]
    s = from_orthonormal_basis(Z8, [v1, v2])
    half = ExactScalar.from_rational(Z8, Fraction(1, 2))
    expected_first = PolyMatrix(Z8, [[half, i8 * half], [-i8 * half, half]])
    expected_second = PolyMatrix(Z8, [[half, -i8 * half], [i8 * half, half]])
    assert list(s.members) == [expected_first, expected_second]
    assert generic_set_report(s).ok


def test_finite_field_basis_lift():
    vectors = [[2, 1, 2], [1, 2, 3], [2, 3, 4]]  # V1..V3 reduced mod 5
    s = from_orthogonal_basis_finite(F5, vectors)
    expected = [
        PolyMatrix(F5, [[1, 3, 1], [3, 4, 3], [1, 3, 1]]),
        PolyMatrix(F5, [[4, 3, 2], [3, 1, 4], [2, 4, 1]]),
        PolyMatrix(F5, [[1, 4, 2], [4, 1, 3], [2, 3, 4]]),
    ]
    assert list(s.members) == expected
    assert generic_set_report(s).ok


def test_finite_field_bases_f7():
    s1 = from_orthogonal_basis_finite(F7, [[2, 1, 2], [1, 2, 5], [2, 5, 6]])
    expected1 = [
        PolyMatrix(F7, [[2, 1, 2], [1, 4, 1], [2, 1, 2]]),
        PolyMatrix(F7, [[4, 1, 6], [1, 2, 5], [6, 5, 2]]),
        PolyMatrix(F7, [[2, 5, 6], [5, 2, 1], [6, 1, 4]]),
    ]
    assert list(s1.members) == expected1
    s2 = from_orthogonal_basis_finite(F7, [[1, 2, 1], [1, 6, 1], [1, 0, 6]])
    expected2 = [
        PolyMatrix(F7, [[6, 5, 6], [5, 3, 5], [6, 5, 6]]),
        PolyMatrix(F7, [[5, 2, 5], [2, 5, 2], [5, 2, 5]]),
        PolyMatrix(F7, [[4, 0, 3], [0, 0, 0], [3, 0, 4]]),
    ]
    assert list(s2.members) == expected2


def test_isotropic_vector_rejected():
    f2 = prime_field(2)
    with pytest.raises(IsotropicVector):
        from_orthogonal_basis_finite(f2, [[1, 1], [1, 1]])


def test_standard_basis_finite():
    s = from_orthogonal_basis_finite(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert s == diagonal_set(F7, 3)


def test_diagonal_set():
    s = diagonal_set(QQ, 2)
    assert s.members[0] == PolyMatrix(QQ, [[1, 0], [0, 0]])
    assert s.members[1] == PolyMatrix(QQ, [[0, 0], [0, 1]])
    assert len(diagonal_set(QQ, 1)) == 1
    assert generic_set_report(diagonal_set(QQ, 6)).ok


def test_s3_matrices():
    s = from_group(symmetric_3(), QQ)
    sixth = Fraction(1, 6)
    third = Fraction(1, 3)
    e1 = PolyMatrix(QQ, [[sixth] * 6 for _ in range(6)])
    e2 = PolyMatrix(
        QQ,
        [
            [sixth * x for x in row]
            for row in [
                (1, -1, -1, -1, 1, 1),
                (-1, 1, 1, 1, -1, -1),
                (-1, 1, 1, 1, -1, -1),
                (-1, 1, 1, 1, -1, -1),
                (1, -1, -1, -1, 1, 1),
                (1, -1, -1, -1, 1, 1),
            ]
        ],
    )
    e3 = PolyMatrix(
        QQ,
        [
            [third * x for x in row]
            for row in [
                (2, 0, 0, 0, -1, -1),
                (0, 2, -1, -1, 0, 0),
                (0, -1, 2, -1, 0, 0),
                (0, -1, -1, 2, 0, 0),
                (-1, 0, 0, 0, 2, -1),
                (-1, 0, 0, 0, -1, 2),
            ]
        ],
    )
    assert list(s.members) == [e1, e2, e3]
    assert [rank(m) for m in s.members] == [1, 1, 4]
    assert [trace(m) for m in s.members] == [
        ExactScalar.from_rational(QQ, 1),
        ExactScalar.from_rational(QQ, 1),
        ExactScalar.from_rational(QQ, 4),
    ]


def test_verify_set_rejects_incomplete():
    with pytest.raises(NotCompleteSet):
        IdempotentSet([P1])
    report = verify_set(IdempotentSet([P1], check=False))
    assert not report.ok
    assert any("sum" in f for f in report.failures)


def test_from_matrix_rows_identity():
    s = from_matrix_rows(PolyMatrix.identity(QQ, 2))
    assert s == diagonal_set(QQ, 2)


def test_from_matrix_rows_laurent():
    half = Fraction(1, 2)
    u = PolyMatrix(
        QQ,
        [
            [poly_from_text("(1/2)*x + (1/2)*y", QQ), poly_from_text("(1/2)*x - (1/2)*y", QQ)],
            [poly_from_text("(1/2)*x - (1/2)*y", QQ), poly_from_text("(1/2)*x + (1/2)*y", QQ)],
        ],
    )
    s = from_matrix_rows(u)
    p1 = PolyMatrix(
        QQ,
        [
            [
                poly_from_text("(1/2) + (1/4)*x^-1*y + (1/4)*x*y^-1", QQ),
                poly_from_text("(1/4)*x*y^-1 - (1/4)*x^-1*y", QQ),
            ],
            [
                poly_from_text("(1/4)*x^-1*y - (1/4)*x*y^-1", QQ),
                poly_from_text("(1/2) - (1/4)*x^-1*y - (1/4)*x*y^-1", QQ),
            ],
        ],
    )
    assert s.members[0] == p1
    assert generic_set_report(s).ok
    del half


def test_merge_and_trivial_partitions():
    s = from_orthonormal_basis(QQ, [V1, V2, V3])
    merged = merge(s, [[0, 1, 2]])
    assert merged.members[0] == PolyMatrix.identity(QQ, 3)
    same = merge(s, [[0], [1], [2]])
    assert same == s
    prof = merge(s, [[0], [1, 2]])
    assert [rank(m) for m in prof.members] == [1, 2]


def test_realify_c4():
    z4set = from_group(cyclic(4), Z4)
    real = realify(z4set)
    assert len(real) == 3
    half = Fraction(1, 2)
    # e(chi1) + e(chi3) = (1 - a^2)/2 embeds as a circulant
    expected = PolyMatrix(
        Z4,
        [
            [half, 0, -half, 0],
            [0, half, 0, -half],
            [-half, 0, half, 0],
            [0, -half, 0, half],
        ],
    )
    assert expected in list(real.members)
    assert generic_set_report(real).ok
    for m in real.members:
        assert m.entrywise_star() == m  # all coefficients real


def test_realify_c6_profile():
    real = realify(from_group(cyclic(6), cyclotomic(6)))
    assert len(real) == 4
    assert sorted(rank(m) for m in real.members) == [1, 1, 2, 2]
    assert generic_set_report(real).ok


def test_realify_already_real():
    s = from_group(elementary_abelian_2(2), QQ)
    assert realify(s) == s


def test_tensor_sets_matches_group_embedding():
    c2 = from_group(cyclic(2), QQ)
    prod = tensor_sets(c2, c2)
    direct = from_group(elementary_abelian_2(2), QQ)
    assert list(prod.members) == list(direct.members)
    assert tensor_sets(diagonal_set(QQ, 2), diagonal_set(QQ, 2)) == diagonal_set(QQ, 4)


def test_tensor_identity_trivial():
    s = from_orthonormal_basis(QQ, [V1, V2, V3])
    triv = diagonal_set(QQ, 1)
    assert tensor_sets(s, triv) == s


def test_conjugate_set():
    d3 = diagonal_set(QQ, 3)
    assert conjugate_set(d3, PolyMatrix.identity(QQ, 3)) == d3
    perm = PolyMatrix(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    conj = conjugate_set(d3, perm)
    assert sorted(str(m) for m in conj.members) == sorted(str(m) for m in d3.members)
    haar = PolyMatrix(Z8, [[1, 1], [1, -1]]).scale(sqrt2(Z8).inverse())
    assert is_paraunitary(haar).ok
    conj2 = conjugate_set(diagonal_set(Z8, 2), haar)
    assert generic_set_report(conj2).ok


def test_factor_rank1():
    v = factor_rank1(P1)
    expected = PolyMatrix.column_vector(QQ, [Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)])
    assert v == expected
    assert mul(v, v.adjoint()) == P1
    bad = PolyMatrix(F3, [[2, 1], [1, 2]])
    with pytest.raises(NoSquareRoot):
        factor_rank1(bad)
    e11 = PolyMatrix(QQ, [[1, 0], [0, 0]])
    assert factor_rank1(e11) == PolyMatrix.column_vector(QQ, [1, 0])


@pytest.mark.parametrize(
    "p, rank_of_p",
    [
        (PolyMatrix.identity(QQ, 2), 2),
        (PolyMatrix.identity(Z8, 3), 3),
        (PolyMatrix.identity(QQ, 3) - P1, 2),
        # over F_3 the trace of I_4 is 1: only the rank tells it from rank 1
        (PolyMatrix.identity(prime_field(3), 4), 4),
    ],
)
def test_factor_rank1_refuses_a_higher_rank_as_an_input_error(p, rank_of_p):
    # a symmetric idempotent of rank > 1 is refused like one of rank 0,
    # before any factor is built
    assert mul(p, p) == p and p.adjoint() == p and rank(p) == rank_of_p
    with pytest.raises(NotCompleteSet, match=f"^input has rank {rank_of_p}, not 1$"):
        factor_rank1(p)
    with pytest.raises(NotCompleteSet, match="^zero diagonal: input has rank 0$"):
        factor_rank1(p.scale(0))


NON_SQUARE = [[[1, 0]], [[1, 0, 0], [0, 0, 0]], [[1, 0], [0, 0], [0, 0]]]


@pytest.mark.parametrize("entries", NON_SQUARE, ids=["1x2", "2x3", "3x2"])
def test_factor_rank1_refuses_a_matrix_that_is_not_square(entries):
    # the 1x2 and 2x3 inputs once gave a column v with v v* not the input,
    # and the 3x2 input an IndexError
    p = PolyMatrix(QQ, entries)
    with pytest.raises(NotSquare, match=f"^square matrix required, got {p.rows}x{p.cols}$"):
        factor_rank1(p)


def test_f3_building_blocks():
    p = PolyMatrix(F3, [[2, 1], [1, 2]])
    q = PolyMatrix(F3, [[2, 2], [2, 2]])
    s = IdempotentSet([p, q])
    assert generic_set_report(s).ok
