"""Tests for group tables, characters, and group-ring machinery."""

import random
from fractions import Fraction

import pytest

from paraunitary.errors import BadCharacteristic, NoSuchRoot
from paraunitary.groups import (
    GroupRingElement,
    GroupTable,
    builtin_group,
    character_table,
    cyclic,
    dihedral,
    elementary_abelian_2,
    embed_group_ring,
    group_ring_idempotents,
    symmetric_3,
)
from paraunitary.polymatrix import PolyMatrix, mul
from paraunitary.scalars import QQ, ExactScalar, cyclotomic, prime_field, zeta

Z4 = cyclotomic(4)


def test_cyclic_table():
    c4 = cyclic(4)
    assert c4.order == 4
    assert c4.inv == (0, 3, 2, 1)


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        GroupTable("bad", ["1", "g"], [[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        GroupTable("bad", ["g", "1"], [[1, 0], [0, 1]])


def test_s3_table_matches_listing():
    s3 = symmetric_3()
    assert s3.elements == ("1", "(12)", "(13)", "(23)", "(123)", "(132)")
    name = {e: i for i, e in enumerate(s3.elements)}
    # spot-checks against the group law, including the forced value at (6,4)
    assert s3.mul[name["(12)"]][name["(13)"]] == name["(132)"]
    assert s3.mul[name["(12)"]][name["(123)"]] == name["(23)"]
    assert s3.mul[name["(123)"]][name["(23)"]] == name["(12)"]
    assert s3.inv[name["(123)"]] == name["(132)"]


def test_dihedral_table():
    d8 = dihedral(4)
    assert d8.order == 8
    # s r s = r^-1
    s, r = 4, 1
    sr = d8.mul[s][r]
    assert d8.mul[d8.mul[s][r]][s] == d8.inv[r]
    del sr
    assert builtin_group("dihedral", 8) == d8


def test_c2k_table():
    g = elementary_abelian_2(2)
    assert g.elements == ("1", "b", "a", "ab")
    assert all(g.inv[i] == i for i in range(4))


def test_character_tables_are_orthogonal():
    for table in (cyclic(2), cyclic(3), cyclic(4), cyclic(6), elementary_abelian_2(2), dihedral(3), dihedral(4), symmetric_3()):
        chars = character_table(table).characters
        assert sum(ch.dim**2 for ch in chars) == table.order


def test_the_characters_of_a_name_and_order_are_built_once():
    for table in (cyclic(4), cyclic(6), elementary_abelian_2(2), dihedral(4), symmetric_3()):
        read = GroupTable.from_json(table.to_json())
        first, again, from_read = character_table(table), character_table(table), character_table(read)
        assert first.characters is again.characters is from_read.characters, table
        assert (first.group, from_read.group) == (table, read) and from_read.group is read, table
    # C4 read from JSON under its built-in name: chi_j(a^m) = i^(jm), as before
    c4 = character_table(GroupTable.from_json(cyclic(4).to_json()))
    assert [ch.values for ch in c4.characters] == [tuple(zeta(Z4, j * m) for m in range(4)) for j in range(4)]
    assert [(ch.name, ch.dim) for ch in character_table(GroupTable.from_json(dihedral(4).to_json())).characters] == [
        ("triv", 1), ("refl", 1), ("rot-", 1), ("rot-refl-", 1), ("rot1", 2)
    ]


def test_c2_idempotents():
    es = group_ring_idempotents(cyclic(2), QQ)
    half = Fraction(1, 2)
    assert es[0].coeffs == (ExactScalar.from_rational(QQ, half),) * 2
    assert es[1].coeffs == (
        ExactScalar.from_rational(QQ, half),
        ExactScalar.from_rational(QQ, -half),
    )
    e0 = embed_group_ring(es[0])
    assert e0 == PolyMatrix(QQ, [[half, half], [half, half]])


def test_c4_idempotents_over_z4():
    es = group_ring_idempotents(cyclic(4), Z4)
    w = zeta(Z4)
    quarter = ExactScalar.from_rational(Z4, Fraction(1, 4))
    # one member carries coefficients (1, w, w^2, w^3)/4
    target = tuple(quarter * w**k for k in range(4))
    assert any(e.coeffs == target for e in es)
    e2 = embed_group_ring([e for e in es if e.coeffs == target][0])
    # circulant of the coefficient row
    assert e2.entries[1][0] == e2.entries[2][1] == e2.entries[3][2]
    assert e2.entries[0][0].constant_value() == quarter


def test_c2xc2_idempotents():
    es = group_ring_idempotents(elementary_abelian_2(2), QQ)
    quarter = Fraction(1, 4)
    f1 = es[0]
    assert all(c == ExactScalar.from_rational(QQ, quarter) for c in f1.coeffs)
    # the all-sign character gives (1 - a - b + ab)/4 whose matrix is printed below
    f3 = [e for e in es if e.coeffs[1] == ExactScalar.from_rational(QQ, -quarter) and e.coeffs[3] == ExactScalar.from_rational(QQ, quarter)]
    assert len(f3) == 1
    m = embed_group_ring(f3[0])
    expected = PolyMatrix(
        QQ,
        [
            [quarter, -quarter, -quarter, quarter],
            [-quarter, quarter, quarter, -quarter],
            [-quarter, quarter, quarter, -quarter],
            [quarter, -quarter, -quarter, quarter],
        ],
    )
    assert m == expected


def test_bad_characteristic_and_missing_roots():
    with pytest.raises(BadCharacteristic):
        group_ring_idempotents(cyclic(7), prime_field(7))
    with pytest.raises(NoSuchRoot):
        group_ring_idempotents(cyclic(3), QQ)
    with pytest.raises(NoSuchRoot):
        group_ring_idempotents(cyclic(4), prime_field(7))  # 4 does not divide 6


def test_cyclic_over_prime_field():
    es = group_ring_idempotents(cyclic(3), prime_field(7))
    total = es[0] + es[1] + es[2]
    assert total == GroupRingElement(cyclic(3), prime_field(7), [1, 0, 0])
    # over F_7 the two non-trivial C_3 idempotents swap under the involution;
    # only their sum is symmetric
    assert es[1].star() == es[2]
    assert (es[1] + es[2]).star() == es[1] + es[2]


def test_embedding_is_ring_homomorphism():
    rng = random.Random(23)
    for table in (cyclic(4), elementary_abelian_2(2), symmetric_3(), dihedral(4)):
        for _ in range(10):
            u = GroupRingElement(
                table, QQ, [Fraction(rng.randint(-3, 3)) for _ in range(table.order)]
            )
            v = GroupRingElement(
                table, QQ, [Fraction(rng.randint(-3, 3)) for _ in range(table.order)]
            )
            assert embed_group_ring(u * v) == mul(embed_group_ring(u), embed_group_ring(v))
            assert embed_group_ring(u + v) == embed_group_ring(u) + embed_group_ring(v)
            assert embed_group_ring(u.transpose()) == embed_group_ring(u).transpose()
            assert embed_group_ring(u.star()) == embed_group_ring(u).adjoint()


def test_group_idempotents_are_symmetric():
    for table, ring in (
        (cyclic(4), Z4),
        (cyclic(6), cyclotomic(6)),
        (symmetric_3(), QQ),
        (dihedral(4), QQ),
        (elementary_abelian_2(3), QQ),
    ):
        for e in group_ring_idempotents(table, ring):
            assert e.star() == e


def test_embedded_idempotent_rank_is_squared_dimension():
    from paraunitary.polymatrix import rank

    for table, ring in (
        (cyclic(4), Z4),
        (cyclic(6), cyclotomic(6)),
        (symmetric_3(), QQ),
        (dihedral(3), QQ),
        (dihedral(4), QQ),
        (elementary_abelian_2(3), QQ),
    ):
        chars = character_table(table).characters
        for ch, e in zip(chars, group_ring_idempotents(table, ring)):
            assert rank(embed_group_ring(e)) == ch.dim**2
