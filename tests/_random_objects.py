"""Seeded random generators for idempotent sets and paraunitary matrices,
and the helpers that build test values: scalars from coordinates, permuted and zero matrices."""

import math
import random
from fractions import Fraction

from paraunitary.constructors import (
    MonomialAssignment,
    belevitch_block,
    monomial_sum,
)
from paraunitary.groups import cyclic, dihedral, elementary_abelian_2, symmetric_3
from paraunitary.idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    from_group,
    from_orthonormal_basis,
    merge,
)
from paraunitary.laurent import LaurentPoly
from paraunitary.polymatrix import PolyMatrix
from paraunitary.scalars import QQ, ExactScalar, cyclotomic, scalar_from_ints, zeta

Z8 = cyclotomic(8)

_BASIS = [
    [Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)],
    [Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)],
    [Fraction(2, 3), Fraction(-2, 3), Fraction(-1, 3)],
]


def rational_set_pool():
    """Complete symmetric sets over Q, various sizes."""
    return [
        from_group(cyclic(2), QQ),
        from_group(elementary_abelian_2(2), QQ),
        from_group(elementary_abelian_2(3), QQ),
        from_group(symmetric_3(), QQ),
        from_group(dihedral(4), QQ),
        from_orthonormal_basis(QQ, _BASIS),
        diagonal_set(QQ, 2),
        diagonal_set(QQ, 3),
        diagonal_set(QQ, 4),
    ]


def all_builtin_sets():
    """One entry per built-in family and order, n <= 9, each in its home ring."""
    sets = [
        from_group(cyclic(2), QQ),
        from_group(cyclic(3), cyclotomic(3)),
        from_group(cyclic(4), cyclotomic(4)),
        from_group(cyclic(5), cyclotomic(5)),
        from_group(cyclic(6), cyclotomic(6)),
        from_group(cyclic(7), cyclotomic(7)),
        from_group(cyclic(8), cyclotomic(8)),
        from_group(cyclic(9), cyclotomic(9)),
        from_group(elementary_abelian_2(2), QQ),
        from_group(elementary_abelian_2(3), QQ),
        from_group(dihedral(3), QQ),
        from_group(dihedral(4), QQ),
        from_group(symmetric_3(), QQ),
        from_orthonormal_basis(QQ, _BASIS),
    ]
    return sets


def scalar_from_vector(ring, coeffs) -> ExactScalar:
    """The Q(zeta_N) value sum(coeffs[i] zeta^i), its coordinates ints or Fractions."""
    vec = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in vec))
    return scalar_from_ints(ring, [c.numerator * (den // c.denominator) for c in vec], den)


def vector_from_scalar(a: ExactScalar) -> tuple[Fraction, ...]:
    """The power-basis coordinates of ``a`` as Fractions, read off the
    ``(nums, den)`` layout of ``ExactScalar.value``."""
    nums, den = a.value
    return tuple(Fraction(c, den) for c in nums)


def permute_rows(m: PolyMatrix, perm) -> PolyMatrix:
    """Row i of the result is row perm[i] of m."""
    return PolyMatrix(m.ring, [m.entries[p] for p in perm])


def permute_cols(m: PolyMatrix, perm) -> PolyMatrix:
    """Column j of the result is column perm[j] of m."""
    return PolyMatrix(m.ring, [[row[p] for p in perm] for row in m.entries])


def zeros(ring, rows: int, cols: int) -> PolyMatrix:
    """The rows x cols zero matrix, one zero polynomial object in every entry."""
    return PolyMatrix(ring, [[LaurentPoly.zero(ring)] * cols] * rows)


def random_permutation_matrix(rng: random.Random, ring, n: int) -> PolyMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return permute_rows(PolyMatrix.identity(ring, n), perm)


def random_set(rng: random.Random, pool=None) -> IdempotentSet:
    """Draw from the pool, then optionally merge or conjugate by a permutation."""
    pool = pool or rational_set_pool()
    s = rng.choice(pool)
    move = rng.randrange(4)
    if move == 1 and len(s) > 2:
        i = rng.randrange(len(s) - 1)
        groups = [[j] for j in range(len(s)) if j not in (i, i + 1)] + [[i, i + 1]]
        s = merge(s, groups)
    elif move == 2:
        s = conjugate_set(s, random_permutation_matrix(rng, s.ring, s.n))
    return s


def random_unit(rng: random.Random, ring) -> ExactScalar:
    if ring.kind == "cyclotomic":
        return zeta(ring, rng.randrange(ring.conductor))
    if ring.kind == "prime_field":
        return ExactScalar.from_rational(ring, rng.choice([1, -1]))
    return ExactScalar.from_rational(QQ, rng.choice([1, -1]))


def random_assignment(rng: random.Random, s: IdempotentSet, var_names=("z",), max_exp=3):
    coeffs, exps = [], []
    for _ in s.members:
        coeffs.append(random_unit(rng, s.ring))
        exps.append({v: rng.randint(0, max_exp) for v in var_names if rng.random() < 0.8})
    return MonomialAssignment.build(s.ring, coeffs, exps)


def random_paraunitary(rng: random.Random, pool=None, var_names=("z", "y")) -> PolyMatrix:
    """A random certified-paraunitary matrix over Q or its pool's rings."""
    kind = rng.randrange(3)
    if kind == 2:
        v = [Fraction(x) for x in rng.choice(_BASIS)]
        return belevitch_block(
            PolyMatrix.column_vector(QQ, v), rng.choice(list(var_names))
        )
    s = random_set(rng, pool)
    names = tuple(rng.sample(var_names, k=min(len(var_names), 1 + rng.randrange(len(var_names)))))
    return monomial_sum(s, random_assignment(rng, s, names))
