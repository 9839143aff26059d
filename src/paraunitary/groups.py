"""Small finite groups, their character tables, and group-ring elements.

The embedding w -> W sends a group-ring element to the matrix with entry
(i, j) equal to the coefficient of g_i^-1 g_j; for a cyclic group under the
natural listing this is the circulant of the coefficient row.  Built-in
families: cyclic(n), elementary_abelian_2(k), dihedral(n) of order 2n, and
the symmetric group on three letters.

A group-ring element is a value of the layout of ``scalars`` over |G|
``ring.degree`` int numerators, canonical as a whole, so ``==`` compares
ints; its sums, differences and folds mod Phi_N are those of scalars.
What is specific to groups stays here: the product, one int accumulator of
length ``2 phi(N) - 1`` per group element over the twisted convolution of
the multiplication table, the move of g to g^-1 in ``star`` and
``transpose``, and ``coeffs``, which reads the canonical scalars back only
when asked.

:func:`group_ring_idempotents` builds the primitive central idempotents
from a character table and does not check them.  ``idempotents.from_group``
proves the four clauses once, in FG (``idempotents._group_ring_clauses``),
and the embedding, an injective *-homomorphism, carries them to the
matrices; it runs ``verify_set`` on the embedded matrices only when a
clause fails in FG, to name the failing clauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .errors import (
    BadCharacteristic,
    IncompatibleRings,
    NoSuchRoot,
    ParseError,
)
from .laurent import LaurentPoly
from .polymatrix import MAX_DIMENSION, PolyMatrix
from .scalars import (
    CYCLOTOMIC,
    PRIME_FIELD,
    QQ,
    RATIONAL,
    ExactScalar,
    RingDescriptor,
    _apply_power_map,
    as_scalar,
    canonical_value,
    cast_scalar,
    cyclotomic,
    fold_product,
    scalar_from_ints,
    signed_sum,
    zeta,
    zero as scalar_zero,
)


class GroupTable:
    """Multiplication table of a small finite group, identity listed first.

    A value by contract, like a scalar: nothing assigns its slots once it
    is built.
    """

    __slots__ = ("name", "order", "elements", "mul", "inv")

    def __init__(self, name: str, elements: list[str], mul: list[list[int]]):
        n = len(elements)
        if n == 0 or len(mul) != n or any(len(r) != n for r in mul):
            raise ValueError("malformed multiplication table")
        if any(x < 0 or x >= n for row in mul for x in row):
            raise ValueError("table entry out of range")
        if any(mul[0][j] != j or mul[j][0] != j for j in range(n)):
            raise ValueError("element 0 must be the identity")
        inv = [-1] * n
        for i in range(n):
            for j in range(n):
                if mul[i][j] == 0:
                    if mul[j][i] != 0:
                        raise ValueError("one-sided inverse")
                    inv[i] = j
        if any(v < 0 for v in inv):
            raise ValueError("missing inverse")
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    ab = mul[a][b]
                    for c in range(n):
                        if mul[ab][c] != mul[a][mul[b][c]]:
                            raise ValueError("multiplication is not associative")
        self.name, self.order, self.elements = name, n, tuple(elements)
        self.mul, self.inv = tuple(tuple(r) for r in mul), tuple(inv)

    def __eq__(self, other):
        return (
            isinstance(other, GroupTable)
            and self.elements == other.elements
            and self.mul == other.mul
        )

    def __repr__(self):
        return f"GroupTable({self.name}, order {self.order})"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "elements": list(self.elements),
            "mul": [list(r) for r in self.mul],
        }

    @staticmethod
    def from_json(obj: dict) -> "GroupTable":
        return GroupTable(obj.get("name", "group"), list(obj["elements"]), obj["mul"])


@dataclass(frozen=True)
class Character:
    """An irreducible character as a value per group element."""

    name: str
    dim: int
    values: tuple[ExactScalar, ...]


@dataclass(frozen=True)
class CharacterTable:
    group: GroupTable
    characters: tuple[Character, ...]


@lru_cache(maxsize=None)
def cyclic(n: int) -> GroupTable:
    elements = ["1"] + [f"a^{k}" if k > 1 else "a" for k in range(1, n)]
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(f"C{n}", elements, mul)


@lru_cache(maxsize=None)
def elementary_abelian_2(k: int) -> GroupTable:
    """C_2^k listed in binary counting order, compatible with Kronecker products."""
    n = 1 << k
    letters = "abcdefgh"[:k]

    def label(mask: int) -> str:
        if mask == 0:
            return "1"
        return "".join(letters[i] for i in range(k) if mask & (1 << (k - 1 - i)))

    elements = [label(m) for m in range(n)]
    mul = [[i ^ j for j in range(n)] for i in range(n)]
    return GroupTable(f"C2^{k}", elements, mul)


@lru_cache(maxsize=None)
def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n: rotations r^k then reflections s r^k."""
    if n < 1:
        raise ValueError("dihedral(n) needs n >= 1")
    elements = []
    for k in range(n):
        elements.append("1" if k == 0 else (f"r^{k}" if k > 1 else "r"))
    for k in range(n):
        elements.append("s" if k == 0 else (f"s*r^{k}" if k > 1 else "s*r"))

    def index(flip: int, rot: int) -> int:
        return flip * n + rot % n

    mul = [[0] * (2 * n) for _ in range(2 * n)]
    for f1 in range(2):
        for r1 in range(n):
            for f2 in range(2):
                for r2 in range(n):
                    # (s^f1 r^r1)(s^f2 r^r2) = s^(f1+f2) r^(r2 + r1*(-1)^f2)
                    rot = (r2 + (r1 if f2 == 0 else -r1)) % n
                    mul[index(f1, r1)][index(f2, r2)] = index((f1 + f2) % 2, rot)
    return GroupTable(f"D{2 * n}", elements, mul)


# S_3 under the listing 1, (12), (13), (23), (123), (132); composition is
# right-to-left (apply the second factor first), which pins the table below.
_S3_PERMS = [
    (0, 1, 2),
    (1, 0, 2),
    (2, 1, 0),
    (0, 2, 1),
    (1, 2, 0),
    (2, 0, 1),
]
_S3_LABELS = ["1", "(12)", "(13)", "(23)", "(123)", "(132)"]


@lru_cache(maxsize=None)
def symmetric_3() -> GroupTable:
    def compose(f, g):
        return tuple(f[g[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    mul = [
        [idx[compose(_S3_PERMS[i], _S3_PERMS[j])] for j in range(6)]
        for i in range(6)
    ]
    return GroupTable("S3", _S3_LABELS, mul)


BUILTIN_FAMILIES = ("cyclic", "c2k", "dihedral", "s3")


def builtin_group(family: str, order: int | None = None, what: str = "order") -> GroupTable:
    """The group of a built-in family; every family but s3 needs its
    ``order``, and one given none, or one the family has no group of, is a
    ParseError naming the argument ``what``."""
    if family == "s3":
        return symmetric_3()
    if family in BUILTIN_FAMILIES and order is None:
        raise ParseError(f"{family} needs the argument {what!r}")
    if order is not None and order > MAX_DIMENSION:
        raise ParseError(f"argument {what!r}: group order {order} exceeds the input limit {MAX_DIMENSION}")
    if family == "cyclic":
        if order < 1:
            raise ParseError(f"argument {what!r}: cyclic needs a positive order")
        return cyclic(order)
    if family == "c2k":
        if order < 2 or order & (order - 1):
            raise ParseError(f"argument {what!r}: c2k needs order a power of two >= 2")
        return elementary_abelian_2(order.bit_length() - 1)
    if family == "dihedral":
        if order < 2 or order % 2:
            raise ParseError(f"argument {what!r}: dihedral needs even order 2n")
        return dihedral(order // 2)
    raise ParseError(f"unknown family {family!r}; pick from {BUILTIN_FAMILIES}")


def _value_ring(l: int) -> RingDescriptor:
    return QQ if l <= 2 else cyclotomic(l)


def _rou(ring: RingDescriptor, l: int, power: int) -> ExactScalar:
    """zeta_l^power inside _value_ring(l)."""
    if ring.kind == RATIONAL:
        return ExactScalar.from_rational(ring, 1 if power % l == 0 else -1)
    return zeta(ring, (ring.conductor // l) * power)


def character_table(group: GroupTable) -> CharacterTable:
    """Hardcoded irreducible characters for the built-in families, built once per name and order."""
    return CharacterTable(group, _characters(group.name, group.order))


@lru_cache(maxsize=None)
def _characters(name: str, n: int) -> tuple[Character, ...]:
    if name.startswith("C2^"):
        chars = []
        for s in range(n):
            values = tuple(
                ExactScalar.from_rational(QQ, 1 if bin(s & t).count("1") % 2 == 0 else -1)
                for t in range(n)
            )
            chars.append(Character(f"chi{s}", 1, values))
        return tuple(chars)
    if name.startswith("C") and name[1:].isdigit():
        ring = _value_ring(n)
        chars = []
        for j in range(n):
            values = tuple(_rou(ring, n, j * m) for m in range(n))
            chars.append(Character(f"chi{j}", 1, values))
        return tuple(chars)
    if name == "S3":
        one_v = [1, 1, 1, 1, 1, 1]
        sign_v = [1, -1, -1, -1, 1, 1]
        std_v = [2, 0, 0, 0, -1, -1]
        chars = tuple(
            Character(nm, d, tuple(ExactScalar.from_rational(QQ, v) for v in vals))
            for nm, d, vals in (("triv", 1, one_v), ("sign", 1, sign_v), ("std", 2, std_v))
        )
        return chars
    if name.startswith("D"):
        m = n // 2  # rotations
        ring = _value_ring(m)
        chars = []

        def linear(rot_sign: int, ref_sign: int, label: str):
            values = []
            for idx in range(n):
                flip, rot = divmod(idx, m)
                v = (rot_sign**rot) * (ref_sign if flip else 1)
                values.append(ExactScalar.from_rational(QQ, v))
            return Character(label, 1, tuple(values))

        chars.append(linear(1, 1, "triv"))
        chars.append(linear(1, -1, "refl"))
        if m % 2 == 0:
            chars.append(linear(-1, 1, "rot-"))
            chars.append(linear(-1, -1, "rot-refl-"))
        two_dim = (m - 1) // 2 if m % 2 else (m - 2) // 2
        for j in range(1, two_dim + 1):
            values = []
            for idx in range(n):
                flip, rot = divmod(idx, m)
                if flip:
                    values.append(scalar_zero(ring) if ring.kind == CYCLOTOMIC else ExactScalar.from_rational(QQ, 0))
                else:
                    values.append(_rou(ring, m, j * rot) + _rou(ring, m, -j * rot))
            chars.append(Character(f"rot{j}", 2, tuple(values)))
        return tuple(chars)
    raise ValueError(f"no built-in character table for {name}")


class GroupRingElement:
    """An element of FG: one coefficient per listed group element.

    ``value`` is ``(nums, den)``: the power-basis numerators of the
    coefficient of each listed group element in turn, over one shared
    denominator.  ``rows`` and ``den`` read it back per group element.
    """

    __slots__ = ("table", "ring", "value")

    def __init__(self, table: GroupTable, ring: RingDescriptor, coeffs):
        values = [as_scalar(ring, c).value for c in coeffs]
        if len(values) != table.order:
            raise ValueError("one coefficient per group element required")
        den = math.lcm(*(d for _, d in values))
        # each coefficient is canonical, so over the lcm of their
        # denominators the numerators already share no factor with it
        self.table, self.ring = table, ring
        self.value = tuple(c * (den // d) for nums, d in values for c in nums), den

    @property
    def den(self) -> int:
        return self.value[1]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        nums = self.value[0]
        # zip over d references to one iterator cuts the d numerators of each group element
        return tuple(zip(*[iter(nums)] * (len(nums) // self.table.order)))

    @property
    def coeffs(self) -> tuple[ExactScalar, ...]:
        return tuple(scalar_from_ints(self.ring, r, self.den) for r in self.rows)

    def _check(self, other: "GroupRingElement"):
        if not isinstance(other, GroupRingElement) or self.table != other.table or self.ring != other.ring:
            raise IncompatibleRings("group ring mismatch")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return _from_value(self.table, self.ring, signed_sum(self.ring, self.value, other.value))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return _from_value(self.table, self.ring, signed_sum(self.ring, self.value, other.value, -1))

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """One int accumulator per group element over the product of the two
        denominators, each folded mod Phi_N once."""
        self._check(other)
        t, ring = self.table, self.ring
        d = len(self.value[0]) // t.order
        right = [(j, [(v, c) for v, c in enumerate(y) if c]) for j, y in enumerate(other.rows) if any(y)]
        acc = [[0] * (2 * d - 1) for _ in range(t.order)]
        for i, x in enumerate(self.rows):
            left = [(u, c) for u, c in enumerate(x) if c]
            if left:
                products = t.mul[i]
                for j, y in right:
                    out = acc[products[j]]
                    for u, a in left:
                        for v, b in y:
                            out[u + v] += a * b
        if d > 1:
            acc = [fold_product(out, ring.conductor, d) for out in acc]
        return _from_value(t, ring, canonical_value(ring, list(chain.from_iterable(acc)), self.den * other.den))

    def transpose(self) -> "GroupRingElement":
        """w^T: coefficient of g moves to g^-1."""
        return self._inverted(self.rows)

    def star(self) -> "GroupRingElement":
        """w*: conjugate coefficients and send g to g^-1."""
        rows = self.rows
        if len(rows[0]) > 1:
            n = self.ring.conductor
            # an automorphism of Z[zeta_N], so the shared den stays canonical
            rows = [_apply_power_map((r, 1), -1, n)[0] for r in rows]
        return self._inverted(rows)

    def _inverted(self, rows) -> "GroupRingElement":
        """The element with the row of g moved to g^-1, over this denominator."""
        out = [None] * self.table.order
        for i, r in enumerate(rows):
            out[self.table.inv[i]] = r
        return _from_value(self.table, self.ring, (tuple(chain.from_iterable(out)), self.den))

    def is_zero(self) -> bool:
        return not any(self.value[0])

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.table == other.table
            and self.ring == other.ring
            and self.value == other.value
        )

    def __repr__(self):
        parts = [
            f"{c}*{self.table.elements[i]}"
            for i, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def _from_value(table: GroupTable, ring: RingDescriptor, value) -> GroupRingElement:
    """The element of a canonical ``value``, allocated without ``__init__``."""
    w = object.__new__(GroupRingElement)
    w.table, w.ring, w.value = table, ring, value
    return w


def embed_group_ring(w: GroupRingElement) -> PolyMatrix:
    """The G-matrix of w: entry (i, j) is the coefficient of g_i^-1 g_j."""
    t = w.table
    # one constant per coefficient, shared by the |G| cells that hold it
    polys = [LaurentPoly.constant(c) for c in w.coeffs]
    grid = [
        [polys[t.mul[t.inv[i]][j]] for j in range(t.order)]
        for i in range(t.order)
    ]
    return PolyMatrix._from_aligned(w.ring, (), grid)


def group_ring_idempotents(
    table: GroupTable,
    ring: RingDescriptor,
    chars: CharacterTable | None = None,
) -> list[GroupRingElement]:
    """Primitive central idempotents (dim(chi)/|G|) sum chi(g^-1) g.

    The ring characteristic must not divide |G| and the ring must contain the
    character values; otherwise BadCharacteristic / NoSuchRoot is raised.
    """
    if chars is None:
        chars = character_table(table)
    n = table.order
    if ring.kind == PRIME_FIELD and n % ring.p == 0:
        raise BadCharacteristic(f"|G| = {n} vanishes in F_{ring.p}")
    out = []
    for ch in chars.characters:
        try:
            values = [cast_scalar(ch.values[table.inv[g]], ring) for g in range(n)]
        except IncompatibleRings as exc:
            raise NoSuchRoot(f"character {ch.name} needs roots of unity missing from {ring}") from exc
        nums, den = GroupRingElement(table, ring, values).value
        out.append(_from_value(table, ring, canonical_value(ring, [ch.dim * c for c in nums], den * n)))
    return out
