"""Paraunitary and pseudo-paraunitary matrix constructions.

Monomial sums over idempotent sets, Belevitch building blocks, spectral
synthesis of unitaries, Latin-square block arrangements, tangles of two
paraunitary matrices, pseudo-paraunitary assembly from rank-1 Laurent
idempotents, and monomial clearing.  Every constructor proves its own
output identity exactly.  Each is a proposition: it checks the premises of
its theorem on its inputs (a proven set, unit monomials, paraunitary
blocks), each failure a typed error, and records the rule as the output's
``proof`` (see ``polymatrix._record``), never checking the output.  Only
``compose`` checks it when a part is unproven: such a product can be
paraunitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

from .errors import (
    DimensionMismatch,
    IncompatibleRings,
    InternalCheckError,
    NegativeExponent,
    NotLatinSquare,
    NotParaunitary,
    NotPseudoParaunitary,
    NotUnitModulus,
    NotUnitVector,
    SizeMismatch,
    VariableCollision,
)
from .groups import GroupTable
from .idempotents import IdempotentSet, _prove, from_matrix_rows, orthonormal_rows, projection
from .laurent import LaurentPoly, min_exponents
from .polymatrix import (
    PolyMatrix,
    _record,
    assemble_blocks,
    combination,
    is_paraunitary,
    is_pseudo_paraunitary,
    mul,
    tensor,
)
from .scalars import RingDescriptor, as_scalar, is_unit_modulus, sqrt2


def unit_monomial(ring: RingDescriptor, coeff, exponents: dict[str, int]) -> LaurentPoly:
    """A coefficient of unit modulus times non-negative powers of variables."""
    c = as_scalar(ring, coeff)
    if not is_unit_modulus(c):
        raise NotUnitModulus(f"|{c}|^2 != 1")
    if any(e < 0 for e in exponents.values()):
        raise NegativeExponent(f"exponents must be non-negative, got {exponents}")
    return LaurentPoly.monomial(c, exponents, ring)


def _checked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from fields its caller has
    already checked: ``__post_init__``, which would check them again, is
    skipped."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_unit_monomial(mono: LaurentPoly, what: str) -> None:
    """NotUnitModulus unless ``mono`` is c x^t with c conj(c) = 1.

    The converse of :func:`monomial_sum`: over a proven set, W W* = I =
    sum E_i means sum_i (a_i a_i* - 1) E_i = 0, and times E_j that is
    (a_j a_j* - 1) E_j = 0.  As E_j != 0 and the Laurent ring is a domain,
    a_j a_j* = 1, so a_j is a unit of F[x^+-1]: a monomial c x^t with
    c conj(c) = 1.  Refusing any other weight loses no paraunitary W.
    """
    if mono.is_unit_monomial() is None:
        raise NotUnitModulus(f"{what} {mono} is not a unit monomial")


@dataclass(frozen=True)
class MonomialAssignment:
    """One unit monomial per idempotent-set member, checked on construction."""

    monomials: tuple[LaurentPoly, ...]

    def __post_init__(self):
        for mono in self.monomials:
            _check_unit_monomial(mono, "weight")

    @staticmethod
    def build(ring: RingDescriptor, coeffs, exponents) -> "MonomialAssignment":
        """coeffs: one unit-modulus scalar per member; exponents: one
        {variable: power} map (or a bare power for a single variable z).

        Each weight is checked once, by :func:`unit_monomial`."""
        coeffs, exponents = list(coeffs), list(exponents)
        if len(coeffs) != len(exponents):
            raise SizeMismatch(
                f"{len(coeffs)} coeffs for {len(exponents)} exponents: one coefficient per exponent required"
            )
        monos = []
        for c, e in zip(coeffs, exponents):
            if isinstance(e, int):
                e = {"z": e}
            monos.append(unit_monomial(ring, c, e))
        return _checked(MonomialAssignment, monomials=tuple(monos))

    def __len__(self):
        return len(self.monomials)


def monomial_sum(s: IdempotentSet, assignment: MonomialAssignment) -> PolyMatrix:
    """W = sum of alpha_i E_i z^(t_i); paraunitary by completeness.

    Rule ``monomial-sum`` (the paper's central theorem), for a proven set
    and unit monomials: W = sum a_i E_i has W W* =
    sum_i sum_j a_i a_j* E_i E_j = sum_i a_i a_i* E_i = sum_i E_i = I.
    """
    if len(assignment) != len(s.members):
        raise DimensionMismatch("one monomial per member required")
    _prove(s)
    return _record(combination(assignment.monomials, s.members), "monomial-sum")


def simple_monomial_sum(s: IdempotentSet, powers, var: str = "z") -> PolyMatrix:
    """Convenience: coefficients all 1, powers of a single variable."""
    assignment = MonomialAssignment.build(
        s.ring, [1] * len(s.members), [{var: p} for p in powers]
    )
    return monomial_sum(s, assignment)


def belevitch_block(v: PolyMatrix, var: str = "z") -> PolyMatrix:
    """H(z) = 1 - v v* + z v v* for a unit column vector v.

    Rule ``belevitch``, once v* v = 1 is checked: P = v v* has
    P P = v (v* v) v* = P and P* = P, so I - P and P are symmetric
    idempotents with (I - P) P = 0 that sum to I, and H = (I - P) + z P is
    a monomial sum of unit weights over them: H H* = (I - P) + P = I.
    """
    if v.cols != 1:
        raise NotUnitVector("column vector expected")
    norm = mul(v.adjoint(), v).entries[0][0]
    if not norm.is_one():
        raise NotUnitVector(f"v* v = {norm}")
    f1 = mul(v, v.adjoint())
    eye = PolyMatrix.identity(v.ring, v.rows)
    z = LaurentPoly.variable(var, v.ring)
    return _record((eye - f1) + f1.scale(z), "belevitch")


def spectral_unitary(ring: RingDescriptor, vectors, units) -> PolyMatrix:
    """U = sum of alpha_i v_i* v_i over an orthonormal basis of rows.

    The alpha_i are the eigenvalues of U, with U v_i* = alpha_i v_i*.

    Rule ``spectral``, for k = n vectors: their projectors form a proven
    set (``idempotents.from_orthonormal_basis``), so U is a monomial sum of
    constant unit weights.  Fewer vectors are an input error: U U* is then
    V* V for the k x n matrix V of the rows, of rank k < n.
    """
    units = [as_scalar(ring, u) for u in units]
    if len(vectors) != len(units):
        raise DimensionMismatch("one unit per vector required")
    for u in units:
        if not is_unit_modulus(u):
            raise NotUnitModulus(f"|{u}|^2 != 1")
    rows = orthonormal_rows(ring, vectors)
    if not rows or len(rows) != rows[0].cols:
        raise DimensionMismatch(f"U U* = I needs n orthonormal vectors in n coordinates, got {len(rows)}")
    return _record(combination(units, [projection(v) for v in rows]), "spectral")


def _check_cell(mono: LaurentPoly) -> None:
    """A cell of an :class:`ArrangementPlan`: a unit monomial of
    non-negative exponents."""
    _check_unit_monomial(mono, "cell")
    if any(e < 0 for e in mono.single_term()[1].values()):
        raise NegativeExponent("cell exponents must be non-negative")


@dataclass(frozen=True)
class ArrangementPlan:
    """A Latin square of member indices with one unit monomial of
    non-negative exponents per cell, the cells checked on construction."""

    grid: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        for row in self.cells:
            for mono in row:
                _check_cell(mono)

    @staticmethod
    def build(ring: RingDescriptor, grid, cell_monomials) -> "ArrangementPlan":
        """cell_monomials: per cell either a variable name, a (coeff, exps)
        pair, or a ready LaurentPoly unit monomial.

        Each cell is checked once: a ready monomial by the check of direct
        construction, any other by :func:`unit_monomial`."""
        cells = []
        for row in cell_monomials:
            out = []
            for cell in row:
                if isinstance(cell, LaurentPoly):
                    mono = cell
                    _check_cell(mono)
                elif isinstance(cell, str):
                    mono = unit_monomial(ring, 1, {cell: 1})
                else:
                    coeff, exps = cell
                    mono = unit_monomial(ring, coeff, exps)
                out.append(mono)
            cells.append(tuple(out))
        return _checked(ArrangementPlan, grid=tuple(tuple(r) for r in grid), cells=tuple(cells))

    @property
    def k(self) -> int:
        return len(self.grid)


def latin_square_from_group(table: GroupTable) -> tuple[tuple[int, ...], ...]:
    """The index grid (i, j) -> g_i^-1 g_j; a circulant for cyclic groups."""
    n = table.order
    return tuple(
        tuple(table.mul[table.inv[i]][j] for j in range(n)) for i in range(n)
    )


def block_arrangement(s: IdempotentSet, plan: ArrangementPlan) -> PolyMatrix:
    """Arrange the members in a Latin-square block grid with monomial weights.

    Rule ``block-arrangement``, for a proven set, once the grid is
    checked: block (i, j) is c_ij E_g(i,j), so block (i, l) of W W* is
    sum_j c_ij c_lj* E_g(i,j) E_g(l,j).  For i = l, row i lists every
    member once and c c* = 1, which gives sum E = I; for i != l, column j
    holds distinct members g(i,j) != g(l,j), whose products are 0.
    """
    k = len(s.members)
    if plan.k != k or any(len(row) != k for row in plan.grid):
        raise NotLatinSquare(f"grid must be {k}x{k} over the member indices")
    full = set(range(k))
    for row in plan.grid:
        if set(row) != full:
            raise NotLatinSquare(f"row {row} is not a permutation of 0..{k - 1}")
    for col in zip(*plan.grid):
        if set(col) != full:
            raise NotLatinSquare(f"column {col} is not a permutation of 0..{k - 1}")
    _prove(s)
    blocks = [
        [s.members[plan.grid[i][j]].scale(plan.cells[i][j]) for j in range(k)]
        for i in range(k)
    ]
    return _record(assemble_blocks(blocks), "block-arrangement")


@dataclass(frozen=True)
class TangleVariant:
    """One of the 24 tangle shapes of an ordered pair.

    order: 'AB' or 'BA'; base: 'vertical' for (X Y; X -Y) or 'horizontal' for
    (X X; Y -Y); perm: 'none', 'rows', or 'cols' (block swaps); transpose:
    transpose the assembled matrix.
    """

    order: str = "AB"
    base: str = "vertical"
    perm: str = "none"
    transpose: bool = False

    def __post_init__(self):
        if self.order not in ("AB", "BA"):
            raise ValueError("order must be 'AB' or 'BA'")
        if self.base not in ("vertical", "horizontal"):
            raise ValueError("base must be 'vertical' or 'horizontal'")
        if self.perm not in ("none", "rows", "cols"):
            raise ValueError("perm must be 'none', 'rows', or 'cols'")


def all_tangle_variants() -> list[TangleVariant]:
    return [
        TangleVariant(order, base, perm, transpose)
        for order, base, perm, transpose in iter_product(
            ("AB", "BA"), ("vertical", "horizontal"), ("none", "rows", "cols"), (False, True)
        )
    ]


@lru_cache(maxsize=None)
def _tangle_factor(ring: RingDescriptor) -> tuple[LaurentPoly, bool]:
    """f = 1/sqrt2 of ``ring``, as a constant polynomial, and whether
    f conj(f) = 1/2 holds exactly."""
    factor = sqrt2(ring).inverse()
    return LaurentPoly.constant(factor), (2 * factor * factor.conj()).is_one()


def tangle(a: PolyMatrix, b: PolyMatrix, variant: TangleVariant = TangleVariant()) -> PolyMatrix:
    """The 1/sqrt2-scaled block tangle of two equal-size paraunitary matrices.

    The scale factor is always included; rings without sqrt(2) raise
    NoSquareRoot rather than silently dropping it.  Each distinct entry of
    ``a`` and ``b`` is re-keyed onto the union of their variables and scaled
    by it in one pass, so the blocks are glued without another re-keying.

    The result is proven by the ``block-gram`` rule, recorded on W.  With
    f = 1/sqrt2, a scalar, W W* = f conj(f) B B* for the block matrix B, and:

    - the vertical base B = (X Y; X -Y) gives
      B B* = (XX*+YY*  XX*-YY*; XX*-YY*  XX*+YY*);
    - the horizontal base B = (X X; Y -Y) gives B B* = diag(2 XX*, 2 YY*);
    - a row-block swap P B gives P (B B*) P^T, which permutes the blocks;
      a column-block swap B Q gives B Q Q^T B* = B B*;
    - the transpose: W^T (W^T)* = (W* W)^T, and for square W over a
      commutative ring W W* = I implies W* W = I.

    So, given f conj(f) = 1/2, W W* = I holds exactly when XX* = I and
    YY* = I, for all 24 variants: two n x n checks prove W, and W itself is
    never checked.  The rule is recorded after the transpose, on the matrix
    returned.  A block that fails raises NotParaunitary, naming the
    argument (``a`` or ``b``) with its report.  The scalar identity is
    checked exactly too: it holds for every ring with sqrt(2) here, but is
    not assumed, and its failure is an InternalCheckError.
    """
    if a.ring != b.ring:
        raise IncompatibleRings(f"{a.ring} vs {b.ring}")
    if not a.is_square or (a.rows, a.cols) != (b.rows, b.cols):
        raise SizeMismatch(f"{a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    factor, half = _tangle_factor(a.ring)
    if not half:
        raise InternalCheckError(f"tangle: 1/sqrt2 of {a.ring} fails f conj(f) = 1/2")
    for name, block in (("a", a), ("b", b)):
        report = is_paraunitary(block)
        if not report.ok:
            raise NotParaunitary(f"tangle block {name} is not paraunitary:\n{report.summary()}")
    # f B is assembled from f X, f Y and -(f Y).  Each distinct entry of a
    # and b is aligned to the union of their variables and scaled in one
    # pass, so assemble_blocks re-keys nothing.  fa or fb alone may carry
    # variables it does not use, but W holds both, so it uses the union.
    union = tuple(sorted(set(a.vars) | set(b.vars)))
    fa, fb = a._scaled(factor, union), b._scaled(factor, union)
    x, y = (fa, fb) if variant.order == "AB" else (fb, fa)
    if variant.base == "vertical":
        blocks = [[x, y], [x, -y]]
    else:
        blocks = [[x, x], [y, -y]]
    if variant.perm == "rows":
        blocks = [blocks[1], blocks[0]]
    elif variant.perm == "cols":
        blocks = [[row[1], row[0]] for row in blocks]
    w = assemble_blocks(blocks)
    return _record(w.transpose() if variant.transpose else w, "block-gram")


def pseudo_from_rows(p: PolyMatrix, weights: MonomialAssignment) -> PolyMatrix:
    """W = sum of w_i P_i over the rank-1 row idempotents of a paraunitary P.

    The weight variables must be disjoint from the variables of P; the result
    satisfies W W* = 1 but involves both z and z^-1.  The rows of P form a
    proven set and ``MonomialAssignment`` holds only unit monomials, so W is
    a ``monomial-sum``.
    """
    for mono in weights.monomials:
        used = set(mono.used_vars())
        if used & set(p.vars):
            raise VariableCollision(f"weight variables {used & set(p.vars)} already in use")
    s = from_matrix_rows(p)  # raises NotParaunitary on bad input
    if len(weights) != len(s.members):
        raise DimensionMismatch("one weight per row required")
    return _record(combination(weights.monomials, s.members), "monomial-sum")


@dataclass(frozen=True)
class ClearedMatrix:
    """Result of clearing a pseudo-paraunitary matrix to polynomial form.

    ``matrix`` is Q = m W for the minimal clearing monomial m.  Q satisfies
    Q Q* = (m m*) I = I exactly; ``product_monomial`` records the monomial
    p = m conj(m) (the clearing monomial treated as star-fixed), the form in
    which the product identity Q (p Q*) = p I is usually quoted.
    """

    matrix: PolyMatrix
    clearing_monomial: LaurentPoly
    product_monomial: LaurentPoly


def monomial_clear(w: PolyMatrix) -> ClearedMatrix:
    """Scale by the minimal monomial m clearing all negative exponents.

    m m* = 1, so (m W)(m W)* = W W*: the check of W proves m W.
    """
    if is_pseudo_paraunitary(w) is None:
        raise NotPseudoParaunitary("input fails W W* = p I")
    mins = min_exponents([e for row in w.entries for e in row]) or ()
    exps = {v: -m for v, m in zip(w.vars, mins) if m < 0}
    m = LaurentPoly.monomial(1, exps, w.ring)
    p = LaurentPoly.monomial(1, {v: 2 * e for v, e in exps.items()}, w.ring)
    return ClearedMatrix(w.scale(m), m, p)


def compose(parts, mode: str = "product", expect_paraunitary: bool = False) -> PolyMatrix:
    """Fold a list of matrices with the matrix or tensor product.

    With ``expect_paraunitary``, rule ``compose`` when every part carries a
    proof: (A B)(A B)* = A (B B*) A* = I and
    (A (x) B)(A (x) B)* = A A* (x) B B* = I.  Otherwise the result gets the
    full check, and a failure raises NotParaunitary.
    """
    parts = list(parts)
    if not parts:
        raise DimensionMismatch("need at least one matrix")
    acc = parts[0]
    for nxt in parts[1:]:
        acc = mul(acc, nxt) if mode == "product" else tensor(acc, nxt)
    if not expect_paraunitary:
        return acc
    if all(p.proof is not None for p in parts):
        # a single part is returned as it is, with its own proof
        return acc if acc is parts[0] else _record(acc, "compose")
    report = is_paraunitary(acc)
    if not report.ok:
        raise NotParaunitary(report.summary())
    return acc
