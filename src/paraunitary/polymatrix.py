"""Matrices over the Laurent ring: products, adjoint, blocks, exact rank/det.

A PolyMatrix with an empty variable set is a scalar matrix; idempotent sets
and specialized Hadamard matrices live there.  Paraunitarity is decided
exactly as a polynomial identity, never by sampling.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    IncompatibleRings,
    NotScalar,
    NotSquare,
)
from .laurent import Divisor, LaurentPoly, dot, min_exponents, times_monomial, used_vars_of
from .scalars import ExactScalar, RingDescriptor, as_scalar, one as scalar_one, zero as scalar_zero

# Input limit on a matrix size given as a number: the n of the identity and
# diagonal_set ops and a built-in group's order.  The diagonal set of size n
# holds n^3 entries (0.5 s at 32, 4.4 s at 64); a group-ring set of order 32
# takes up to 4.5 s, and 40 s at 64.
MAX_DIMENSION = 32


def _as_poly(ring: RingDescriptor, x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        if x.ring != ring:
            raise IncompatibleRings(f"{x.ring} vs {ring}")
        return x
    return LaurentPoly.constant(as_scalar(ring, x))


def _fill(m: "PolyMatrix", ring, vars, entries) -> "PolyMatrix":
    """Set every slot of a new matrix from its aligned entry rows, unproven."""
    for name, value in zip(m.__slots__, (ring, vars, len(entries), len(entries[0]), entries, None)):
        object.__setattr__(m, name, value)
    return m


class PolyMatrix:
    """Immutable rectangular matrix of LaurentPoly entries over one ring.

    ``proof`` names the certificate that proved M M* = I for this object:
    ``hermitian-half`` once :func:`is_paraunitary` has passed it, or the
    rule of the constructor that built it (see :func:`_record`).  It is
    None until then; a failed check never sets it, and every derived
    matrix starts without it.
    """

    __slots__ = ("ring", "vars", "rows", "cols", "entries", "proof")

    def __init__(self, ring: RingDescriptor, grid):
        """A matrix of the cells of ``grid``: polynomials, scalars of
        ``ring`` or numbers, on the union of the entries' used variables.

        Cells often repeat: each distinct cell is converted and aligned
        once, a polynomial keyed by its object and any other value by
        ``(type, value)``, so the 36 int cells of a 6x6 0/1 matrix make two
        constant polynomials."""
        grid = [list(row) for row in grid]
        if not grid or not grid[0] or any(len(r) != len(grid[0]) for r in grid):
            raise DimensionMismatch("ragged or empty entry grid")
        keys = [[id(x) if isinstance(x, LaurentPoly) else (type(x), x) for x in row] for row in grid]
        distinct = {}
        for row, krow in zip(grid, keys):
            for x, key in zip(row, krow):
                if key not in distinct:
                    distinct[key] = _as_poly(ring, x)
        vars = tuple(sorted(set().union(*(e.used_vars() for e in distinct.values()))))
        aligned = {key: e.with_vars(vars) for key, e in distinct.items()}
        _fill(self, ring, vars, tuple(tuple(aligned[key] for key in krow) for krow in keys))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def _from_aligned(cls, ring, vars: tuple[str, ...], grid) -> "PolyMatrix":
        """Trusted constructor: every entry already carries exactly ``vars``.

        Recomputes the used-variable union so the stored matrix stays
        canonical when variables cancel out of every entry.
        """
        used = used_vars_of(ring, vars, [e for row in grid for e in row])
        if used != vars:
            grid = [[e.with_vars(used) for e in row] for row in grid]
            vars = used
        return _fill(object.__new__(cls), ring, vars, tuple(tuple(row) for row in grid))

    def _with_vars(self, vars: tuple[str, ...]) -> "PolyMatrix":
        """This matrix on ``vars``, a superset of its variables; each
        distinct entry object is re-keyed once."""
        if vars == self.vars:
            return self
        return self._map_distinct(lambda es: [e.with_vars(vars) for e in es], vars)

    def _map_distinct(self, fn, vars: tuple[str, ...]) -> "PolyMatrix":
        """The matrix on ``vars`` whose cells are ``fn`` of the distinct
        entry objects (a list in, a list of equal length out), unproven and
        not re-scanned."""
        distinct = {id(e): e for row in self.entries for e in row}
        done = dict(zip(distinct, fn(list(distinct.values()))))
        grid = tuple(tuple(done[id(e)] for e in row) for row in self.entries)
        return _fill(object.__new__(PolyMatrix), self.ring, vars, grid)

    # -- constructors --

    @staticmethod
    def identity(ring: RingDescriptor, n: int) -> "PolyMatrix":
        return PolyMatrix.diagonal(ring, [LaurentPoly.constant(scalar_one(ring))] * n)

    @staticmethod
    def zeros(ring: RingDescriptor, rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix(ring, [[LaurentPoly.zero(ring)] * cols] * rows)

    @staticmethod
    def diagonal(ring: RingDescriptor, entries) -> "PolyMatrix":
        n, zero = len(entries), LaurentPoly.zero(ring)
        return PolyMatrix(
            ring,
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)],
        )

    @staticmethod
    def row_vector(ring: RingDescriptor, entries) -> "PolyMatrix":
        return PolyMatrix(ring, [list(entries)])

    @staticmethod
    def column_vector(ring: RingDescriptor, entries) -> "PolyMatrix":
        return PolyMatrix(ring, [[e] for e in entries])

    # -- basic structure --

    def __getitem__(self, key) -> LaurentPoly:
        i, j = key
        return self.entries[i][j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_scalar(self) -> bool:
        return not self.vars

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __str__(self):
        body = "\n".join(
            "  [" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        )
        return f"PolyMatrix {self.rows}x{self.cols} over {self.ring}\n{body}"

    __repr__ = __str__

    # -- arithmetic --

    def _aligned_pair(self, other: "PolyMatrix"):
        if self.vars == other.vars:
            return self, other
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return self._with_vars(union), other._with_vars(union)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        a, b = self._aligned_pair(other)
        return PolyMatrix._from_aligned(
            a.ring,
            a.vars,
            [
                [a.entries[i][j] + b.entries[i][j] for j in range(a.cols)]
                for i in range(a.rows)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        a, b = self._aligned_pair(other)
        return PolyMatrix._from_aligned(
            a.ring,
            a.vars,
            [
                [a.entries[i][j] - b.entries[i][j] for j in range(a.cols)]
                for i in range(a.rows)
            ],
        )

    def __neg__(self) -> "PolyMatrix":
        # -e uses exactly the variables of e
        grid = tuple(tuple(-e for e in row) for row in self.entries)
        return _fill(object.__new__(PolyMatrix), self.ring, self.vars, grid)

    def _check_same_shape(self, other: "PolyMatrix"):
        if self.ring != other.ring:
            raise IncompatibleRings(f"{self.ring} vs {other.ring}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def scale(self, factor) -> "PolyMatrix":
        """Every entry times ``factor``, a polynomial, scalar or number.

        A monomial factor ``c x^t``, a constant included, is read once and
        takes one pass per distinct entry (``laurent.times_monomial``): its
        terms are re-keyed onto the union of the variables, offset by t and
        scaled by c together.  The result is not re-scanned when no variable
        can cancel: when t is zero (c != 0 over a field cancels no term, so
        each entry keeps its terms' exponents and the matrix its variables),
        or when t's variables are disjoint from the matrix's and some entry
        is nonzero (each term a x^s goes to the distinct term (a c) x^(s+t),
        so an entry's variables stay used, each variable of t is used by
        every nonzero product, and the result uses exactly the union).  A
        zero factor gives the zero matrix, on no variables."""
        f = _as_poly(self.ring, factor)
        if not f.terms:
            return PolyMatrix.zeros(self.ring, self.rows, self.cols)
        used = f.used_vars()
        vars = tuple(sorted(set(self.vars) | set(used)))
        if not f.is_monomial():
            f = f.with_vars(vars)
            grid = [[f * e.with_vars(vars) for e in row] for row in self.entries]
            return PolyMatrix._from_aligned(self.ring, vars, grid)
        out = self._scaled(f, vars)
        if not used or (not set(used) & set(self.vars) and any(e.terms for row in self.entries for e in row)):
            return out
        return PolyMatrix._from_aligned(self.ring, vars, out.entries)

    def _scaled(self, f: LaurentPoly, vars: tuple[str, ...]) -> "PolyMatrix":
        """Every entry times the nonzero monomial ``f``, on ``vars`` (which
        holds the variables of both), unproven and not re-scanned."""
        return self._map_distinct(lambda es: times_monomial(f, es, vars), vars)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self) -> "PolyMatrix":
        return _fill(object.__new__(PolyMatrix), self.ring, self.vars, tuple(zip(*self.entries)))

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix(self.ring, [[fn(e) for e in row] for row in self.entries])

    def entrywise_star(self) -> "PolyMatrix":
        return PolyMatrix._from_aligned(
            self.ring, self.vars, [[e.star() for e in row] for row in self.entries]
        )

    def adjoint(self) -> "PolyMatrix":
        """Transpose with every entry starred: M* = (M star)^T."""
        return self.entrywise_star().transpose()

    def substitute(self, assignment: dict) -> "PolyMatrix":
        return self.map_entries(lambda e: e.substitute(assignment))

    def permute_rows(self, perm) -> "PolyMatrix":
        return PolyMatrix._from_aligned(
            self.ring, self.vars, [list(self.entries[p]) for p in perm]
        )

    def permute_cols(self, perm) -> "PolyMatrix":
        return PolyMatrix._from_aligned(
            self.ring, self.vars, [[row[p] for p in perm] for row in self.entries]
        )


def mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.ring != b.ring:
        raise IncompatibleRings(f"{a.ring} vs {b.ring}")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    a, b = a._aligned_pair(b) if a.vars != b.vars else (a, b)
    ring, vars = a.ring, a.vars
    bcols = [[b.entries[k][j] for k in range(b.rows)] for j in range(b.cols)]
    grid = [
        [dot(ring, vars, arow, bcol) for bcol in bcols] for arow in a.entries
    ]
    return PolyMatrix._from_aligned(ring, vars, grid)


def tensor(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product with row-major block expansion."""
    if a.ring != b.ring:
        raise IncompatibleRings(f"{a.ring} vs {b.ring}")
    a, b = a._aligned_pair(b)
    grid = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                for l in range(b.cols):
                    row.append(a.entries[i][j] * b.entries[k][l])
            grid.append(row)
    return PolyMatrix._from_aligned(a.ring, a.vars, grid)


def assemble_blocks(blocks) -> PolyMatrix:
    """Glue a grid of equal-size matrices into one matrix."""
    ring = blocks[0][0].ring
    br, bc = blocks[0][0].rows, blocks[0][0].cols
    for row in blocks:
        for blk in row:
            if blk.ring != ring:
                raise IncompatibleRings("blocks must share one ring")
            if (blk.rows, blk.cols) != (br, bc):
                raise DimensionMismatch("blocks must all have the same size")
    # each block uses exactly its own vars, so the glued matrix uses their
    # union; a block that occurs in several cells is aligned once
    vars = tuple(sorted(set().union(*(blk.vars for row in blocks for blk in row))))
    aligned = {id(blk): blk._with_vars(vars).entries for row in blocks for blk in row}
    grid = tuple(
        tuple(entry for blk in row for entry in aligned[id(blk)][r]) for row in blocks for r in range(br)
    )
    return _fill(object.__new__(PolyMatrix), ring, vars, grid)


def split_blocks(m: PolyMatrix, block_rows: int, block_cols: int):
    """Cut a matrix into a grid of block_rows x block_cols submatrices."""
    if m.rows % block_rows or m.cols % block_cols:
        raise DimensionMismatch("matrix does not split evenly")
    out = []
    for bi in range(m.rows // block_rows):
        row = []
        for bj in range(m.cols // block_cols):
            row.append(
                PolyMatrix(
                    m.ring,
                    [
                        [
                            m.entries[bi * block_rows + r][bj * block_cols + c]
                            for c in range(block_cols)
                        ]
                        for r in range(block_rows)
                    ],
                )
            )
        out.append(row)
    return out


def combination(coeffs, mats) -> PolyMatrix:
    """The linear combination sum_i c_i M_i of equal-size matrices over one
    ring, each c_i a scalar or a polynomial: one :func:`dot` per cell."""
    mats = list(mats)
    if not mats or len(coeffs) != len(mats):
        raise DimensionMismatch("one coefficient per matrix required")
    first = mats[0]
    for m in mats[1:]:
        first._check_same_shape(m)
    ring = first.ring
    coeffs = [_as_poly(ring, c) for c in coeffs]
    vars = tuple(sorted(set().union(*(m.vars for m in mats), *(c.used_vars() for c in coeffs))))
    coeffs = [c.with_vars(vars) for c in coeffs]
    grids = [m._with_vars(vars).entries for m in mats]
    grid = [
        [dot(ring, vars, coeffs, [g[i][j] for g in grids]) for j in range(first.cols)]
        for i in range(first.rows)
    ]
    return PolyMatrix._from_aligned(ring, vars, grid)


def block_inner_product(k_blocks, l_blocks) -> PolyMatrix:
    """Sum of B_i C_i* over two rows of blocks."""
    if len(k_blocks) != len(l_blocks) or not k_blocks:
        raise DimensionMismatch("block rows must have equal nonzero length")
    acc = mul(k_blocks[0], l_blocks[0].adjoint())
    for b, c in zip(k_blocks[1:], l_blocks[1:]):
        acc = acc + mul(b, c.adjoint())
    return acc


# --- verification ----------------------------------------------------------

class VerificationReport:
    """Outcome of an exact identity check, with the full residual on failure.

    ``ok`` is decided when the report is made.  A failed check may leave its
    explanation to the report: ``explain`` then returns the pair
    (``residual``, ``failures``) from the work the check already did, and the
    report calls it on the first read of either field, once.  A caller that
    reads only ``ok`` pays for the decision alone; :meth:`summary`, equality
    and the report JSON read the fields, so they see the same values either
    way.

    ``certificate`` names what decided the verdict: ``hermitian-half``
    (:func:`is_paraunitary`), ``trace-rank`` or ``rank``
    (``idempotents.verify_set``), or ``recorded:<rule>`` when a check
    returned the proof recorded on its object.  It is for tracing only: it
    is left out of :meth:`summary`, of the report JSON and of equality.
    """

    __slots__ = ("kind", "ok", "certificate", "_explain", "_explained")

    def __init__(self, kind: str, ok: bool, residual: PolyMatrix | None = None,
                 failures: list[str] | None = None, certificate: str | None = None, explain=None):
        self.kind, self.ok, self.certificate, self._explain = kind, ok, certificate, explain
        self._explained = None if explain else (residual, [] if failures is None else failures)

    def _fields(self) -> tuple[PolyMatrix | None, list[str]]:
        if self._explained is None:
            self._explained, self._explain = self._explain(), None
        return self._explained

    @property
    def residual(self) -> PolyMatrix | None:
        return self._fields()[0]

    @property
    def failures(self) -> list[str]:
        return self._fields()[1]

    def __eq__(self, other):
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return (self.kind, self.ok, *self._fields()) == (other.kind, other.ok, *other._fields())

    __hash__ = None

    def __repr__(self):
        return (
            f"VerificationReport(kind={self.kind!r}, ok={self.ok!r}, residual={self.residual!r}, "
            f"failures={self.failures!r}, certificate={self.certificate!r})"
        )

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        head = f"{self.kind}: {'PASS' if self.ok else 'FAIL'}"
        if self.ok or not self.failures:
            return head
        return head + "\n  " + "\n  ".join(self.failures)


def is_paraunitary(m: PolyMatrix) -> VerificationReport:
    """Exact check of M M* = I, reporting the residual on failure.

    Certificate ``hermitian-half``: star is a ring automorphism and an
    involution, so entry (j, i) of M M* is

        sum_k M[j][k] star(M[i][k]) = star(sum_k M[i][k] star(M[j][k])),

    the star of entry (i, j).  The identity is star-fixed, so entry (j, i)
    equals the identity's exactly when entry (i, j) does, and the entries
    with i <= j decide the identity.  They are computed row by row and the
    check stops at the first one that differs, which decides ``ok``.  The
    failure report is built on the first read of ``residual`` or
    ``failures`` (see :class:`VerificationReport`): it keeps the entries
    already computed, finishes the upper triangle and takes the lower one as
    its stars, so ``residual`` and ``failures`` are the same as those of
    ``mul(m, m.adjoint()) - I`` (canonical forms are unique).

    A pass is recorded on ``m`` (a PolyMatrix never changes after it is
    built), and so is a constructor's rule (:func:`_record`): checking a
    matrix that carries a proof returns a fresh passing report without
    recomputing.  A failure is never recorded.
    """
    if not m.is_square:
        raise NotSquare(f"{m.rows}x{m.cols}")
    if m.proof is not None:
        return VerificationReport("paraunitary", True, certificate=f"recorded:{m.proof}")
    starred = _starred_rows(m)
    upper: dict[tuple[int, int], LaurentPoly] = {}
    for i, j, entry in _gram_upper(m, starred):
        upper[i, j] = entry
        if not (entry.is_one() if i == j else entry.is_zero()):
            return VerificationReport(
                "paraunitary", False, certificate="hermitian-half",
                explain=lambda: _paraunitary_failure(m, starred, upper),
            )
    _record(m, "hermitian-half")
    return VerificationReport("paraunitary", True, certificate="hermitian-half")


def _record(obj, rule: str):
    """Record ``rule`` as the proof of ``obj`` and return ``obj``.

    ``obj`` is a PolyMatrix, for which the proof is of M M* = I, or an
    ``idempotents.IdempotentSet``, for which it is of the four set clauses.
    This is the one path by which a constructor's checked premises stand in
    for a check of its output: a caller records a rule only after every
    premise of the theorem behind it has been checked on its inputs.
    """
    object.__setattr__(obj, "proof", rule)
    return obj


def _starred_rows(m: PolyMatrix):
    """``row(j)``: row j of M with every entry starred, which is column j of
    M*.  Each row is starred on its first read and kept, so a check that
    stops early stars only the rows it has read."""
    rows: dict[int, list[LaurentPoly]] = {}

    def row(j: int) -> list[LaurentPoly]:
        got = rows.get(j)
        if got is None:
            got = rows[j] = [e.star() for e in m.entries[j]]
        return got

    return row


def _gram_upper(m: PolyMatrix, starred):
    """Entries (i, j, (M M*)[i][j]) with i <= j, row by row, computed as
    they are consumed; ``starred(j)`` is row j of M starred (see
    :func:`_starred_rows`)."""
    ring, vars, rows = m.ring, m.vars, m.entries
    for i in range(m.rows):
        for j in range(i, m.rows):
            yield i, j, dot(ring, vars, rows[i], starred(j))


def _paraunitary_failure(m: PolyMatrix, starred, upper):
    """(residual, failures) of a failed check, from the upper-triangle
    entries already in ``upper``, the rest of the upper triangle (starring
    the rows still missing), and their stars below it."""
    n = m.rows
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = upper.get((i, j))
            if entry is None:
                entry = dot(m.ring, m.vars, m.entries[i], starred(j))
            grid[i][j] = entry
            if j != i:
                grid[j][i] = entry.star()
    product = PolyMatrix._from_aligned(m.ring, m.vars, grid)
    residual = product - PolyMatrix.identity(m.ring, n)
    failures = [
        f"entry ({i + 1},{j + 1}): product is {product.entries[i][j]}"
        for i in range(n)
        for j in range(n)
        if not residual.entries[i][j].is_zero()
    ]
    return residual, failures


def is_pseudo_paraunitary(m: PolyMatrix):
    """The unit monomial p with M M* = p I, or None when no such p exists.

    p must be (M M*)[0][0].  A diagonal entry of M M* is star-fixed, and so
    is p I, so the ``hermitian-half`` argument of :func:`is_paraunitary`
    holds with the target p I: the entries with i <= j decide it, and the
    check stops at the first one that differs.
    """
    if not m.is_square:
        raise NotSquare(f"{m.rows}x{m.cols}")
    p = None
    for i, j, entry in _gram_upper(m, _starred_rows(m)):
        if p is None:
            p = entry
            ok = p.is_unit_monomial() is not None
        else:
            ok = entry == p if i == j else entry.is_zero()
        if not ok:
            return None
    return p.compact()


# --- rank / trace / determinant --------------------------------------------

def rank(m: PolyMatrix) -> int:
    """Rank over the fraction field of the entries (Q(x, ..), Q(zeta_N)(x, ..)
    or F_p(x, ..); the scalar field for a scalar matrix): the pivot count of
    :func:`_echelon`."""
    grid, _ = _clear_row_monomials(m)
    return sum(1 for _ in _echelon(m, grid))


def trace(m: PolyMatrix) -> ExactScalar:
    if not m.is_square:
        raise NotSquare(f"{m.rows}x{m.cols}")
    if not m.is_scalar:
        raise NotScalar(f"matrix has variables {m.vars}")
    acc = scalar_zero(m.ring)
    for i in range(m.rows):
        acc = acc + m.entries[i][i].constant_value()
    return acc


def _trace_of_product(a: PolyMatrix, b: PolyMatrix) -> LaurentPoly:
    """tr(A B) of two n x n matrices: one :func:`dot` over the n^2 entry
    pairs A[r][c] B[c][r], in place of the n x n product."""
    a, b = a._aligned_pair(b)
    n = a.rows
    return dot(
        a.ring,
        a.vars,
        [e for row in a.entries for e in row],
        [b.entries[c][r] for r in range(n) for c in range(n)],
    )


def _clear_row_monomials(m: PolyMatrix):
    """Factor the minimal monomial out of each row; returns (rows, their product).

    Each row is multiplied by one inverse monomial, a key offset of its
    entries."""
    one = scalar_one(m.ring)
    total = [0] * len(m.vars)
    cleared = []
    for row in m.entries:
        mins = min_exponents(row)
        if mins is None or not any(mins):
            cleared.append(list(row))
            continue
        shift_in = LaurentPoly(m.ring, m.vars, {tuple(-e for e in mins): one})
        cleared.append(times_monomial(shift_in, row))
        total = [a + b for a, b in zip(total, mins)]
    return cleared, LaurentPoly(m.ring, m.vars, {tuple(total): one})


def _echelon(m: PolyMatrix, grid):
    """Fraction-free row echelon form of ``grid``, the rows of ``m`` (Bareiss,
    Math. Comp. 22, 1968): the one elimination behind :func:`rank` and
    :func:`determinant`.  Changes ``grid`` in place.

    Yields (column, pivot, swapped) for each pivot column in turn.  A column
    takes the first nonzero entry at or below the next pivot row, swapped
    into that row, as its pivot; a column with none is skipped.  The rows
    below a pivot are eliminated only when the next item is asked for, so a
    caller that stops early saves that work.

    Elimination forms each ``pivot * a_ij - a_ic * a_rj`` as one :func:`dot`
    over two pairs and divides it exactly by the previous pivot through one
    :class:`~paraunitary.laurent.Divisor`, prepared once per step.  Each
    entry so formed is a minor of ``grid``, so every division is exact
    (Sylvester's identity), skipped columns included.
    """
    ring, vars = m.ring, m.vars
    r, prev = 0, None
    for c in range(m.cols):
        if r == m.rows:
            return
        found = next((i for i in range(r, m.rows) if not grid[i][c].is_zero()), None)
        if found is None:
            continue
        if found != r:
            grid[found], grid[r] = grid[r], grid[found]
        top = grid[r]
        pivot = top[c]
        yield c, pivot, found != r
        divide = Divisor(prev).divide if prev is not None else None
        # column c below the pivot is never read again, so it is left as it is
        for row in grid[r + 1 :]:
            neg = -row[c]
            for j in range(c + 1, m.cols):
                num = dot(ring, vars, (pivot, neg), (row[j], top[j]))
                row[j] = divide(num) if divide else num
        prev, r = pivot, r + 1


def determinant(m: PolyMatrix) -> LaurentPoly:
    """Exact determinant: the last pivot of :func:`_echelon` times the
    monomials cleared from the rows, signed by the row swaps; 0 as soon as
    a column has no pivot, since the rank is then short."""
    if not m.is_square:
        raise NotSquare(f"{m.rows}x{m.cols}")
    grid, cleared = _clear_row_monomials(m)
    sign = 1
    for k, (c, pivot, swapped) in enumerate(_echelon(m, grid)):
        if c != k:
            break
        if swapped:
            sign = -sign
        if k == m.rows - 1:
            (det,) = times_monomial(cleared, [pivot])
            return det if sign > 0 else -det
    return LaurentPoly.zero(m.ring, m.vars)


def determinant_cofactor(m: PolyMatrix) -> LaurentPoly:
    """Independent oracle: Laplace expansion memoized over column subsets.

    The minor on the last k rows and the columns ``cols`` expands along its
    first row: sum over idx of (-1)^idx a[n-k][cols[idx]] times the minor on
    ``cols`` without ``cols[idx]``.  Each minor is one :func:`dot` over the
    signed nonzero entries of its row and their sub-minors; the empty minor
    is 1.  No pivot, division or :class:`Divisor` is involved, so it shares
    nothing with :func:`determinant` but the product kernel.
    """
    if not m.is_square:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n, ring, vars, entries = m.rows, m.ring, m.vars, m.entries
    cache: dict[tuple[int, ...], LaurentPoly] = {
        (): LaurentPoly.constant(scalar_one(ring)).with_vars(vars)
    }

    def minor(cols: tuple[int, ...]) -> LaurentPoly:
        got = cache.get(cols)
        if got is None:
            row = entries[n - len(cols)]
            signed, subs = [], []
            for idx, c in enumerate(cols):
                entry = row[c]
                if entry.terms:
                    signed.append(-entry if idx % 2 else entry)
                    subs.append(minor(cols[:idx] + cols[idx + 1 :]))
            got = cache[cols] = dot(ring, vars, signed, subs)
        return got

    return minor(tuple(range(n)))

