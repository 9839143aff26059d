"""Matrices over the Laurent ring: products, adjoint, blocks, exact rank/det.

A PolyMatrix with an empty variable set is a scalar matrix; idempotent sets
and specialized Hadamard matrices live there.  Paraunitarity is decided
exactly as a polynomial identity, never by sampling.

Every entrywise operation computes one result per distinct tuple of entry
objects (:func:`_map_distinct`): ``+`` and ``-`` of two matrices with
variables, negation, ``scale``, :func:`combination`, :func:`tensor`,
``map_entries`` (so ``substitute``), ``entrywise_star`` (so ``adjoint``),
the re-keying onto other variables, and the completeness and symmetry
tests of an idempotent set.  The structures of the paper repeat a few
entries many times (a G-matrix holds |G| distinct entries in |G|^2
cells), and such a result is placed in every cell that holds its tuple.
A scalar side of ``+`` or ``-`` is read in place instead
(:func:`_plus_constant`): one sum per distinct pair of entries, none
where the constant is 0.  No memo outlives a call.
"""

from __future__ import annotations

from itertools import chain, islice, repeat

from .errors import (
    DimensionMismatch,
    IncompatibleRings,
    NotScalar,
    NotSquare,
    SizeLimit,
    UnknownVariable,
)
from .laurent import Gram, LaurentPoly, dot, echelon, row_norms, times_monomial, used_vars_of
from .scalars import ExactScalar, RingDescriptor, as_scalar, one as scalar_one

# Input limit on a matrix size given as a number: the n of the identity and
# diagonal_set ops and a built-in group's order.  In process, the diagonal
# set of size n (n^3 entries) takes 0.02 s at 32 (0.2 s at 64); the slowest
# group-ring set of order 32 found, C32 over Q(zeta_960), takes 0.17 s
# (0.8 s at 64), and 0.3-0.45 s for the whole `idem group` command.
MAX_DIMENSION = 32

# Input limit on the size of a derived matrix or set, checked before any of
# it is built: a tensor product (compose in tensor mode included) and a
# tensor_sets result may hold at most this many entries (rows x cols, and
# members x n^2), and be formed from at most this many term products (the
# total term counts of the two factors multiplied).  It admits the
# tensor_sets of diagonal_set n = 8 with itself (2^18 entries, 1.4 s for the
# whole build, 5 MB of JSON) and refuses n = 32 (2^30 entries).
MAX_ENTRIES = 1 << 18


def _term_count(m: "PolyMatrix") -> int:
    """The terms of all cells of ``m``, a Q(zeta_N) coefficient counted once
    per nonzero power-basis coordinate."""
    return sum(len(e.terms) for row in m.entries for e in row)


def _check_size(what: str, entries: int, term_products: int) -> None:
    """SizeLimit when ``what`` would hold more than ``MAX_ENTRIES`` entries or
    take more than ``MAX_ENTRIES`` term products."""
    for count, unit in ((entries, "entries"), (term_products, "term products")):
        if count > MAX_ENTRIES:
            raise SizeLimit(f"{what} would need {count} {unit}, past the input limit of {MAX_ENTRIES}")


def _as_poly(ring: RingDescriptor, x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        if x.ring != ring:
            raise IncompatibleRings(f"{x.ring} vs {ring}")
        return x
    return LaurentPoly.constant(as_scalar(ring, x))


def _distinct(*grids):
    """(keys, cells) of aligned grids of one shape (its rows may differ in
    length): ``keys`` lists the key of each position in row-major order,
    the ``id`` of its entry for one grid and the tuple of their ``id``s
    for several, and ``cells`` maps each key to its cell, the tuple of the
    entry objects there, in order of first occurrence.

    Keying by ``id`` is sound: the grids hold their entries for the whole
    call, so no id is reused, and entries are values by contract (see
    ``laurent.LaurentPoly``), so equal objects give equal results."""
    flats = [list(chain.from_iterable(grid)) for grid in grids]
    keys = list(map(id, flats[0])) if len(flats) == 1 else list(zip(*map(map, repeat(id), flats)))
    # a repeated key stores the same objects again, at its first place
    return keys, dict(zip(keys, zip(*flats)))


def _map_distinct(fn, *grids) -> tuple:
    """The grid of ``fn`` over the cells of aligned ``grids`` of one shape.

    ``fn`` is called once, on the list of distinct cells (:func:`_distinct`:
    tuples of entry objects, one per grid), and returns one result per
    cell, in their order.  Each result is placed in every position that
    holds its cell."""
    keys, cells = _distinct(*grids)
    done = map(dict(zip(cells, fn(list(cells.values())))).__getitem__, keys)
    return tuple(tuple(islice(done, len(row))) for row in grids[0])


def _rekeyed(grid, vars: tuple[str, ...]) -> tuple:
    """``grid`` with each distinct entry re-keyed onto ``vars``, which holds
    every variable the entries use."""
    return _map_distinct(lambda cells: [e.with_vars(vars) for (e,) in cells], grid)


def _fill(m: "PolyMatrix", ring, vars, entries) -> "PolyMatrix":
    """Set every slot of a new matrix from its aligned entry rows, unproven
    and with no tangle blocks stored."""
    m.ring, m.vars, m.rows, m.cols, m.entries = ring, vars, len(entries), len(entries[0]), entries
    m._proof = m._tangle_blocks = None
    return m


class PolyMatrix:
    """Rectangular matrix of LaurentPoly entries over one ring: a value,
    whose plain slots are set when it is built (:func:`_fill`) and never change.

    ``proof`` names the certificate that proved M M* = I for this object:
    ``hermitian-half`` once :func:`is_paraunitary` has passed it, or the
    rule of the constructor that built it.  It is None until then; a failed
    check never sets it, and every derived matrix starts without it, a copy
    or an unpickled matrix included.  It is read-only, over the write-once
    slot ``_proof`` that only :func:`_record` writes.

    ``_tangle_blocks`` is written, like ``_proof``, only after the matrix is
    built, and only by ``constructors.tangle`` once both of its blocks have
    passed their check.  It is None or ``(vars, f M, -(f M))``: this matrix
    times its ring's 1/sqrt2 (``constructors._tangle_factor``) on the
    variable tuple ``vars``, and the negation of that, None until a variant
    first needs it.  It never goes stale: the entries never change and the
    factor depends only on the ring, so the stored blocks are a function of
    ``vars`` alone, and a call on another tuple replaces them.  The stored
    blocks never escape: a tangle copies their entries into its own grid.
    """

    __slots__ = ("ring", "vars", "rows", "cols", "entries", "_proof", "_tangle_blocks")

    def __init__(self, ring: RingDescriptor, grid):
        """A matrix of the cells of ``grid``: polynomials, scalars of
        ``ring`` or numbers, on the union of the entries' used variables.

        Cells often repeat: one pass over the cells converts each distinct
        cell object once, keyed by its ``id`` (the grid copy keeps every
        cell alive), so the 36 int cells of a 6x6 0/1 matrix, two small ints
        that Python interns, make two constant polynomials; each distinct
        entry is then aligned once, and only when some entry is not on the
        union already."""
        grid = [list(row) for row in grid]
        if not grid or not grid[0] or any(len(r) != len(grid[0]) for r in grid):
            raise DimensionMismatch("ragged or empty entry grid")
        distinct, cells = {}, []
        for row in grid:
            out = []
            for x in row:
                e = distinct.get(id(x))
                if e is None:
                    e = distinct[id(x)] = _as_poly(ring, x)
                out.append(e)
            cells.append(out)
        polys = distinct.values()
        vars = tuple(sorted(set().union(*(e.used_vars() for e in polys if e.vars))))
        if any(e.vars != vars for e in polys):
            aligned = {id(e): e.with_vars(vars) for e in polys}
            cells = [[aligned[id(e)] for e in row] for row in cells]
        _fill(self, ring, vars, tuple(map(tuple, cells)))

    proof = property(lambda self: self._proof, doc="The rule that proved this object, or None (read-only).")

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild the entries through the
        # trusted constructor, unproven: a proof is never carried over
        return PolyMatrix._from_aligned, (self.ring, self.vars, self.entries)

    @classmethod
    def _from_aligned(cls, ring, vars: tuple[str, ...], grid) -> "PolyMatrix":
        """Trusted constructor: every entry already carries exactly ``vars``.

        Recomputes the used-variable union from the distinct entry objects
        so the stored matrix stays canonical when variables cancel out of
        every entry, and then re-keys each distinct entry once.
        """
        grid = tuple(tuple(row) for row in grid)
        cells = list(chain.from_iterable(grid))
        used = used_vars_of(ring, vars, dict(zip(map(id, cells), cells)).values())
        if used != vars:
            grid, vars = _rekeyed(grid, used), used
        return _fill(object.__new__(cls), ring, vars, grid)

    def _with_vars(self, vars: tuple[str, ...]) -> "PolyMatrix":
        """This matrix on ``vars``, a superset of its variables, unproven."""
        if vars == self.vars:
            return self
        return _fill(object.__new__(PolyMatrix), self.ring, vars, _rekeyed(self.entries, vars))

    # -- constructors --

    @staticmethod
    def identity(ring: RingDescriptor, n: int) -> "PolyMatrix":
        return PolyMatrix.diagonal(ring, [LaurentPoly.constant(scalar_one(ring))] * n)

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
        return self._combine(other, 1)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "PolyMatrix", sign: int) -> "PolyMatrix":
        """``self + sign * other``: one ``LaurentPoly._combine`` per distinct
        pair of entries.  A scalar side is read in place
        (:func:`_plus_constant`); ``C - A`` is ``(-A) + C``."""
        self._check_same_shape(other)
        if other.is_scalar:
            return _plus_constant(self, other, sign)
        if self.is_scalar:
            return _plus_constant(other if sign > 0 else -other, self, 1)
        a, b = self._aligned_pair(other)
        grid = _map_distinct(lambda pairs: [x._combine(y, sign) for x, y in pairs], a.entries, b.entries)
        return PolyMatrix._from_aligned(a.ring, a.vars, grid)

    def __neg__(self) -> "PolyMatrix":
        # -e uses exactly the variables of e
        grid = _map_distinct(lambda cells: [-e for (e,) in cells], self.entries)
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
        every nonzero product, and the result uses exactly the union).  Any
        other factor, zero included, is the :func:`combination` of this one
        matrix."""
        f = _as_poly(self.ring, factor)
        if not f.is_monomial():
            return combination([f], [self])
        used = f.used_vars()
        vars = tuple(sorted(set(self.vars) | set(used)))
        out = self._scaled(f, vars)
        if not used or (not set(used) & set(self.vars) and any(e.terms for row in self.entries for e in row)):
            return out
        return PolyMatrix._from_aligned(self.ring, vars, out.entries)

    def _scaled(self, f: LaurentPoly, vars: tuple[str, ...]) -> "PolyMatrix":
        """Every entry times the nonzero monomial ``f``, on ``vars`` (which
        holds the variables of both), unproven and not re-scanned."""
        grid = _map_distinct(lambda cells: times_monomial(f, [e for (e,) in cells], vars), self.entries)
        return _fill(object.__new__(PolyMatrix), self.ring, vars, grid)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self) -> "PolyMatrix":
        return _fill(object.__new__(PolyMatrix), self.ring, self.vars, tuple(zip(*self.entries)))

    def map_entries(self, fn) -> "PolyMatrix":
        """The matrix of ``fn`` of each distinct entry object: a polynomial,
        scalar or number, converted as the constructor converts a cell."""
        return PolyMatrix(self.ring, _map_distinct(lambda cells: [fn(e) for (e,) in cells], self.entries))

    def entrywise_star(self) -> "PolyMatrix":
        """Every entry starred.  Star negates each exponent vector and
        conjugates each coefficient, which keeps it nonzero, so every entry
        keeps its used variables and the matrix is not re-scanned."""
        grid = _map_distinct(lambda cells: [e.star() for (e,) in cells], self.entries)
        return _fill(object.__new__(PolyMatrix), self.ring, self.vars, grid)

    def adjoint(self) -> "PolyMatrix":
        """Transpose with every entry starred: M* = (M star)^T."""
        return self.entrywise_star().transpose()

    def substitute(self, assignment: dict) -> "PolyMatrix":
        """Each variable named in ``assignment`` replaced by its value (see
        ``LaurentPoly.substitute``); UnknownVariable, naming it, for a name
        that is not a variable of this matrix."""
        unknown = sorted(set(assignment) - set(self.vars))
        if unknown:
            raise UnknownVariable(
                f"cannot assign {', '.join(map(repr, unknown))}: the matrix has "
                f"variables {', '.join(self.vars) or 'none'}"
            )
        return self.map_entries(lambda e: e.substitute(assignment))


def _plus_constant(a: PolyMatrix, c: PolyMatrix, sign: int) -> PolyMatrix:
    """``a + sign * c`` for a scalar matrix ``c`` of ``a``'s shape and ring.

    A constant touches only the zero-exponent key, so every term of an
    entry of ``a`` at another exponent stays: the result uses exactly the
    variables of ``a`` and is not re-scanned.  Each distinct nonzero entry
    of ``c`` is re-keyed onto them once, each distinct pair of entry objects
    is summed once, and a cell whose ``c`` entry is zero keeps ``a``'s entry
    object.  It is not :func:`_map_distinct` over the aligned pair: for a
    0/1 matrix ``c`` with one 1, re-keying ``c`` and keying every pair of
    cells there costs about five times this whole sum."""
    vars = a.vars
    rekeyed, sums, grid = {}, {}, []
    for arow, crow in zip(a.entries, c.entries):
        row = list(arow)
        for k, y in enumerate(crow):
            if y.terms:
                x = row[k]
                got = sums.get((id(x), id(y)))
                if got is None:
                    z = rekeyed.get(id(y))
                    if z is None:
                        z = rekeyed[id(y)] = y.with_vars(vars)
                    got = sums[id(x), id(y)] = x._combine(z, sign)
                row[k] = got
        grid.append(tuple(row))
    return _fill(object.__new__(PolyMatrix), a.ring, vars, tuple(grid))


def mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.ring != b.ring:
        raise IncompatibleRings(f"{a.ring} vs {b.ring}")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    a, b = a._aligned_pair(b)
    ring, vars = a.ring, a.vars
    bcols = [[b.entries[k][j] for k in range(b.rows)] for j in range(b.cols)]
    grid = [
        [dot(ring, vars, arow, bcol) for bcol in bcols] for arow in a.entries
    ]
    return PolyMatrix._from_aligned(ring, vars, grid)


def tensor(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product with row-major block expansion, within the size
    limit of ``MAX_ENTRIES``."""
    if a.ring != b.ring:
        raise IncompatibleRings(f"{a.ring} vs {b.ring}")
    _check_size(
        f"the tensor product of {a.rows}x{a.cols} and {b.rows}x{b.cols}",
        a.rows * b.rows * a.cols * b.cols,
        _term_count(a) * _term_count(b),
    )
    a, b = a._aligned_pair(b)
    # cell (i b.rows + k, j b.cols + l) holds a[i][j] b[k][l]: one product
    # per distinct pair of factor entries
    lefts = [[x for x in arow for _ in range(b.cols)] for arow in a.entries for _ in range(b.rows)]
    rights = [[y for _ in range(a.cols) for y in brow] for _ in range(a.rows) for brow in b.entries]
    grid = _map_distinct(lambda pairs: [x * y for x, y in pairs], lefts, rights)
    return PolyMatrix._from_aligned(a.ring, a.vars, grid)


def _check_glued(rows: int, cols: int) -> None:
    """SizeLimit when a glued matrix would hold more than ``MAX_ENTRIES`` entries (it forms no term products)."""
    if rows * cols > MAX_ENTRIES:  # a tangle variant is a few microseconds: format only a refusal
        _check_size(f"the glued {rows}x{cols} matrix", rows * cols, 0)


def _glue(ring: RingDescriptor, vars: tuple[str, ...], blocks) -> PolyMatrix:
    """The matrix of a full grid of equal-size blocks, all on exactly ``vars``:
    each glued row is one concatenation of their row tuples, holding their entry objects."""
    grid = tuple([sum(parts, ()) for row in blocks for parts in zip(*[blk.entries for blk in row])])
    return _fill(object.__new__(PolyMatrix), ring, vars, grid)


def assemble_blocks(blocks) -> PolyMatrix:
    """Glue a full grid of equal-size matrices over one ring (an empty or ragged
    grid is a DimensionMismatch) within ``MAX_ENTRIES`` entries: each distinct
    block is aligned once onto the union of their vars, and :func:`_glue` joins them."""
    if not blocks or not blocks[0] or any(len(row) != len(blocks[0]) for row in blocks):
        raise DimensionMismatch("ragged or empty block grid")
    ring = blocks[0][0].ring
    br, bc = blocks[0][0].rows, blocks[0][0].cols
    for row in blocks:
        for blk in row:
            if blk.ring != ring:
                raise IncompatibleRings("blocks must share one ring")
            if (blk.rows, blk.cols) != (br, bc):
                raise DimensionMismatch("blocks must all have the same size")
    _check_glued(len(blocks) * br, len(blocks[0]) * bc)
    vars = tuple(sorted(set().union(*(blk.vars for row in blocks for blk in row))))
    aligned = {id(blk): blk._with_vars(vars) for row in blocks for blk in row}
    return _glue(ring, vars, [[aligned[id(blk)] for blk in row] for row in blocks])


def _combination_terms(coeffs, mats):
    """(ring, vars, coeffs, grids) of the combination sum_i c_i M_i: the
    union of the variables, the coefficients as polynomials that
    :func:`dot` reads on it (:func:`_on`), and the matrices' entry grids,
    each entry still on its own matrix's variables."""
    mats = list(mats)
    if not mats or len(coeffs) != len(mats):
        raise DimensionMismatch("one coefficient per matrix required")
    first = mats[0]
    for m in mats[1:]:
        first._check_same_shape(m)
    ring = first.ring
    coeffs = [_as_poly(ring, c) for c in coeffs]
    vars = tuple(sorted(set().union(*(m.vars for m in mats), *(c.used_vars() for c in coeffs))))
    return ring, vars, _on(vars, coeffs), [m.entries for m in mats]


def combination(coeffs, mats) -> PolyMatrix:
    """The linear combination sum_i c_i M_i of equal-size matrices over one
    ring, each c_i a scalar or a polynomial: one :func:`dot` per distinct
    tuple of the members' entries, which it reads on the union
    (:func:`_on`)."""
    ring, vars, coeffs, grids = _combination_terms(coeffs, mats)
    grid = _map_distinct(lambda cells: [dot(ring, vars, coeffs, _on(vars, es)) for es in cells], *grids)
    return PolyMatrix._from_aligned(ring, vars, grid)


def _on(vars: tuple[str, ...], polys) -> list[LaurentPoly]:
    """``polys`` as :func:`dot` reads them on ``vars``: a constant on no
    variables as it is, any other entry re-keyed onto ``vars``."""
    return [e.with_vars(vars) if e.vars else e for e in polys]


def _sums_to_identity(mats) -> bool:
    """Whether the equal-size square matrices ``mats`` sum to I, decided
    cell by cell: one :func:`dot` per distinct tuple of a cell's place (on
    the diagonal or off it) and the members' entries, in row-major order
    of first occurrence, up to the first sum that is not 1 on the diagonal
    or 0 off it."""
    ring, vars, ones, grids = _combination_terms([1] * len(mats), mats)
    n = len(grids[0])
    diagonal = [[i == j for j in range(n)] for i in range(n)]
    _, cells = _distinct(diagonal, *grids)
    for on, *es in cells.values():
        total = dot(ring, vars, ones, _on(vars, es))
        if not (total.is_one() if on else total.is_zero()):
            return False
    return True


# --- verification ----------------------------------------------------------

def _require_square(m: PolyMatrix) -> None:
    """NotSquare unless ``m`` is square: the one message of every check
    and determinant that needs a square matrix."""
    if not m.is_square:
        raise NotSquare(f"square matrix required, got {m.rows}x{m.cols}")


class VerificationReport:
    """Outcome of an exact identity check, with the full residual on failure.

    ``ok`` is decided when the report is made.  A failed check may leave its
    explanation to the report: ``explain`` then returns the pair
    (``residual``, ``failures``) from the work the check already did (a
    failed :func:`is_paraunitary` hands on its Gram kernel, and its report
    forms only the entries of M M* that differ, one ``dot`` each), and the
    report calls it on the first read of either field, once; a call that
    raises is made again on the next read.  A caller that reads only
    ``ok`` pays for the decision alone; :meth:`summary`, equality and the
    report JSON read the fields, so they see the same values either way.

    ``certificate`` names what decided the verdict: ``hermitian-half``
    (:func:`is_paraunitary`, by the Gram kernel), ``row-norm`` (a failure
    of :func:`is_paraunitary` proven by a row norm, before the kernel),
    ``rank`` (``idempotents.verify_set``, on every ring), or
    ``recorded:<rule>`` when a check returned the proof recorded on its
    object: :func:`is_paraunitary` on a matrix and
    ``idempotents.verify_set`` on a set that carries a proof alike, with
    nothing computed.  It is for tracing only: it
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

    def require(self, exc_class, lead: str = "") -> "VerificationReport":
        """This report if the check passed; else ``exc_class`` of ``lead`` and
        the :meth:`summary`: the one way a failed check becomes its error."""
        if not self.ok:
            raise exc_class(lead + self.summary())
        return self


def is_paraunitary(m: PolyMatrix) -> VerificationReport:
    """Exact check of M M* = I, reporting the residual on failure.

    Two stages decide it.  The row norms come first
    (:func:`~paraunitary.laurent.row_norms`): the constant coefficient N_i
    of entry (i, i) of M M* is the sum of c conj(c) over the terms c x^e of
    row i, and M M* = I needs N_i = 1, so a row whose N_i differs (over
    Q(zeta_N), whose trace to Q differs from phi(N)) proves the failure
    with certificate ``row-norm``, before any row is prepared for a
    product.  Only the second stage can pass a matrix.

    Certificate ``hermitian-half``: star is a ring automorphism and an
    involution, so entry (j, i) of M M* is

        sum_k M[j][k] star(M[i][k]) = star(sum_k M[i][k] star(M[j][k])),

    the star of entry (i, j).  The identity is star-fixed, so entry (j, i)
    equals the identity's exactly when entry (i, j) does, and the entries
    with i <= j decide the identity.  They are summed row by row by one
    :class:`~paraunitary.laurent.Gram` kernel, which reads each row of M
    and of M star once, and each sum is decided by its residues
    (``Gram.is_identity``) without becoming a polynomial; the check stops
    at the first one that differs, which decides ``ok``, and keeps the
    kernel and that position: every entry before it is the identity's.
    The failure report is built on the first read of ``residual`` or
    ``failures`` (see :class:`VerificationReport`) by
    :func:`_paraunitary_failure`, in one pass over the upper triangle: the
    same kernel decides each entry after that position, and after a
    ``row-norm`` failure one kernel decides every upper entry.  Only an
    entry that differs is formed, by one :func:`~paraunitary.laurent.dot`,
    and its star fills the mirrored lower entry; every other residual
    entry is zero.  A report so costs one kernel sum per upper entry and
    one dot per differing one, and its ``residual`` and ``failures`` are
    those of ``mul(m, m.adjoint()) - I`` (canonical forms are unique).
    A nonzero term of M M* outside the packed exponent range fails the
    check, and reading its report raises ExponentOverflow, as that product
    does.  The row norms star nothing, so a matrix with a row whose star
    leaves that range fails by its norms when a norm differs, and only
    its report raises.

    A pass is recorded on ``m`` (a PolyMatrix never changes after it is
    built), and so is a constructor's rule (:func:`_record`): checking a
    matrix that carries a proof returns a fresh passing report without
    recomputing.  A failure is never recorded.
    """
    _require_square(m)
    if m.proof is not None:
        return VerificationReport("paraunitary", True, certificate=f"recorded:{m.proof}")
    if any(t != one for t, one in row_norms(m.ring, m.entries)):
        return VerificationReport(
            "paraunitary", False, certificate="row-norm",
            explain=lambda: _paraunitary_failure(m, _off_identity(Gram(m.ring, m.vars, m.entries))),
        )
    gram = Gram(m.ring, m.vars, m.entries)
    failed = next(_off_identity(gram), None)
    if failed:
        return VerificationReport(
            "paraunitary", False, certificate="hermitian-half",
            explain=lambda: _paraunitary_failure(m, chain([failed], _off_identity(gram, 1, failed))),
        )
    _record(m, "hermitian-half")
    return VerificationReport("paraunitary", True, certificate="hermitian-half")


def _record(obj, rule: str):
    """Record ``rule`` as the proof of ``obj`` and return ``obj``.

    ``obj`` is a PolyMatrix, for which the proof is of M M* = I, or an
    ``idempotents.IdempotentSet``, for which it is of the four set clauses.
    This is the one path by which a passing check, or a constructor's
    checked premises, stand in for a later check of the object: a caller
    records a rule only after the check has passed or every premise of the
    theorem behind it has been checked on its inputs.
    """
    obj._proof = rule
    return obj


def _off_identity(gram: Gram, sign: int = 1, after: tuple[int, int] = (0, -1)):
    """Yield (i, j) of each upper entry of ``gram``, row by row from the
    one after ``after``, that is not that of ``sign`` I (``sign`` on the
    diagonal, 0 elsewhere).  Each entry is decided from its sum alone
    (``Gram.is_identity``): no entry becomes a polynomial, and an entry is
    summed only when the caller asks for the next one, so a check that
    stops at the first sums no later entry."""
    n, (top, left) = len(gram.rows), after
    for i in range(top, n):
        for j in range(left + 1 if i == top else i, n):
            if not gram.is_identity(gram.sum(i, j), sign if i == j else 0):
                yield i, j


def _paraunitary_failure(m: PolyMatrix, differing):
    """(residual, failures) of a failed check, from ``differing``: the
    positions (i, j), i <= j, of the upper entries of M M* that differ from
    the identity's, row by row (:func:`_off_identity`, which sums each
    entry it decides once in the check's Gram kernel).  Every other entry
    is the identity's, so its residual is zero and nothing forms it.  A
    differing entry is one :func:`dot` of row i of M with row j of M star,
    each distinct entry of a row it reads starred once; its star is entry
    (j, i).  The residual is that entry, less 1 on the diagonal, and
    ``failures`` names each differing entry of M M*, row-major: no product
    matrix is built and no identity subtracted."""
    ring, vars, n = m.ring, m.vars, m.rows
    stars, product = {}, {}
    for i, j in differing:
        row = []
        for e in m.entries[j]:
            s = stars.get(id(e))
            if s is None:
                s = stars[id(e)] = e.star()
            row.append(s)
        e = product[i, j] = dot(ring, vars, m.entries[i], row)
        if i != j:
            product[j, i] = e.star()
    zero = LaurentPoly.zero(ring, vars)
    residual = [[zero] * n for _ in range(n)]
    for (i, j), e in product.items():
        residual[i][j] = e - 1 if i == j else e
    failures = [f"entry ({i + 1},{j + 1}): product is {e}" for (i, j), e in sorted(product.items())]
    return PolyMatrix._from_aligned(ring, vars, residual), failures


def is_pseudo_paraunitary(m: PolyMatrix):
    """The constant p with M M* = p I, or None when no unit monomial p
    does.

    Such a p is 1 or -1.  It is the entry (M M*)[0][0], which is
    star-fixed, and a unit monomial c x^e is star-fixed only when e = 0 and
    c = conj(c), so c^2 = c conj(c) = 1.  A matrix that carries a proof has
    p = 1.  Otherwise p is read off the row norms
    (:func:`~paraunitary.laurent.row_norms`): the constant term N_i of
    entry (i, i) must be p for every i.  Over Q and Q(zeta_N), N_i is a sum
    of the c conj(c) of the terms of a row, totally positive, so p = 1, and
    every row must pass the norm test of :func:`is_paraunitary`; over F_p,
    p = N_0, which must be 1 or -1, and every N_i must equal it (the
    diagonal 2 over F_5 has p = 4 = -1).  A row that fails gives None with
    no product prepared.  Then one
    :class:`~paraunitary.laurent.Gram` kernel decides M M* = p I by the
    ``hermitian-half`` argument of :func:`is_paraunitary` (p I is
    star-fixed), stopping at the first upper entry that differs.
    """
    _require_square(m)
    if m.proof is not None:
        return LaurentPoly.constant(1, m.ring)
    norms = row_norms(m.ring, m.entries)
    t, one = next(norms)
    q = m.ring.p
    sign = 1 if t == one else -1 if q and t == q - 1 else None
    if sign is None or any(u != t for u, _ in norms):
        return None
    if next(_off_identity(Gram(m.ring, m.vars, m.entries), sign), None) is None:
        return LaurentPoly.constant(sign, m.ring)
    return None


# --- rank / trace / determinant --------------------------------------------

def rank(m: PolyMatrix) -> int:
    """Rank over the fraction field of the entries (Q(x, ..), Q(zeta_N)(x, ..)
    or F_p(x, ..); the scalar field for a scalar matrix): the pivot count of
    the fraction-free elimination :func:`~paraunitary.laurent.echelon`."""
    return sum(1 for _ in echelon(m.ring, m.vars, m.entries)[1])


def trace(m: PolyMatrix) -> ExactScalar:
    _require_square(m)
    if not m.is_scalar:
        raise NotScalar(f"matrix has variables {', '.join(m.vars)}")
    # the diagonal summed in one accumulator, as a dot against constant ones
    one = LaurentPoly.constant(1, m.ring)
    return dot(m.ring, (), [m.entries[i][i] for i in range(m.rows)], [one] * m.rows).constant_value()


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


def determinant(m: PolyMatrix) -> LaurentPoly:
    """Exact determinant: the last pivot of the fraction-free elimination
    :func:`~paraunitary.laurent.echelon` times the factor the rows lost when
    they were made integral, signed by the row swaps; 0 as soon as a column
    has no pivot, since the rank is then short."""
    _require_square(m)
    factor, pivots = echelon(m.ring, m.vars, m.entries)
    sign = 1
    for k, (c, pivot, swapped) in enumerate(pivots):
        if c != k:
            break
        if swapped:
            sign = -sign
        if k == m.rows - 1:
            (det,) = times_monomial(factor, [pivot])
            return det if sign > 0 else -det
    return LaurentPoly.zero(m.ring, m.vars)


def determinant_cofactor(m: PolyMatrix) -> LaurentPoly:
    """Independent oracle: Laplace expansion memoized over column subsets.

    The minor on the last k rows and the columns ``cols`` expands along its
    first row: sum over idx of (-1)^idx a[n-k][cols[idx]] times the minor on
    ``cols`` without ``cols[idx]``.  Each minor is one :func:`dot` over the
    signed nonzero entries of its row and their sub-minors; the empty minor
    is 1.  No pivot, division or :class:`~paraunitary.laurent.Divisor` is
    involved, so it shares nothing with :func:`determinant` but the product
    kernel.
    """
    _require_square(m)
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

