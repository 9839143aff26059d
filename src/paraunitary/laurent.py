"""Sparse multivariate Laurent polynomials with exact scalar coefficients.

Variables are stored in sorted name order and exponents may be negative.
The star operation conjugates coefficients and negates every exponent; it
is the z -> z^-1 involution extended from the scalars.

Packed layout (private to this module and its text grammar)
-----------------------------------------------------------
A polynomial stores ``terms``, a map from one packed int key to a nonzero
int numerator, over one positive denominator ``den`` shared by all terms
(packed exponent vectors after Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007):

- Every variable owns a field of ``FIELD_BITS = 32`` bits holding
  ``e + 3 * EXPONENT_BOUND``.  The first variable takes the most
  significant field, so the int order of keys is the lexicographic order of
  exponent vectors.
- Over Q(zeta_N) the lowest ``(2 phi(N) - 2).bit_length()`` bits hold the
  power-basis index, so a coefficient ``sum(nums[i] zeta^i) / den`` takes
  one key per nonzero ``nums[i]``.  A term product is then one int add (of
  the keys, less the key of the zero exponent vector) and one int multiply.
  The product kernel :func:`_products` (behind :func:`dot` and the cells
  of :class:`IntegralRows`) is the only producer of indices up to
  ``2 phi(N) - 2``, and :func:`_fold` folds them mod Phi_N, once per
  result, through the power table of ``scalars.power_rows``.
  :class:`Gram` only decides: it reads the rows of M many times, packs
  each coefficient into one int first, and decides whether an entry of
  M M* is a constant c in {-1, 0, 1} by one residue per key, with no
  fold and no polynomial, so every full entry of a product comes from
  :func:`dot`.  Q has one key per term; F_p keeps numerators in
  ``[1, p)`` over the denominator 1.
- The form is canonical: ``den > 0``, ``gcd(den, *numerators) == 1`` and
  every index below phi(N).  Equality and hashing rely on it.
- A product with a monomial ``c x^e`` is a key offset and a numerator
  scaling (:func:`times_monomial`), not a pass through the kernel :func:`dot`:
  each term meets the row of ``c zeta^j`` for its index ``j``, already
  folded (``scalars.scaling_rows``), so a scaled term never leaves the
  canonical range.  Re-keying onto other variables (:func:`_rekey_plan`)
  happens in the same pass.
- The text grammar (:mod:`paraunitary.laurent_text`) reads the exponents
  of the terms it prints through :func:`_exponent_pairs`, and builds
  ``name^e`` with :func:`_pack` in place of a product.

Polynomials and scalars are values by contract, with plain slots: every
operation builds a new object by plain slot stores (:func:`_raw`) and none
changes an operand, so nothing guards the slots (see :class:`LaurentPoly`).

Exact division runs through a :class:`Divisor`, prepared once per divisor;
the fraction-free elimination prepares one per step.  It divides int maps
(``{key: int}``, the numerators of a polynomial) by an integral divisor: g
is k G / den with coprime int numerators in G, and t lc(G) = c for an int
c > 0, so H = t G has int numerators and the int leading coefficient c.
Its remainder is one int map that each long-division step updates in
place, scaled only when c does not divide the leading group; over Q an
exact division never scales (Gauss's lemma), over F_p c = 1.  Its one
entry point, :meth:`Divisor.divide_ints`, returns the int map of an
integral quotient with no polynomial object; :func:`exact_div` divides two
polynomials through the same loop and puts the quotient of the dividend's
numerators over its denominator.

The fraction-free elimination of ``polymatrix`` works on such int maps
alone (:class:`IntegralRows`): each row of the matrix is scaled once by the
lcm of its denominators and a monomial, so every entry is the int map of a
polynomial with int (or F_p) coefficients over the denominator 1, every
cell of an elimination step is one accumulator of :func:`_products`, and
every quotient is integral (Sylvester's identity; see
``polymatrix._echelon``).  Only the pivots become polynomials.

Exponent limits.  A stored exponent lies in ``[-EXPONENT_BOUND,
EXPONENT_BOUND)`` = [-2^29, 2^29 - 1].  A field is valid exactly when its
top two bits are ``01``, and the sum of two valid fields never carries into
its neighbour, so one mask test per result key finds a product, star or
quotient whose exponents left the range; it raises
:class:`~paraunitary.errors.ExponentOverflow` and never wraps.  Text and
JSON input is held to ``|e| <= MAX_EXPONENT`` = 1024, to at most
``MAX_NESTING`` = 100 nested parentheses, and to products in text of at most
``MAX_TERM_PAIRS`` = 65536 term pairs (the product of the two factors' term
counts, a Q(zeta_N) coefficient counting once per nonzero power-basis
coordinate), each a ``ParseError`` raised by the text grammar
(:mod:`paraunitary.laurent_text`).  The fields are wide enough for what
the library derives from such input: a row of entries spans at most 2048
in each exponent, so the fraction-free determinant of an n x n matrix
forms products of exponent at most 4096 (n - 1), in range for every n up
to 2^17.  Repeated powers in text,
such as ``((z^1024)^1024)^1024``, can still leave the range and raise.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    ExponentOverflow,
    IncompatibleRings,
    ZeroAssigned,
)
from .scalars import (
    CYCLOTOMIC,
    PRIME_FIELD,
    ExactScalar,
    RingDescriptor,
    _inverse_mod_phi,
    as_scalar,
    cyclotomic_polynomial,
    is_unit_modulus,
    power_rows,
    scalar_from_ints,
    scaling_rows,
    one as scalar_one,
    zero as scalar_zero,
)

FIELD_BITS = 32
EXPONENT_BOUND = 1 << (FIELD_BITS - 3)
MAX_EXPONENT = 1024
MAX_NESTING = 100
MAX_TERM_PAIRS = 1 << 16

_FIELD_MASK = (1 << FIELD_BITS) - 1
_BIAS = 3 * EXPONENT_BOUND
_new = object.__new__


class _Layout:
    """Key layout of one ring and number of variables.

    Over Q(zeta_N), ``reduce`` is the power table of N
    (``scalars.power_rows``), which :func:`_fold` reads at row ``t % N``,
    ``reduce_max`` is its largest absolute entry, ``conj`` holds its rows of
    zeta^-j for j < phi(N), and ``conj_norm`` is the largest L1 norm of
    those rows (both 1 on Q and F_p).  One layout exists
    per (ring, nvars) (:func:`_layout`), and copy and pickle return it."""

    __slots__ = (
        "ring", "nvars", "zbits", "zmask", "degree", "n", "zero", "top", "valid", "sign", "p", "reduce", "conj",
        "conj_norm", "reduce_max",
    )

    def __init__(self, ring: RingDescriptor, nvars: int):
        d = ring.degree  # 1 on Q and F_p
        cyclo = ring.kind == CYCLOTOMIC and d > 1
        self.ring, self.nvars, self.degree = ring, nvars, d
        self.n = ring.conductor if cyclo else None
        self.zbits = (2 * d - 2).bit_length()
        self.zmask = (1 << self.zbits) - 1
        self.p = ring.p if ring.kind == PRIME_FIELD else None
        self.reduce = power_rows(self.n) if cyclo else ()
        self.conj = tuple(self.reduce[-j % self.n] for j in range(d)) if cyclo else None
        self.conj_norm = max(sum(abs(c) for _, c in row) for row in self.conj) if cyclo else 1
        self.reduce_max = max(abs(c) for row in self.reduce for _, c in row) if cyclo else 1
        ones = sum(1 << (FIELD_BITS * i) for i in range(nvars)) << self.zbits
        self.zero = _BIAS * ones  # the key of the zero exponent vector
        self.top = (3 << (FIELD_BITS - 2)) * ones
        self.valid = (1 << (FIELD_BITS - 2)) * ones
        self.sign = (1 << (FIELD_BITS - 1)) * ones

    def __reduce__(self):
        return _layout, (self.ring, self.nvars)


@lru_cache(maxsize=None)
def _layout(ring: RingDescriptor, nvars: int) -> _Layout:
    return _Layout(ring, nvars)


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(
        f"exponent outside [{-EXPONENT_BOUND}, {EXPONENT_BOUND - 1}], the range of a packed key"
    )


def _pack(lay: _Layout, exps) -> int:
    key = 0
    for e in exps:
        if not -EXPONENT_BOUND <= e < EXPONENT_BOUND:
            raise _overflow()
        key = (key << FIELD_BITS) | (e + _BIAS)
    return key << lay.zbits


def _unpack(lay: _Layout, key: int) -> tuple[int, ...]:
    key >>= lay.zbits
    out = [0] * lay.nvars
    for i in range(lay.nvars - 1, -1, -1):
        out[i] = (key & _FIELD_MASK) - _BIAS
        key >>= FIELD_BITS
    return tuple(out)


def _exponent_pairs(lay: _Layout, vars: tuple[str, ...], keys: list) -> list[list[tuple[str, int]]]:
    """The nonzero exponents of each key of ``keys`` as ``(variable, e)``
    pairs in the order of ``vars``.  Only the fields of variables that some
    key uses are read, so a key that uses one of 32 variables costs one
    field, where :func:`_unpack` reads all 32."""
    acc, zero = 0, lay.zero
    for k in keys:
        acc |= k ^ zero
    top = lay.zbits + FIELD_BITS * len(vars)
    fields = [(v, s) for i, v in enumerate(vars) if acc >> (s := top - FIELD_BITS * (i + 1)) & _FIELD_MASK]
    return [[(v, e) for v, s in fields if (e := (k >> s & _FIELD_MASK) - _BIAS)] for k in keys]


@lru_cache(maxsize=4096)
def _rekey_plan(zbits: int, old: tuple[str, ...], new: tuple[str, ...]):
    """``(base, moves)``: a key over ``old`` maps to ``base + sum(((key >> src)
    & mask) << dst for src, mask, dst in moves)`` over ``new``.

    The zeta index is a field of ``zbits`` bits (none on Q and F_p) at the
    bottom of both keys and stays in place.  Each run of fields kept next
    to each other in both tuples, the index included, is one move:
    re-keying x0..x15 onto (x0..x15, y0..y15) is one move for the index and
    one shift for all 16 fields.  A run that reaches the top of the old key
    takes the mask -1, since no bits lie above it; so a key over no
    variables is one move in place even on Q, where it is 0.  ``base``
    holds the zero exponent of every variable new to the key; the field of
    a dropped (unused) variable is left behind."""
    def low(names, i):
        return zbits + FIELD_BITS * (len(names) - 1 - i)

    pos = {v: j for j, v in enumerate(new)}
    runs = [[0, zbits, 0]]  # [src, width, dst], bottom up
    for i in range(len(old) - 1, -1, -1):
        if old[i] in pos:
            src, dst = low(old, i), low(new, pos[old[i]])
            last = runs[-1] if runs else None
            if last and last[0] + last[1] == src and last[2] + last[1] == dst:
                last[1] += FIELD_BITS
            else:
                runs.append([src, FIELD_BITS, dst])
    top = zbits + FIELD_BITS * len(old)
    moves = tuple((s, -1 if s + w == top else (1 << w) - 1, d) for s, w, d in runs if w or s == top)
    base = sum(_BIAS << low(new, j) for j, v in enumerate(new) if v not in old)
    return base, moves


_SAME = (0, ((0, -1, 0),))  # the plan of a key onto its own variables


def _moved(key: int, plan) -> int:
    """``key`` re-keyed by ``plan`` (see :func:`_rekey_plan`)."""
    base, moves = plan
    return base + sum(((key >> src) & mask) << dst for src, mask, dst in moves)


def _used(lay: _Layout, vars: tuple[str, ...], polys) -> tuple[str, ...]:
    """The variables of ``vars`` with a nonzero exponent in some term of ``polys``."""
    acc, zero = 0, lay.zero
    for f in polys:
        for k in f.terms:
            acc |= k ^ zero
    acc >>= lay.zbits
    used = []
    for v in reversed(vars):
        if acc & _FIELD_MASK:
            used.append(v)
        acc >>= FIELD_BITS
    return tuple(reversed(used))


def _reduced(lay: _Layout, acc: dict) -> dict:
    """The nonzero terms of ``acc`` (key -> int, every zeta index below
    phi(N)), reduced mod p where the ring has a p, each key checked to lie
    in the exponent range: one pass to reduce and drop zeros, one more to
    check the keys."""
    p = lay.p
    if p:
        terms = {k: r for k, c in acc.items() if (r := c % p)}
    else:
        terms = {k: c for k, c in acc.items() if c}
    top, valid = lay.top, lay.valid
    for k in terms:
        if k & top != valid:
            raise _overflow()
    return terms


def _finish(ring, vars, lay: _Layout, acc: dict, den: int) -> "LaurentPoly":
    """The canonical polynomial of ``acc`` (see :func:`_reduced`) over
    ``den``: the terms of :func:`_reduced` with ``gcd(den, *numerators)``
    divided out."""
    terms = _reduced(lay, acc)
    if not terms:
        den = 1
    elif den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return _raw(ring, vars, terms, den, lay)


def _fold(lay: _Layout, acc: dict) -> None:
    """Fold the zeta powers >= phi(N) of a product accumulator mod Phi_N, in place."""
    rows, zmask, d, n = lay.reduce, lay.zmask, lay.degree, lay.n
    for k in [k for k in acc if k & zmask >= d]:
        c = acc.pop(k)
        if c:
            t = k & zmask
            for i, r in rows[t % n]:
                acc[k - t + i] = acc.get(k - t + i, 0) + c * r


def _multiplier(lay: _Layout, nums):
    """What :func:`_scale_terms` multiplies by for ``c = sum(nums[t]
    zeta^t)``: the int ``c`` when ``c`` is rational (always on Q and F_p),
    else the rows of ``c`` (``scalars.scaling_rows``)."""
    if not any(nums[1:]):
        return nums[0]
    return scaling_rows(lay.n, tuple(nums))


def _scale_terms(terms: dict, plan, offset: int, mult, zmask: int) -> dict:
    """``terms`` re-keyed by ``plan`` and times ``c x^e``, in one pass: the
    plan ``_SAME`` only adds the offset, any other moves each key's fields.

    ``offset`` is the key of ``e`` less the key of the zero exponent vector,
    over the new variables.  ``mult`` comes from :func:`_multiplier`: an int
    multiplies each numerator and keeps its key; rows send a term of index
    ``j`` to the terms of row ``j``, whose indices are already below phi(N).
    ``e`` must lie in the exponent range, so no field carries; the result
    is an accumulator for :func:`_finish`."""
    base, moves = plan
    base += offset
    m = mult if type(mult) is int else 1
    if moves == _SAME[1]:
        moved = terms if not base and m == 1 else {k + base: v * m for k, v in terms.items()}
    else:
        moved = {
            sum(((k >> src) & mask) << dst for src, mask, dst in moves) + base: v * m
            for k, v in terms.items()
        }
    if type(mult) is int:
        return moved
    acc: dict = {}
    get = acc.get
    for k, v in moved.items():
        j = k & zmask
        k -= j
        for i, r in mult[j]:
            acc[k + i] = get(k + i, 0) + v * r
    return acc


class LaurentPoly:
    """Laurent polynomial over one RingDescriptor, a value that never changes.

    Build one from ``{exponent vector: coefficient}`` over sorted ``vars``;
    read its terms back with :meth:`coefficients`.  ``terms`` and ``den``
    are the packed form described in the module docstring.

    Immutability is a contract, not a guard: no operation changes a
    polynomial once it is built, every one returns a new object (or an
    operand as it is), and callers must neither assign the slots nor change
    ``terms`` in place.  Equality, hashing and the memo of
    ``serialize`` rely on it.  The slots are plain, so a polynomial is built
    by plain stores, and copy, deepcopy and pickle round-trip it.
    """

    __slots__ = ("ring", "vars", "terms", "den", "_lay")

    def __init__(self, ring: RingDescriptor, vars: tuple[str, ...], terms: dict):
        vars = tuple(vars)
        if list(vars) != sorted(set(vars)):
            raise ValueError(f"variables must be sorted and distinct, got {vars}")
        lay = _layout(ring, len(vars))
        parts, den = [], 1
        for exps, coeff in terms.items():
            coeff = as_scalar(ring, coeff)
            if coeff.is_zero():
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise DimensionMismatch(f"exponent vector {exps} does not match variables {vars}")
            nums, d = coeff.value
            parts.append((_pack(lay, exps), nums, d))
            den = den * d // math.gcd(den, d)
        # each coefficient is canonical, so over the lcm of their
        # denominators the numerators already share no factor with it
        self.terms = {key + i: c * (den // d) for key, nums, d in parts for i, c in enumerate(nums) if c}
        self.ring, self.vars, self.den, self._lay = ring, vars, den, lay

    # -- constructors --

    @staticmethod
    def zero(ring: RingDescriptor, vars: tuple[str, ...] = ()) -> "LaurentPoly":
        return LaurentPoly(ring, tuple(sorted(vars)), {})

    @staticmethod
    def constant(c: ExactScalar | int | Fraction, ring: RingDescriptor | None = None) -> "LaurentPoly":
        if ring is None and isinstance(c, ExactScalar):
            ring = c.ring
        elif ring is None:
            raise ValueError("constant() needs a ring for plain numbers")
        nums, den = as_scalar(ring, c).value
        # with no variables a key is the power-basis index alone
        terms = {i: n for i, n in enumerate(nums) if n}
        return _raw(ring, (), terms, den if terms else 1, _layout(ring, 0))

    @staticmethod
    def variable(name: str, ring: RingDescriptor) -> "LaurentPoly":
        lay = _layout(ring, 1)
        return _raw(ring, (name,), {_pack(lay, (1,)): 1}, 1, lay)

    @staticmethod
    def monomial(coeff, exponents: dict[str, int], ring: RingDescriptor | None = None) -> "LaurentPoly":
        if ring is None and isinstance(coeff, ExactScalar):
            ring = coeff.ring
        elif ring is None:
            raise ValueError("monomial() needs a ring for plain numbers")
        names = tuple(sorted(exponents))
        exps = tuple(int(exponents[v]) for v in names)
        return LaurentPoly(ring, names, {exps: as_scalar(ring, coeff)})

    # -- structure --

    def _groups(self) -> dict[int, list[int]]:
        """Power-basis numerators by exponent key (the key with zeta index 0)."""
        zmask, d = self._lay.zmask, self._lay.degree
        groups: dict[int, list[int]] = {}
        for k, c in self.terms.items():
            i = k & zmask
            nums = groups.get(k - i)
            if nums is None:
                nums = groups[k - i] = [0] * d
            nums[i] = c
        return groups

    def coefficients(self) -> dict[tuple[int, ...], ExactScalar]:
        """The terms as ``{exponent vector over vars: nonzero coefficient}``."""
        lay, ring, den = self._lay, self.ring, self.den
        return {_unpack(lay, k): scalar_from_ints(ring, nums, den) for k, nums in self._groups().items()}

    def used_vars(self) -> tuple[str, ...]:
        return _used(self._lay, self.vars, (self,))

    def with_vars(self, vars: tuple[str, ...]) -> "LaurentPoly":
        """Re-align onto another sorted variable tuple (dropped vars must be unused)."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        missing = [v for v in self.vars if v not in vars]
        if missing and set(missing) & set(self.used_vars()):
            raise ValueError(f"cannot drop used variables {missing}")
        lay = self._lay
        terms = _scale_terms(self.terms, _rekey_plan(lay.zbits, self.vars, vars), 0, 1, lay.zmask)
        return _raw(self.ring, vars, terms, self.den, _layout(self.ring, len(vars)))

    def compact(self) -> "LaurentPoly":
        """Drop variables that occur with exponent zero everywhere."""
        return self.with_vars(self.used_vars())

    def _align(self, other: "LaurentPoly"):
        if self.ring != other.ring:
            raise IncompatibleRings(f"{self.ring} vs {other.ring}")
        if self.vars == other.vars:
            return self, other
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return self.with_vars(union), other.with_vars(union)

    # -- predicates / extraction --

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        lay = self._lay
        zb, zero = lay.zbits, lay.zero >> lay.zbits
        return all(k >> zb == zero for k in self.terms)

    def constant_value(self) -> ExactScalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        if not self.terms:
            return scalar_zero(self.ring)
        return next(iter(self.coefficients().values()))

    def is_one(self) -> bool:
        return self.den == 1 and len(self.terms) == 1 and self.terms.get(self._lay.zero) == 1

    def is_monomial(self) -> bool:
        zb = self._lay.zbits
        return len({k >> zb for k in self.terms}) == 1

    def single_term(self) -> tuple[ExactScalar, dict[str, int]]:
        if not self.is_monomial():
            raise ValueError(f"{self} is not a monomial")
        exps, coeff = next(iter(self.coefficients().items()))
        return coeff, {v: e for v, e in zip(self.vars, exps) if e}

    # -- arithmetic --

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other, sign: int):
        """``self + sign * other`` over the lcm of the two denominators; a
        zero side returns the other side (negated for ``0 - g``)."""
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction, ExactScalar)):
                return NotImplemented
            other = LaurentPoly.constant(as_scalar(self.ring, other))
        f, g = self._align(other)
        if not g.terms:
            return f
        if not f.terms:
            return g if sign > 0 else -g
        df, dg = f.den, g.den
        h = math.gcd(df, dg)
        sf, sg = dg // h, sign * df // h
        acc = {k: c * sf for k, c in f.terms.items()}
        for k, c in g.terms.items():
            acc[k] = acc.get(k, 0) + c * sg
        return _finish(f.ring, f.vars, f._lay, acc, df * sf)

    def __neg__(self):
        p = self._lay.p
        terms = {k: p - c if p else -c for k, c in self.terms.items()}
        return _raw(self.ring, self.vars, terms, self.den, self._lay)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, (int, Fraction, ExactScalar)):
                return self._times(*as_scalar(self.ring, other).value)
            return NotImplemented
        f, g = self._align(other)
        return dot(f.ring, f.vars, (f,), (g,))

    __rmul__ = __mul__

    def _times(self, nums, den: int) -> "LaurentPoly":
        """``self`` times ``sum(nums[t] zeta^t) / den`` (see
        :func:`_scale_terms`), without the product kernel; zero times
        anything is zero, returned as it is."""
        if not self.terms:
            return self
        lay = self._lay
        terms = _scale_terms(self.terms, _SAME, 0, _multiplier(lay, nums), lay.zmask)
        return _finish(self.ring, self.vars, lay, terms, self.den * den)

    def __pow__(self, k: int):
        return _power(self, k, operator.mul)

    def _conjugated(self, negate: bool) -> "LaurentPoly":
        lay = self._lay
        neg, rows = 2 * lay.zero, lay.conj
        if rows is None:
            if not negate:
                return self
            acc = {neg - k: c for k, c in self.terms.items()}
        else:
            acc = {}
            for k, c in self.terms.items():
                j = k & lay.zmask
                base = neg - k + j if negate else k - j
                for i, r in rows[j]:
                    acc[base + i] = acc.get(base + i, 0) + c * r
        return _finish(self.ring, self.vars, lay, acc, self.den)

    def star(self) -> "LaurentPoly":
        """Conjugate coefficients and send every variable to its inverse."""
        return self._conjugated(True)

    def conj(self) -> "LaurentPoly":
        """Conjugate the coefficients only; exponents stay."""
        return self._conjugated(False)

    def substitute(self, assignment: dict) -> "LaurentPoly":
        """Replace variables by scalars or monomials; others stay symbolic.

        Raises ZeroAssigned when a value of zero appears at all (unit-modulus
        specialization is the only use case, and zero also breaks negative
        exponents).  Terms are grouped by the exponents of the replaced
        variables; each group is one packed scaling by the product of the
        replacement coefficients' powers.
        """
        ring, vars = self.ring, self.vars
        repl: dict[str, tuple[ExactScalar, dict[str, int]]] = {}
        for name, val in assignment.items():
            if isinstance(val, LaurentPoly):
                if val.ring != ring:
                    raise IncompatibleRings(f"{val.ring} vs {ring}")
                if not val.is_zero() and not val.is_monomial():
                    raise ValueError(f"substitution for {name} must be a scalar or monomial")
                val = val.single_term() if val.terms else (scalar_zero(ring), {})
            else:
                val = (as_scalar(ring, val), {})
            if val[0].is_zero():
                raise ZeroAssigned(f"zero assigned to {name}")
            repl[name] = val
        replaced = [i for i, v in enumerate(vars) if v in repl]
        out_vars = {v for v in vars if v not in repl}
        for i in replaced:
            out_vars.update(repl[vars[i]][1])
        out_vars = tuple(sorted(out_vars))
        pos = {v: j for j, v in enumerate(out_vars)}
        routes = [[(pos[w], a) for w, a in repl[v][1].items()] if v in repl else [(pos[v], 1)] for v in vars]
        lay, out_lay = self._lay, _layout(ring, len(out_vars))
        groups: dict[tuple[int, ...], dict] = {}
        for k, c in self.terms.items():
            exps = _unpack(lay, k)
            out = [0] * len(out_vars)
            for e, route in zip(exps, routes):
                for j, a in route:
                    out[j] += a * e
            # within a group the other exponents shift by a constant: no collisions
            part = groups.setdefault(tuple(exps[i] for i in replaced), {})
            part[_pack(out_lay, out) + (k & lay.zmask)] = c
        result = LaurentPoly.zero(ring, out_vars)
        for sub, part in groups.items():
            factor = scalar_one(ring)
            for i, e in zip(replaced, sub):
                factor = factor * repl[vars[i]][0] ** e
            result = result + _raw(ring, out_vars, part, self.den, out_lay)._times(*factor.value)
        return result.compact()

    def is_unit_monomial(self):
        """(coefficient, exponent map) when self is one term with |c|^2 = 1, else None."""
        if not self.is_monomial():
            return None
        coeff, exps = self.single_term()
        if not is_unit_modulus(coeff):
            return None
        return coeff, exps

    # -- comparisons & display --

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction, ExactScalar)):
                return NotImplemented
            try:
                other = LaurentPoly.constant(as_scalar(self.ring, other))
            except IncompatibleRings:
                return False
        if self.ring is not other.ring:
            return False
        f, g = self, other
        if f.vars != g.vars:
            f, g = f.compact(), g.compact()
            if f.vars != g.vars:
                return False
        return f.den == g.den and f.terms == g.terms

    def __hash__(self):
        f = self.compact()
        return hash((f.ring, f.vars, f.den, frozenset(f.terms.items())))

    def __str__(self):
        return poly_to_text(self)

    def __repr__(self):
        return f"LaurentPoly({poly_to_text(self)!r})"


def _raw(ring, vars, terms, den, lay) -> LaurentPoly:
    """Trusted constructor: packed terms canonical, vars sorted, ``lay`` theirs.

    Allocates without the type call and ``__init__`` and sets the slots by
    plain stores; every operation ends here."""
    f = _new(LaurentPoly)
    f.ring = ring
    f.vars = vars
    f.terms = terms
    f.den = den
    f._lay = lay
    return f


def used_vars_of(ring: RingDescriptor, vars: tuple[str, ...], polys) -> tuple[str, ...]:
    """The variables of ``vars`` that occur in any of ``polys``, which all carry ``vars``."""
    return _used(_layout(ring, len(vars)), vars, polys)


def _power(f: LaurentPoly, k: int, mul) -> LaurentPoly:
    """``f ** k`` by repeated squaring, each product taken as ``mul(a, b)``.

    A negative ``k`` needs a monomial ``f``, whose inverse is raised to
    ``-k``.  A one-key ``c x^e`` (c in Q or F_p) takes no product at all."""
    if k < 0:
        if not f.is_monomial():
            raise ValueError("negative powers only defined for monomials")
        coeff, exps = f.single_term()
        f = LaurentPoly.monomial(coeff.inverse(), {v: -e for v, e in exps.items()}, f.ring)
        k = -k
    lay = f._lay
    if k and len(f.terms) == 1 and not next(iter(f.terms)) & lay.zmask:
        # c^k x^(k e) is one key; _pack refuses an exponent out of range
        (key, c), = f.terms.items()
        key = _pack(lay, [e * k for e in _unpack(lay, key)])
        return _raw(f.ring, f.vars, {key: pow(c, k, lay.p) if lay.p else c**k}, f.den**k, lay)
    result = LaurentPoly.constant(scalar_one(f.ring))
    while k:
        if k & 1:
            result = mul(result, f)
        k >>= 1
        if k:
            f = mul(f, f)
    return result


def _min_key(lay: _Layout, maps) -> int | None:
    """The packed key (zeta index 0) of the componentwise minimum exponent
    over the keys of the term maps ``maps``, which share one layout; None
    when every one is empty."""
    keys = [k for t in maps for k in t]
    if not keys:
        return None
    zb = lay.zbits
    if lay.nvars < 2:
        return min(keys) >> zb << zb
    shifts = [zb + FIELD_BITS * i for i in range(lay.nvars)]
    return sum(min((k >> s) & _FIELD_MASK for k in keys) << s for s in shifts)


def min_exponents(polys) -> tuple[int, ...] | None:
    """Componentwise minimum exponent over all terms of ``polys`` (sharing
    one variable tuple), or None when every one is zero."""
    polys = list(polys)
    key = _min_key(polys[0]._lay, [f.terms for f in polys]) if polys else None
    return None if key is None else _unpack(polys[0]._lay, key)


def times_monomial(m: LaurentPoly, polys, vars: tuple[str, ...] | None = None) -> list[LaurentPoly]:
    """``[f * m for f in polys]`` over ``vars``, for a nonzero monomial ``m``
    of their ring, where ``vars`` (``m.vars`` when None) holds the used
    variables of ``m`` and of every ``f``.

    ``m`` is read once.  Each ``f`` then takes one pass of
    :func:`_scale_terms`, which re-keys its terms onto ``vars``, adds the
    offset of ``m``'s exponent and scales the numerators by ``m``'s rows
    together: no product and no separate re-keying."""
    ring, vars = m.ring, m.vars if vars is None else vars
    lay = _layout(ring, len(vars))
    zbits, zmask = lay.zbits, lay.zmask
    (key, nums), = m._groups().items()
    offset = _moved(key, _rekey_plan(zbits, m.vars, vars)) - lay.zero
    mult, den = _multiplier(lay, nums), m.den
    out, old, plan = [], None, None
    for f in polys:
        if f.vars is not old:
            old, plan = f.vars, _rekey_plan(zbits, f.vars, vars)
        if f.terms:
            out.append(_finish(ring, vars, lay, _scale_terms(f.terms, plan, offset, mult, zmask), f.den * den))
        else:
            out.append(f if f.vars == vars else _raw(ring, vars, {}, 1, lay))
    return out


# --- the product kernel ----------------------------------------------------

def dot(ring: RingDescriptor, vars: tuple[str, ...], fs, gs) -> LaurentPoly:
    """Sum of fs[k] * gs[k] over k, where every polynomial carries exactly
    ``vars`` or is a constant on no variables.

    The one-shot product kernel: it serves ``LaurentPoly.__mul__`` and each
    entry of a matrix product.  It puts the pairs over the lcm of their
    denominators and sums them in one accumulator (:func:`_products`, which
    also forms the cells of :class:`IntegralRows`); the exponent check and
    the gcd (:func:`_finish`) then run once on the result.  A constant on no
    variables is read in place: its keys lack the key of the zero exponent
    vector, so the shift of its pair's key sums leaves that key out, in
    place of re-keying the constant (``with_vars``).  It also forms every
    full entry of a Gram product M M* that a report or a message prints;
    :class:`Gram` only decides whether such an entry is a constant.
    """
    lay = _layout(ring, len(vars))
    zero = lay.zero
    pairs = []
    den = 1
    for f, g in zip(fs, gs):
        if f.terms and g.terms:
            dp = f.den * g.den
            # on no variables (zero == 0) every shift is 0
            shift = zero if not zero or f.vars and g.vars else f._lay.zero + g._lay.zero - zero
            pairs.append((f.terms, g.terms.items(), dp, shift))
            if dp != den:
                den = den * dp // math.gcd(den, dp)
    return _finish(ring, vars, lay, _products(lay, pairs, den), den)


def _products(lay: _Layout, pairs, den: int) -> dict:
    """The accumulator of ``sum((den // dp) F G)`` over the ``(F, G items,
    dp, shift)`` of ``pairs``, packed terms whose key sums less ``shift``
    are keys of ``lay``: one key add and one int multiply per pair of terms,
    then the Phi_N fold (:func:`_fold`) once."""
    acc: dict = {}
    get = acc.get
    for fterms, gitems, dp, shift in pairs:
        s = den // dp
        for k1, c1 in fterms.items():
            k1 -= shift
            if s != 1:
                c1 *= s
            for k2, c2 in gitems:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    if lay.reduce:
        _fold(lay, acc)
    return acc


class Gram:
    """The decision of entries of M M* for the matrix M of ``rows``, one
    entry at a time: entry (i, j) is ``sum_k rows[i][k] * star(rows[j][k])``.
    Every entry of ``rows`` carries exactly ``vars``.  Nothing here builds
    a polynomial: a full entry of a Gram product comes from :func:`dot`.

    Each row is prepared on its first read as a left factor, and on its
    first read as a right factor, so a check that stops early prepares (and
    stars) only the rows it read; each distinct entry object is prepared
    once per side.  A prepared entry holds (key, int) pairs with every
    numerator over D, the lcm of the denominators of ``rows``, so a term
    product is one key add and one int multiply into one accumulator over
    D^2, as in :func:`dot`.  A right factor is starred as it is prepared:
    the term ``c zeta^j x^e`` becomes c times the row of zeta^-j at x^-e,
    and a starred exponent outside the packed range raises
    ExponentOverflow, as :meth:`LaurentPoly.star` does.

    :meth:`sum` is the one sum loop: it returns the accumulator of entry
    (i, j), one packed int per exponent key.  :meth:`is_identity` decides
    from it whether the entry is a constant c in {-1, 0, 1} without
    unpacking, folding or building anything.

    Over Q(zeta_N) a pair holds one monomial: its key has the zeta index 0
    and its int packs the power-basis numerators a_t as ``sum_t a_t 2^(B t)``
    (Kronecker substitution zeta -> 2^B, von zur Gathen & Gerhard, *Modern
    Computer Algebra*, section 8.4).  The product of two such ints is the
    product of the coefficients in Z[zeta] before the fold mod Phi_N, with
    coordinate t of the sum in digit t: the packed sum v of a key is A(2^B)
    for the polynomial A = sum_t a_t X^t of its 2 phi(N) - 1 coordinates.
    Each coordinate is at most ``L = n * max|F|_1 * max|G|_1`` in absolute
    value: n is the row length and |F|_1 the sum of the absolute numerators
    of a left entry over D; a right entry star(e) has |star(e)|_1 <= |e|_1
    times the largest L1 norm of a row of zeta^-j (``_Layout.conj_norm``),
    so B is fixed before anything is starred.

    Let T be the target of a key (c D^2 at the zero key, 0 elsewhere) and
    rho the fold of A - T mod Phi_N, with coordinates rho_t = sum_s a_s
    R[s][t] - [t = 0] T for the power table R (``_Layout.reduce``); the
    entry is c exactly when rho = 0 at every key.  B carries slack bits: it
    is 2 more than the bit length of the larger of (2 phi(N) - 1) max|R| L
    + D^2 and max|R|, so, as |c| <= 1,

    - every |rho_t| <= (2 phi(N) - 1) max|R| L + D^2 < 2^(B - 2);
    - every coefficient c_t of Phi_N has |c_t| <= max|R| < 2^(B - 2), since
      row phi(N) of R holds minus the coefficients of Phi_N below its
      leading 1.

    Let P = Phi_N(2^B).  Phi_N is monic, so A - T = Q Phi_N + rho with Q
    integral, and v - T = Q(2^B) P + rho(2^B): P divides v - T exactly
    when it divides rho(2^B).  With S = sum_{t < phi(N)} 2^(B t) <
    2^(B phi(N)) / (2^B - 1), the two bounds give |rho(2^B)| < 2^(B - 2) S
    and P > 2^(B phi(N)) - 2^(B - 2) S, and 2^(B - 1) S <= 2^(B phi(N)), so
    |rho(2^B)| < P: P divides it only when rho(2^B) = 0, and since every
    |rho_t| < 2^(B - 1), the balanced base-2^B digits of 0 are all 0, so
    rho = 0.  The test of a key is therefore one residue, ``(v - T) % P``.
    Over F_p the ints are the numerators themselves and P is p; over Q they
    are compared with T as they are (phi = 1: no shift, no residue).
    """

    __slots__ = ("ring", "vars", "rows", "_bits", "_lay", "_den", "_mults", "_modulus", "_prepared")

    def __init__(self, ring: RingDescriptor, vars: tuple[str, ...], rows):
        lay = _layout(ring, len(vars))
        self.ring, self.vars, self.rows, self._lay = ring, vars, rows, lay
        cyclo = bool(lay.reduce)
        # D, and the largest |e|_1 / e.den as the fraction top / low, in one
        # pass over the distinct entries
        den, top, low = 1, 0, 1
        for e in {id(e): e for row in rows for e in row}.values():
            d = e.den
            if den % d:
                den = den * d // math.gcd(den, d)
            if cyclo:
                t = sum(map(abs, e.terms.values()))
                if t * low > top * d:
                    top, low = t, d
        self._den = den
        # B over Q(zeta_N), and None over Q and F_p, which pack nothing
        self._bits = None
        # the ints that stand for zeta^j and for zeta^-j (1 and 1 over Q and F_p)
        self._mults: tuple[list, list] = ([1], [1])
        # the residue modulus: p over F_p, Phi_N(2^B) over Q(zeta_N), and
        # None over Q, where a sum is compared as it is
        self._modulus = lay.p
        if cyclo:
            norm = top * (den // low)
            coord = len(rows[0]) * norm * norm * lay.conj_norm
            reduced = (2 * lay.degree - 1) * lay.reduce_max * coord + den * den
            bits = self._bits = max(reduced, lay.reduce_max).bit_length() + 2
            self._mults = (
                [1 << bits * j for j in range(lay.degree)],
                [sum(r << bits * t for t, r in row) for row in lay.conj],
            )
            self._modulus = sum(c << bits * t for t, c in enumerate(cyclotomic_polynomial(lay.n)))
        # per side (right, left): row index -> prepared row, id(entry) -> prepared entry
        self._prepared: tuple[tuple[dict, dict], ...] = (({}, {}), ({}, {}))

    def _row(self, i: int, left: bool) -> list:
        """Row i prepared as left factors, or starred as right factors (see
        the class docstring)."""
        rows, cells = self._prepared[left]
        got = rows.get(i)
        if got is not None:
            return got
        den, lay = self._den, self._lay
        zero, zmask, top, valid = lay.zero, lay.zmask, lay.top, lay.valid
        # a left key is stored less the zero key, so a term product is one key add
        mults, neg = self._mults[not left], 2 * zero
        got = rows[i] = []
        for e in self.rows[i]:
            cell = cells.get(id(e))
            if cell is None:
                s = den // e.den
                if zmask:  # one pair per monomial, its numerators packed into one int
                    mono: dict[int, int] = {}
                    for k, c in e.terms.items():
                        j = k & zmask
                        k = k - j - zero if left else neg - k + j
                        c *= mults[j]
                        mono[k] = mono[k] + c if k in mono else c
                    cell = list(mono.items()) if s == 1 else [(k, c * s) for k, c in mono.items()]
                elif left:  # Q and F_p: one pair per term, the numerator over D
                    cell = [(k - zero, c * s) for k, c in e.terms.items()]
                else:
                    cell = [(neg - k, c * s) for k, c in e.terms.items()]
                if not left and any(k & top != valid for k, _ in cell):
                    raise _overflow()
                cells[id(e)] = cell
            got.append(cell)
        return got

    def sum(self, i: int, j: int) -> dict:
        """The accumulator of entry (i, j): one key add and one int multiply
        per term pair, into one packed int per exponent key over D^2."""
        acc: dict = {}
        get = acc.get
        for f, g in zip(self._row(i, True), self._row(j, False)):
            if f and g:
                for k1, c1 in f:
                    for k2, c2 in g:
                        k = k1 + k2
                        acc[k] = get(k, 0) + c1 * c2
        return acc

    def is_identity(self, acc: dict, c: int) -> bool:
        """Whether the entry of accumulator ``acc`` (:meth:`sum`) is the
        constant ``c``, one of -1, 0 and 1.  Each key's packed sum is tested
        against its target, c D^2 at the zero key and 0 elsewhere, by one
        residue (see the class docstring); nothing is unpacked, folded or
        built.  A key outside the exponent range that holds a nonzero term
        fails the test."""
        zero, m = self._lay.zero, self._modulus
        if c and zero not in acc:
            return False
        target = c * self._den * self._den
        for k, v in acc.items():
            if k == zero:
                v -= target
            if v % m if m else v:
                return False
        return True


# --- exact division and integral rows (the fraction-free elimination) -----

class Divisor:
    """A nonzero polynomial g prepared once to divide many dividends exactly.

    The fraction-free elimination (Bareiss, Math. Comp. 22, 1968) divides a
    whole elimination step by one pivot, so this holds what depends on g
    alone.  Write g = k G / den with coprime int numerators in G, and take
    t and an int c > 0 with t lc(G) = c mod Phi_N (``scalars._inverse_mod_phi``:
    t = +-1 and c = |lc(G)| over Q; t = lc(G)^-1 and c = 1 over F_p).  The
    divisor proper is H = t G, and an int map F (the numerators of a
    dividend) has F / g = (F / H) t den / k.  This holds the rows of t den,
    and for a monomial g the key offset of its inverse, else min(g) and each
    zeta^j H without its leading term (as key offsets from lead(g)).

    The division works on int maps, in :meth:`_quotient`, and has one entry
    point: :meth:`divide_ints` takes the int map of a polynomial over the
    denominator 1 whose quotient is integral (a minor of
    :class:`IntegralRows`) and returns the quotient's int map, with no
    polynomial object and no gcd.  :func:`exact_div` reads the same
    quotient of a polynomial's numerators and puts it over its denominator.

    The loop is long division of F by H on packed keys (Monagan & Pearce,
    CASC 2007): each step pops the leading key group (the ``max`` key) of
    the remainder, puts it over c into the quotient and subtracts it times
    H.  A group that c does not divide first scales the remainder and the
    quotient by c / gcd(c, group).  An exact division over Q never does: G
    is primitive, so F / G has int coefficients (Gauss's lemma) and each
    leading group is one of them times c.  Over Q(zeta_N), whose integers
    need not factor uniquely, only the steps that need it scale.
    """

    __slots__ = ("_lay", "_offset", "_c", "_k", "_mult", "_rests", "_gmin")

    def __init__(self, g: LaurentPoly):
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lay, terms = g._lay, g.terms
        zb, d, p = lay.zbits, lay.degree, lay.p
        lead = max(terms) >> zb << zb
        if p:
            k, t, c = 1, [pow(terms[lead], -1, p)], 1
        else:
            k = math.gcd(*terms.values())
            t, c = _inverse_mod_phi([terms.get(lead + j, 0) // k for j in range(d)], cyclotomic_polynomial(lay.n or 1))
            if c < 0:
                t, c = [-x for x in t], -c
        self._lay = lay
        self._offset = lay.zero - lead  # quotient key = remainder key + offset
        self._c, self._k = c, k
        self._mult = _multiplier(lay, [g.den * x for x in t])
        self._rests = None
        if g.is_monomial():
            return
        h = _raw(g.ring, g.vars, {key: v // k for key, v in terms.items()}, 1, lay)._times(t, 1)
        rests = []
        for j in range(d):
            hj = h._times([int(i == j) for i in range(d)], 1)  # zeta^j H: its leading group is {lead + j: c}
            rests.append([(key - lead, v) for key, v in hj.terms.items() if key >> zb << zb != lead])
        self._rests, self._gmin = rests, _min_key(lay, (terms,))

    def divide_ints(self, terms: dict) -> dict:
        """The int map of F / g, for the int map F of a polynomial over the
        denominator 1 on the divisor's variables, when that quotient is
        integral (in Z[zeta_N][x^+-1], or F_p[x^+-1]); ArithmeticError when
        g does not divide F or the quotient is not integral."""
        if not terms:
            return terms
        quot, den = self._quotient(terms)
        quot = _reduced(self._lay, quot)
        if den != 1:
            if math.gcd(den, *quot.values()) != den:
                raise ArithmeticError("the quotient is not integral")
            quot = {k: v // den for k, v in quot.items()}
        return quot

    def _quotient(self, terms: dict) -> tuple[dict, int]:
        """(Q, e) with F / g = Q / e for the nonzero int map F, ``terms``:
        the long division of the class docstring, whose quotient is then
        multiplied by the rows of t den once.  Q is an accumulator for
        :func:`_finish` or :func:`_reduced`."""
        rests, lay, c = self._rests, self._lay, self._c
        if rests is None:  # F / (c x^e) times t den: one key offset and one scaling
            return _scale_terms(terms, _SAME, self._offset, self._mult, lay.zmask), c * self._k
        zb, d, p, top, valid, sign = lay.zbits, lay.degree, lay.p, lay.top, lay.valid, lay.sign
        offset = self._offset
        # a quotient key q has every exponent >= min(F) - min(g) exactly when
        # every field of q - lo + sign keeps its top bit (no field borrows)
        lo = _min_key(lay, (terms,)) - self._gmin + lay.zero
        rem, den, quot = dict(terms), 1, {}
        while rem:
            lead = max(rem) >> zb << zb
            q = lead + offset
            if q & top != valid:
                raise _overflow()
            if (q - lo + sign) & sign != sign:
                raise ArithmeticError("division is not exact")
            group = [rem.pop(lead + j, 0) for j in range(d)]
            if c != 1:
                s = c // math.gcd(c, *group)
                if s != 1:  # rem - group / c H, and the quotient, over den * s
                    for part in (rem, quot):
                        for k in part:
                            part[k] *= s
                    den *= s
                group = [a * s // c for a in group]
            quot.update((q + j, a) for j, a in enumerate(group) if a)
            get = rem.get
            for a, rest in zip(group, rests):
                if a:
                    for off, hn in rest:
                        k = lead + off
                        v = get(k, 0) - a * hn
                        if p:
                            v %= p
                        if v:
                            rem[k] = v
                        else:
                            del rem[k]
        return _scale_terms(quot, _SAME, 0, self._mult, lay.zmask), den * self._k


class IntegralRows:
    """The rows of a matrix of polynomials on ``vars``, made integral for
    fraction-free elimination, as plain ``{key: int}`` maps.

    Row i is multiplied once by L_i x^-m_i, where m_i is the componentwise
    minimum exponent over its terms and L_i the lcm of its denominators
    (1 over F_p), so each entry becomes the int map of a polynomial over the
    denominator 1: an element of Z[zeta_N][x] (Z[x] over Q, F_p[x] over
    F_p), whose canonical form is its map itself.  ``factor`` is the
    monomial x^(sum m_i) / prod L_i: a determinant of the maps times
    ``factor`` is the determinant of the matrix.  A zero row is kept as it
    is.  :meth:`cross` forms one elimination cell on such maps and
    :meth:`poly` turns a map into its polynomial.
    """

    __slots__ = ("ring", "vars", "rows", "factor", "_lay")

    def __init__(self, ring: RingDescriptor, vars: tuple[str, ...], grid):
        lay = _layout(ring, len(vars))
        top, valid = lay.top, lay.valid
        rows, lows, scale = [], [], 1
        for row in grid:
            low = _min_key(lay, [e.terms for e in row])
            if low is None:
                rows.append([e.terms for e in row])
                continue
            den = math.lcm(*[e.den for e in row])
            off = lay.zero - low
            maps = []
            for e in row:
                s = den // e.den
                maps.append({k + off: c * s for k, c in e.terms.items()} if off or s != 1 else e.terms)
            # a field of e - m_i can pass the top of the range
            if off and any(k & top != valid for t in maps for k in t):
                raise _overflow()
            rows.append(maps)
            lows.append(_unpack(lay, low))
            scale *= den
        total = [sum(col) for col in zip(*lows)] if lows else [0] * lay.nvars
        self.ring, self.vars, self.rows, self._lay = ring, vars, rows, lay
        self.factor = _raw(ring, vars, {_pack(lay, total): 1}, scale, lay)

    def cross(self, a: dict, b: dict, c: dict, d: dict) -> dict:
        """The int map of a b - c d: one accumulator (:func:`_products`,
        the pair c d over the denominator -1, a zero pair left out),
        reduced by :func:`_reduced`."""
        lay = self._lay
        pairs = [(f, g.items(), s, lay.zero) for f, g, s in ((a, b, 1), (c, d, -1)) if f and g]
        if not pairs:
            return {}
        return _reduced(lay, _products(lay, pairs, 1))

    def poly(self, terms: dict) -> LaurentPoly:
        """The polynomial of an int map over the denominator 1."""
        return _raw(self.ring, self.vars, terms, 1, self._lay)


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Quotient f / g assuming g divides f exactly in the Laurent ring.

    Aligns the variables and divides the numerators of f through a fresh
    :class:`Divisor`, the one division loop, putting the quotient over
    ``f.den``.  A quotient exponent below ``min(f) - min(g)`` in some
    variable proves the division inexact (ArithmeticError); that bound also
    ends the loop.  Quotient exponents outside the packed range raise
    ExponentOverflow.
    """
    f, g = f._align(g)
    d = Divisor(g)
    if not f.terms:
        return f
    quot, den = d._quotient(f.terms)
    return _finish(f.ring, f.vars, d._lay, quot, f.den * den)


# The textual grammar lives in its own module, which builds on this one;
# ``str`` of a polynomial and the callers of this module use it from here.
from .laurent_text import input_exponent, input_variable, poly_from_text, poly_to_text  # noqa: E402
