"""Sparse multivariate Laurent polynomials with exact scalar coefficients.

Variables are stored in sorted name order and exponents may be negative.
The star operation conjugates coefficients and negates every exponent; it
is the z -> z^-1 involution extended from the scalars.

Packed layout (private to this module)
--------------------------------------
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
  The product kernel :func:`dot` is the one producer of indices up to
  ``2 phi(N) - 2``, and the one place that folds them mod Phi_N, once per
  result.  Q has one key per term; F_p keeps numerators in ``[1, p)`` over
  the denominator 1.
- The form is canonical: ``den > 0``, ``gcd(den, *numerators) == 1`` and
  every index below phi(N).  Equality and hashing rely on it.
- A product with a monomial ``c x^e`` is a key offset and a numerator
  scaling (:func:`times_monomial`), not a pass through the kernel :func:`dot`:
  each term meets the row of ``c zeta^j`` for its index ``j``, already
  folded (``scalars.scaling_rows``), so a scaled term never leaves the
  canonical range.  Re-keying onto other variables (:func:`_rekey_plan`)
  happens in the same pass.

Exact division runs through a :class:`Divisor`, prepared once per divisor:
the fraction-free determinant prepares one per elimination step, and
:func:`exact_div` one per call.  Its remainder is one ``{key: int}`` map
that each long-division step updates in place.

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
coordinate), each a ``ParseError``.  The fields
are wide enough for what the library derives from such input: a row of
entries spans at most 2048 in each exponent, so the fraction-free
determinant of an n x n matrix forms products of exponent at most
4096 (n - 1), in range for every n up to 2^17.  Repeated powers in text,
such as ``((z^1024)^1024)^1024``, can still leave the range and raise.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    ExponentOverflow,
    IncompatibleRings,
    ParseError,
    ZeroAssigned,
)
from .scalars import (
    CYCLOTOMIC,
    PRIME_FIELD,
    ExactScalar,
    RingDescriptor,
    as_scalar,
    conj_rows,
    input_int,
    is_unit_modulus,
    reduction_rows,
    scalar_from_ints,
    scalar_is_negative_text,
    scalar_to_text,
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
_set = object.__setattr__
_new = object.__new__


class _Layout:
    """Key layout of one ring and number of variables."""

    __slots__ = ("nvars", "zbits", "zmask", "degree", "n", "zero", "top", "valid", "sign", "p", "reduce", "conj")

    def __init__(self, ring: RingDescriptor, nvars: int):
        d = ring.degree  # 1 on Q and F_p
        cyclo = ring.kind == CYCLOTOMIC and d > 1
        self.nvars, self.degree = nvars, d
        self.n = ring.conductor if cyclo else None
        self.zbits = (2 * d - 2).bit_length()
        self.zmask = (1 << self.zbits) - 1
        self.p = ring.p if ring.kind == PRIME_FIELD else None
        self.reduce = reduction_rows(ring.conductor) if cyclo else ()
        self.conj = conj_rows(ring.conductor) if cyclo else None
        ones = sum(1 << (FIELD_BITS * i) for i in range(nvars)) << self.zbits
        self.zero = _BIAS * ones  # the key of the zero exponent vector
        self.top = (3 << (FIELD_BITS - 2)) * ones
        self.valid = (1 << (FIELD_BITS - 2)) * ones
        self.sign = (1 << (FIELD_BITS - 1)) * ones


_layout = lru_cache(maxsize=None)(_Layout)


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


def _finish(ring, vars, lay: _Layout, acc: dict, den: int) -> "LaurentPoly":
    """The canonical polynomial of ``acc`` (key -> int, every zeta index
    below phi(N)) over ``den``.

    Reduces mod p and drops zeros in one pass, checks every key's fields in
    one more, and divides out ``gcd(den, *numerators)``."""
    p = lay.p
    if p:
        terms = {k: r for k, c in acc.items() if (r := c % p)}
    else:
        terms = {k: c for k, c in acc.items() if c}
    top, valid = lay.top, lay.valid
    for k in terms:
        if k & top != valid:
            raise _overflow()
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
    rows, zmask, d = lay.reduce, lay.zmask, lay.degree
    for k in [k for k in acc if k & zmask >= d]:
        c = acc.pop(k)
        if c:
            t = k & zmask
            for i, r in rows[t - d]:
                acc[k - t + i] = acc.get(k - t + i, 0) + c * r


def _multiplier(lay: _Layout, nums, shift: int = 0):
    """What :func:`_scale_terms` multiplies by for ``c zeta^shift``, with
    ``c = sum(nums[t] zeta^t)``: the int ``c`` when ``c`` is rational and
    ``shift`` is 0 (always on Q and F_p), else the rows of ``c zeta^shift``
    (``scalars.scaling_rows``)."""
    if not shift and not any(nums[1:]):
        return nums[0]
    if shift:  # c zeta^shift is row ``shift`` of c's rows
        row = scaling_rows(lay.n, tuple(nums))[shift]
        nums = [0] * lay.degree
        for i, c in row:
            nums[i] = c
    return scaling_rows(lay.n, tuple(nums))


def _scale_terms(terms: dict, plan, offset: int, mult, zmask: int) -> dict:
    """``terms`` re-keyed by ``plan`` and times ``c x^e``, in one pass.

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
    elif len(moves) == 1:
        (src, mask, dst), = moves
        moved = {(((k >> src) & mask) << dst) + base: v * m for k, v in terms.items()}
    elif len(moves) == 2:  # one variable inserted or dropped inside the key
        (s1, m1, d1), (s2, m2, d2) = moves
        moved = {(((k >> s1) & m1) << d1) + (((k >> s2) & m2) << d2) + base: v * m for k, v in terms.items()}
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
    """Immutable Laurent polynomial over one RingDescriptor.

    Build one from ``{exponent vector: coefficient}`` over sorted ``vars``;
    read its terms back with :meth:`coefficients`.  ``terms`` and ``den``
    are the packed form described in the module docstring.
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
        packed = {key + i: c * (den // d) for key, nums, d in parts for i, c in enumerate(nums) if c}
        for name, value in zip(self.__slots__, (ring, vars, packed, den, lay)):
            _set(self, name, value)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPoly is immutable")

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
                return self._scaled(as_scalar(self.ring, other))
            return NotImplemented
        f, g = self._align(other)
        return dot(f.ring, f.vars, (f,), (g,))

    __rmul__ = __mul__

    def _scaled(self, c: ExactScalar) -> "LaurentPoly":
        """``c * self`` on the packed numerators, without the product kernel."""
        return self._times(0, *c.value)

    def _times(self, offset: int, nums, den: int) -> "LaurentPoly":
        """``self`` times the monomial ``sum(nums[t] zeta^t) / den * x^e``
        (see :func:`_scale_terms`), without the product kernel; zero times
        anything is zero, returned as it is.  The low ``zbits`` bits of
        ``offset`` may hold a zeta power, which joins the coefficient."""
        if not self.terms:
            return self
        lay = self._lay
        shift = offset & lay.zmask
        terms = _scale_terms(self.terms, _SAME, offset - shift, _multiplier(lay, nums, shift), lay.zmask)
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
            result = result + _raw(ring, out_vars, part, self.den, out_lay)._scaled(factor)
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


_set_ring, _set_vars, _set_terms, _set_den, _set_lay = (
    LaurentPoly.__dict__[name].__set__ for name in LaurentPoly.__slots__
)


def _raw(ring, vars, terms, den, lay) -> LaurentPoly:
    """Trusted constructor: packed terms canonical, vars sorted, ``lay`` theirs.

    Writes the slots through their descriptors, past the immutability guard
    of ``LaurentPoly.__setattr__``; every operation ends here."""
    f = _new(LaurentPoly)
    _set_ring(f, ring)
    _set_vars(f, vars)
    _set_terms(f, terms)
    _set_den(f, den)
    _set_lay(f, lay)
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


def _min_key(lay: _Layout, polys) -> int | None:
    """The packed key (zeta index 0) of the componentwise minimum exponent
    over the terms of ``polys``, which carry one layout; None when every one
    is zero."""
    keys = [k for f in polys for k in f.terms]
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
    key = _min_key(polys[0]._lay, polys) if polys else None
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
    """Sum of fs[k] * gs[k] over k, where every polynomial carries exactly ``vars``.

    The one term-accumulation loop for polynomial products: it serves
    ``LaurentPoly.__mul__`` and each entry of a matrix product.  Each pair
    of packed terms costs one key add and one numerator multiply into one
    accumulator over the lcm of the pairs' denominators; the Phi_N fold
    (the only one in this module), the exponent check and the gcd then run
    once on the result.
    """
    lay = _layout(ring, len(vars))
    zero = lay.zero
    pairs = []
    den = 1
    for f, g in zip(fs, gs):
        if f.terms and g.terms:
            dp = f.den * g.den
            pairs.append((f.terms, g.terms.items(), dp))
            if dp != den:
                den = den * dp // math.gcd(den, dp)
    acc: dict = {}
    get = acc.get
    for fterms, gitems, dp in pairs:
        s = den // dp
        for k1, c1 in fterms.items():
            k1 -= zero
            if s != 1:
                c1 *= s
            for k2, c2 in gitems:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    if lay.reduce:
        _fold(lay, acc)
    return _finish(ring, vars, lay, acc, den)


# --- exact division (used by the fraction-free determinant) ---------------

class Divisor:
    """A nonzero polynomial g prepared once to divide many dividends exactly.

    The fraction-free determinant (Bareiss, Math. Comp. 22, 1968) divides a
    whole elimination step by one pivot, so this holds what depends on g
    alone: lc(g)^-1, and for a monomial g the inverse monomial, else the
    monic h = g / lc(g) without its leading term (each zeta^j h folded mod
    Phi_N, as key offsets from lead(g) over one denominator) and min(g).

    :meth:`divide` is long division on packed keys (Monagan & Pearce, CASC
    2007): the remainder is one ``{key: int}`` map that each step changes in
    place, popping the leading key group (the ``max`` key) into the quotient
    and subtracting it times h.  Only the quotient becomes a polynomial,
    once, times lc(g)^-1.
    """

    __slots__ = ("ring", "vars", "_lay", "_offset", "_inv", "_rests", "_hden", "_gmin")

    def __init__(self, g: LaurentPoly):
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lay, terms = g._lay, g.terms
        zb, d = lay.zbits, lay.degree
        lead = max(terms) >> zb << zb
        inv = scalar_from_ints(g.ring, [terms.get(lead + j, 0) for j in range(d)], g.den).inverse()
        self.ring, self.vars, self._lay = g.ring, g.vars, lay
        self._offset = lay.zero - lead  # quotient key = remainder key + offset
        self._inv = inv.value
        self._rests = None
        if g.is_monomial():
            return
        h = g._times(0, *self._inv)  # monic: its leading group is {lead: h.den}
        rests = []
        for j in range(d):
            # zeta^j h, folded; zeta^j is a unit of Z[zeta], so the denominator stays h.den
            hj = h._times(j, (1,), 1)
            rests.append([(k - lead, c) for k, c in hj.terms.items() if k >> zb << zb != lead])
        self._rests, self._hden = rests, h.den
        self._gmin = _min_key(lay, (g,))

    def divide(self, f: LaurentPoly) -> LaurentPoly:
        """The quotient f / g, for f over the divisor's ring and variables.

        A quotient exponent below ``min(f) - min(g)`` in some variable proves
        the division inexact (ArithmeticError); that bound also ends the
        loop.  Quotient exponents outside the packed range raise
        ExponentOverflow."""
        if f.vars != self.vars or f.ring != self.ring:
            raise ValueError(f"dividend over {f.ring}{list(f.vars)}, divisor over {self.ring}{list(self.vars)}")
        rests, lay = self._rests, self._lay
        if rests is None:
            return f._times(self._offset, *self._inv)
        if not f.terms:
            return f
        zb, d, p, top, valid, sign = lay.zbits, lay.degree, lay.p, lay.top, lay.valid, lay.sign
        offset, hden = self._offset, self._hden
        # a quotient key q has every exponent >= min(f) - min(g) exactly when
        # every field of q - lo + sign keeps its top bit (no field borrows)
        lo = _min_key(lay, (f,)) - self._gmin + lay.zero
        rem, den, quot = dict(f.terms), f.den, {}
        while rem:
            lead = max(rem) >> zb << zb
            q = lead + offset
            if q & top != valid:
                raise _overflow()
            if (q - lo + sign) & sign != sign:
                raise ArithmeticError("division is not exact")
            c = [rem.pop(lead + j, 0) for j in range(d)]
            quot.update((q + j, cj) for j, cj in enumerate(c) if cj)
            if hden != 1:  # rem - c h, and the quotient, over den * hden
                for part in (rem, quot):
                    for k in part:
                        part[k] *= hden
                den *= hden
            get = rem.get
            for cj, rest in zip(c, rests):
                if cj:
                    for off, hn in rest:
                        k = lead + off
                        v = get(k, 0) - cj * hn
                        if p:
                            v %= p
                        if v:
                            rem[k] = v
                        else:
                            del rem[k]
        inums, iden = self._inv
        quot = _scale_terms(quot, _SAME, 0, _multiplier(lay, inums), lay.zmask)
        return _finish(self.ring, self.vars, lay, quot, den * iden)


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Quotient f / g assuming g divides f exactly in the Laurent ring.

    Aligns the variables and divides through a fresh :class:`Divisor`, the
    one division loop; a caller with many dividends for one g prepares the
    Divisor once instead.
    """
    f, g = f._align(g)
    return Divisor(g).divide(f)


# --- textual grammar -------------------------------------------------------

def poly_to_text(f: LaurentPoly) -> str:
    """Canonical text: terms in descending exponent order over the used variables."""
    g = f.compact()
    if not g.terms:
        return "0"
    groups = g._groups()
    pieces = []
    for key in sorted(groups, reverse=True):
        coeff = scalar_from_ints(g.ring, groups[key], g.den)
        neg = scalar_is_negative_text(coeff)
        mag = -coeff if neg else coeff
        factors = [
            (v if e == 1 else f"{v}^{e}")
            for v, e in zip(g.vars, _unpack(g._lay, key))
            if e
        ]
        if not factors:
            body = scalar_to_text(mag)
        elif mag.is_one():
            body = "*".join(factors)
        else:
            body = scalar_to_text(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<pow>\^)|(?P<mul>\*)|(?P<plus>\+)|(?P<minus>-))"
)


def input_exponent(value) -> int:
    """An exponent read from text or JSON: an int with ``|e| <= MAX_EXPONENT``.

    Anything else is a ParseError, raised before any polynomial is built.
    """
    value = input_int(value, "exponent")
    if abs(value) > MAX_EXPONENT:
        raise ParseError(f"exponent {value} exceeds the input limit of {MAX_EXPONENT} in magnitude")
    return value


def _tokenize(text: str):
    pos, depth, out = 0, 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad character at {text[pos:pos + 10]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "lparen":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
        elif kind == "rparen":
            depth -= 1
        out.append((kind, m.group(kind)))
    return out


def _checked_product(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """``f * g`` for the parser, refused (ParseError) before it is formed
    when it would pair more than ``MAX_TERM_PAIRS`` terms."""
    pairs = len(f.terms) * len(g.terms)
    if pairs > MAX_TERM_PAIRS:
        raise ParseError(
            f"a product of {len(f.terms)} by {len(g.terms)} terms exceeds the input limit of {MAX_TERM_PAIRS} term pairs"
        )
    return f * g


class _Parser:
    def __init__(self, tokens, ring: RingDescriptor):
        self.toks = tokens
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse_poly(self) -> LaurentPoly:
        """Terms joined by ``+`` and ``-``, summed once at the end: a running
        sum would copy its whole term map at each sign, O(n^2) in the terms."""
        terms = [self.parse_term()]
        while True:
            kind, _ = self.peek()
            if kind == "plus":
                self.next()
                terms.append(self.parse_term())
            elif kind == "minus":
                self.next()
                terms.append(-self.parse_term())
            else:
                break
        if len(terms) == 1:
            return terms[0]
        # one dot against constant ones: one accumulator and one _finish
        vars = tuple(sorted({v for t in terms for v in t.vars}))
        one = LaurentPoly.constant(scalar_one(self.ring)).with_vars(vars)
        return dot(self.ring, vars, [t.with_vars(vars) for t in terms], [one] * len(terms))

    def parse_term(self) -> LaurentPoly:
        out = self.parse_factor()
        while self.peek()[0] == "mul":
            self.next()
            out = _checked_product(out, self.parse_factor())
        return out

    def parse_factor(self) -> LaurentPoly:
        """``-``* primary [``^`` exponent]: the power binds tighter, so -2^2 is -(2^2)."""
        sign = 1
        while self.peek()[0] == "minus":
            self.next()
            sign = -sign
        kind, val = self.next()
        if kind == "num":
            try:
                value = Fraction(val)
            except ZeroDivisionError as exc:
                raise ParseError(f"zero denominator in {val!r}") from exc
            except ValueError as exc:  # beyond the interpreter's int digit limit
                raise ParseError(f"bad number: {exc}") from exc
            base = LaurentPoly.constant(ExactScalar.from_rational(self.ring, value))
        elif kind == "lparen":
            base = self.parse_poly()
            kind2, _ = self.next()
            if kind2 != "rparen":
                raise ParseError("expected ')'")
        elif kind == "name":
            if val == "zeta":
                from .scalars import zeta as _zeta

                if self.ring.kind != "cyclotomic":
                    raise ParseError("'zeta' only meaningful in a cyclotomic ring")
                base = LaurentPoly.constant(_zeta(self.ring))
            else:
                base = LaurentPoly.variable(val, self.ring)
        else:
            raise ParseError(f"unexpected token {val!r}")
        if self.peek()[0] == "pow":
            self.next()
            k2, v2 = self.next()
            if k2 == "num" and "/" not in v2:
                exp = input_exponent(v2)
            elif k2 == "minus":
                k3, v3 = self.next()
                if k3 != "num" or "/" in v3:
                    raise ParseError("bad exponent")
                exp = -input_exponent(v3)
            else:
                raise ParseError("bad exponent")
            if exp < 0 and not base.is_monomial():
                raise ParseError("a negative power needs a monomial base")
            base = _power(base, exp, _checked_product)
        return base if sign > 0 else -base


def poly_from_text(text: str, ring: RingDescriptor, vars: tuple[str, ...] = ()) -> LaurentPoly:
    """Parse the textual grammar back into a canonical polynomial.

    Exponents are held to ``|e| <= MAX_EXPONENT``, parentheses to
    ``MAX_NESTING`` levels and each product, ``*`` or a step of ``^``, to
    ``MAX_TERM_PAIRS`` term pairs; a number with a zero denominator is
    refused.  Each breach is a ParseError, raised before the product.
    """
    parser = _Parser(_tokenize(text), ring)
    result = parser.parse_poly()
    if parser.i != len(parser.toks):
        raise ParseError(f"trailing input near token {parser.i}")
    if vars:
        union = tuple(sorted(set(vars) | set(result.used_vars())))
        result = result.with_vars(union)
    return result
