"""Sparse multivariate Laurent polynomials with ExactScalar coefficients.

Terms are kept in canonical form: a map from exponent vectors (negative
entries allowed) to nonzero coefficients, with variables stored in sorted
name order.  The star operation conjugates coefficients and negates every
exponent; it is the z -> z^-1 involution extended from the scalars.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import DimensionMismatch, IncompatibleRings, ParseError, ZeroAssigned
from .scalars import (
    ExactScalar,
    RingDescriptor,
    scalar_is_negative_text,
    scalar_to_text,
    sum_of_products,
    one as scalar_one,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _as_scalar(ring: RingDescriptor, c) -> ExactScalar:
    if isinstance(c, ExactScalar):
        if c.ring != ring:
            raise IncompatibleRings(f"{c.ring} vs {ring}")
        return c
    return ExactScalar.from_rational(ring, c)


class LaurentPoly:
    """Immutable Laurent polynomial over one RingDescriptor."""

    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring: RingDescriptor, vars: tuple[str, ...], terms: dict):
        vars = tuple(vars)
        if list(vars) != sorted(set(vars)):
            raise ValueError(f"variables must be sorted and distinct, got {vars}")
        clean = {}
        for exps, coeff in terms.items():
            coeff = _as_scalar(ring, coeff)
            if not coeff.is_zero():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(vars):
                    raise DimensionMismatch(
                        f"exponent vector {exps} does not match variables {vars}"
                    )
                clean[exps] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _raw(cls, ring, vars, terms) -> "LaurentPoly":
        """Trusted constructor: terms already canonical, vars already sorted."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors --

    @staticmethod
    def zero(ring: RingDescriptor, vars: tuple[str, ...] = ()) -> "LaurentPoly":
        return LaurentPoly(ring, tuple(sorted(vars)), {})

    @staticmethod
    def constant(c: ExactScalar | int | Fraction, ring: RingDescriptor | None = None) -> "LaurentPoly":
        if isinstance(c, ExactScalar):
            ring = c.ring
        elif ring is None:
            raise ValueError("constant() needs a ring for plain numbers")
        return LaurentPoly(ring, (), {(): _as_scalar(ring, c)})

    @staticmethod
    def variable(name: str, ring: RingDescriptor) -> "LaurentPoly":
        return LaurentPoly(ring, (name,), {(1,): scalar_one(ring)})

    @staticmethod
    def monomial(coeff, exponents: dict[str, int], ring: RingDescriptor | None = None) -> "LaurentPoly":
        if isinstance(coeff, ExactScalar):
            ring = coeff.ring
        elif ring is None:
            raise ValueError("monomial() needs a ring for plain numbers")
        names = tuple(sorted(exponents))
        exps = tuple(int(exponents[v]) for v in names)
        return LaurentPoly(ring, names, {exps: _as_scalar(ring, coeff)})

    # -- structure --

    def used_vars(self) -> tuple[str, ...]:
        used = set()
        for exps in self.terms:
            for name, e in zip(self.vars, exps):
                if e:
                    used.add(name)
        return tuple(sorted(used))

    def sparse_terms(self) -> dict:
        """Terms keyed by tuples of (var, exp) with zero exponents dropped."""
        out = {}
        for exps, coeff in self.terms.items():
            key = tuple((v, e) for v, e in zip(self.vars, exps) if e)
            out[key] = coeff
        return out

    def with_vars(self, vars: tuple[str, ...]) -> "LaurentPoly":
        """Re-align onto another sorted variable tuple (dropped vars must be unused)."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        missing = [v for v in self.vars if v not in vars]
        if missing:
            used = set(self.used_vars())
            if used & set(missing):
                raise ValueError(f"cannot drop used variables {missing}")
        pos = {v: i for i, v in enumerate(vars)}
        idx = [pos.get(v) for v in self.vars]
        nvars = len(vars)
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * nvars
            for i, e in zip(idx, exps):
                if e:
                    new[i] = e
            terms[tuple(new)] = coeff
        return LaurentPoly._raw(self.ring, vars, terms)

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
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> ExactScalar:
        from .scalars import zero as scalar_zero

        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        if not self.terms:
            return scalar_zero(self.ring)
        return next(iter(self.terms.values()))

    def is_one(self) -> bool:
        return self.is_constant() and not self.is_zero() and self.constant_value().is_one()

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def single_term(self) -> tuple[ExactScalar, dict[str, int]]:
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a monomial")
        exps, coeff = next(iter(self.terms.items()))
        return coeff, {v: e for v, e in zip(self.vars, exps) if e}

    # -- arithmetic --

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = LaurentPoly.constant(_as_scalar(self.ring, other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        f, g = self._align(other)
        terms = dict(f.terms)
        for exps, coeff in g.terms.items():
            prev = terms.get(exps)
            if prev is None:
                terms[exps] = coeff
            else:
                s = prev + coeff
                if s.is_zero():
                    del terms[exps]
                else:
                    terms[exps] = s
        return LaurentPoly._raw(f.ring, f.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.ring, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = LaurentPoly.constant(_as_scalar(self.ring, other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            c = _as_scalar(self.ring, other)
            if c.is_zero():
                return LaurentPoly.zero(self.ring, self.vars)
            return LaurentPoly._raw(
                self.ring, self.vars, {e: k * c for e, k in self.terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        f, g = self._align(other)
        return dot(f.ring, f.vars, (f,), (g,))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only defined for monomials")
            coeff, exps = self.single_term()
            inv = LaurentPoly.monomial(coeff.inverse(), {v: -e for v, e in exps.items()}, self.ring)
            return inv ** (-k)
        result = LaurentPoly.constant(scalar_one(self.ring))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def star(self) -> "LaurentPoly":
        """Conjugate coefficients and send every variable to its inverse."""
        return LaurentPoly._raw(
            self.ring,
            self.vars,
            {tuple(-e for e in exps): c.conj() for exps, c in self.terms.items()},
        )

    def substitute(self, assignment: dict) -> "LaurentPoly":
        """Replace variables by scalars or monomials; others stay symbolic.

        Raises ZeroAssigned when a value of zero appears at all (unit-modulus
        specialization is the only use case, and zero also breaks negative
        exponents).
        """
        repl: dict[str, LaurentPoly] = {}
        for name, val in assignment.items():
            if isinstance(val, LaurentPoly):
                if val.ring != self.ring:
                    raise IncompatibleRings(f"{val.ring} vs {self.ring}")
                if val.is_zero():
                    raise ZeroAssigned(f"zero assigned to {name}")
                if not val.is_monomial():
                    raise ValueError(f"substitution for {name} must be a scalar or monomial")
                repl[name] = val
            else:
                val = _as_scalar(self.ring, val)
                if val.is_zero():
                    raise ZeroAssigned(f"zero assigned to {name}")
                repl[name] = LaurentPoly.constant(val)
        result = LaurentPoly.zero(self.ring)
        for exps, coeff in self.terms.items():
            term = LaurentPoly.constant(coeff)
            residual: dict[str, int] = {}
            for name, e in zip(self.vars, exps):
                if not e:
                    continue
                if name in repl:
                    term = term * (repl[name] ** e)
                else:
                    residual[name] = e
            if residual:
                term = term * LaurentPoly.monomial(scalar_one(self.ring), residual, self.ring)
            result = result + term
        return result

    def is_unit_monomial(self):
        """(coefficient, exponent map) when self is one term with |c|^2 = 1, else None."""
        from .scalars import is_unit_modulus

        if len(self.terms) != 1:
            return None
        coeff, exps = self.single_term()
        if not is_unit_modulus(coeff):
            return None
        return coeff, exps

    # -- comparisons & display --

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            try:
                other = LaurentPoly.constant(_as_scalar(self.ring, other))
            except IncompatibleRings:
                return False
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.vars == other.vars:
            return self.terms == other.terms
        return self.sparse_terms() == other.sparse_terms()

    def __hash__(self):
        return hash((self.ring, frozenset(self.sparse_terms().items())))

    def __str__(self):
        return poly_to_text(self)

    def __repr__(self):
        return f"LaurentPoly({poly_to_text(self)!r})"


# --- the product kernel ----------------------------------------------------

def dot(ring: RingDescriptor, vars: tuple[str, ...], fs, gs) -> LaurentPoly:
    """Sum of fs[k] * gs[k] over k, where every polynomial carries exactly ``vars``.

    The one term-accumulation loop for polynomial products: it serves
    ``LaurentPoly.__mul__`` and each entry of a matrix product.  Coefficient
    pairs are grouped by the exponent vector of their product, and each
    group is summed by :func:`scalars.sum_of_products`, which reduces and
    normalises once per group instead of once per pair.
    """
    groups: dict = {}
    for f, g in zip(fs, gs):
        fterms = f.terms
        if not fterms:
            continue
        gterms = g.terms
        if not gterms:
            continue
        for e1, c1 in fterms.items():
            for e2, c2 in gterms.items():
                key = tuple(map(add, e1, e2))
                group = groups.get(key)
                if group is None:
                    groups[key] = ([c1], [c2])
                else:
                    group[0].append(c1)
                    group[1].append(c2)
    terms = {}
    for key, (xs, ys) in groups.items():
        c = sum_of_products(ring, xs, ys)
        if not c.is_zero():
            terms[key] = c
    return LaurentPoly._raw(ring, vars, terms)


# --- exact division (used by the fraction-free determinant) ---------------

def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Quotient f / g assuming g divides f exactly in the Laurent ring."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if g.is_monomial():
        coeff, exps = g.single_term()
        inv = LaurentPoly.monomial(coeff.inverse(), {v: -e for v, e in exps.items()}, g.ring)
        return f * inv
    if f.is_zero():
        return LaurentPoly.zero(f.ring, f.vars)
    f1, g1 = f._align(g)
    # shift both to honest polynomials
    nvars = len(f1.vars)
    fmin = [min(e[i] for e in f1.terms) for i in range(nvars)]
    gmin = [min(e[i] for e in g1.terms) for i in range(nvars)]
    fshift = {tuple(e[i] - fmin[i] for i in range(nvars)): c for e, c in f1.terms.items()}
    gshift = {tuple(e[i] - gmin[i] for i in range(nvars)): c for e, c in g1.terms.items()}
    quotient: dict = {}
    rem = dict(fshift)
    glead = max(gshift)
    gc = gshift[glead]
    while rem:
        flead = max(rem)
        qe = tuple(a - b for a, b in zip(flead, glead))
        if any(e < 0 for e in qe):
            raise ArithmeticError("division is not exact")
        qc = rem[flead] / gc
        quotient[qe] = quotient.get(qe, qc * 0) + qc
        for ge, gcoef in gshift.items():
            te = tuple(a + b for a, b in zip(qe, ge))
            val = rem.get(te)
            prod = qc * gcoef
            if val is None:
                if not prod.is_zero():
                    rem[te] = -prod
            else:
                s = val - prod
                if s.is_zero():
                    del rem[te]
                else:
                    rem[te] = s
    shift = tuple(fm - gm for fm, gm in zip(fmin, gmin))
    result = {tuple(q + s for q, s in zip(qe, shift)): c for qe, c in quotient.items() if not c.is_zero()}
    return LaurentPoly(f1.ring, f1.vars, result)


# --- textual grammar -------------------------------------------------------

def poly_to_text(f: LaurentPoly) -> str:
    """Canonical text: terms in descending exponent order over the used variables."""
    g = f.compact()
    if not g.terms:
        return "0"
    pieces = []
    for exps in sorted(g.terms, reverse=True):
        coeff = g.terms[exps]
        neg = scalar_is_negative_text(coeff)
        mag = -coeff if neg else coeff
        factors = [
            (v if e == 1 else f"{v}^{e}")
            for v, e in zip(g.vars, exps)
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
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<num>-?\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<pow>\^)|(?P<mul>\*)|(?P<plus>\+)|(?P<minus>-))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad character at {text[pos:pos + 10]!r}")
        pos = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
    return out


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
        result = self.parse_term()
        while True:
            kind, _ = self.peek()
            if kind == "plus":
                self.next()
                result = result + self.parse_term()
            elif kind == "minus":
                self.next()
                result = result - self.parse_term()
            else:
                return result

    def parse_term(self) -> LaurentPoly:
        sign = 1
        while self.peek()[0] == "minus":
            self.next()
            sign = -sign
        factors = [self.parse_factor()]
        while self.peek()[0] == "mul":
            self.next()
            factors.append(self.parse_factor())
        out = factors[0]
        for fac in factors[1:]:
            out = out * fac
        return out if sign > 0 else -out

    def parse_factor(self) -> LaurentPoly:
        kind, val = self.next()
        if kind == "num":
            base = LaurentPoly.constant(
                ExactScalar.from_rational(self.ring, Fraction(val))
            )
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
                exp = int(v2)
            elif k2 == "minus":
                k3, v3 = self.next()
                if k3 != "num" or "/" in v3:
                    raise ParseError("bad exponent")
                exp = -int(v3)
            else:
                raise ParseError("bad exponent")
            base = base**exp
        return base


def poly_from_text(text: str, ring: RingDescriptor, vars: tuple[str, ...] = ()) -> LaurentPoly:
    """Parse the textual grammar back into a canonical polynomial."""
    parser = _Parser(_tokenize(text), ring)
    result = parser.parse_poly()
    if parser.i != len(parser.toks):
        raise ParseError(f"trailing input near token {parser.i}")
    if vars:
        union = tuple(sorted(set(vars) | set(result.used_vars())))
        result = result.with_vars(union)
    return result
