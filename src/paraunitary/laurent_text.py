"""The textual grammar of Laurent polynomials: the canonical printer and the parser.

Text is a sum of terms, each a product of factors ``-``* primary [``^``
exponent], where a primary is a number ``a`` or ``a/b``, a variable name,
``zeta`` (over Q(zeta_N) only) or a parenthesised sum; whitespace may stand
before, between and after tokens.  The printer writes the terms in
descending exponent order over the polynomial's variables, so equal
polynomials print equally: a variable no term uses adds a zero coordinate
to every exponent vector, which changes neither that order nor a printed
factor.  The parser reads that text back.

Both ends read the packed layout of :mod:`paraunitary.laurent` where a
product would be waste.  The printer prints each term from its packed
numerators over the polynomial's ``den`` (``scalars.coefficient_text``),
with no scalar per term.  The parser reads a number as two ints, ``zeta^k``
as the one power-table row of zeta^(k mod N) and ``name^e`` as one packed
key; every other ``*`` and ``^`` is a product of :func:`_checked_product`
or :func:`~paraunitary.laurent._power`, and a sum one
:func:`~paraunitary.laurent.dot` against constant ones.  The input limits
``MAX_EXPONENT``, ``MAX_NESTING`` and ``MAX_TERM_PAIRS`` are defined in
``laurent``, next to the exponent range they keep derived products inside;
``laurent`` re-exports :func:`poly_to_text`, :func:`poly_from_text`,
:func:`input_exponent` and :func:`input_variable`.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .laurent import (
    MAX_EXPONENT, MAX_NESTING, MAX_TERM_PAIRS, LaurentPoly, _exponent_pairs, _layout, _pack, _power, _raw, dot,
)
from .scalars import (
    CYCLOTOMIC,
    RingDescriptor,
    coefficient_text,
    input_int,
    scalar_from_ratio,
    one as scalar_one,
    zeta,
)


def poly_to_text(f: LaurentPoly) -> str:
    """Canonical text: terms in descending exponent order over ``f.vars``.

    Each term prints from its packed numerators over ``f.den``, which need
    not be its coefficient in lowest terms (``scalars.coefficient_text``
    reduces each coordinate), and from its nonzero exponents
    (``laurent._exponent_pairs``).  Unused variables need no ``compact()``:
    their zero coordinates leave the order and the factors as they are over
    the used variables."""
    if not f.terms:
        return "0"
    den, groups = f.den, f._groups()
    keys = sorted(groups, reverse=True)  # the int order of keys is the order of exponent vectors
    pieces = []
    for key, exps in zip(keys, _exponent_pairs(f._lay, f.vars, keys)):
        nums = groups[key]
        for first in nums:
            if first:
                break
        neg = first < 0  # the sign of the first nonzero numerator
        if neg:
            nums = [-c for c in nums]
        factors = "*".join([v if e == 1 else f"{v}^{e}" for v, e in exps])
        if not factors:
            body = coefficient_text(nums, den)
        elif nums[0] == den and not any(nums[1:]):  # the coefficient 1
            body = factors
        else:
            body = coefficient_text(nums, den) + "*" + factors
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<num>\d+(?:/\d+)?)"
    rf"|(?P<name>{_NAME})|(?P<pow>\^)|(?P<mul>\*)|(?P<plus>\+)|(?P<minus>-))"
)


def input_exponent(value) -> int:
    """An exponent read from text or JSON: an int with ``|e| <= MAX_EXPONENT``.

    Anything else is a ParseError, raised before any polynomial is built.
    """
    value = input_int(value, "exponent")
    if abs(value) > MAX_EXPONENT:
        raise ParseError(f"exponent {value} exceeds the input limit of {MAX_EXPONENT} in magnitude")
    return value


def input_variable(value) -> str:
    """A variable name read from JSON: a name token of the grammar other
    than ``zeta``, which names the ring's root of unity.

    Anything else is a ParseError, raised before any polynomial is built.
    """
    if not isinstance(value, str) or not re.fullmatch(_NAME, value) or value == "zeta":
        raise ParseError(f"{value!r} is not a variable name (a letter, then letters, digits, _; not zeta)")
    return value


def _tokenize(text: str):
    pos, depth, out = 0, 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].isspace():  # whitespace after the last token
                break
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
        one = LaurentPoly.constant(scalar_one(self.ring))
        return dot(self.ring, vars, [t.with_vars(vars) for t in terms], [one] * len(terms))

    def parse_term(self) -> LaurentPoly:
        out = self.parse_factor()
        while self.peek()[0] == "mul":
            self.next()
            out = _checked_product(out, self.parse_factor())
        return out

    def parse_factor(self) -> LaurentPoly:
        """``-``* primary [``^`` exponent]: the power binds tighter, so -2^2 is -(2^2).

        ``zeta^k`` and ``name^e`` take no product: ``zeta^k`` is the power
        table's row of zeta^(k mod N), ``name^e`` one packed key (and
        ``name^0`` the constant 1 on no variables)."""
        sign = 1
        while self.peek()[0] == "minus":
            self.next()
            sign = -sign
        kind, val = self.next()
        ring = self.ring
        if kind == "name":
            if val == "zeta" and ring.kind != CYCLOTOMIC:
                raise ParseError("'zeta' only meaningful in a cyclotomic ring")
            exp = self.parse_exponent() if self.peek()[0] == "pow" else 1
            if val == "zeta":
                base = LaurentPoly.constant(zeta(ring, exp))
            elif exp:
                lay = _layout(ring, 1)
                base = _raw(ring, (val,), {_pack(lay, (exp,)): 1}, 1, lay)
            else:
                base = LaurentPoly.constant(scalar_one(ring))
            return base if sign > 0 else -base
        if kind == "num":
            a, _, b = val.partition("/")
            try:
                a, b = int(a), int(b or 1)
            except ValueError as exc:  # beyond the interpreter's int digit limit
                raise ParseError(f"bad number: {exc}") from exc
            if not b:
                raise ParseError(f"zero denominator in {val!r}")
            base = LaurentPoly.constant(scalar_from_ratio(ring, a, b))
        elif kind == "lparen":
            base = self.parse_poly()
            kind2, _ = self.next()
            if kind2 != "rparen":
                raise ParseError("expected ')'")
        else:
            raise ParseError(f"unexpected token {val!r}")
        if self.peek()[0] == "pow":
            exp = self.parse_exponent()
            if exp < 0 and not base.is_monomial():
                raise ParseError("a negative power needs a monomial base")
            base = _power(base, exp, _checked_product)
        return base if sign > 0 else -base

    def parse_exponent(self) -> int:
        """``^`` and an int exponent, which may follow a ``-``."""
        self.next()
        k2, v2 = self.next()
        if k2 == "num" and "/" not in v2:
            return input_exponent(v2)
        if k2 == "minus":
            k3, v3 = self.next()
            if k3 == "num" and "/" not in v3:
                return -input_exponent(v3)
        raise ParseError("bad exponent")


def poly_from_text(text: str, ring: RingDescriptor) -> LaurentPoly:
    """Parse the textual grammar back into a canonical polynomial.

    Exponents are held to ``|e| <= MAX_EXPONENT``, parentheses to
    ``MAX_NESTING`` levels and each product, ``*`` or a step of ``^``, to
    ``MAX_TERM_PAIRS`` term pairs; a number with a zero denominator is
    refused.  Each breach is a ParseError, raised before the product.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(tokens, ring)
    result = parser.parse_poly()
    if parser.i != len(parser.toks):
        raise ParseError(f"trailing input near token {parser.i}")
    return result
