"""Specialization of paraunitary matrices at unit-modulus points.

Substituting a unit-modulus value for every variable of a paraunitary matrix
gives an exact unitary scalar matrix H.  Clearing the global fraction with
the smallest positive rational gives the integer form H'; when H' H'* = n I
the result is a (possibly complex) Hadamard matrix, and when all entries are
q-th roots of unity it is of Butson type H(q, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import NotFullyAssigned, NotUnitModulus
from .polymatrix import PolyMatrix, VerificationReport, is_paraunitary
from .scalars import (
    ExactScalar,
    as_scalar,
    is_unit_modulus,
    multiplicative_order,
)

BUTSON_SEARCH_CAP = 240


@dataclass
class HadamardReport:
    """Exact record of a specialization: H, its integer form, and Butson type."""

    scaled: PolyMatrix
    unitary: VerificationReport
    clearing_factor: Fraction
    cleared: PolyMatrix
    gram_constant: ExactScalar | None
    is_hadamard: bool
    butson_q: int | None

    @property
    def ok(self) -> bool:
        return self.unitary.ok

    @property
    def size(self) -> int:
        return self.scaled.rows

    def summary(self) -> str:
        lines = [f"specialized {self.size}x{self.size}: H H* = I {'PASS' if self.unitary.ok else 'FAIL'}"]
        lines.append(f"clearing factor {self.clearing_factor}")
        if self.gram_constant is not None:
            lines.append(f"H' H'* = {self.gram_constant} I")
        lines.append(f"Hadamard: {'yes' if self.is_hadamard else 'no'}")
        if self.butson_q is not None:
            lines.append(f"Butson type H({self.butson_q},{self.size})")
        return "\n".join(lines)


def _denominator_lcm(m: PolyMatrix) -> int:
    """The lcm of the denominators of every coefficient of ``m``.

    An entry's ``den`` is the lcm of its own coefficients' denominators: its
    canonical form has gcd(den, *numerators) = 1, and a coefficient
    reduces to den / g for a divisor g of den, so the lcm of those is den
    over the gcd of every g, and that gcd is gcd(den, *numerators) = 1."""
    return lcm(*(entry.den for row in m.entries for entry in row))


def specialize(w: PolyMatrix, assignment: dict) -> HadamardReport:
    """Assign a unit-modulus value to every variable and verify exactly.

    A name that is not a variable of ``w`` is refused by the substitution
    (UnknownVariable) before a missing one is (NotFullyAssigned), so a
    misspelled variable is named as such."""
    values = {}
    for name, val in assignment.items():
        val = as_scalar(w.ring, val)
        if not is_unit_modulus(val):
            raise NotUnitModulus(f"{name} <- {val} is not unit-modulus")
        values[name] = val
    h = w.substitute(values)
    missing = set(w.vars) - set(values)
    if missing:
        raise NotFullyAssigned(f"unassigned variables {sorted(missing)}")
    # one Gram product decides both verdicts: H H* is I on a pass and
    # residual + I on a failure, and the factor is rational, so
    # H' H'* = factor^2 H H*
    unitary = is_paraunitary(h)
    n = h.rows
    identity = PolyMatrix.identity(w.ring, n)
    factor = Fraction(_denominator_lcm(h))
    cleared = h.scale(ExactScalar.from_rational(w.ring, factor))
    product = identity if unitary.ok else unitary.residual + identity
    gram = product.scale(ExactScalar.from_rational(w.ring, factor * factor))
    gram_constant = None
    diag = gram.entries[0][0]
    if diag.is_constant():
        c = diag.constant_value()
        if gram == identity.scale(c):
            gram_constant = c
    is_h = gram_constant is not None and gram_constant == ExactScalar.from_rational(w.ring, n)
    butson = _butson_type(cleared) if is_h else None
    return HadamardReport(h, unitary, factor, cleared, gram_constant, is_h, butson)


def _butson_type(h: PolyMatrix) -> int | None:
    """Smallest q with every entry a q-th root of unity, capped at 240; the
    order of each distinct entry value is taken once."""
    entries = [entry for row in h.entries for entry in row]
    if not all(entry.is_constant() for entry in entries):
        return None
    q = 1
    for value in {entry.constant_value() for entry in entries}:
        order = multiplicative_order(value, cap=BUTSON_SEARCH_CAP)
        if order is None:
            return None
        q = lcm(q, order)
        if q > BUTSON_SEARCH_CAP:
            return None
    return q


def hadamard_check(h: PolyMatrix) -> HadamardReport:
    """Verify an already-scalar matrix as (scaled) Hadamard."""
    if not h.is_scalar:
        raise NotFullyAssigned(f"matrix still has variables {', '.join(h.vars)}")
    return specialize(h, {})


__all__ = [
    "HadamardReport",
    "specialize",
    "hadamard_check",
    "BUTSON_SEARCH_CAP",
]
