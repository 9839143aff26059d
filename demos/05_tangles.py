"""Tangles: non-separable paraunitary matrices from two different inputs.

The tangle (1/sqrt2)(A B; A -B) of two equal-size paraunitary matrices is
paraunitary in the union of their variables.  Using two genuinely
different idempotent sets is what makes the result non-separable; the
construction also works over prime fields in which 2 is a square.
"""

import sys

from paraunitary import (
    IdempotentSet,
    MonomialAssignment,
    PolyMatrix,
    TangleVariant,
    all_tangle_variants,
    cyclotomic_ring,
    is_paraunitary,
    monomial_sum,
    poly_from_text,
    prime_field,
    sqrt2,
    tangle,
)

z8 = cyclotomic_ring(8)
a = PolyMatrix(z8, [[poly_from_text("x", z8)]])
b = PolyMatrix(z8, [[poly_from_text("y", z8)]])
w = tangle(a, b)
print("elementary tangle:")
print(w)

t4 = tangle(w, tangle(PolyMatrix(z8, [[poly_from_text("z", z8)]]), PolyMatrix(z8, [[poly_from_text("t", z8)]])))
print(f"\niterated tangle: {t4.rows}x{t4.cols} in variables {t4.vars}")
print(is_paraunitary(t4).summary())

# build every variant of (a, b) and check each one's W W* = I on a copy that
# carries no recorded proof, so the Gram product itself is computed
variants = all_tangle_variants()
for variant in variants:
    t = tangle(a, b, variant)
    if not is_paraunitary(PolyMatrix(t.ring, t.entries)).ok:
        sys.exit(f"tangle variant {variant} of the ordered pair is not paraunitary")
print(f"\nall {len(variants)} variants of the ordered pair are paraunitary")

# over F_7, sqrt(2) = 3, so tangles exist there too
f7 = prime_field(7)
print("sqrt(2) in F_7 =", sqrt2(f7))
sa = IdempotentSet(
    [
        PolyMatrix(f7, [[2, 1, 2], [1, 4, 1], [2, 1, 2]]),
        PolyMatrix(f7, [[4, 1, 6], [1, 2, 5], [6, 5, 2]]),
        PolyMatrix(f7, [[2, 5, 6], [5, 2, 1], [6, 1, 4]]),
    ]
)
sb = IdempotentSet(
    [
        PolyMatrix(f7, [[6, 5, 6], [5, 3, 5], [6, 5, 6]]),
        PolyMatrix(f7, [[5, 2, 5], [2, 5, 2], [5, 2, 5]]),
        PolyMatrix(f7, [[4, 0, 3], [0, 0, 0], [3, 0, 4]]),
    ]
)
a7 = monomial_sum(sa, MonomialAssignment.build(f7, [1, 1, 1], [{"x": 1}, {"y": 1}, {"z": 1}]))
b7 = monomial_sum(sb, MonomialAssignment.build(f7, [1, 1, 1], [{"t": 1}, {"r": 1}, {"s": 1}]))
w7 = tangle(a7, b7, TangleVariant(order="AB", base="horizontal", perm="cols"))
print(f"tangle over F_7: {w7.rows}x{w7.cols},", is_paraunitary(w7).summary())
