"""The row-norm stage of the paraunitary checks, held to outside checks.

``is_paraunitary`` and ``is_pseudo_paraunitary`` first read the constant
coefficient N_i of each diagonal entry of M M*, the sum of c conj(c) over
the terms of row i (over Q(zeta_N) through its trace to Q,
``laurent.norm_trace``): a row with N_i other than 1 (other than p) proves
the failure before the Gram kernel prepares a row, and only the Gram
kernel passes a matrix.  The tests compare both checks with the product
``mul(m, m.adjoint())`` on unproven copies of constructor outputs and on
broken copies, over Q, F_2, F_3, F_7 and Q(zeta_N) for N in {3, 4, 5, 8,
12, 105}, and ``norm_trace`` with the trace as the sum of the Galois
conjugates zeta -> zeta^k, k prime to N, computed in sympy.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import random_assignment  # noqa: E402
from test_certificates import _full_pseudo  # noqa: E402
from paraunitary.constructors import all_tangle_variants, monomial_sum, tangle  # noqa: E402
from paraunitary.errors import ExactAlgebraError  # noqa: E402
from paraunitary.groups import cyclic, symmetric_3  # noqa: E402
from paraunitary.idempotents import (  # noqa: E402
    diagonal_set,
    from_group,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
)
from paraunitary.laurent import LaurentPoly, norm_trace  # noqa: E402
from paraunitary.polymatrix import PolyMatrix, is_paraunitary, is_pseudo_paraunitary, mul  # noqa: E402
from paraunitary.scalars import QQ, ExactScalar, cyclotomic, euler_phi, prime_field, scalar_from_ints, zeta  # noqa: E402

RINGS = [QQ, prime_field(2), prime_field(3), prime_field(7)] + [cyclotomic(n) for n in (3, 4, 5, 8, 12, 105)]


def _sets(ring) -> list:
    """The idempotent sets each constructor builds over ``ring``, skipping
    the constructors the ring does not admit (no root, no 1/2, ...)."""
    rows = ([2, 1, 2], [1, 2, -2], [2, -2, -1])
    builders = [
        lambda: diagonal_set(ring, 1),
        lambda: diagonal_set(ring, 2),
        lambda: diagonal_set(ring, 3),
        lambda: from_group(cyclic(2), ring),
        lambda: from_group(cyclic(3), ring),
        lambda: from_group(symmetric_3(), ring),
        lambda: from_orthonormal_basis(ring, [[Fraction(x, 3) for x in v] for v in rows]),
        lambda: from_orthogonal_basis_finite(ring, [[1, 1], [1, -1]]),
    ]
    out = []
    for build in builders:
        try:
            out.append(build())
        except (ExactAlgebraError, ValueError, ZeroDivisionError):
            pass
    return out


SETS = {ring: _sets(ring) for ring in RINGS}


def _constructed(ring, seed: int) -> PolyMatrix:
    """An unproven copy of a monomial sum over ``ring``, or of a tangle of
    two where the ring has 1/sqrt2."""
    rng = random.Random(seed)
    parts = []
    for _ in range(2):
        s = rng.choice(SETS[ring])
        parts.append(monomial_sum(s, random_assignment(rng, s, ("x", "y"), max_exp=2)))
    m = parts[0]
    if ring in (prime_field(7), cyclotomic(8)) and rng.random() < 0.5:
        b = next((p for p in parts[1:] if p.rows == m.rows), None)
        if b is not None:
            m = tangle(m, b, rng.choice(all_tangle_variants()))
    assert m.proof is not None
    return PolyMatrix(ring, m.entries)


def _unit(ring) -> ExactScalar:
    """zeta over Q(zeta_N), and the unit -1 elsewhere."""
    return zeta(ring, 1) if ring.degree > 1 else ExactScalar.from_rational(ring, -1)


def _broken(m: PolyMatrix, how: str, i: int, j: int) -> PolyMatrix:
    grid = [list(row) for row in m.entries]
    one = LaurentPoly.constant(1, m.ring)
    if how == "entry+1":
        grid[i][j] = grid[i][j] + one
    elif how == "row*2":
        grid[i] = [2 * e for e in grid[i]]
    elif how == "row*zeta":  # stays paraunitary: the row norms and the Gram agree on it
        grid[i] = [_unit(m.ring) * e for e in grid[i]]
    elif how == "entry*zeta":  # keeps every row norm: only the Gram can fail it
        grid[i][j] = _unit(m.ring) * grid[i][j]
    return PolyMatrix(m.ring, grid)


def _generic(m: PolyMatrix):
    """The product M M*, whether it is I, and the p of the generic pseudo check."""
    product = mul(m, m.adjoint())
    return product, product == PolyMatrix.identity(m.ring, m.rows), _full_pseudo(m)


def _assert_agrees(m: PolyMatrix) -> bool:
    product, ok, p = _generic(m)
    report = is_paraunitary(m)
    assert report.ok == ok
    if report.certificate == "row-norm":
        # the norms prove a failure only where a diagonal constant term is not 1
        one = ExactScalar.from_rational(m.ring, 1)
        diagonal = [product.entries[i][i] for i in range(m.rows)]
        assert any(e.coefficients().get((0,) * len(e.vars)) != one for e in diagonal)
    else:
        assert report.certificate == "hermitian-half"
    assert is_pseudo_paraunitary(m) == p
    return ok


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    how=st.sampled_from(["none", "entry+1", "row*2", "row*zeta", "entry*zeta"]),
    spot=st.tuples(st.integers(0, 63), st.integers(0, 63)),
)
def test_the_checks_agree_with_the_product_on_constructed_and_broken_matrices(ring, seed, how, spot):
    m = _constructed(ring, seed)
    _assert_agrees(_broken(m, how, spot[0] % m.rows, spot[1] % m.cols))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_every_way_of_breaking_is_seen_on_every_ring(ring):
    # each case at fixed seeds, so a skipped verdict kind fails: the good
    # copy and its row times a unit pass, and a changed entry or a doubled
    # row fails (over F_2, where 2 = 0, a doubled row is a zero row; over
    # F_3, 2 = -1 is a unit, and the doubled row passes)
    verdicts = {}
    for seed in range(3):
        m = _constructed(ring, seed)
        for how in ("none", "entry+1", "row*2", "row*zeta", "entry*zeta"):
            verdicts.setdefault(how, []).append(_assert_agrees(_broken(m, how, 0, 0)))
    assert all(verdicts["none"]) and all(verdicts["row*zeta"])
    assert not any(verdicts["entry+1"])
    assert all(verdicts["row*2"]) if ring == prime_field(3) else not any(verdicts["row*2"])


def test_p_is_read_off_the_row_norms_over_a_prime_field():
    # over F_3 and F_7, where -1 is no square, these have M M* = -I: p = -1
    # comes from the norms, and the Gram pass for -I decides it
    cases = [
        (prime_field(3), [[1, 1], [1, -1]]),
        (prime_field(7), [[2, 3], [-3, 2]]),
    ]
    for ring, grid in cases:
        xr = LaurentPoly.monomial(1, {"x": 1}, ring)
        for m in (
            PolyMatrix(ring, grid),
            PolyMatrix(ring, [[grid[0][0] * xr, grid[0][1]], [grid[1][0], grid[1][1] * xr.star()]]),
        ):
            assert is_pseudo_paraunitary(m) == _full_pseudo(m) == LaurentPoly.constant(-1, ring)
            assert not is_paraunitary(m).ok
            for how in ("entry+1", "row*2", "entry*zeta"):
                broken = _broken(m, how, 0, 1)
                assert is_pseudo_paraunitary(broken) == _full_pseudo(broken)


# --- the trace identity of norm_trace ---------------------------------------

def _galois_trace(n: int, nums: list[int], den: int):
    """Tr(c conj(c)) for c = sum nums[j] zeta^j / den in Q(zeta_n): the sum
    over k prime to n of sigma_k(c) sigma_k(conj(c)), with sigma_k: zeta ->
    zeta^k and conj(c) = sigma_{-1}(c), formed on the exponents mod n (so
    mod z^n - 1) and reduced mod Phi_n by sympy."""
    import sympy

    total = [0] * n
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            for j1, a1 in enumerate(nums):
                for j2, a2 in enumerate(nums):
                    if a1 and a2:
                        total[(j1 - j2) * k % n] += a1 * a2
    z = sympy.Symbol("z")
    t = sympy.Poly(list(reversed(total)), z, domain="QQ").rem(sympy.Poly(sympy.cyclotomic_poly(n, z), z))
    assert t.degree() <= 0
    return sympy.Rational(t.as_expr()) / den**2


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12, 15, 16, 105])
def test_norm_trace_is_the_trace_of_the_norm(n):
    ring = cyclotomic(n)
    d = euler_phi(n)
    rng = random.Random(n)
    for _ in range(4):
        den = rng.randint(1, 6)
        coeffs = {}
        for e in range(rng.randint(1, 3)):
            nums = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(d)]
            if any(nums):
                coeffs[(e,)] = (nums, den)
        f = LaurentPoly(ring, ("x",), {e: scalar_from_ints(ring, nums, den) for e, (nums, den) in coeffs.items()})
        expected = sum(_galois_trace(n, nums, den) for nums, den in coeffs.values())
        assert norm_trace(f) == expected * f.den**2
