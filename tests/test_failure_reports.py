"""Failed ``is_paraunitary`` reports held to the product M M* - I.

A failed check builds its report on the first read of ``residual`` or
``failures``: one Gram kernel sums every upper entry of M M* not yet
decided, and only the entries that differ from the identity's are formed,
by one ``dot`` each.  These tests compare every such report with the
generic one of ``mul(m, m.adjoint()) - I`` over Q, F_2, F_3, F_7 and
Q(zeta_N) for N in {3, 4, 5, 8, 12, 105}: on perturbed copies of
constructor outputs whose product differs from I in one upper entry, in
several or in every one, under both certificates (``row-norm`` and
``hermitian-half``), and on matrices with a row whose star leaves the packed
exponent range, whose report raises ExponentOverflow as the product does.
"""

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")
pytestmark = pytest.mark.time_bound(180)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_certificates import _full_report, _paraunitary_dots  # noqa: E402
from test_row_norms import RINGS, _constructed, _unit  # noqa: E402
from paraunitary.errors import ExponentOverflow  # noqa: E402
from paraunitary.laurent import EXPONENT_BOUND, LaurentPoly, poly_from_text  # noqa: E402
from paraunitary.polymatrix import PolyMatrix, is_paraunitary, mul  # noqa: E402
from paraunitary.serialize import object_to_json  # noqa: E402

PERTURBATIONS = ["entry+1", "row*2", "entry*unit", "column+w", "join"]


def _norm_one(ring) -> LaurentPoly:
    """A polynomial u of norm 1 (the constant term of u star(u) is 1) that is
    no monomial, so u star(u) is not 1: 3/5 x + 4/5 over Q and Q(zeta_N),
    and the p + 1 powers x^0 .. x^p with coefficient 1 over F_p."""
    text = " + ".join(f"x^{k}" for k in range(ring.p + 1)) if ring.p else "3/5*x + 4/5"
    return poly_from_text(text, ring)


def _joined(ring, *blocks) -> PolyMatrix:
    """The block-diagonal matrix of ``blocks``, each a PolyMatrix or one entry."""
    grids = [b.entries if isinstance(b, PolyMatrix) else [[b]] for b in blocks]
    n = sum(len(g) for g in grids)
    rows, at = [], 0
    for g in grids:
        rows += [[0] * at + list(r) + [0] * (n - at - len(r)) for r in g]
        at += len(g)
    return PolyMatrix(ring, rows)


def _perturbed(m: PolyMatrix, how: str, i: int, j: int) -> PolyMatrix:
    """``m`` broken in one way: an entry plus 1, a row doubled, an entry
    times a unit (every row norm kept), the fresh variable w added down
    column 0 (every entry of the product then has constant term 1 more than
    the identity's), or ``m`` joined to a 1x1 block of norm 1 that is no
    monomial (one upper entry differs, and no row norm)."""
    ring, grid = m.ring, [list(row) for row in m.entries]
    if how == "entry+1":
        grid[i][j] = grid[i][j] + 1
    elif how == "row*2":
        grid[i] = [2 * e for e in grid[i]]
    elif how == "entry*unit":
        grid[i][j] = _unit(ring) * grid[i][j]
    elif how == "column+w":
        w = LaurentPoly.variable("w", ring)
        for row in grid:
            row[0] = row[0] + w
    else:
        return _joined(ring, m, _norm_one(ring))
    return PolyMatrix(ring, grid)


def _assert_report_is_the_products(m: PolyMatrix):
    """``(certificate, how many upper entries differ)`` of a failed check,
    after its report is held to the generic one; None when the check passes,
    as the product then says it must."""
    full = _full_report(m)
    report = is_paraunitary(m)
    assert report.ok == full.ok
    if report.ok:
        return None
    assert report.residual == full.residual
    assert report.residual.vars == full.residual.vars
    assert report.failures == full.failures
    assert report.summary() == full.summary()
    assert object_to_json(report) == object_to_json(full)
    _, whole, d = _paraunitary_dots(m)
    return report.certificate, "every" if d == whole > 1 else "one" if d == 1 else "several"


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    how=st.sampled_from(PERTURBATIONS),
    spot=st.tuples(st.integers(0, 63), st.integers(0, 63)),
)
def test_a_failed_report_is_the_residual_of_the_product(ring, seed, how, spot):
    m = _constructed(ring, seed)
    _assert_report_is_the_products(_perturbed(m, how, spot[0] % m.rows, spot[1] % m.cols))


def test_every_count_of_differing_entries_is_seen_under_both_certificates():
    # fixed seeds and spots, so a kind of failure the generator stops making
    # fails here: one, several and every upper entry differing under
    # row-norm, and one and several under hermitian-half
    seen = set()
    for ring in RINGS:
        for seed in range(2):
            m = _constructed(ring, seed)
            for how in PERTURBATIONS:
                for spot in ((0, 0), (m.rows - 1, 0)):
                    seen.add(_assert_report_is_the_products(_perturbed(m, how, *spot)))
    seen.discard(None)
    assert seen >= {
        ("row-norm", "one"), ("row-norm", "several"), ("row-norm", "every"),
        ("hermitian-half", "one"), ("hermitian-half", "several"),
    }


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_a_report_that_reads_a_star_out_of_range_raises_as_the_product_does(ring, seed):
    # the last row holds x^-2^29, whose star leaves the packed exponent
    # range.  The check decides before it reads that row as a right factor:
    # by the row norms when w is added down column 0, and by the Gram at
    # entry (1,1) when the first block is a polynomial of norm 1 that is no
    # monomial.  Reading the report reads every row, and raises
    far = LaurentPoly.monomial(1, {"x": -EXPONENT_BOUND}, ring)
    m = _constructed(ring, seed)
    cases = {
        "row-norm": _joined(ring, _perturbed(m, "column+w", 0, 0), far),
        "hermitian-half": _joined(ring, _norm_one(ring), m, far),
    }
    for certificate, broken in cases.items():
        with pytest.raises(ExponentOverflow):
            mul(broken, broken.adjoint())
        report = is_paraunitary(broken)
        assert not report.ok and report.certificate == certificate
        for read in (lambda r: r.residual, lambda r: r.failures, lambda r: r.summary()):
            with pytest.raises(ExponentOverflow):
                read(report)
