"""Two shortcuts of the catalog output path, checked against the long way.

``catalog.entry_matches`` decides a match on compact JSON text, not on the
indented ``serialize.dumps`` text it shows in a diff; ``poly_to_text``
prints a polynomial over all of its variables, not over the used ones
after ``compact()``.  Each must give the answer of the long way on every
input: JSON-like values and every frozen catalog document for the first,
polynomials over Q, Q(zeta_8) and F_7 carrying unused variables for the
second.
"""

import copy

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_catalog import _reference_diff  # noqa: E402
from test_scalar_properties import elements  # noqa: E402

from paraunitary import catalog  # noqa: E402
from paraunitary.catalog import CATALOG, catalog_ids, entry_matches  # noqa: E402
from paraunitary.laurent import LaurentPoly, poly_to_text  # noqa: E402
from paraunitary.scalars import QQ, cyclotomic, prime_field  # noqa: E402
from paraunitary.serialize import dumps  # noqa: E402

_LEAVES = st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(
    ["", "0", "1", "true", "null", "a b", "\u00e9", "\"", "\\"]
)
_JSON = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("abc"), inner, max_size=3),
    max_leaves=12,
)
# leaves that compare equal in Python or print alike, each swapped for a neighbour
_CONFUSED = {
    (bool, True): 1, (int, 1): "1", (str, "1"): 1, (bool, False): 0, (int, 0): False,
    (type(None), None): "null", (str, "null"): None, (str, "true"): True,
}


@st.composite
def _near(draw, x):
    """``x``, or a value that differs from it only a little: keys in another
    order, a leaf swapped for one that equals it in Python or prints like it,
    a list cut short."""
    if isinstance(x, dict):
        items = [(k, draw(_near(v))) for k, v in x.items()]
        if draw(st.booleans()):
            items.reverse()
        return dict(items)
    if isinstance(x, list):
        out = [draw(_near(v)) for v in x]
        return out[:-1] if out and draw(st.integers(0, 4)) == 0 else out
    return _CONFUSED.get((type(x), x), x) if draw(st.integers(0, 3)) == 0 else x


@st.composite
def _pairs(draw):
    x = draw(_JSON)
    return x, draw(st.one_of(_near(x), _JSON))


@given(_pairs())
@example((True, 1))
@example(("1", 1))
@example((False, 0))
@example(({"a": 1, "b": [True]}, {"b": [True], "a": 1}))
@example(({"a": [1, "1"]}, {"a": [1, 1]}))
def test_indented_texts_agree_exactly_when_compact_texts_agree(pair):
    x, y = pair
    assert (dumps(x) == dumps(y)) == (catalog._compact(x) == catalog._compact(y))


def _first_row(value):
    """The first row of matrix entry texts inside an output document, or None."""
    if isinstance(value, dict):
        if value.get("entries"):
            return value["entries"][0]
        value = [value[k] for k in sorted(value)]
    if isinstance(value, list):
        for v in value:
            row = _first_row(v)
            if row:
                return row
    return None


@pytest.mark.parametrize("entry", CATALOG, ids=catalog_ids())
def test_every_frozen_document_against_a_copy_with_one_entry_text_changed(entry, monkeypatch):
    frozen = catalog.expected_outputs(entry.id)
    changed = copy.deepcopy(frozen)
    row = _first_row(changed)
    assert row, f"{entry.id} holds no matrix"
    row[0] += " + 1"
    assert catalog._compact(changed) != catalog._compact(frozen) and dumps(changed) != dumps(frozen)

    monkeypatch.setattr(catalog, "expected_outputs", lambda entry_id: changed)
    ok, diff = entry_matches(entry)
    assert not ok and diff == _reference_diff(catalog.run_entry(entry), changed)


_PRINT_RINGS = [QQ, cyclotomic(8), prime_field(7)]
_USED = ("b", "d", "f")
# supersets of the used variables: names before, between and after them
_SUPERSETS = [("a", "b", "d", "f"), ("b", "c", "d", "f"), ("b", "d", "e", "f", "g"), ("a", "b", "c", "d", "e", "f", "g")]


@pytest.mark.parametrize("ring", _PRINT_RINGS, ids=[str(r) for r in _PRINT_RINGS])
@given(data=st.data())
def test_the_printer_ignores_variables_no_term_uses(ring, data):
    # each variable of _USED may be left out of every term as well
    kept = data.draw(st.tuples(*[st.booleans()] * len(_USED)))
    exps = st.tuples(*[st.integers(-2, 2) if k else st.just(0) for k in kept])
    f = LaurentPoly(ring, _USED, data.draw(st.dictionaries(exps, elements(ring), max_size=4)))
    for wider in _SUPERSETS:
        assert poly_to_text(f.with_vars(wider)) == poly_to_text(f.compact())
        assert poly_to_text(LaurentPoly.zero(ring, wider)) == "0"
