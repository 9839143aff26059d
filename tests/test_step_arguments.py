"""Every plain argument of every op in ``pipeline.OPS`` is held to one contract.

Each op has a row: a ring and a minimal valid step, run after the steps of
``_BINDINGS``, which build the bindings the steps take.  Each plain argument
of the op (one whose form in ``OPS`` is not a tuple of binding kinds), in the
step or not, is then given each of ``VALUES`` (and, where its form is a grid,
a ragged grid) through ``cli.main build``.  Every case exits 0 or 2, never 1
or 3 and never with a traceback, and an exit 2 names the argument as
``argument '<name>'`` (or, for a missing one, ``needs the argument '<name>'``).

The only refusals that do not name their argument are relations between two
arguments that the op checks after every argument is read, such as a list of
coefficients one short of the set's members.  ``RELATIONS`` lists each with
its exact message, and each must still be met.
"""

import json

import pytest

from paraunitary.cli import main
from paraunitary.pipeline import OPS

QQ = {"kind": "rational"}
Z8 = {"kind": "cyclotomic", "conductor": 8}
F7 = {"kind": "prime_field", "p": 7}

VALUES = [True, False, None, 0, -1, 1.5, "x", "", [], [[]], {}, {"k": "x"}, [1], "2"]

_BINDINGS = [
    {"op": "identity", "bind": "I", "n": 2},
    {"op": "diagonal_set", "bind": "d", "n": 2},
    {"op": "monomial_sum", "bind": "W", "set": "$d", "coeffs": ["1", "1"], "exponents": [0, 1]},
    {"op": "member", "bind": "e1", "set": "$d", "index": 0},
    {"op": "member", "bind": "e2", "set": "$d", "index": 1},
]

_UNITS = [["1", "0"], ["0", "1"]]

# op -> (ring, a minimal valid step's arguments)
ROWS = {
    "matrix": (QQ, {"entries": _UNITS}),
    "identity": (QQ, {"n": 2}),
    "diagonal_set": (QQ, {"n": 2}),
    "group_set": (QQ, {"family": "cyclic", "order": 2}),
    "basis_set": (QQ, {"vectors": _UNITS, "groups": [[0], [1]]}),
    "basis_finite_set": (F7, {"vectors": [[1, 2], [5, 1]]}),
    "rows_set": (QQ, {"matrix": "$I"}),
    "tensor_sets": (QQ, {"a": "$d", "b": "$d"}),
    "merge_set": (QQ, {"set": "$d", "groups": [[0, 1]]}),
    "realify_set": (QQ, {"set": "$d"}),
    "conjugate_set": (QQ, {"set": "$d", "by": "$I"}),
    "monomial_sum": (QQ, {"set": "$d", "coeffs": ["1", "1"], "exponents": [0, 1]}),
    "block_arrangement": (
        QQ, {"set": "$d", "grid_family": "cyclic", "grid_order": 2, "cells": [["x", "y"], ["y", "x"]]},
    ),
    "belevitch": (QQ, {"vector": ["1", "0"], "var": "z"}),
    "spectral": (QQ, {"vectors": _UNITS, "units": ["1", "-1"]}),
    "tangle": (Z8, {"a": "$I", "b": "$I", "variant": {}}),
    "pseudo_from_rows": (QQ, {"matrix": "$I", "coeffs": ["1", "1"], "exponents": [{"x": 1}, {"y": 1}]}),
    "monomial_clear": (QQ, {"matrix": "$I"}),
    "compose": (QQ, {"parts": ["$I", "$I"], "mode": "product", "expect_paraunitary": True}),
    "specialize": (QQ, {"matrix": "$W", "assign": {"z": "1"}}),
    "substitute": (QQ, {"matrix": "$W", "assign": {"z": "x"}}),
    "factor_rank1": (QQ, {"matrix": "$e1"}),
    "verify_paraunitary": (QQ, {"matrix": "$W"}),
    "verify_pseudo": (QQ, {"matrix": "$W"}),
    "verify_idemset": (QQ, {"set": "$d"}),
    "determinant": (QQ, {"matrix": "$W"}),
    "rank": (QQ, {"matrix": "$I"}),
    "trace": (QQ, {"matrix": "$I"}),
    "idempotent_inverse": (QQ, {"coeffs": ["2", "3"], "set": "$d"}),
    "idem_set": (QQ, {"members": ["$e1", "$e2"], "labels": ["a", "b"]}),
    "combine": (QQ, {"coeffs": ["2", "3"], "set": "$d"}),
    "adjoint": (QQ, {"matrix": "$W"}),
    "member": (QQ, {"set": "$d", "index": 0}),
    "scale": (QQ, {"matrix": "$I", "by": "2"}),
}

# a ragged grid for a grid argument that a row's valid step does not give
_RAGGED = {"grid": [[0, 1], [1]]}

_COUNTS = "one coefficient per exponent required"
# (op, argument, value as JSON) -> the exact message of a relation the op checks
RELATIONS = {
    ("combine", "coeffs", "[1]"): "one coefficient per matrix required",
    ("idempotent_inverse", "coeffs", "[1]"): "one coefficient per idempotent required",
    ("spectral", "units", "[1]"): "one unit per vector required",
    ("monomial_sum", "coeffs", "[1]"): f"1 coeffs for 2 exponents: {_COUNTS}",
    ("monomial_sum", "exponents", "[1]"): f"2 coeffs for 1 exponents: {_COUNTS}",
    ("pseudo_from_rows", "coeffs", "[1]"): f"1 coeffs for 2 exponents: {_COUNTS}",
    ("pseudo_from_rows", "exponents", "[1]"): f"2 coeffs for 1 exponents: {_COUNTS}",
    ("basis_set", "groups", "[]"): "groups must partition 0..1",
    ("basis_set", "groups", "[[]]"): "groups must partition 0..1",
    ("merge_set", "groups", "[]"): "groups must partition 0..1",
    ("merge_set", "groups", "[[]]"): "groups must partition 0..1",
    ("specialize", "assign", "{}"): "unassigned variables ['z']",
    ("substitute", "assign", '{"k": "x"}'): "cannot assign 'k': the matrix has variables z",
}


def _ragged(name, valid):
    """``valid`` with the last item of its last row dropped."""
    if name not in valid:
        return _RAGGED[name]
    return [*valid[name][:-1], valid[name][-1][:-1]]


def _cases():
    """(op, argument, value as JSON, ring, steps) of every plain argument of
    every op and each value it is given."""
    for op, (_, takes) in OPS.items():
        ring, valid = ROWS[op]
        for name, form in takes.items():
            if isinstance(form, tuple):
                continue
            grid = isinstance(form, list) and isinstance(form[0], list)
            for value in VALUES + ([_ragged(name, valid)] if grid else []):
                step = {"op": op, "bind": "out", **valid, name: value}
                yield op, name, json.dumps(value), ring, [*_BINDINGS, step]


def _build(tmp_path, capsys, ring, steps):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"ring": ring, "steps": steps}))
    code = main(["build", str(pipe)])
    return code, capsys.readouterr().err


def test_every_op_has_a_row():
    assert set(ROWS) == set(OPS)


@pytest.mark.parametrize("op", sorted(ROWS))
def test_each_row_is_a_valid_step(tmp_path, capsys, op):
    ring, valid = ROWS[op]
    assert _build(tmp_path, capsys, ring, [*_BINDINGS, {"op": op, "bind": "out", **valid}]) == (0, "")


def test_every_plain_argument_exits_0_or_2_and_a_refusal_names_it(tmp_path, capsys):
    failures, refused, met = [], 0, set()
    cases = list(_cases())
    for op, name, value, ring, steps in cases:
        case = f"{op}.{name}={value}"
        try:
            code, err = _build(tmp_path, capsys, ring, steps)
        except BaseException as exc:  # noqa: BLE001 - a crash is a finding, reported with the others
            failures.append(f"{case}: raised {type(exc).__name__}: {exc}")
            continue
        if code == 0:
            continue
        prefix = f"build failed: step {len(steps)} ({op} -> out): "
        said = err[len(prefix):-1] if err.startswith(prefix) and err.endswith("\n") else None
        relation = RELATIONS.get((op, name, value))
        refused += 1
        if relation is not None:
            met.add((op, name, value))
            if (code, said) != (2, relation):
                failures.append(f"{case}: exit {code}, {err.strip()}")
        elif code != 2 or said is None or "Traceback" in err or f"argument {name!r}" not in said:
            failures.append(f"{case}: exit {code}, {err.strip()}")
    assert not failures, "\n".join(failures)
    assert met == set(RELATIONS), set(RELATIONS) - met
    assert len(cases) >= 400 and refused >= 400, (len(cases), refused)
