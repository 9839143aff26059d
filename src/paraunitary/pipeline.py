"""Declarative construction pipelines: ordered named steps in one ring.

A pipeline document is JSON of the form

    {"ring": {...}, "steps": [{"op": ..., "bind": ..., ...args}, ...]}

:data:`OPS` lists every argument of each op, and an argument an op does not
take is refused.  Steps may reference earlier bindings as "$name" in the
arguments that take a matrix or a set, as :data:`OPS` gives their kinds;
every other argument takes a plain JSON value, read in the form :data:`OPS`
gives it before the op runs.  :func:`execute_step` handles each argument in
one pass, and any refusal of one names it.  Verification steps raise on
failure, so executing a pipeline re-proves every claimed identity.
"""

from __future__ import annotations

from dataclasses import fields

from .constructors import (
    ArrangementPlan,
    ClearedMatrix,
    MonomialAssignment,
    TangleVariant,
    belevitch_block,
    block_arrangement,
    compose,
    latin_square_from_group,
    monomial_clear,
    monomial_sum,
    pseudo_from_rows,
    spectral_unitary,
    tangle,
)
from .errors import ExactAlgebraError, NotCompleteSet, NotParaunitary, NotPseudoParaunitary, ParseError, PipelineError
from .groups import BUILTIN_FAMILIES, builtin_group
from .hadamard import HadamardReport, specialize
from .idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    factor_rank1,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    idempotent_inverse,
    merge,
    realify,
    tensor_sets,
    verify_set,
)
from .laurent import LaurentPoly, input_exponent, input_variable, poly_from_text
from .polymatrix import (
    MAX_DIMENSION,
    PolyMatrix,
    VerificationReport,
    combination,
    determinant,
    is_paraunitary,
    is_pseudo_paraunitary,
    rank,
    trace,
)
from .scalars import ExactScalar, RingDescriptor, input_int


def _resolve(env: dict, value, plain: bool = False):
    """``value`` with every ``"$name"`` in it replaced by that binding; with
    ``plain``, for an argument that takes a plain JSON value, a binding
    anywhere in it is refused."""
    if isinstance(value, str) and value.startswith("$"):
        if value[1:] not in env:
            raise ParseError(f"undefined binding {value!r}")
        if plain:
            raise PipelineError(f"takes a plain JSON value, not the binding {value!r}")
        return env[value[1:]]
    if isinstance(value, list):
        return [_resolve(env, v, plain) for v in value]
    if isinstance(value, dict):
        return {k: _resolve(env, v, plain) for k, v in value.items()}
    return value


# A leaf reader (ring, value) reads one JSON value of an argument.  Its own
# check raises a PipelineError whose message completes "argument '<name>' ...";
# any other error (of the scalar or text layer) is named as "argument '<name>': ...".
# execute_step adds the name either way.


def _text(ring: RingDescriptor, value) -> LaurentPoly:
    """A polynomial given as text of the grammar, or as a JSON integer; a
    boolean, null, float, list or object is refused."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise PipelineError(f"must be polynomial text, got {_kind(value)}")
    return poly_from_text(str(value), ring)


def _scalar(ring: RingDescriptor, value):
    """A constant given as text; text that is not a constant is a ParseError."""
    f = _text(ring, value)
    if not f.is_constant():
        raise ParseError(f"{f} is not constant")
    return f.constant_value()


def _choice(*choices: str):
    """A leaf reader of one of the strings ``choices``."""
    def read(ring: RingDescriptor, value) -> str:
        if not (isinstance(value, str) and value in choices):
            raise PipelineError(f"must be {' or '.join(map(repr, choices))}, got {value!r}")
        return value
    return read


def _bool(ring: RingDescriptor, value) -> bool:
    """A JSON boolean: the string "false" is refused, not read as true."""
    if not isinstance(value, bool):
        raise PipelineError(f"must be true or false, got {value!r}")
    return value


def _label(ring: RingDescriptor, value) -> str:
    """A member's label."""
    if not isinstance(value, str):
        raise PipelineError(f"must be a string, got {_kind(value)}")
    return value


def _variable(ring: RingDescriptor, value) -> str:
    return input_variable(value)


def _dimension(ring: RingDescriptor, n) -> int:
    """A matrix size given as a number, at most ``MAX_DIMENSION``."""
    return input_int(n, "size", 1, MAX_DIMENSION)


def _order(ring: RingDescriptor, value):
    """A built-in group's order, or null; ``builtin_group`` checks its range."""
    return None if value is None else input_int(value, "order")


def _exponents(ring: RingDescriptor, e):
    """One monomial's exponents: a bare power of z, or a {variable: power} map."""
    if isinstance(e, dict):
        return {input_variable(v): input_exponent(x) for v, x in e.items()}
    return input_exponent(e)


def _coordinate(ring: RingDescriptor, x) -> int:
    """An integer coordinate, read as every integer field is (``scalars.input_int``):
    1.9, 2.0, "4/2", "1e0" or true is a ParseError."""
    return input_int(x, "coordinate")


_CELL_KEYS = ("coeff", "exps")


def _cell(ring: RingDescriptor, cell):
    """A cell of a block arrangement: a variable name, or {"coeff": c, "exps": {variable: power}}
    with "exps" optional; another key, or no "coeff", is a ParseError naming the keys allowed."""
    if isinstance(cell, str):
        return input_variable(cell)
    allowed = ", ".join(_CELL_KEYS)
    if not isinstance(cell, dict):
        raise ParseError(f"a cell must be a variable name or an object with keys {allowed}, got {_kind(cell)}")
    unknown = next((k for k in cell if k not in _CELL_KEYS), None)
    if unknown is not None:
        raise ParseError(f"a cell has unknown key {unknown!r}; allowed keys: {allowed}")
    if "coeff" not in cell:
        raise ParseError(f"a cell object needs the key 'coeff'; allowed keys: {allowed}")
    exps = cell.get("exps", {})
    if not isinstance(exps, dict):
        raise ParseError(f"a cell's exps must be an object of {{variable: power}}, got {_kind(exps)}")
    return _scalar(ring, cell["coeff"]), _exponents(ring, exps)


def _index(ring: RingDescriptor, value) -> int:
    """A member index given as a JSON integer from 0; a boolean, a float or a
    string is a ParseError.  A string of digits is refused too, as the
    Latin-square check always refused it."""
    if isinstance(value, str):
        raise ParseError(f"index must be an integer, got {value!r}")
    return input_int(value, "index", 0)


def _groups(ring: RingDescriptor, value):
    """An index partition: a list of lists of indices from 0."""
    if not isinstance(value, list) or not all(isinstance(g, list) for g in value):
        raise PipelineError(f"must be a list of lists of indices, got {_kind(value)}")
    return [[input_int(i, "group index", 0) for i in g] for g in value]


_VARIANT_KEYS = tuple(f.name for f in fields(TangleVariant))


def _variant(ring: RingDescriptor, value) -> TangleVariant:
    """A tangle's variant: a JSON object over the fields of TangleVariant."""
    allowed = ", ".join(_VARIANT_KEYS)
    if not isinstance(value, dict):
        raise PipelineError(f"must be an object with keys {allowed}, got {_kind(value)}")
    unknown = next((k for k in value if k not in _VARIANT_KEYS), None)
    if unknown is not None:
        raise PipelineError(f"has unknown key {unknown!r}; allowed keys: {allowed}")
    return TangleVariant(**value)


def _read(ring: RingDescriptor, form, value):
    """``value`` read in ``form``: a leaf reader, ``[form]`` for a nonempty JSON
    list of that form (``[[form]]`` a rectangular grid), or ``{str: form}`` for
    a JSON object of it."""
    if isinstance(form, list):
        if not isinstance(value, list):
            raise PipelineError(f"must be a list, got {_kind(value)}")
        if not value:
            raise PipelineError("must be a nonempty list")
        items = [_read(ring, form[0], v) for v in value]
        if isinstance(form[0], list) and len(set(map(len, items))) > 1:
            raise PipelineError("must be a rectangular grid, got rows of different lengths")
        return items
    if isinstance(form, dict):
        if not isinstance(value, dict):
            raise PipelineError(f"must be an object, got {_kind(value)}")
        return {k: _read(ring, form[str], v) for k, v in value.items()}
    return form(ring, value)


def _grid(a) -> tuple:
    """A block arrangement's grid: as given, or the Latin square of a built-in
    group, whose order must be the set's member count."""
    if "grid" in a:
        return a["grid"]
    if "grid_family" not in a:
        raise PipelineError("op 'block_arrangement' needs the argument 'grid' or 'grid_family'")
    group = builtin_group(a["grid_family"], a.get("grid_order"), "grid_order")
    if group.order != len(a["set"]):
        name = "grid_order" if "grid_order" in a else "grid_family"
        raise PipelineError(
            f"argument {name!r} gives a group of order {group.order}, not {len(a['set'])}, the set's member count"
        )
    return latin_square_from_group(group)


def _verify_pseudo(ring, a):
    mono = is_pseudo_paraunitary(a["matrix"])
    if mono is None:
        raise NotPseudoParaunitary("W W* is not a unit monomial times the identity")
    return mono


_MATRIX, _SET, _MATRICES, _EMPTY = "a matrix", "an idempotent set", "a list of matrices", "an empty list"
_M, _S, _L = (_MATRIX,), (_SET,), (_MATRICES,)
_VECTORS, _COEFFS, _FAMILY = [[_text]], [_scalar], _choice(*BUILTIN_FAMILIES)

# op name -> (step function of (ring, args), {argument: its form}). A form is
# a tuple of the binding kinds the argument takes, or what _read reads a plain
# JSON value by: a leaf reader (ring, value), [form] or {str: form}. The dict
# lists every argument of the op: execute_step refuses any other, and a
# binding of another kind, and reads every plain value, before the op runs.
# Each step calls its constructor by its module-level name at call time, so
# rebinding that name (a tracer, a test's monkeypatch) reaches every call;
# `idem` on the command line runs these too.
OPS = {
    "matrix": (lambda ring, a: PolyMatrix(ring, a["entries"]), {"entries": _VECTORS}),
    "identity": (lambda ring, a: PolyMatrix.identity(ring, a["n"]), {"n": _dimension}),
    "diagonal_set": (lambda ring, a: diagonal_set(ring, a["n"]), {"n": _dimension}),
    "group_set": (
        lambda ring, a: from_group(builtin_group(a["family"], a.get("order")), ring),
        {"family": _FAMILY, "order": _order},
    ),
    "basis_set": (
        lambda ring, a: from_orthonormal_basis(ring, a["vectors"], a.get("groups")),
        {"vectors": _VECTORS, "groups": _groups},
    ),
    "basis_finite_set": (
        lambda ring, a: from_orthogonal_basis_finite(ring, a["vectors"]),
        {"vectors": [[_coordinate]]},
    ),
    "rows_set": (lambda ring, a: from_matrix_rows(a["matrix"]), {"matrix": _M}),
    "tensor_sets": (lambda ring, a: tensor_sets(a["a"], a["b"]), {"a": _S, "b": _S}),
    "merge_set": (lambda ring, a: merge(a["set"], a["groups"]), {"set": _S, "groups": _groups}),
    "realify_set": (lambda ring, a: realify(a["set"]), {"set": _S}),
    "conjugate_set": (lambda ring, a: conjugate_set(a["set"], a["by"]), {"set": _S, "by": _M}),
    "monomial_sum": (
        lambda ring, a: monomial_sum(a["set"], MonomialAssignment.build(ring, a["coeffs"], a["exponents"])),
        {"set": _S, "coeffs": _COEFFS, "exponents": [_exponents]},
    ),
    "block_arrangement": (
        lambda ring, a: block_arrangement(a["set"], ArrangementPlan.build(ring, _grid(a), a["cells"])),
        {"set": _S, "grid": [[_index]], "grid_family": _FAMILY, "grid_order": _order, "cells": [[_cell]]},
    ),
    "belevitch": (
        lambda ring, a: belevitch_block(PolyMatrix.column_vector(ring, a["vector"]), a.get("var", "z")),
        {"vector": [_text], "var": _variable},
    ),
    "spectral": (
        lambda ring, a: spectral_unitary(ring, a["vectors"], a["units"]),
        {"vectors": _VECTORS, "units": _COEFFS},
    ),
    "tangle": (
        lambda ring, a: tangle(a["a"], a["b"], a.get("variant", TangleVariant())),
        {"a": _M, "b": _M, "variant": _variant},
    ),
    "pseudo_from_rows": (
        lambda ring, a: pseudo_from_rows(a["matrix"], MonomialAssignment.build(ring, a["coeffs"], a["exponents"])),
        {"matrix": _M, "coeffs": _COEFFS, "exponents": [_exponents]},
    ),
    "monomial_clear": (lambda ring, a: monomial_clear(a["matrix"]), {"matrix": _M}),
    "compose": (
        lambda ring, a: compose(a["parts"], a.get("mode", "product"), a.get("expect_paraunitary", False)),
        {"parts": _L, "mode": _choice("product", "tensor"), "expect_paraunitary": _bool},
    ),
    "specialize": (lambda ring, a: specialize(a["matrix"], a["assign"]), {"matrix": _M, "assign": {str: _scalar}}),
    # general substitution: values may be monomials (variable equating)
    "substitute": (lambda ring, a: a["matrix"].substitute(a["assign"]), {"matrix": _M, "assign": {str: _text}}),
    "factor_rank1": (lambda ring, a: factor_rank1(a["matrix"]), {"matrix": _M}),
    "verify_paraunitary": (
        lambda ring, a: is_paraunitary(a["matrix"]).require(NotParaunitary, "paraunitarity failed:\n"),
        {"matrix": _M},
    ),
    "verify_pseudo": (_verify_pseudo, {"matrix": _M}),
    "verify_idemset": (
        lambda ring, a: verify_set(a["set"]).require(NotCompleteSet, "idempotent-set check failed:\n"),
        {"set": _S},
    ),
    "determinant": (lambda ring, a: determinant(a["matrix"]), {"matrix": _M}),
    "rank": (lambda ring, a: rank(a["matrix"]), {"matrix": _M}),
    "trace": (lambda ring, a: trace(a["matrix"]), {"matrix": _M}),
    "idempotent_inverse": (
        lambda ring, a: idempotent_inverse(a["coeffs"], a["set"]),
        {"coeffs": _COEFFS, "set": (_SET, _MATRICES)},
    ),
    "idem_set": (lambda ring, a: IdempotentSet(a["members"], a.get("labels")), {"members": _L, "labels": [_label]}),
    "combine": (lambda ring, a: combination(a["coeffs"], a["set"].members), {"coeffs": _COEFFS, "set": _S}),
    "adjoint": (lambda ring, a: a["matrix"].adjoint(), {"matrix": _M}),
    "member": (
        lambda ring, a: a["set"].members[input_int(a["index"], "index", 0, len(a["set"]) - 1)],
        {"set": _S, "index": _index},
    ),
    "scale": (lambda ring, a: a["matrix"].scale(a["by"]), {"matrix": _M, "by": _text}),
}

_KIND_NAMES = {
    PolyMatrix: _MATRIX,
    IdempotentSet: _SET,
    LaurentPoly: "a polynomial",
    ExactScalar: "a scalar",
    VerificationReport: "a verification report",
    ClearedMatrix: "a cleared matrix",
    HadamardReport: "a Hadamard report",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
    type(None): "null",
}


def _kind(value) -> str:
    """What a pipeline value is, in the words of :data:`OPS`."""
    if isinstance(value, list):
        other = next((_kind(v) for v in value if not isinstance(v, PolyMatrix)), None)
        if other is None:
            return _MATRICES if value else _EMPTY
        return f"a list holding {other}"
    return _KIND_NAMES.get(type(value), f"a {type(value).__name__}")


class _Arguments(dict):
    """The read arguments of one step: reading one the step lacks is a
    PipelineError naming its op and it, where a plain dict raises a bare
    KeyError.  An argument the op may go without is read by ``get``."""

    def __init__(self, op: str):
        super().__init__()
        self.op = op

    def __missing__(self, name):
        raise PipelineError(f"op {self.op!r} needs the argument {name!r}")


def execute_step(ring: RingDescriptor, op: str, args: dict, env: dict | None = None):
    """Run one op of ``OPS`` on ``args``, where ``"$name"`` is a binding of ``env``.

    Each argument is handled in one pass, before the op runs.  One the op
    does not take is a PipelineError naming the op, the argument and the
    arguments it takes.  Otherwise its form is looked up once, its bindings
    are resolved (a binding inside a plain value, or an undefined one, is
    refused), and then a binding's kind is checked against the kinds it
    takes, or a plain value is read in its form by :func:`_read`.  Any
    refusal names the argument: ``argument '<name>' <reason>`` for the
    reader's own check, ``argument '<name>': <message>`` for an error of the
    scalar or text layer.  The read values go into :class:`_Arguments`,
    which names an argument the step lacks."""
    if op not in OPS:
        raise PipelineError(f"unknown op {op!r}")
    step, takes = OPS[op]
    read = _Arguments(op)
    for name, value in args.items():
        if name not in takes:
            raise PipelineError(f"op {op!r} takes no argument {name!r}; it takes {', '.join(takes)}")
        form = takes[name]
        try:
            value = _resolve(env or {}, value, not isinstance(form, tuple))
            if not isinstance(form, tuple):
                value = _read(ring, form, value)
            # an empty list binds as a list of matrices; its op decides whether it may be empty
            elif (kind := _kind(value)) not in form and not (kind == _EMPTY and _MATRICES in form):
                raise PipelineError(f"must be {' or '.join(form)}, got {kind}")
        except (ExactAlgebraError, ValueError) as exc:
            raise PipelineError(f"argument {name!r}{' ' if type(exc) is PipelineError else ': '}{exc}") from exc
        read[name] = value
    return step(ring, read)


def execute_pipeline(doc: dict) -> dict[str, object]:
    """Run a pipeline document; returns the environment of named results."""
    try:
        ring = RingDescriptor.from_json(doc["ring"])
        steps = list(doc["steps"])
    except (KeyError, TypeError) as exc:
        raise PipelineError(f"malformed pipeline: {exc}") from exc
    env: dict[str, object] = {}
    for i, step in enumerate(steps):
        if not isinstance(step, dict) or "op" not in step:
            raise PipelineError(f"step {i + 1} has no op")
        op, bind = step["op"], step.get("bind", f"step{i + 1}")
        if not isinstance(op, str) or not isinstance(bind, str):
            raise PipelineError(f"step {i + 1}: op and bind must be strings")
        if bind in env:
            raise PipelineError(f"binding {bind!r} defined twice")
        try:
            env[bind] = execute_step(ring, op, {k: v for k, v in step.items() if k not in ("op", "bind")}, env)
        except Exception as exc:
            raise PipelineError(f"step {i + 1} ({op} -> {bind}): {exc}") from exc
    return env
