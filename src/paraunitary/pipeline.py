"""Declarative construction pipelines: ordered named steps in one ring.

A pipeline document is JSON of the form

    {"ring": {...}, "steps": [{"op": ..., "bind": ..., ...args}, ...]}

Steps may reference earlier bindings as "$name" in the arguments that take
a matrix or a set (:data:`ARG_KINDS`); every other argument takes a plain
JSON value.  Verification steps raise on failure, so executing a pipeline
re-proves every claimed identity.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

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
from .errors import (
    NotCompleteSet,
    NotParaunitary,
    NotPseudoParaunitary,
    ParseError,
)
from .groups import builtin_group
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
from .laurent import LaurentPoly, input_exponent, poly_from_text
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


class PipelineError(ParseError):
    """A step failed; the message carries the step name and residuals."""


def _resolve(env: dict, value, plain: str | None = None):
    """``value`` with every ``"$name"`` in it replaced by that binding.

    ``plain`` names an argument that takes a plain JSON value (one not in
    :data:`ARG_KINDS`): a binding anywhere in it is a PipelineError naming
    the argument."""
    if isinstance(value, str) and value.startswith("$"):
        name = value[1:]
        if name not in env:
            raise PipelineError(f"undefined binding {value!r}")
        if plain is not None:
            raise PipelineError(f"argument {plain!r} takes a plain JSON value, not the binding {value!r}")
        return env[name]
    if isinstance(value, list):
        return [_resolve(env, v, plain) for v in value]
    if isinstance(value, dict):
        return {k: _resolve(env, v, plain) for k, v in value.items()}
    return value


def _scalar(ring: RingDescriptor, text):
    """A constant given as text; text that is not a constant is a ParseError."""
    f = poly_from_text(str(text), ring)
    if not f.is_constant():
        raise ParseError(f"{f} is not constant")
    return f.constant_value()


def _vector(ring: RingDescriptor, entries):
    return [poly_from_text(str(e), ring) for e in entries]


def _dimension(n) -> int:
    """A matrix size given as a number, at most ``MAX_DIMENSION``."""
    return input_int(n, "size", 1, MAX_DIMENSION)


def _order(args, key: str):
    """A built-in group's order, when given; ``builtin_group`` checks its range."""
    return None if args.get(key) is None else input_int(args[key], key)


def _exponents(e):
    """One monomial's exponents: a bare power of z, or a {variable: power} map."""
    if isinstance(e, dict):
        return {v: input_exponent(x) for v, x in e.items()}
    return input_exponent(e)


def _int_vectors(vectors) -> list[list[int]]:
    """Integer coordinates, given as JSON numbers or strings; 1.9 or "1/2" is a ParseError."""
    try:
        coords = [[Fraction(x) for x in v] for v in vectors]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"vectors: coordinates must be integers: {exc}") from exc
    if any(c.denominator != 1 for v in coords for c in v):
        raise ParseError("vectors: coordinates must be integers")
    return [[int(c) for c in v] for v in coords]


def _assignment(ring: RingDescriptor, args) -> MonomialAssignment:
    coeffs = [_scalar(ring, c) for c in args["coeffs"]]
    return MonomialAssignment.build(ring, coeffs, [_exponents(e) for e in args["exponents"]])


def _plan(ring: RingDescriptor, args) -> ArrangementPlan:
    if "grid" in args:
        grid = args["grid"]
    else:
        table = builtin_group(args["grid_family"], _order(args, "grid_order"))
        grid = latin_square_from_group(table)
    cells = []
    for row in args["cells"]:
        out = []
        for cell in row:
            if isinstance(cell, str):
                out.append(cell)
            else:
                out.append((_scalar(ring, cell["coeff"]), _exponents(cell.get("exps", {}))))
        cells.append(out)
    return ArrangementPlan.build(ring, grid, cells)


def _groups(value):
    """An index partition: a list of lists of integer indices, or None."""
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(g, list) for g in value):
        raise PipelineError(f"argument 'groups' must be a list of lists of indices, got {_kind(value)}")
    return [[input_int(i, "group index") for i in g] for g in value]


_VARIANT_KEYS = tuple(f.name for f in fields(TangleVariant))


def _variant(value) -> TangleVariant:
    """A tangle variant: a JSON object over the fields of TangleVariant."""
    allowed = ", ".join(_VARIANT_KEYS)
    if not isinstance(value, dict):
        raise PipelineError(f"argument 'variant' must be an object with keys {allowed}, got {_kind(value)}")
    unknown = next((k for k in value if k not in _VARIANT_KEYS), None)
    if unknown is not None:
        raise PipelineError(f"argument 'variant' has unknown key {unknown!r}; allowed keys: {allowed}")
    return TangleVariant(**value)


def _require(report, exc_class, what: str):
    if not report.ok:
        raise exc_class(f"{what} failed:\n{report.summary()}")
    return report


def _verify_pseudo(ring, a):
    mono = is_pseudo_paraunitary(a["matrix"])
    if mono is None:
        raise NotPseudoParaunitary("W W* is not a unit monomial times the identity")
    return mono


# op name -> step function of (ring, args). Each entry calls its constructor by
# its module-level name at call time, so rebinding that name (a tracer, a test's
# monkeypatch) reaches every call; `idem` on the command line runs these too.
OPS = {
    "matrix": lambda ring, a: PolyMatrix(ring, [_vector(ring, row) for row in a["entries"]]),
    "identity": lambda ring, a: PolyMatrix.identity(ring, _dimension(a["n"])),
    "diagonal_set": lambda ring, a: diagonal_set(ring, _dimension(a["n"])),
    "group_set": lambda ring, a: from_group(builtin_group(a["family"], _order(a, "order")), ring),
    "basis_set": lambda ring, a: from_orthonormal_basis(
        ring, [_vector(ring, v) for v in a["vectors"]], _groups(a.get("groups"))
    ),
    "basis_finite_set": lambda ring, a: from_orthogonal_basis_finite(ring, _int_vectors(a["vectors"])),
    "rows_set": lambda ring, a: from_matrix_rows(a["matrix"]),
    "tensor_sets": lambda ring, a: tensor_sets(a["a"], a["b"]),
    "merge_set": lambda ring, a: merge(a["set"], _groups(a["groups"])),
    "realify_set": lambda ring, a: realify(a["set"]),
    "conjugate_set": lambda ring, a: conjugate_set(a["set"], a["by"]),
    "monomial_sum": lambda ring, a: monomial_sum(a["set"], _assignment(ring, a)),
    "block_arrangement": lambda ring, a: block_arrangement(a["set"], _plan(ring, a)),
    "belevitch": lambda ring, a: belevitch_block(
        PolyMatrix.column_vector(ring, _vector(ring, a["vector"])), a.get("var", "z")
    ),
    "spectral": lambda ring, a: spectral_unitary(
        ring, [_vector(ring, v) for v in a["vectors"]], [_scalar(ring, u) for u in a["units"]]
    ),
    "tangle": lambda ring, a: tangle(a["a"], a["b"], _variant(a.get("variant", {}))),
    "pseudo_from_rows": lambda ring, a: pseudo_from_rows(a["matrix"], _assignment(ring, a)),
    "monomial_clear": lambda ring, a: monomial_clear(a["matrix"]),
    "compose": lambda ring, a: compose(
        a["parts"], a.get("mode", "product"), a.get("expect_paraunitary", False)
    ),
    "specialize": lambda ring, a: specialize(
        a["matrix"], {name: _scalar(ring, v) for name, v in a["assign"].items()}
    ),
    # general substitution: values may be monomials (variable equating)
    "substitute": lambda ring, a: a["matrix"].substitute(
        {name: poly_from_text(str(v), ring) for name, v in a["assign"].items()}
    ),
    "factor_rank1": lambda ring, a: factor_rank1(a["matrix"]),
    "verify_paraunitary": lambda ring, a: _require(
        is_paraunitary(a["matrix"]), NotParaunitary, "paraunitarity"
    ),
    "verify_pseudo": _verify_pseudo,
    "verify_idemset": lambda ring, a: _require(
        verify_set(a["set"]), NotCompleteSet, "idempotent-set check"
    ),
    "determinant": lambda ring, a: determinant(a["matrix"]),
    "rank": lambda ring, a: rank(a["matrix"]),
    "trace": lambda ring, a: trace(a["matrix"]),
    "idempotent_inverse": lambda ring, a: idempotent_inverse(
        [_scalar(ring, c) for c in a["coeffs"]], a["set"]
    ),
    "idem_set": lambda ring, a: IdempotentSet(a["members"], a.get("labels")),
    "combine": lambda ring, a: combination([_scalar(ring, c) for c in a["coeffs"]], a["set"].members),
    "adjoint": lambda ring, a: a["matrix"].adjoint(),
    "member": lambda ring, a: a["set"].members[input_int(a["index"], "index", 0, len(a["set"]) - 1)],
    "scale": lambda ring, a: a["matrix"].scale(poly_from_text(str(a["by"]), ring)),
}


_MATRIX, _SET, _MATRICES = "a matrix", "an idempotent set", "a list of matrices"

# op name -> {argument: the kinds it accepts}, for every argument that takes
# an earlier binding ("$name"); execute_step checks them before the op runs.
ARG_KINDS = {
    "rows_set": {"matrix": (_MATRIX,)},
    "tensor_sets": {"a": (_SET,), "b": (_SET,)},
    "merge_set": {"set": (_SET,)},
    "realify_set": {"set": (_SET,)},
    "conjugate_set": {"set": (_SET,), "by": (_MATRIX,)},
    "monomial_sum": {"set": (_SET,)},
    "block_arrangement": {"set": (_SET,)},
    "tangle": {"a": (_MATRIX,), "b": (_MATRIX,)},
    "pseudo_from_rows": {"matrix": (_MATRIX,)},
    "monomial_clear": {"matrix": (_MATRIX,)},
    "compose": {"parts": (_MATRICES,)},
    "specialize": {"matrix": (_MATRIX,)},
    "substitute": {"matrix": (_MATRIX,)},
    "factor_rank1": {"matrix": (_MATRIX,)},
    "verify_paraunitary": {"matrix": (_MATRIX,)},
    "verify_pseudo": {"matrix": (_MATRIX,)},
    "verify_idemset": {"set": (_SET,)},
    "determinant": {"matrix": (_MATRIX,)},
    "rank": {"matrix": (_MATRIX,)},
    "trace": {"matrix": (_MATRIX,)},
    "idempotent_inverse": {"set": (_SET, _MATRICES)},
    "idem_set": {"members": (_MATRICES,)},
    "combine": {"set": (_SET,)},
    "adjoint": {"matrix": (_MATRIX,)},
    "member": {"set": (_SET,)},
    "scale": {"matrix": (_MATRIX,)},
}

_KIND_NAMES = {
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
    """What a pipeline value is, in the words of :data:`ARG_KINDS`."""
    if isinstance(value, PolyMatrix):
        return _MATRIX
    if isinstance(value, IdempotentSet):
        return _SET
    if isinstance(value, list):
        other = next((_kind(v) for v in value if not isinstance(v, PolyMatrix)), None)
        return _MATRICES if other is None else f"a list holding {other}"
    return _KIND_NAMES.get(type(value), f"a {type(value).__name__}")


def execute_step(ring: RingDescriptor, op: str, args: dict):
    """Run one op of ``OPS`` on arguments whose bindings are already resolved.

    An argument of a kind the op does not take (a set where it needs a
    matrix, say) is a PipelineError naming the argument, the kinds it takes
    and the kind given, raised before the op runs."""
    step = OPS.get(op)
    if step is None:
        raise PipelineError(f"unknown op {op!r}")
    for name, kinds in ARG_KINDS.get(op, {}).items():
        if name in args and _kind(args[name]) not in kinds:
            raise PipelineError(f"argument {name!r} must be {' or '.join(kinds)}, got {_kind(args[name])}")
    return step(ring, args)


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
        op = step["op"]
        bind = step.get("bind", f"step{i + 1}")
        if not isinstance(op, str) or not isinstance(bind, str):
            raise PipelineError(f"step {i + 1}: op and bind must be strings")
        if bind in env:
            raise PipelineError(f"binding {bind!r} defined twice")
        # an unknown op takes any argument, so execute_step can name the op
        kinds = ARG_KINDS.get(op, {}) if op in OPS else None
        try:
            args = {
                k: _resolve(env, v, None if kinds is None or k in kinds else k)
                for k, v in step.items()
                if k not in ("op", "bind")
            }
            env[bind] = execute_step(ring, op, args)
        except Exception as exc:
            raise PipelineError(f"step {i + 1} ({op} -> {bind}): {exc}") from exc
    return env
