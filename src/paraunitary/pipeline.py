"""Declarative construction pipelines: ordered named steps in one ring.

A pipeline document is JSON of the form

    {"ring": {...}, "steps": [{"op": ..., "bind": ..., ...args}, ...]}

Steps may reference earlier bindings as "$name".  Verification steps raise
on failure, so executing a pipeline re-proves every claimed identity.
"""

from __future__ import annotations

from fractions import Fraction

from .constructors import (
    ArrangementPlan,
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
from .hadamard import specialize
from .idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    factor_rank1,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    merge,
    realify,
    tensor_sets,
    verify_set,
)
from .laurent import input_exponent, poly_from_text
from .polymatrix import (
    PolyMatrix,
    determinant,
    idempotent_inverse,
    is_paraunitary,
    is_pseudo_paraunitary,
    rank,
    trace,
)
from .scalars import RingDescriptor


class PipelineError(ParseError):
    """A step failed; the message carries the step name and residuals."""


def _resolve(env: dict, value):
    if isinstance(value, str) and value.startswith("$"):
        name = value[1:]
        if name not in env:
            raise PipelineError(f"undefined binding {value!r}")
        return env[name]
    if isinstance(value, list):
        return [_resolve(env, v) for v in value]
    if isinstance(value, dict):
        return {k: _resolve(env, v) for k, v in value.items()}
    return value


def _scalar(ring: RingDescriptor, text):
    return poly_from_text(str(text), ring).constant_value()


def _vector(ring: RingDescriptor, entries):
    return [poly_from_text(str(e), ring) for e in entries]


def _exponents(e):
    """One monomial's exponents: a bare power of z, or a {variable: power} map."""
    if isinstance(e, dict):
        return {v: input_exponent(x) for v, x in e.items()}
    return input_exponent(e)


def int_vectors(vectors, where: str = "vectors") -> list[list[int]]:
    """Integer coordinates, given as JSON numbers or strings; 1.9 or "1/2" is a ParseError."""
    try:
        coords = [[Fraction(x) for x in v] for v in vectors]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: coordinates must be integers: {exc}") from exc
    if any(c.denominator != 1 for v in coords for c in v):
        raise ParseError(f"{where}: coordinates must be integers")
    return [[int(c) for c in v] for v in coords]


def _assignment(ring: RingDescriptor, coeffs, exponents) -> MonomialAssignment:
    parsed = [_scalar(ring, c) for c in coeffs]
    return MonomialAssignment.build(ring, parsed, [_exponents(e) for e in exponents])


def _plan(ring: RingDescriptor, args) -> ArrangementPlan:
    if "grid" in args:
        grid = args["grid"]
    else:
        table = builtin_group(args["grid_family"], args.get("grid_order"))
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


def _require(report, exc_class, what: str):
    if not report.ok:
        raise exc_class(f"{what} failed:\n{report.summary()}")
    return report


def execute_step(ring: RingDescriptor, op: str, args: dict, env: dict):
    if op == "matrix":
        return PolyMatrix(ring, [[poly_from_text(str(e), ring) for e in row] for row in args["entries"]])
    if op == "identity":
        return PolyMatrix.identity(ring, int(args["n"]))
    if op == "diagonal_set":
        return diagonal_set(ring, int(args["n"]))
    if op == "group_set":
        return from_group(builtin_group(args["family"], args.get("order")), ring)
    if op == "basis_set":
        vectors = [_vector(ring, v) for v in args["vectors"]]
        return from_orthonormal_basis(ring, vectors, args.get("groups"))
    if op == "basis_finite_set":
        return from_orthogonal_basis_finite(ring, int_vectors(args["vectors"]))
    if op == "rows_set":
        return from_matrix_rows(args["matrix"])
    if op == "tensor_sets":
        return tensor_sets(args["a"], args["b"])
    if op == "merge_set":
        return merge(args["set"], args["groups"])
    if op == "realify_set":
        return realify(args["set"])
    if op == "conjugate_set":
        return conjugate_set(args["set"], args["by"])
    if op == "monomial_sum":
        return monomial_sum(args["set"], _assignment(ring, args["coeffs"], args["exponents"]))
    if op == "block_arrangement":
        return block_arrangement(args["set"], _plan(ring, args))
    if op == "belevitch":
        v = PolyMatrix.column_vector(ring, _vector(ring, args["vector"]))
        return belevitch_block(v, args.get("var", "z"))
    if op == "spectral":
        vectors = [_vector(ring, v) for v in args["vectors"]]
        units = [_scalar(ring, u) for u in args["units"]]
        return spectral_unitary(ring, vectors, units)
    if op == "tangle":
        variant = TangleVariant(**args.get("variant", {}))
        return tangle(args["a"], args["b"], variant)
    if op == "pseudo_from_rows":
        return pseudo_from_rows(args["matrix"], _assignment(ring, args["coeffs"], args["exponents"]))
    if op == "monomial_clear":
        return monomial_clear(args["matrix"])
    if op == "compose":
        return compose(args["parts"], args.get("mode", "product"), args.get("expect_paraunitary", False))
    if op == "specialize":
        assign = {name: _scalar(ring, v) for name, v in args["assign"].items()}
        return specialize(args["matrix"], assign)
    if op == "substitute":
        # general substitution: values may be monomials (variable equating)
        assign = {name: poly_from_text(str(v), ring) for name, v in args["assign"].items()}
        return args["matrix"].substitute(assign)
    if op == "factor_rank1":
        return factor_rank1(args["matrix"])
    if op == "verify_paraunitary":
        return _require(is_paraunitary(args["matrix"]), NotParaunitary, "paraunitarity")
    if op == "verify_pseudo":
        mono = is_pseudo_paraunitary(args["matrix"])
        if mono is None:
            raise NotPseudoParaunitary("W W* is not a unit monomial times the identity")
        return mono
    if op == "verify_idemset":
        return _require(verify_set(args["set"]), NotCompleteSet, "idempotent-set check")
    if op == "determinant":
        return determinant(args["matrix"])
    if op == "rank":
        return rank(args["matrix"])
    if op == "trace":
        return trace(args["matrix"])
    if op == "idempotent_inverse":
        coeffs = [_scalar(ring, c) for c in args["coeffs"]]
        return idempotent_inverse(coeffs, args["set"])
    if op == "idem_set":
        return IdempotentSet(args["members"], args.get("labels"))
    if op == "combine":
        s = args["set"]
        coeffs = [_scalar(ring, c) for c in args["coeffs"]]
        acc = s.members[0].scale(coeffs[0])
        for c, e in zip(coeffs[1:], s.members[1:]):
            acc = acc + e.scale(c)
        return acc
    if op == "adjoint":
        return args["matrix"].adjoint()
    if op == "member":
        return args["set"].members[int(args["index"])]
    if op == "scale":
        return args["matrix"].scale(poly_from_text(str(args["by"]), ring))
    raise PipelineError(f"unknown op {op!r}")


def execute_pipeline(doc: dict) -> dict[str, object]:
    """Run a pipeline document; returns the environment of named results."""
    try:
        ring = RingDescriptor.from_json(doc["ring"])
        steps = doc["steps"]
    except (KeyError, TypeError) as exc:
        raise PipelineError(f"malformed pipeline: {exc}") from exc
    env: dict[str, object] = {}
    for i, step in enumerate(steps):
        if "op" not in step:
            raise PipelineError(f"step {i + 1} has no op")
        op = step["op"]
        bind = step.get("bind", f"step{i + 1}")
        if bind in env:
            raise PipelineError(f"binding {bind!r} defined twice")
        args = {k: v for k, v in step.items() if k not in ("op", "bind")}
        args = _resolve(env, args)
        try:
            env[bind] = execute_step(ring, op, args, env)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(f"step {i + 1} ({op} -> {bind}): {exc}") from exc
    return env
