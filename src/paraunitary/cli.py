"""Command-line front end: construct, verify, specialize, inspect, reproduce.

Exit codes are a stable contract for scripting: 0 = verified/ok,
1 = verification failed, 2 = input or usage error, 3 = internal error (a
constructor's output failed its own exact self-check: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .catalog import CATALOG, catalog_ids, entry_matches, get_entry, run_entry
from .errors import ExactAlgebraError, InternalCheckError, ParseError
from .groups import BUILTIN_FAMILIES, builtin_group
from .hadamard import hadamard_check, specialize
from .idempotents import (
    conjugate_set,
    diagonal_set,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    merge,
    realify,
    tensor_sets,
    verify_set,
)
from .laurent import poly_from_text, poly_to_text
from .pipeline import execute_pipeline, int_vectors
from .polymatrix import determinant, is_paraunitary, is_pseudo_paraunitary, rank, trace
from .scalars import QQ, RingDescriptor, cyclotomic, prime_field
from .serialize import (
    dumps,
    idemset_from_json,
    idemset_to_json,
    matrix_from_json,
    object_to_json,
)

OK, FAILED, BAD_INPUT, INTERNAL_ERROR = 0, 1, 2, 3


def _ring_from_flags(args) -> RingDescriptor:
    kind = getattr(args, "ring", "rational") or "rational"
    if kind == "rational":
        return QQ
    if kind == "cyclotomic":
        if not getattr(args, "conductor", None):
            raise ParseError("--ring cyclotomic needs --conductor")
        return cyclotomic(args.conductor)
    if kind == "prime_field":
        if not getattr(args, "prime", None):
            raise ParseError("--ring prime_field needs --prime")
        return prime_field(args.prime)
    raise ParseError(f"unknown ring {kind!r}")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_vectors(path: str) -> list:
    doc = _load_json(path)
    vectors = doc.get("vectors") if isinstance(doc, dict) else None
    if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
        raise ParseError(f'{path}: expected an object {{"vectors": [[...], ...]}}')
    return vectors


def _emit(args, payload: dict | str):
    text = payload if isinstance(payload, str) else dumps(payload)
    if getattr(args, "out", None):
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_groups(spec: str) -> list[list[int]]:
    """'1/2,3' -> [[0], [1, 2]] (1-based on the command line)."""
    groups = []
    for part in spec.split("/"):
        groups.append([int(x) - 1 for x in part.split(",") if x])
    return groups


def cmd_idem(args) -> int:
    ring = _ring_from_flags(args)
    if args.idem_cmd == "group":
        table = builtin_group(args.family, args.order)
        s = from_group(table, ring)
    elif args.idem_cmd == "basis":
        vectors = [[poly_from_text(str(x), ring) for x in v] for v in _load_vectors(args.vectors)]
        groups = _parse_groups(args.groups) if args.groups else None
        s = from_orthonormal_basis(ring, vectors, groups)
    elif args.idem_cmd == "basis-finite":
        s = from_orthogonal_basis_finite(ring, int_vectors(_load_vectors(args.vectors), args.vectors))
    elif args.idem_cmd == "diagonal":
        s = diagonal_set(ring, args.n)
    elif args.idem_cmd == "rows":
        s = from_matrix_rows(matrix_from_json(_load_json(args.matrix)))
    elif args.idem_cmd == "tensor":
        a = idemset_from_json(_load_json(args.a))
        b = idemset_from_json(_load_json(args.b))
        s = tensor_sets(a, b)
    elif args.idem_cmd == "merge":
        s = merge(idemset_from_json(_load_json(args.set)), _parse_groups(args.groups))
    elif args.idem_cmd == "realify":
        s = realify(idemset_from_json(_load_json(args.set)))
    elif args.idem_cmd == "conjugate":
        s = conjugate_set(
            idemset_from_json(_load_json(args.set)),
            matrix_from_json(_load_json(args.by)),
        )
    else:  # pragma: no cover - argparse guards
        raise ParseError(f"unknown idem subcommand {args.idem_cmd!r}")
    report = verify_set(s)
    _emit(args, idemset_to_json(s))
    print(report.summary(), file=sys.stderr)
    return OK if report.ok else FAILED


def cmd_build(args) -> int:
    from .errors import NotCompleteSet, NotParaunitary, NotPseudoParaunitary
    from .pipeline import PipelineError

    doc = _load_json(args.pipeline)
    try:
        env = execute_pipeline(doc)
    except PipelineError as exc:
        cause = exc.__cause__
        if isinstance(cause, InternalCheckError):
            print(f"internal error: {exc}", file=sys.stderr)
            return INTERNAL_ERROR
        print(f"build failed: {exc}", file=sys.stderr)
        if isinstance(cause, (NotParaunitary, NotPseudoParaunitary, NotCompleteSet)):
            return FAILED
        return BAD_INPUT
    outputs = {name: object_to_json(value) for name, value in env.items()}
    _emit(args, {"outputs": outputs})
    return OK


def cmd_verify(args) -> int:
    doc = _load_json(args.file)
    mode = args.mode
    if mode == "idemset":
        s = idemset_from_json(doc, check=False)
        report = verify_set(s)
        print(report.summary())
        return OK if report.ok else FAILED
    m = matrix_from_json(doc)
    if mode == "paraunitary":
        report = is_paraunitary(m)
        print(report.summary())
        if not report.ok and report.residual is not None:
            print("residual (M M* - I):")
            print(report.residual)
        return OK if report.ok else FAILED
    if mode == "pseudo":
        mono = is_pseudo_paraunitary(m)
        if mono is None:
            print("pseudo-paraunitary: FAIL")
            return FAILED
        print(f"pseudo-paraunitary: PASS with p = {poly_to_text(mono)}")
        return OK
    if mode == "hadamard":
        report = hadamard_check(m)
        print(report.summary())
        return OK if report.ok and report.is_hadamard else FAILED
    raise ParseError(f"unknown mode {mode!r}")


def cmd_specialize(args) -> int:
    m = matrix_from_json(_load_json(args.matrix))
    assign = {}
    for item in args.assign.split(","):
        if not item:
            continue
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"bad assignment {item!r}; use var=value")
        assign[name.strip()] = poly_from_text(value, m.ring).constant_value()
    report = specialize(m, assign)
    _emit(args, object_to_json(report))
    print(report.summary(), file=sys.stderr)
    return OK if report.ok else FAILED


def cmd_det(args) -> int:
    m = matrix_from_json(_load_json(args.matrix))
    d = determinant(m)
    if args.format == "json":
        _emit(args, {"determinant": poly_to_text(d)})
    else:
        print(poly_to_text(d))
    return OK


def cmd_rank(args) -> int:
    m = matrix_from_json(_load_json(args.matrix))
    r = rank(m)
    t = trace(m)
    if args.format == "json":
        _emit(args, {"rank": r, "trace": str(t)})
    else:
        print(f"rank {r}, trace {t}")
    return OK


def cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        for entry in CATALOG:
            print(f"{entry.id}: {entry.title}")
        print(f"{len(CATALOG)} entries")
        return OK
    ids = [args.id] if args.id else catalog_ids()
    failures = []
    for entry_id in ids:
        entry = get_entry(entry_id)
        if args.catalog_cmd == "run":
            ok, diff = entry_matches(entry)
            print(f"{entry_id}: {'PASS' if ok else 'FAIL'}")
            if not ok:
                failures.append(entry_id)
                if diff:
                    print(diff)
        elif args.catalog_cmd == "diff":
            ok, diff = entry_matches(entry)
            if ok:
                print(f"{entry_id}: no differences")
            else:
                failures.append(entry_id)
                print(f"{entry_id}:\n{diff}")
        elif args.catalog_cmd == "show":
            print(dumps({"id": entry.id, "title": entry.title, "outputs": run_entry(entry)}), end="")
    return OK if not failures else FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraunitary",
        description="Exact paraunitary matrices from complete symmetric orthogonal idempotent sets.",
    )
    parser.add_argument("--seed", type=int, default=20240811, help="seed for randomized helpers")

    def add_ring_flags(p):
        p.add_argument("--ring", choices=("rational", "cyclotomic", "prime_field"), default="rational")
        p.add_argument("--conductor", type=int, help="cyclotomic conductor N")
        p.add_argument("--prime", type=int, help="prime for a prime field")
        p.add_argument("--out", help="write the primary output to this file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    idem = sub.add_parser("idem", help="construct and verify idempotent sets")
    idem_sub = idem.add_subparsers(dest="idem_cmd", required=True)
    p = idem_sub.add_parser("group", help="group-ring idempotents of a built-in family")
    p.add_argument("--family", choices=BUILTIN_FAMILIES, required=True)
    p.add_argument("--order", type=int)
    add_ring_flags(p)
    p = idem_sub.add_parser("basis", help="projectors of an orthonormal basis")
    p.add_argument("--vectors", required=True, help='JSON file {"vectors": [[...], ...]}')
    p.add_argument("--groups", help="1-based partition like 1/2,3")
    add_ring_flags(p)
    p = idem_sub.add_parser("basis-finite", help="orthogonal basis over a prime field")
    p.add_argument("--vectors", required=True)
    add_ring_flags(p)
    p = idem_sub.add_parser("diagonal", help="diagonal unit set")
    p.add_argument("--n", type=int, required=True)
    add_ring_flags(p)
    p = idem_sub.add_parser("rows", help="rank-1 idempotents from matrix rows")
    p.add_argument("--matrix", required=True)
    add_ring_flags(p)
    p = idem_sub.add_parser("tensor", help="tensor product of two sets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_ring_flags(p)
    p = idem_sub.add_parser("merge", help="merge members by a partition")
    p.add_argument("--set", required=True)
    p.add_argument("--groups", required=True)
    add_ring_flags(p)
    p = idem_sub.add_parser("realify", help="combine conjugate pairs")
    p.add_argument("--set", required=True)
    add_ring_flags(p)
    p = idem_sub.add_parser("conjugate", help="conjugate a set by a paraunitary matrix")
    p.add_argument("--set", required=True)
    p.add_argument("--by", required=True)
    add_ring_flags(p)

    p = sub.add_parser("build", help="execute a pipeline file")
    p.add_argument("pipeline")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="verify a matrix or set file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("paraunitary", "pseudo", "hadamard", "idemset"), required=True)

    p = sub.add_parser("specialize", help="assign unit-modulus values to all variables")
    p.add_argument("--matrix", required=True)
    p.add_argument("--assign", required=True, help="comma list like z=1,t=-1")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("det", help="exact determinant of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("rank", help="exact rank and trace of a scalar matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("catalog", help="list, run, or diff the regression catalog")
    p.add_argument("catalog_cmd", choices=("list", "run", "diff", "show"))
    p.add_argument("--id")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs milliseconds per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "idem": cmd_idem,
        "build": cmd_build,
        "verify": cmd_verify,
        "specialize": cmd_specialize,
        "det": cmd_det,
        "rank": cmd_rank,
        "catalog": cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except ExactAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
