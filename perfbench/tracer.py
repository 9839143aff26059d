"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces public functions and methods of the ``paraunitary``
modules with timing wrappers and puts the originals back on ``uninstall``.
Nothing inside the package is edited.

Two kinds of record are kept, both in memory until the run ends:

- **Spans** for calls at the ``polymatrix`` level and above: name, start,
  end, parent span, verdict id and self time.
- **Leaf counters** for the ``ExactScalar`` and ``LaurentPoly`` operators,
  ``RingDescriptor.degree`` and the text/division helpers of ``laurent``:
  one ``[calls, self_s]`` pair per (op, ring kind, parent span group). A
  record per leaf call would hold millions of entries on a full run.

A call's self time is its duration minus the time covered by the traced
calls (spans or leaves) made directly inside it, so the self times of every
record under a verdict add up to that verdict's duration.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, metric group) of every call recorded as a span.
SPAN_FUNCTIONS = [
    ("polymatrix", "mul", "polymatrix.mul"),
    ("polymatrix", "is_paraunitary", "polymatrix.is_paraunitary"),
    ("polymatrix", "is_pseudo_paraunitary", "polymatrix.is_pseudo_paraunitary"),
    ("polymatrix", "determinant", "polymatrix.determinant"),
    ("polymatrix", "determinant_cofactor", "polymatrix.determinant_cofactor"),
    ("polymatrix", "rank", "polymatrix.rank"),
    ("idempotents", "verify_set", "idempotents.verify_set"),
    ("idempotents", "from_orthonormal_basis", "idempotents.construct"),
    ("idempotents", "from_orthogonal_basis_finite", "idempotents.construct"),
    ("idempotents", "from_matrix_rows", "idempotents.construct"),
    ("idempotents", "from_group", "idempotents.construct"),
    ("idempotents", "diagonal_set", "idempotents.construct"),
    ("idempotents", "merge", "idempotents.construct"),
    ("idempotents", "realify", "idempotents.construct"),
    ("idempotents", "tensor_sets", "idempotents.construct"),
    ("idempotents", "conjugate_set", "idempotents.construct"),
    ("constructors", "tangle", "constructors.tangle"),
    ("constructors", "monomial_sum", "constructors.monomial_sum"),
    ("constructors", "simple_monomial_sum", "constructors.other"),
    ("constructors", "belevitch_block", "constructors.other"),
    ("constructors", "spectral_unitary", "constructors.other"),
    ("constructors", "block_arrangement", "constructors.other"),
    ("constructors", "pseudo_from_rows", "constructors.other"),
    ("constructors", "monomial_clear", "constructors.other"),
    ("constructors", "compose", "constructors.other"),
    ("groups", "embed_group_ring", "groups.embed_group_ring"),
    ("groups", "group_ring_idempotents", "groups.group_ring_idempotents"),
    ("hadamard", "specialize", "hadamard.specialize"),
    ("serialize", "dumps", "serialize.to_json"),
    ("serialize", "object_to_json", "serialize.to_json"),
    ("serialize", "matrix_to_json", "serialize.to_json"),
    ("serialize", "idemset_to_json", "serialize.to_json"),
    ("serialize", "poly_to_json", "serialize.to_json"),
    ("serialize", "matrix_from_json", "serialize.from_json"),
    ("serialize", "idemset_from_json", "serialize.from_json"),
    ("serialize", "grouptable_from_json", "serialize.from_json"),
    ("pipeline", "execute_step", "pipeline.execute_step"),
    ("catalog", "entry_matches", "catalog.entry_matches"),
    ("cli", "_load_json", "cli.load_json"),
    ("cli", "main", "cli.main"),
]

# (class, method names, span group) of methods recorded as spans.
SPAN_METHODS = [
    ("polymatrix", "PolyMatrix", ("adjoint",), "polymatrix.adjoint"),
]

# (module, class, method names, leaf op); aliases such as __radd__ share an op.
LEAF_METHODS = [
    ("scalars", "ExactScalar", ("__add__", "__radd__"), "scalars.add"),
    ("scalars", "ExactScalar", ("__sub__", "__rsub__"), "scalars.sub"),
    ("scalars", "ExactScalar", ("__neg__",), "scalars.neg"),
    ("scalars", "ExactScalar", ("__mul__", "__rmul__"), "scalars.mul"),
    ("scalars", "ExactScalar", ("__truediv__", "__rtruediv__"), "scalars.div"),
    ("scalars", "ExactScalar", ("__pow__",), "scalars.pow"),
    ("scalars", "ExactScalar", ("__eq__",), "scalars.eq"),
    ("scalars", "ExactScalar", ("inverse",), "scalars.inverse"),
    ("scalars", "ExactScalar", ("conj",), "scalars.conj"),
    ("laurent", "LaurentPoly", ("__add__", "__radd__"), "laurent.add"),
    ("laurent", "LaurentPoly", ("__sub__", "__rsub__"), "laurent.sub"),
    ("laurent", "LaurentPoly", ("__neg__",), "laurent.neg"),
    ("laurent", "LaurentPoly", ("__mul__", "__rmul__"), "laurent.mul"),
    ("laurent", "LaurentPoly", ("__pow__",), "laurent.pow"),
    ("laurent", "LaurentPoly", ("__eq__",), "laurent.eq"),
    ("laurent", "LaurentPoly", ("star",), "laurent.star"),
]

# (module, function, leaf op, argument index: 0 has a .ring, 1 is the ring).
LEAF_FUNCTIONS = [
    ("laurent", "exact_div", "laurent.exact_div", 0),
    ("laurent", "poly_to_text", "laurent.poly_to_text", 0),
    ("laurent", "poly_from_text", "laurent.poly_from_text", 1),
]

# Per-layer metrics: (name, unit, better). Every traced run reports all of
# them, so layers a workload does not use report 0.
PER_LAYER = [
    ("scalars.mul.cyclotomic.calls", "count", "lower"),
    ("scalars.mul.cyclotomic.self_s", "s", "lower"),
    ("scalars.mul.rational.calls", "count", "lower"),
    ("scalars.mul.rational.self_s", "s", "lower"),
    ("scalars.mul.prime_field.calls", "count", "lower"),
    ("scalars.mul.prime_field.self_s", "s", "lower"),
    ("scalars.inverse.calls", "count", "lower"),
    ("scalars.inverse.self_s", "s", "lower"),
    ("scalars.add.calls", "count", "lower"),
    ("scalars.add.self_s", "s", "lower"),
    ("scalars.conj.calls", "count", "lower"),
    ("scalars.degree.calls", "count", "lower"),
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.mul.term_pairs", "count", "lower"),
    ("laurent.exact_div.calls", "count", "lower"),
    ("laurent.exact_div.self_s", "s", "lower"),
    ("laurent.star.calls", "count", "lower"),
    ("laurent.star.self_s", "s", "lower"),
    ("laurent.poly_from_text.calls", "count", "lower"),
    ("laurent.poly_from_text.self_s", "s", "lower"),
    ("laurent.poly_to_text.calls", "count", "lower"),
    ("laurent.poly_to_text.self_s", "s", "lower"),
    ("polymatrix.mul.calls", "count", "lower"),
    ("polymatrix.mul.self_s", "s", "lower"),
    ("polymatrix.mul.term_pairs", "count", "lower"),
    ("polymatrix.is_paraunitary.calls", "count", "lower"),
    ("polymatrix.is_paraunitary.total_s", "s", "lower"),
    ("polymatrix.is_paraunitary.self_s", "s", "lower"),
    ("polymatrix.is_paraunitary.repeats", "count", "lower"),
    ("polymatrix.is_paraunitary.repeat_share", "ratio", "lower"),
    ("polymatrix.adjoint.calls", "count", "lower"),
    ("polymatrix.adjoint.self_s", "s", "lower"),
    ("polymatrix.is_pseudo_paraunitary.calls", "count", "lower"),
    ("polymatrix.is_pseudo_paraunitary.total_s", "s", "lower"),
    ("polymatrix.determinant.calls", "count", "lower"),
    ("polymatrix.determinant.self_s", "s", "lower"),
    ("polymatrix.determinant_cofactor.total_s", "s", "lower"),
    ("polymatrix.rank.calls", "count", "lower"),
    ("polymatrix.rank.self_s", "s", "lower"),
    ("idempotents.verify_set.calls", "count", "lower"),
    ("idempotents.verify_set.total_s", "s", "lower"),
    ("idempotents.verify_set.self_s", "s", "lower"),
    ("idempotents.verify_set.mul_calls", "count", "lower"),
    ("idempotents.construct.calls", "count", "lower"),
    ("idempotents.construct.total_s", "s", "lower"),
    ("constructors.tangle.calls", "count", "lower"),
    ("constructors.tangle.total_s", "s", "lower"),
    ("constructors.tangle.check_s", "s", "lower"),
    ("constructors.monomial_sum.total_s", "s", "lower"),
    ("constructors.monomial_sum.check_s", "s", "lower"),
    ("constructors.other.total_s", "s", "lower"),
    ("groups.embed_group_ring.calls", "count", "lower"),
    ("groups.embed_group_ring.total_s", "s", "lower"),
    ("groups.group_ring_idempotents.total_s", "s", "lower"),
    ("hadamard.specialize.calls", "count", "lower"),
    ("hadamard.specialize.total_s", "s", "lower"),
    ("serialize.to_json.total_s", "s", "lower"),
    ("serialize.from_json.total_s", "s", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("serialize.bytes_in", "bytes", "lower"),
    ("pipeline.execute_step.calls", "count", "lower"),
    ("pipeline.execute_step.self_s", "s", "lower"),
    ("catalog.entry_matches.total_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.leaf_calls", "count", "lower"),
    ("trace.coverage_share", "ratio", "higher"),
    ("trace.coverage_gap_s", "s", "lower"),
]

ROOT = "harness"
VERDICT = "verdict"


def _ring_of_self(args):
    return args[0].ring.kind


def _term_pairs_laurent(args):
    other = args[1] if len(args) > 1 else None
    if hasattr(other, "terms"):
        return len(args[0].terms) * len(other.terms)
    return 0


def _term_pairs_matrix(args):
    a, b = args[0], args[1]
    total = 0
    for arow in a.entries:
        sizes = [len(e.terms) for e in arow]
        for j in range(b.cols):
            total += sum(s * len(b.entries[k][j].terms) for k, s in enumerate(sizes) if s)
    return total


class Tracer:
    """Wraps the package's layers; one instance per traced run."""

    def __init__(self, package_name: str = "paraunitary"):
        self.package_name = package_name
        self.spans: list = []  # (name, group, start, end, parent, verdict, self_s)
        self.leaves: dict = {}  # op -> {(ring kind, parent group): [calls, self_s]}
        self.counts = defaultdict(int)  # term pairs, bytes, repeats
        # The call stack, kept as parallel lists for speed: time covered by
        # traced children of each open call, and the open spans' ids.
        self._child = [0.0]
        self._ids = [-1]
        self._where = [ROOT]  # group of the innermost open span
        self._verdict = None
        self._open = None  # the verdict span
        self._checked: list = []  # objects checked by is_paraunitary this verdict
        self._restore: list = []

    # -- verdict boundaries --

    def begin_verdict(self, verdict_id: str) -> None:
        self._verdict = verdict_id
        self._checked = []
        self._open = self._enter(VERDICT, VERDICT)

    def end_verdict(self) -> None:
        self._exit(self._open)
        self._verdict = None
        self._checked = []

    def _enter(self, name, group):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._ids[-1]
        self._ids.append(sid)
        prev = self._where[0]
        self._where[0] = group
        self._child.append(0.0)
        return sid, name, group, parent, prev, time.perf_counter()

    def _exit(self, opened):
        t1 = time.perf_counter()
        sid, name, group, parent, prev, t0 = opened
        dur = t1 - t0
        own = dur - self._child.pop()
        self._child[-1] += dur
        self._ids.pop()
        self._where[0] = prev
        self.spans[sid] = (name, group, t0, t1, parent, self._verdict, own)

    # -- wrappers --

    def _span_wrapper(self, fn, name, group):
        enter, exit_ = self._enter, self._exit
        hook = self._span_hook(group)
        child = self._child
        counts = self.counts
        clock = time.perf_counter
        count_bytes = name == "serialize.dumps"

        def traced(*args, **kwargs):
            if hook is not None:
                # counting is tracing overhead: keep it out of the caller's self time
                t0 = clock()
                hook(args)
                child[-1] += clock() - t0
            opened = enter(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(opened)
            if count_bytes:
                counts["serialize.bytes_out"] += len(result.encode())
            return result

        traced.__wrapped__ = fn
        return traced

    def _span_hook(self, group):
        counts = self.counts
        if group == "polymatrix.mul":
            def hook(args):
                counts["polymatrix.mul.term_pairs"] += _term_pairs_matrix(args)
            return hook
        if group == "polymatrix.is_paraunitary":
            def hook(args):
                m = args[0]
                if any(m is seen for seen in self._checked):
                    counts["polymatrix.is_paraunitary.repeats"] += 1
                else:
                    self._checked.append(m)
            return hook
        if group == "cli.load_json":
            def hook(args):
                counts["serialize.bytes_in"] += os.path.getsize(args[0])
            return hook
        return None

    def _leaf_wrapper(self, fn, op, ring_of, count=None):
        # the hot path: millions of calls per run, so no frames, no method calls
        child = self._child
        where = self._where
        cells = self.leaves.setdefault(op, {})
        counts = self.counts
        clock = time.perf_counter
        pairs_key = op + ".term_pairs"

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                own = dur - child.pop()
                child[-1] += dur
                key = (ring_of(args), where[0])
                cell = cells.get(key)
                if cell is None:
                    cells[key] = [1, own]
                else:
                    cell[0] += 1
                    cell[1] += own
                if count is not None:
                    counts[pairs_key] += count(args)

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall --

    def _modules(self):
        prefix = self.package_name + "."
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package_name or name.startswith(prefix))
        ]

    def _module(self, short):
        return sys.modules[f"{self.package_name}.{short}"]

    def _replace_everywhere(self, original, wrapper):
        """Rebind every module-level name that holds ``original``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_attr(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod, attr, group in SPAN_FUNCTIONS:
            fn = getattr(self._module(mod), attr)
            self._replace_everywhere(fn, self._span_wrapper(fn, f"{mod}.{attr}", group))
        for mod, cls_name, attrs, group in SPAN_METHODS:
            cls = getattr(self._module(mod), cls_name)
            for attr in attrs:
                fn = cls.__dict__[attr]
                self._replace_attr(cls, attr, self._span_wrapper(fn, f"{cls_name}.{attr}", group))
        for mod, cls_name, attrs, op in LEAF_METHODS:
            cls = getattr(self._module(mod), cls_name)
            count = _term_pairs_laurent if op == "laurent.mul" else None
            # aliases (__mul__ / __rmul__) are one function object: wrap it once
            wrapped = {}
            for attr in attrs:
                fn = cls.__dict__[attr]
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._leaf_wrapper(fn, op, _ring_of_self, count)
                self._replace_attr(cls, attr, wrapped[id(fn)])
        ring_cls = self._module("scalars").RingDescriptor
        degree = ring_cls.__dict__["degree"]
        getter = self._leaf_wrapper(degree.fget, "scalars.degree", lambda args: args[0].kind)
        self._replace_attr(ring_cls, "degree", property(getter))
        for mod, attr, op, ring_arg in LEAF_FUNCTIONS:
            fn = getattr(self._module(mod), attr)
            ring_of = _ring_of_self if ring_arg == 0 else (lambda args: args[1].kind)
            self._replace_everywhere(fn, self._leaf_wrapper(fn, op, ring_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results --

    def write_spans(self, path) -> int:
        """One JSON array per line: name, start, end, parent, verdict, self_s."""
        with open(path, "w") as fh:
            for name, _group, t0, t1, parent, verdict, self_s in self.spans:
                fh.write(json.dumps([name, round(t0, 7), round(t1, 7), parent, verdict, round(self_s, 7)]))
                fh.write("\n")
        return len(self.spans)

    def metrics(self, raw_run_s: float, run_s: float, untraced_run_s: float) -> dict:
        """Every PER_LAYER metric, aggregated from spans and leaf counters.

        ``raw_run_s`` is the traced pass's summed verdict latency as measured;
        ``run_s`` and ``untraced_run_s`` are the traced and untraced figures at
        reference speed, whose ratio is the tracing overhead."""
        spans = self.spans
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        check_s = defaultdict(float)
        mul_under_verify = 0
        for name, group, t0, t1, parent, _verdict, own in spans:
            calls[group] += 1
            self_s[group] += own
            parent_group = spans[parent][1] if parent >= 0 else ROOT
            # total time counts only the outermost span of a group
            ancestor, nested = parent, False
            while ancestor >= 0:
                if spans[ancestor][1] == group:
                    nested = True
                    break
                ancestor = spans[ancestor][4]
            if not nested:
                total_s[group] += t1 - t0
            if group == "polymatrix.is_paraunitary":
                check_s[parent_group] += t1 - t0
            if group == "polymatrix.mul" and parent_group == "idempotents.verify_set":
                mul_under_verify += 1
        leaf_calls = defaultdict(int)
        leaf_self = defaultdict(float)
        for op, cells in self.leaves.items():
            for (ring, _parent), (n, own) in cells.items():
                for key in (op, f"{op}.{ring}"):
                    leaf_calls[key] += n
                    leaf_self[key] += own
        # every traced call's time is either its own self time or inside a
        # traced child, so this sum is the time covered by verdict spans
        covered = sum(self_s.values()) + sum(leaf_self[op] for op in self.leaves)
        pu_calls = calls["polymatrix.is_paraunitary"]
        repeats = self.counts["polymatrix.is_paraunitary.repeats"]
        values = {
            "laurent.mul.term_pairs": self.counts["laurent.mul.term_pairs"],
            "polymatrix.mul.term_pairs": self.counts["polymatrix.mul.term_pairs"],
            "polymatrix.is_paraunitary.repeats": repeats,
            "polymatrix.is_paraunitary.repeat_share": repeats / pu_calls if pu_calls else 0.0,
            "idempotents.verify_set.mul_calls": mul_under_verify,
            "constructors.tangle.check_s": check_s["constructors.tangle"],
            "constructors.monomial_sum.check_s": check_s["constructors.monomial_sum"],
            "serialize.bytes_out": self.counts["serialize.bytes_out"],
            "serialize.bytes_in": self.counts["serialize.bytes_in"],
            "trace.run_s": run_s,
            "trace.untraced_run_s": untraced_run_s,
            "trace.overhead_ratio": run_s / untraced_run_s,
            "trace.spans": len(spans),
            "trace.leaf_calls": sum(leaf_calls[op] for op in self.leaves),
            "trace.coverage_share": covered / raw_run_s,
            "trace.coverage_gap_s": raw_run_s - covered,
        }
        out = {}
        for name, unit, _better in PER_LAYER:
            if name in values:
                value = values[name]
            else:
                group, _, field = name.rpartition(".")
                if group.split(".")[0] in ("scalars", "laurent"):
                    value = leaf_calls[group] if field == "calls" else leaf_self[group]
                else:
                    value = {"calls": calls, "self_s": self_s, "total_s": total_s}[field][group]
            out[name] = {"value": value, "unit": unit}
        return out
