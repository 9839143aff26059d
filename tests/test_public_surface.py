"""The package exports only what the package or a demo uses.

Each name that ``paraunitary/__init__.py`` imports must occur in the code of
another module of the package or of a demo, as a bare name or in an import.
An attribute does not count: ``a.conj()`` calls a method, whatever module
functions share its name.  Docstrings, comments and strings do not count
either, so a function that only the tests call, or that only documentation
mentions, fails here.

Each parameter of a function or lambda in ``src/`` must be read in its body
(a nested function counts), except for the few that ``UNREAD`` lists with
the reason their signature is fixed.

Each function, method and class defined in ``src/`` must be read by name
(as a bare name, an attribute or an import) in ``src/`` or a demo, outside
its own body, except for what ``NO_READER`` lists; a dunder method is read
by the interpreter.

The packed layout of ``laurent`` is its own and its text grammar's: no
other module of the package imports the division, the norm trace or a
private name from it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paraunitary"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def _used() -> set[str]:
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    modules += sorted((ROOT / "demos").glob("*.py"))
    used = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(a.name for a in node.names)
    return used


def test_every_exported_name_is_used_by_the_package_or_a_demo():
    used = _used()
    assert [name for name in _exported() if name not in used] == []


# (module, function, parameter) that no body reads, each on purpose; "*"
# stands for every function of the module
UNREAD = {
    # the argument readers and step functions of the pipeline share the one
    # signature (ring, value) of its dispatch tables, and most read no ring
    ("pipeline.py", "*", "ring"),
    # the immutability guard refuses every attribute write, whatever it is given
    ("scalars.py", "__setattr__", "self"),
    ("scalars.py", "__setattr__", "a"),
}


def _unread_parameters() -> list[tuple[str, str, str]]:
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread += [
                (path.name, name, p.arg)
                for p in params
                if p.arg not in read and not {(path.name, name, p.arg), (path.name, "*", p.arg)} & UNREAD
            ]
    return unread


def test_every_parameter_of_a_function_in_src_is_read():
    assert _unread_parameters() == []


# (module, name) of each definition in src/ that nothing in src/ or a demo
# reads, each kept on purpose: perfbench/tracer.py wraps both by name, and
# the tests use exact_div as their reference division
NO_READER = [
    ("laurent.py", "exact_div"),
    ("serialize.py", "grouptable_from_json"),
]


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.name for a in node.names)


def _unread_definitions() -> list[tuple[str, str]]:
    reads, defs = Counter(), []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(_names(tree))
        if path.parent == PACKAGE:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            defs += [(path.name, node) for node in ast.walk(tree) if isinstance(node, kinds)]
    return [
        (module, node.name)
        for module, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] <= Counter(_names(node))[node.name]
    ]


def test_every_definition_in_src_is_read_by_src_or_a_demo():
    # a listed name that gains a reader leaves the list too
    assert _unread_definitions() == NO_READER


# names of laurent that only laurent and its text grammar may import, beside
# every name that starts with "_"
LAYOUT = {"Divisor", "IntegralRows", "norm_trace"}


def test_only_laurent_and_its_text_grammar_import_the_packed_layout():
    reached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("laurent.py", "laurent_text.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "laurent":
                reached += [(path.name, a.name) for a in node.names if a.name in LAYOUT or a.name.startswith("_")]
    assert reached == []
