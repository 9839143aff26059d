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
"""

import ast
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
