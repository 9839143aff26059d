"""The package exports only what the package or a demo uses.

Each name that ``paraunitary/__init__.py`` imports must occur in the code of
another module of the package or of a demo, as a bare name or in an import.
An attribute does not count: ``a.conj()`` calls a method, whatever module
functions share its name.  Docstrings, comments and strings do not count
either, so a function that only the tests call, or that only documentation
mentions, fails here.
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
