"""No function, class or method in ``src/lpcal`` lives only for the tests.

Every top-level ``def`` and ``class`` of a package module, and every public
method or property of a package class, must be referenced (by name,
attribute or import) from some ``src/lpcal`` module other than
``__init__.py``; re-exporting a name is not a use.  A helper only the tests
call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lpcal"

# Public names kept without a caller in the package, each with its reason.
ALLOWED = {
    "exact_lp_error": "the README's 'Library use' example calls it",
}


def _modules() -> dict[str, ast.Module]:
    paths = sorted(SRC.glob("*.py"))
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def unreferenced() -> set[str]:
    """Top-level defs and classes no package module but ``__init__.py`` refers to."""
    modules = _modules()
    used = set().union(*(_referenced(t) for name, t in modules.items() if name != "__init__.py"))
    defined = {
        node.name
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return defined - used


def unreferenced_members() -> set[str]:
    """``Class.name`` of the public methods and properties no package module refers to."""
    modules = _modules()
    used = set().union(*(_referenced(t) for name, t in modules.items() if name != "__init__.py"))
    return {
        f"{cls.name}.{node.name}"
        for tree in modules.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in used
    }


def test_no_test_only_methods():
    extra = sorted(unreferenced_members())
    assert not extra, f"only the tests use {extra}: move them to tests/oracles.py"


def test_no_test_only_helpers():
    extra = sorted(unreferenced() - set(ALLOWED))
    assert not extra, f"only the tests use {extra}: move them to tests/oracles.py"


def test_allowlist_is_current():
    # an allowed name that gains a caller in the package no longer needs its entry
    assert set(ALLOWED) <= unreferenced()
