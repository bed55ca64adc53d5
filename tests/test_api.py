"""No function, class, method or dataclass field in ``src/lpcal`` lives only for the tests.

Every top-level ``def`` and ``class`` of a package module, and every public
method or property of a package class, must be referenced (by name,
attribute or import) from some ``src/lpcal`` module other than
``__init__.py``; re-exporting a name is not a use.  Every field of a package
dataclass must be read as an attribute by such a module; setting it is not
a use.  A helper only the tests call belongs in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lpcal"

# Public names kept without a caller in the package, each with its reason.
ALLOWED = {
    "exact_lp_error": "the README's 'Library use' example calls it",
}

# Dataclass fields kept without a reader in the package, each with its reason.
ALLOWED_FIELDS: dict[str, str] = {
    "RunTrace.t_max": "the benchmark's tracer reads it from calibrate's result",
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated with ``@dataclass`` or ``@dataclass(...)``."""
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return False


def _dataclass_field_nodes(modules: dict[str, ast.Module]):
    """``(class, field node)`` of every field of a package dataclass."""
    return [
        (cls, node)
        for tree in modules.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def dataclass_fields(modules: dict[str, ast.Module]) -> set[str]:
    """``Class.name`` of every field of a package dataclass."""
    return {f"{cls.name}.{node.target.id}" for cls, node in _dataclass_field_nodes(modules)}


def _named(annotation, classes: set[str]) -> str | None:
    """The package class an annotation names, if it is a bare class name."""
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    return None


def _receiver_classes(
    tree: ast.Module, classes: set[str], fields: dict[str, str], returns: dict[str, str]
) -> dict[int, str]:
    """Package class of each receiver the AST shows to hold one, by ``id`` of its node.

    In a function, ``self`` in a method holds its class, and a parameter
    annotated with a package class holds that class.  So does a local name
    whose every binding is ``x = C(...)`` for a package class ``C``, or
    ``x = g(...)`` for a package function ``g`` annotated ``-> C``; any other
    binding leaves the name unresolved.  ``x.f`` holds class ``D`` where
    ``x`` holds a dataclass whose field ``f`` is annotated ``D`` (``fields``
    maps ``"C.f"`` to ``D``).
    """
    methods = {
        id(node): cls.name
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    known: dict[int, str] = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound: dict[str, set] = {}
        args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        for arg in args:
            bound.setdefault(arg.arg, set()).add(_named(arg.annotation, classes))
        if id(func) in methods and args and args[0].arg == "self":
            bound["self"] = {methods[id(func)]}
        made = {}  # id of an assigned Name -> class of the call assigned to it
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                call = node.value
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                    name = call.func.id
                    made[id(node.targets[0])] = name if name in classes else returns.get(name)
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.setdefault(node.id, set()).add(made.get(id(node)))
        types = {name: cls for name, found in bound.items() if len(found) == 1 for cls in found}

        def holds(node):
            if isinstance(node, ast.Name):
                return types.get(node.id)  # None where a binding is not a package class
            if isinstance(node, ast.Attribute):
                cls = holds(node.value)
                return fields.get(f"{cls}.{node.attr}") if cls else None
            return None

        for node in ast.walk(func):
            cls = holds(node)
            if cls:
                known[id(node)] = cls
    return known


def unread_fields() -> set[str]:
    """``Class.name`` of the dataclass fields no package module but ``__init__.py`` reads.

    A read ``x.name`` counts for class ``C`` alone where the AST shows ``x``
    to be a ``C`` (see ``_receiver_classes``).  A read through any other
    receiver counts for every field called ``name``, unless two or more
    dataclasses have a field of that name: then it counts for none.
    """
    modules = _modules()
    classes = {
        cls.name for tree in modules.values() for cls in tree.body if isinstance(cls, ast.ClassDef)
    }
    field_nodes = _dataclass_field_nodes(modules)
    fields = {
        f"{cls.name}.{node.target.id}": _named(node.annotation, classes)
        for cls, node in field_nodes
        if _named(node.annotation, classes)
    }
    returns = {
        func.name: _named(func.returns, classes)
        for tree in modules.values()
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and _named(func.returns, classes)
    }
    names = Counter(node.target.id for _, node in field_nodes)
    typed, untyped = set(), set()
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        known = _receiver_classes(tree, classes, fields, returns)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                cls = known.get(id(node.value))
                if cls is not None:
                    typed.add(f"{cls}.{node.attr}")
                elif names[node.attr] < 2:
                    untyped.add(node.attr)
    return {
        f for f in dataclass_fields(modules) if f not in typed and f.split(".")[1] not in untyped
    }


def test_no_test_only_fields():
    extra = sorted(unread_fields() - set(ALLOWED_FIELDS))
    assert not extra, f"no package module reads the fields {extra}: drop them"


def test_no_field_shares_an_ndarray_attribute_name():
    # unread_fields matches a receiver of unknown class by attribute name, so a
    # field named like an array attribute (``size``, ``shape``) would pass as
    # read wherever an array's is
    clashes = sorted(f for f in dataclass_fields(_modules()) if f.split(".")[1] in dir(np.ndarray))
    assert not clashes, f"the fields {clashes} share a name with an np.ndarray attribute"


def test_field_allowlist_is_current():
    assert set(ALLOWED_FIELDS) <= unread_fields()


def test_no_test_only_methods():
    extra = sorted(unreferenced_members())
    assert not extra, f"only the tests use {extra}: move them to tests/oracles.py"


def test_no_test_only_helpers():
    extra = sorted(unreferenced() - set(ALLOWED))
    assert not extra, f"only the tests use {extra}: move them to tests/oracles.py"


def test_allowlist_is_current():
    # an allowed name that gains a caller in the package no longer needs its entry
    assert set(ALLOWED) <= unreferenced()


# The algorithm's modules: they see the world only through its binned law, the
# arrays ``calibrate`` computes from it, and never its features.
ALGORITHM_MODULES = ("estimation.py", "partitions.py")
WORLD_NAMES = {"World", "mass", "conditional"}


def world_uses(tree: ast.Module) -> list[str]:
    """Each name, import or attribute in ``tree`` that is ``World``, ``mass`` or ``conditional``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in WORLD_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and {node.name, node.asname} & WORLD_NAMES:
            found.append(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in WORLD_NAMES:
            found.append(f".{node.attr}")
    return found


@pytest.mark.parametrize("module", ALGORITHM_MODULES)
def test_algorithm_never_sees_the_world(module):
    uses = world_uses(_modules()[module])
    assert not uses, f"{module} uses {sorted(set(uses))}: hand it a binned law instead"


def test_readme_library_use_runs(capsys):
    # the reason ALLOWED keeps exact_lp_error: the example must keep running
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "exact_lp_error" in code
    exec(compile(code, "README.md", "exec"), {})
    iterations, held, err = capsys.readouterr().out.split()
    assert int(iterations) >= 0 and held == "True"
    assert 0.0 <= float(err) <= 0.3  # within the example's eps
