"""Imports only go downward, and every name has one home.

Every import of a package module sits at the top level of its module, never in
a function body, and the module-level imports of the package form a DAG, so
no module needs a late import to break a cycle.  A name read from a package
module, by ``from .m import n`` or as ``alias.n``, is one that m defines
itself, never one that m merely imports.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nichols_fusion"
PACKAGE = SRC.name


def _package_modules(node):
    """The package modules an import statement names, as module stems."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
        return [n.split(".")[1] for n in names if n.startswith(PACKAGE + ".")]
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            if node.module and node.module.startswith(PACKAGE + "."):
                return [node.module.split(".")[1]]
            if node.module == PACKAGE:
                return [a.name for a in node.names]
            return []
        if node.module:  # from .cyclo import ...
            return [node.module.split(".")[0]]
        return [a.name for a in node.names]  # from . import ydspace
    return []


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_no_function_body_imports_a_package_module():
    late = []
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [
                    (module, fn.name, node.lineno)
                    for node in ast.walk(fn)
                    if _package_modules(node)
                ]
    assert late == []


def test_module_level_imports_form_a_dag():
    graph = {
        module: {dep for node in tree.body for dep in _package_modules(node)}
        for module, tree in _trees().items()
    }
    assert all(dep in graph for deps in graph.values() for dep in deps), graph
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert set(order) == set(graph)


def test_package_imports_are_recognized():
    late = ast.parse("def f():\n    from .ydspace import VerificationError\n")
    assert _package_modules(late.body[0].body[0]) == ["ydspace"]
    assert _package_modules(ast.parse("from . import loop as lp").body[0]) == ["loop"]
    assert _package_modules(ast.parse("import nichols_fusion.cli").body[0]) == ["cli"]
    assert _package_modules(ast.parse("import hashlib").body[0]) == []


def _defined(tree):
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _borrowed_reads(trees):
    """(reader, line, module, name) for each package name read from a module
    that does not define it."""
    defined = {module: _defined(tree) for module, tree in trees.items()}
    borrowed = []
    for reader, tree in trees.items():
        aliases = {}  # local name -> package module it is bound to
        for node in tree.body:
            mods = _package_modules(node)
            if not mods:
                continue
            if isinstance(node, ast.ImportFrom) and node.module not in (None, PACKAGE):
                (module,) = mods  # from .m import n, ...: each n must be m's own
                borrowed += [
                    (reader, node.lineno, module, a.name)
                    for a in node.names
                    if a.name not in defined[module]
                ]
            elif isinstance(node, ast.ImportFrom):  # from . import m as alias
                aliases.update((a.asname or a.name, a.name) for a in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr not in defined[aliases[node.value.id]]
            ):
                borrowed.append((reader, node.lineno, aliases[node.value.id], node.attr))
    return sorted(borrowed)


def test_every_package_name_is_read_from_its_home():
    assert _borrowed_reads(_trees()) == []


def test_borrowed_reads_are_recognized():
    trees = {
        "low": ast.parse("import math\nfrom .base import f\ndef g(): pass\nK, h = 1, 2\n"),
        "base": ast.parse("def f(): pass\n"),
        "top": ast.parse("from .low import g, f\nfrom . import low as lo\n"
                         "x = lo.K + lo.h + lo.f() + lo.math.pi\n"),
    }
    assert _defined(trees["low"]) == {"g", "K", "h"}
    assert _borrowed_reads(trees) == [
        ("top", 1, "low", "f"), ("top", 3, "low", "f"), ("top", 3, "low", "math"),
    ]
