"""Imports only go downward.

Every import of a package module sits at the top level of its module, never in
a function body, and the module-level imports of the package form a DAG, so
no module needs a late import to break a cycle.
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
