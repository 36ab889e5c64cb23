"""Every function and method of the package has a caller inside the package.

A definition counts as called when its name is read, as a plain name or an
attribute, anywhere in src/nichols_fusion/*.py outside its own body.  Dunder
methods are called by the interpreter and are not scanned.  Code that only
tests call belongs in those tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nichols_fusion"

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "fusion.monodromy_display_full": "the published monodromy display read "
    "literally, kept as the evidence that this reading disagrees with the "
    "fused monodromy (tests/test_fusion.py)",
    "linalg.Echelon.coordinates": "the benchmark tracer wraps it by name; it "
    "goes with Echelon's tag mode once the benchmark drops that span",
}


def _uncalled():
    defs, reads = [], {}  # (module, qualified name, def node); name -> [(module, line)]
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((module, f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (module, f"{module}.{node.name}.{d.name}", d)
                    for d in node.body
                    if isinstance(d, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name and isinstance(getattr(node, "ctx", None), ast.Load):
                reads.setdefault(name, []).append((module, node.lineno))
    return {
        qualname
        for module, qualname, d in defs
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and all(m == module and d.lineno <= ln <= d.end_lineno for m, ln in reads.get(d.name, ()))
    }


def test_every_function_has_a_caller_in_src():
    assert sorted(_uncalled() - ALLOWED.keys()) == []


def test_allow_list_is_current():
    # an allowed name that gained a caller, or is gone, leaves the list
    assert sorted(ALLOWED.keys() - _uncalled()) == []
