import ast
import sys
from pathlib import Path

import nichols_fusion

PACKAGE = Path(nichols_fusion.__file__).parent


def test_runtime_imports_are_stdlib_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "nichols_fusion", (path.name, name)
