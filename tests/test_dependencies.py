"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

import c4td

SOURCES = sorted(Path(c4td.__file__).parent.glob("*.py"))


def test_the_package_imports_only_itself_numpy_and_the_standard_library():
    assert len(SOURCES) > 5
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.partition(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"
