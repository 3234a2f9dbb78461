"""Static rules over the package source: numpy stays the only runtime dependency, and
the integer and number tests live in errors.py alone."""

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


def _type_test(node) -> str | None:
    """The source of ``isinstance(<x>, bool)`` or ``type(<x>) is [not] int``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
            return ast.unparse(node)
    if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) and isinstance(c, ast.Name)
                    and c.id == "int" for op, c in zip(node.ops, node.comparators))):
        return ast.unparse(node)
    return None


def test_only_errors_py_spells_out_the_integer_and_number_rule():
    # the rule is errors.is_kind, is_number and the field kinds of check_fields
    assert _type_test(ast.parse("isinstance(v, (int, bool))").body[0].value)
    assert _type_test(ast.parse("type(v) is not int").body[0].value)
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            found = _type_test(node)
            assert found is None, f"{path.name}:{node.lineno} tests {found}; use c4td.errors"
