"""Every function, class and method in ``src/`` is reached from something that runs.

A definition is reached when its name is used by module-level code of the
package (importing a module runs it, and ``cli.py`` calls ``main`` there), by a
lookup site of the benchmark's tracer (``perfbench/tracer.py``'s ``SITES``),
by the acceptance criteria (``tests/test_acceptance.py``), or by the body of a
definition that is itself reached. A use inside a definition's own body does
not reach it. Names are matched as bare words, as a word-boundary grep would
match them, so ``fit`` reaches every definition named ``fit``; only an
attribute of a module from outside the package (``json.load``, ``np.log``)
names nothing here. Dunder names are skipped: Python calls them by protocol.

Code that only its own unit tests call fails this test; delete it, or give it
a reason in ``ALLOWED`` below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "c4td"
TRACER = ROOT / "perfbench" / "tracer.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Kept although nothing that runs names them yet: name -> the reason.
ALLOWED = {
    "effective_clusters": "ROADMAP item 1's refreshes.jsonl reports it per refresh",
    "from_json": "reads back the critic.json that `c4 train` writes (MlpCritic.to_json)",
    "load": "reads back the critic.json that `c4 train` writes (MlpCritic.save)",
    "penultimate_features_batch": "the critic's feature map, the object of the paper's statements",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _foreign_modules(tree: ast.Module) -> set[str]:
    """Names a module binds to modules from outside the package (``np``, ``json``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names
                         if a.name.split(".")[0] != "c4td")
    return names


def _names_used(node: ast.AST, foreign: set[str]) -> set[str]:
    """Every bare name, attribute and imported name used under ``node``."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in foreign):
                used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.asname or sub.name.split(".")[-1])
    return used


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of top-level functions and classes and their methods."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs.extend((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return defs


def _own_uses(node: ast.AST, foreign: set[str]) -> set[str]:
    """Names a definition's code uses; a class's named methods count for themselves."""
    if isinstance(node, ast.ClassDef):
        own = [item for item in node.body
               if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               or _is_dunder(item.name)]
        used = set().union(*(_names_used(item, foreign) for item in own + node.bases
                             + node.decorator_list + node.keywords))
    else:
        used = _names_used(node, foreign)
    return used - {node.name}


def _tracer_site_names() -> set[str]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    sites = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets))
    names = set()
    for sub in ast.walk(sites):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and ":" in sub.value:
            names.update(sub.value.partition(":")[2].split("."))
    return names


def unreached_definitions(roots=frozenset()) -> list[str]:
    """``module.name`` of every non-dunder definition that nothing running names.

    ``roots`` are names to count as reached from outside.
    """
    acceptance = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    reached = set(roots) | _tracer_site_names() | _names_used(
        acceptance, _foreign_modules(acceptance))
    defs = []  # (qualified name, name, names its code uses)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        foreign = _foreign_modules(tree)
        for qual, node in _definitions(tree):
            defs.append((f"{path.stem}.{qual}", node.name, _own_uses(node, foreign)))
        top = [node for node in tree.body if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        reached |= set().union(*(_names_used(node, foreign) for node in top))
    grew = True
    while grew:
        grew = False
        for _, name, uses in defs:
            if name in reached and not uses <= reached:
                reached |= uses
                grew = True
    return sorted(qual for qual, name, _ in defs
                  if name not in reached and not _is_dunder(name))


def test_every_definition_is_reached_from_something_that_runs():
    assert unreached_definitions(roots=ALLOWED) == []


def test_every_allowed_name_is_still_needed():
    unreached_names = {q.rpartition(".")[2] for q in unreached_definitions()}
    assert set(ALLOWED) <= unreached_names
