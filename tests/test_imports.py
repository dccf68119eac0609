"""Every name a dualcast module imports is used there.

Two kinds of import are exempt: the names the package's __init__ lists in
__all__, and the names below that perfbench/tracer.py wraps in a module that
does not call them. Each of those is paired with its LAYER_CALLS entry, read
from the tracer's source; they go once the tracer stops wrapping them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "dualcast"

# (module, imported name) -> the perfbench/tracer.py LAYER_CALLS entry that keeps it.
TRACER_ONLY = {
    ("nccode", "max_flow"): ("nccode", "max_flow", "flow.max_flow"),
    ("nccode", "decompose_paths"): ("nccode", "decompose_paths", "flow.decompose_paths"),
    ("planner", "build_augmented"): ("planner", "build_augmented", "augment.build_augmented"),
    ("planner", "remove_edges"): ("planner", "remove_edges", "netgraph.remove_edges"),
    ("recolor", "max_flow"): ("recolor", "max_flow", "flow.max_flow"),
    ("recolor", "decompose_paths"): ("recolor", "decompose_paths", "flow.decompose_paths"),
    ("recolor", "remove_edges"): ("recolor", "remove_edges", "netgraph.remove_edges"),
}


def _imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names the module's imports bind, and the names it reads."""
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = _imported_and_used(tree)
    return imported - used - _all_names(tree)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    exempt = {name for module, name in TRACER_ONLY if module == path.stem}
    assert _unused_imports(path) - exempt == set()


def test_each_tracer_only_import_is_unused_and_wrapped_by_the_tracer():
    tracer = ast.parse((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (layer_calls,) = [
        node.value
        for node in tracer.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets)
    ]
    wrapped = set(ast.literal_eval(layer_calls))
    for (module, name), entry in TRACER_ONLY.items():
        assert entry[:2] == (module, name)
        assert entry in wrapped
        assert name in _unused_imports(PACKAGE / f"{module}.py")
