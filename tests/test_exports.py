"""Every exported name must exist: a deleted function cannot stay listed.
Every module-level import must be used: a deleted caller cannot leave one
behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import budgeted_efx

# ``__main__`` runs the CLI when imported, and it exports nothing.
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(budgeted_efx.__path__)
    if info.name != "__main__"
)
SOURCES = sorted(Path(budgeted_efx.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", ["budgeted_efx"] + [f"budgeted_efx.{m}" for m in MODULES])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def _imported_names(tree: ast.Module) -> list[str]:
    """The names the module's top-level imports bind, ``__future__`` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for name in _imported_names(tree)
        if name not in read and name not in _exported_names(tree)
    ]
    assert unused == []
