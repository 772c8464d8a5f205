"""Every exported name must exist: a deleted function cannot stay listed."""

import importlib
import pkgutil

import pytest

import budgeted_efx

# ``__main__`` runs the CLI when imported, and it exports nothing.
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(budgeted_efx.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["budgeted_efx"] + [f"budgeted_efx.{m}" for m in MODULES])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
