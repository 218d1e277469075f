"""Every exported name resolves: each module's ``__all__`` and the package;
no module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kerdock3

MODULES = sorted(info.name for info in pkgutil.iter_modules(kerdock3.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"kerdock3.{name}")
    exported = getattr(module, "__all__", [])
    assert name.startswith("_") or exported, f"kerdock3.{name} has no __all__"
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [x for x in exported if not hasattr(module, x)] == []


def test_package_exports_resolve_to_their_owners():
    """Each public name of ``kerdock3`` is the object its module exports."""
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"kerdock3.{name}")
        for x in getattr(module, "__all__", []):
            owners.setdefault(x, getattr(module, x))
    public = [x for x in vars(kerdock3)
              if not x.startswith("_") and x not in MODULES]
    assert public
    assert [x for x in public if owners.get(x) is not getattr(kerdock3, x)] == []
    namespace = {}
    exec("from kerdock3 import *", namespace)
    assert set(public) <= set(namespace)



@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    """Each name a module imports is read somewhere in it.  (The package
    ``__init__`` imports to re-export and is not checked; a quoted
    annotation does not count as a use, and none is needed under
    ``from __future__ import annotations``.)"""
    tree = ast.parse(Path(kerdock3.__path__[0], f"{name}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {x: line for x, line in imported.items() if x not in used} == {}
