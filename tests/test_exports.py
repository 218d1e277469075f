"""Every exported name resolves: each module's ``__all__`` and the package;
no module imports a name it never uses; every exported name has a caller or
is a named route."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kerdock3

MODULES = sorted(info.name for info in pkgutil.iter_modules(kerdock3.__path__))
PACKAGE = Path(kerdock3.__path__[0])

# Exported with no caller in the library, a demo or the benchmark: each is
# one of the paper's definitions, which tests check a claim on as an
# independent route beside the code the library runs.
NAMED_ROUTES = ("kerdock_matrix", "classify_subgroup", "subgroup_members", "mobius_action",
                "psl_product", "apply_transvection", "srg_check", "pair_statistics",
                "parse_census", "parse_csv_probs")


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
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {x: line for x, line in imported.items() if x not in used} == {}


def test_every_export_has_a_caller_or_is_a_named_route():
    """A name in a module's ``__all__`` is read, as a name or an attribute,
    somewhere in the library (the package ``__init__`` aside), a demo or the
    benchmark, or it is one of NAMED_ROUTES; and each named route is
    exported and has no such caller."""
    root = PACKAGE.parents[1]
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(root.glob("demos/*.py")) + sorted(root.glob("bench/*.py"))
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {x for name in MODULES
                for x in getattr(importlib.import_module(f"kerdock3.{name}"), "__all__", [])}
    assert sorted(exported - read) == sorted(NAMED_ROUTES)
