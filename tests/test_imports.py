"""Every ``repro`` module imports, and every name a script imports exists.

``compileall`` checks syntax only, so a deleted module or export that an
example, bench or perfbench script still imports would otherwise surface only
when someone runs that script. The scripts are parsed, never run.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    p for d in ("examples", "benchmarks", "perfbench") for p in (ROOT / d).glob("*.py")
)
MODULES = sorted(
    ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
)


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``from repro… import name`` in ``path``;
    ``name`` is None for a plain ``import repro…``."""
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                out += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [
                (a.name, None)
                for a in node.names
                if a.name == "repro" or a.name.startswith("repro.")
            ]
    return out


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_exports_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def test_walk_finds_the_package():
    assert {"repro.cli", "repro.prefetch.bo", "repro.tabularization.fastpath"} <= set(MODULES)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_repro_imports_resolve(path):
    dangling = []
    for module, name in _repro_imports(path):
        try:
            ok = _resolves(module, name) if name else bool(importlib.import_module(module))
        except ModuleNotFoundError:
            ok = False
        if not ok:
            dangling.append(f"{module}:{name}" if name else module)
    assert not dangling, f"{path.name} imports names that do not exist: {dangling}"
