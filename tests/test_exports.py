"""Every exported name resolves, the package re-exports only declared names,
``oracles`` imports nothing from the package, no module imports another's
private name, and thread code stays in ``estimators.run_batches``."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gruschin

MODULES = ("analysis", "cli", "estimators", "linalg", "models", "oracles", "paths", "rng",
           "weights")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gruschin.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"gruschin.{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_only_declared_names():
    # the package has no __all__ of its own: its public names are its re-exports
    declared = {n for name in MODULES
                for n in importlib.import_module(f"gruschin.{name}").__all__}
    public = {n for n, val in vars(gruschin).items()
              if not n.startswith("_") and not isinstance(val, types.ModuleType)}
    assert sorted(public - declared) == []


def test_import_leaves_scipy_unloaded():
    # the package depends on numpy alone; scipy's import cost half a second
    code = "import sys, gruschin; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_import_leaves_numpy_polynomial_unloaded():
    # oracles builds its Gauss-Legendre rules on first use, not at import
    code = "import sys, gruschin.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_gauss_legendre_rules_are_numpy_s_bit_for_bit():
    import numpy as np

    from gruschin import oracles

    for n in (32, 64):
        nodes, weights = oracles._gauss_legendre(n)
        want = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert oracles._gauss_legendre(n)[0] is nodes


def _package_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of every import of a package module in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 0 or module.split(".")[0] == "gruschin":
                found += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names
                      if alias.name.split(".")[0] == "gruschin"]
    return found


def test_oracles_stand_alone_and_no_module_imports_a_private_name():
    # the exact values read numpy and the standard library only, so any module
    # may read them; and no module reaches into another's underscore names
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(gruschin.__file__).parent.glob("*.py"))}
    assert _package_imports(trees["oracles"]) == []
    private = [f"{stem}: {module}.{name}" for stem, tree in trees.items()
               for module, name in _package_imports(tree) if name.startswith("_")]
    assert private == []


def test_threads_start_only_in_the_estimators_pool():
    # no module imports threading, only estimators imports concurrent.futures,
    # only its _pool builds a pool, only its _map submits work to one, and
    # only run_batches calls _map: batches are the one parallel axis
    importers, pool_users, submitters, mappers = {}, set(), set(), set()
    for path in sorted(Path(gruschin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                if isinstance(node, ast.FunctionDef):
                    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                    if "ThreadPoolExecutor" in names:
                        pool_users.add(f"{path.stem}.{node.name}")
                    if "_pool" in names:
                        submitters.add(f"{path.stem}.{node.name}")
                    if "_map" in names:
                        mappers.add(f"{path.stem}.{node.name}")
                continue
            for name in names:
                importers.setdefault(name.split(".")[0], set()).add(path.stem)
    assert "threading" not in importers and "_thread" not in importers
    assert importers.get("concurrent") == {"estimators"}
    assert pool_users == {"estimators._pool"}
    assert submitters == {"estimators._map"}
    assert mappers == {"estimators.run_batches"}
