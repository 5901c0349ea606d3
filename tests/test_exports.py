"""Every exported name resolves, and the package re-exports only declared names."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import gruschin

MODULES = ("analysis", "cli", "estimators", "linalg", "models", "paths", "rng", "weights")


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
