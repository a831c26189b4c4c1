"""Every name a module exports resolves, so a star import never breaks;
importing the package leaves the process environment alone."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import extractedit

MODULES = ["extractedit"] + [f"extractedit.{m.name}"
                             for m in pkgutil.iter_modules(extractedit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_import_leaves_environment_unchanged():
    """``import extractedit`` sets no environment variable, BLAS thread
    counts included, so child processes inherit the caller's settings."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(extractedit.__file__).resolve().parents[1])
    code = ("import os; before = dict(os.environ); import extractedit; "
            "changed = set(os.environ.items()) ^ set(before.items()); "
            "assert not changed, sorted(changed)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
