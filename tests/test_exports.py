"""Every name a module exports resolves, so a star import never breaks;
importing the package leaves the process environment alone, and gives a
process that had not loaded numpy one BLAS thread."""

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


def test_import_loads_no_module():
    """``import extractedit`` only sets the BLAS policy: names are imported
    from their modules, and each module loads on its first import."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(extractedit.__file__).resolve().parents[1]))
    code = ("import sys, extractedit; "
            "print([m for m in sys.modules if m.startswith('extractedit.')])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _openblas_loaded() -> bool:
    with open("/proc/self/maps", encoding="utf-8") as f:
        return "openblas" in f.read().lower()


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2
                    or not _openblas_loaded(),
                    reason="counts OpenBLAS threads in /proc on a machine with 2+ CPUs")
class TestBlasThreads:
    """Importing extractedit before numpy gives the process one BLAS thread,
    unless the caller set a count or numpy was loaded first."""

    @staticmethod
    def threads(first: str, **env_vars: str) -> int:
        """The threads of a fresh process that runs ``first``, then a
        512x512 matmul."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(extractedit.__file__).resolve().parents[1])
        env.update(env_vars)
        code = (f"{first}; import os, numpy as np; a = np.ones((512, 512)); a @ a; "
                "print(len(os.listdir('/proc/self/task')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    def test_one_thread_by_default(self):
        assert self.threads("import extractedit") == 1

    def test_a_count_the_caller_set_is_kept(self):
        assert self.threads("import extractedit", OPENBLAS_NUM_THREADS="2") == 2

    def test_numpy_loaded_first_keeps_its_threads(self):
        assert (self.threads("import numpy; import extractedit")
                == self.threads("import numpy"))
