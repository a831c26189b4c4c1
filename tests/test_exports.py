"""A module's public names are those without a leading underscore;
importing the package leaves the process environment alone, loads no
module, and gives a process that had not loaded numpy one BLAS thread."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extractedit

SOURCES = sorted(Path(extractedit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_underscore_is_the_one_privacy_marker(path):
    """No module keeps an ``__all__`` list, and none reaches another
    package module's underscore name, by import or by attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assigned = {t.id for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(t, ast.Name)}
    assert "__all__" not in assigned
    internal = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("extractedit"))]
    private = [a.name for node in internal for a in node.names if a.name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"
    modules = {a.asname or a.name for node in internal for a in node.names
               if not node.module}
    reached = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    assert not reached, f"{path.name} reads private names {reached}"


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
