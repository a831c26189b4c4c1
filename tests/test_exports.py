"""Every name a module exports resolves, so a star import never breaks."""

from __future__ import annotations

import importlib
import pkgutil

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
