"""Every name a module exports in ``__all__`` resolves.

Walks every module of the ``repro`` package, so a deleted function that
is still listed in some ``__all__`` (or re-exported from a package
``__init__``) fails here instead of at a user's ``from ... import *``.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert missing == []
