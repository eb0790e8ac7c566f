"""Every exported name resolves, so a removal cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import loopqed

MODULES = ["loopqed"] + [
    f"loopqed.{info.name}" for info in pkgutil.iter_modules(loopqed.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
