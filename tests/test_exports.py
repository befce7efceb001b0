"""Every name a package lists in __all__ resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["flowmoe", "flowmoe.nn", "flowmoe.nn.model"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
