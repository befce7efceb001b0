"""Every name a package lists in __all__ resolves, and `flowmoe.nn`
exports no function or class that the library itself does not use."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import flowmoe
import flowmoe.nn


@pytest.mark.parametrize("module", ["flowmoe", "flowmoe.nn", "flowmoe.nn.model"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_every_nn_function_and_class_is_used_by_the_library():
    # code that only tests call belongs under tests/, not in nn/
    root = Path(flowmoe.__file__).parent
    init = root / "nn" / "__init__.py"
    used = set()
    for path in root.rglob("*.py"):
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = [name for name in flowmoe.nn.__all__
                if inspect.isfunction(getattr(flowmoe.nn, name))
                or inspect.isclass(getattr(flowmoe.nn, name))]
    assert [name for name in exported if name not in used] == []
