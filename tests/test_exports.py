"""Every name a package lists in __all__ resolves, and neither `flowmoe`
nor `flowmoe.nn` exports a function, class, method or property that only
tests use."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import flowmoe
import flowmoe.nn

ROOT = Path(flowmoe.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", ["flowmoe", "flowmoe.nn", "flowmoe.nn.model"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _unused_exports(module, users):
    """Functions and classes in `module.__all__` that no file of `users`
    names, as a name or as an attribute."""
    used = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = [name for name in module.__all__
                if inspect.isfunction(getattr(module, name))
                or inspect.isclass(getattr(module, name))]
    return [name for name in exported if name not in used]


def test_every_nn_function_and_class_is_used_by_the_library():
    # code that only tests call belongs under tests/, not in nn/
    init = ROOT / "nn" / "__init__.py"
    users = [path for path in ROOT.rglob("*.py") if path != init]
    assert _unused_exports(flowmoe.nn, users) == []


def _bench_modules():
    """perfbench's modules without its own tests."""
    bench = [path for path in sorted(PERFBENCH.glob("*.py"))
             if not path.name.startswith("test_")]
    assert bench, f"no perfbench modules found under {PERFBENCH}"
    return bench


def test_every_flowmoe_function_and_class_is_used_by_the_library():
    # perfbench counts as a user: its single-flow calls are `classify`'s
    # only caller; its own tests do not count
    init = ROOT / "__init__.py"
    users = [path for path in ROOT.rglob("*.py") if path != init]
    assert _unused_exports(flowmoe, users + _bench_modules()) == []


def _public_members(cls):
    """The public methods and properties that `cls` defines itself."""
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and (
                inspect.isfunction(value)
                or isinstance(value, (property, classmethod, staticmethod)))]


def test_every_public_method_of_an_exported_class_is_used_by_the_library():
    # a method or property that only tests call belongs under tests/ too
    attributes = {node.attr
                  for path in list(ROOT.rglob("*.py")) + _bench_modules()
                  for node in ast.walk(ast.parse(path.read_text(
                      encoding="utf-8")))
                  if isinstance(node, ast.Attribute)}
    classes = {getattr(module, name) for module in (flowmoe, flowmoe.nn)
               for name in module.__all__
               if inspect.isclass(getattr(module, name))}
    unused = sorted(f"{cls.__name__}.{name}" for cls in classes
                    for name in _public_members(cls)
                    if name not in attributes)
    assert unused == []
