"""Trainability and weight storage each have one owner under src/.

Only `nn/tensor.py` (a Tensor's own flag) and `nn/params.py` (the
`training` scope) assign `requires_grad`; every other module trains inside
`training(...)`. Only `nn/tensor.py` (a Tensor's own array) and
`diagnostics.py` (`TowerObjective` binding the towers to its flat vector)
assign a tensor's `.data`, so no second owner, such as a model whose
tensors are rebound to views into another model's arrays, comes back."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {
    "requires_grad": {"flowmoe/nn/tensor.py", "flowmoe/nn/params.py"},
    "data": {"flowmoe/nn/tensor.py", "flowmoe/diagnostics.py"},
}


def _writes(tree, attr):
    """Line numbers that assign the attribute `attr`, as an attribute
    target (plain, augmented, annotated or unpacked) or through `setattr`."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == attr):
            lines.append(node.lineno)
    return sorted(lines)


def _writers(attr):
    """{src-relative path: lines} of every file under src/ that assigns
    `attr`."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files found under {SRC}"
    writers = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = _writes(tree, attr)
        if lines:
            writers[path.relative_to(SRC).as_posix()] = lines
    outside = {p: lines for p, lines in writers.items()
               if p not in ALLOWED[attr]}
    assert not outside, f"{attr} assigned outside {ALLOWED[attr]}: {outside}"
    return writers


def test_requires_grad_is_assigned_only_in_tensor_and_params():
    assert "flowmoe/nn/params.py" in _writers("requires_grad")  # the scope


def test_data_is_assigned_only_in_tensor_and_diagnostics():
    assert "flowmoe/diagnostics.py" in _writers("data")  # TowerObjective


def test_the_guard_sees_every_form_of_assignment():
    for attr in ALLOWED:
        source = (f"t.{attr} = True\n"
                  f"a.{attr}, b = False, 1\n"
                  f"t.{attr} |= x\n"
                  f"t.{attr}: bool = True\n"
                  f"setattr(t, '{attr}', True)\n"
                  f"flag = t.{attr}\n")
        assert _writes(ast.parse(source), attr) == [1, 2, 3, 4, 5], attr
