"""Trainability is set in one place: under src/, only `nn/tensor.py` (a
Tensor's own flag) and `nn/params.py` (the `training` scope) assign
`requires_grad`; every other module trains inside `training(...)`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"flowmoe/nn/tensor.py", "flowmoe/nn/params.py"}


def _writes(tree):
    """Line numbers that assign `requires_grad`, as an attribute target
    (plain, augmented, annotated or unpacked) or through `setattr`."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "requires_grad"
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "requires_grad"):
            lines.append(node.lineno)
    return sorted(lines)


def test_requires_grad_is_assigned_only_in_tensor_and_params():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files found under {SRC}"
    writers = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = _writes(tree)
        if lines:
            writers[path.relative_to(SRC).as_posix()] = lines
    outside = {p: lines for p, lines in writers.items() if p not in ALLOWED}
    assert not outside, f"requires_grad assigned outside {ALLOWED}: {outside}"
    assert "flowmoe/nn/params.py" in writers      # the scope itself


def test_the_guard_sees_every_form_of_assignment():
    source = ("t.requires_grad = True\n"
              "a.requires_grad, b = False, 1\n"
              "t.requires_grad |= x\n"
              "t.requires_grad: bool = True\n"
              "setattr(t, 'requires_grad', True)\n"
              "flag = t.requires_grad\n")
    assert _writes(ast.parse(source)) == [1, 2, 3, 4, 5]
