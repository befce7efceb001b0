"""Callers do not branch on the model kind: under src/, only
`fusion.load_any_model` compares a model file's `kind` string, so a second
expert-or-fused branch cannot come back. Past loading, `fusion.predict` and
every model's `task_ids` and `label_maps` serve both kinds; the two `diag`
commands test `isinstance(model, FusedModel)`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = {"expert", "fused"}
ALLOWED = {("flowmoe/fusion.py", "load_any_model")}


def _is_kind(node):
    """A `kind` name or attribute, a model kind string, or a collection
    holding one. (A feature file's `header.get("kind") != "features"` is
    no model kind comparison.)"""
    if isinstance(node, ast.Name):
        return node.id == "kind"
    if isinstance(node, ast.Attribute):
        return node.attr == "kind"
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in KINDS
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_kind, node.elts))
    return False


def _kind_comparisons(tree):
    """(enclosing function or None, line) of every comparison that has a
    model-kind operand."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            if isinstance(child, ast.Compare) and any(
                    map(_is_kind, [child.left, *child.comparators])):
                found.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_load_any_model_compares_a_model_kind():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files found under {SRC}"
    seen = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function, line in _kind_comparisons(tree):
            seen.setdefault((path.relative_to(SRC).as_posix(), function),
                            []).append(line)
    outside = {where: lines for where, lines in seen.items()
               if where not in ALLOWED}
    assert not outside, f"model kind compared outside {ALLOWED}: {outside}"
    assert set(seen) == ALLOWED                 # the dispatch itself


def test_the_guard_sees_every_form_of_comparison():
    source = ("def f(kind, model, header):\n"
              "    if kind == 'expert': pass\n"
              "    if model.kind != x: pass\n"
              "    if header.get('kind') != 'fused': pass\n"
              "    if header['kind'] in ('a', 'expert'): pass\n"
              "    if 'fused' == x: pass\n"
              "    if y in ['expert']: pass\n"
              "    if header.get('kind') != 'features': pass\n"
              "    if kinds == 'expertise': pass\n"
              "    return isinstance(model, object)\n")
    assert _kind_comparisons(ast.parse(source)) == [
        ("f", line) for line in range(2, 8)]
