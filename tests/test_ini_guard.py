"""INI and CSV files are read in one place: under src/, only
`flowmoe/data.py` imports `configparser` (`read_ini`) or `csv`
(`csv_rows`, `write_csv`), so a second INI or CSV reader cannot come
back."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"flowmoe/data.py"}


def _imports(tree, module):
    """Line numbers of `import <module>` (also in a list or under an alias)
    and `from <module> import ...`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == module for a in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == module):
            lines.append(node.lineno)
    return lines


def _importers(module):
    """{path under src/: import line numbers} of every file importing it."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files found under {SRC}"
    importers = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = _imports(tree, module)
        if lines:
            importers[path.relative_to(SRC).as_posix()] = lines
    return importers


def test_only_the_ini_reader_module_imports_configparser():
    importers = _importers("configparser")
    outside = {p: lines for p, lines in importers.items() if p not in ALLOWED}
    assert not outside, f"configparser imported outside {ALLOWED}: {outside}"
    assert "flowmoe/data.py" in importers           # the reader itself


def test_only_the_data_module_imports_csv():
    importers = _importers("csv")
    outside = {p: lines for p, lines in importers.items() if p not in ALLOWED}
    assert not outside, f"csv imported outside {ALLOWED}: {outside}"
    assert "flowmoe/data.py" in importers           # csv_rows, write_csv


def test_the_guard_sees_every_form_of_import():
    for module in ("configparser", "csv"):
        source = (f"import {module}\n"
                  f"import os, {module} as cp\n"
                  f"from {module} import Thing\n"
                  f"def f():\n    import {module}\n"
                  f"import {module}x\n"
                  f"from . import {module}_like\n")
        assert sorted(_imports(ast.parse(source), module)) == [1, 2, 3, 5]
