"""INI files are read in one place: under src/, only `flowmoe/data.py`
(`read_ini`) imports `configparser`, so a second INI reader cannot come
back."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"flowmoe/data.py"}


def _imports_configparser(tree):
    """Line numbers of `import configparser` (also in a list or under an
    alias) and `from configparser import ...`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "configparser" for a in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "configparser"):
            lines.append(node.lineno)
    return lines


def test_only_the_ini_reader_module_imports_configparser():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files found under {SRC}"
    importers = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = _imports_configparser(tree)
        if lines:
            importers[path.relative_to(SRC).as_posix()] = lines
    outside = {p: lines for p, lines in importers.items() if p not in ALLOWED}
    assert not outside, f"configparser imported outside {ALLOWED}: {outside}"
    assert "flowmoe/data.py" in importers           # the reader itself


def test_the_guard_sees_every_form_of_import():
    source = ("import configparser\n"
              "import os, configparser as cp\n"
              "from configparser import ConfigParser\n"
              "def f():\n    import configparser\n"
              "import configparserx\n"
              "from . import configparser_like\n")
    assert sorted(_imports_configparser(ast.parse(source))) == [1, 2, 3, 5]
