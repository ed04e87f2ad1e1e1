"""How an output CSV is encoded is decided in ``rtnet.data`` alone.

An AST scan of ``src/rtnet/*.py`` refuses the ``csv`` module, in any form of
import, outside ``data.py``: every other module writes its CSVs through
``data.write_csv``, so every output shares one dialect.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rtnet"


def csv_imports(source: str) -> list[str]:
    """``"<line>: <code>"`` for each import of ``csv``: an ``import`` or ``from``
    statement, or an ``__import__``/``import_module`` call naming it."""
    tree = ast.parse(source)
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            names = [str(node.args[0].value)] if called in ("__import__", "import_module") else []
        else:
            continue
        if any(name.split(".")[0] in ("csv", "_csv") for name in names):
            bad.append(node)
    return [f"{node.lineno}: {ast.get_source_segment(source, node)}"
            for node in sorted(bad, key=lambda node: node.lineno)]


def test_only_data_imports_csv():
    sources = sorted(SRC.glob("*.py"))
    assert {"cli.py", "data.py", "harness.py", "training.py"} <= {p.name for p in sources}
    found = {p.name: csv_imports(p.read_text()) for p in sources}
    assert {name for name, hits in found.items() if hits} == {"data.py"}


def test_an_injected_import_in_cli_is_caught():
    source = (SRC / "cli.py").read_text()
    assert csv_imports(source) == []
    line = source.count("\n") + 1
    assert csv_imports(source + "import csv\n") == [f"{line}: import csv"]


@pytest.mark.parametrize("code", [
    "import csv", "import csv as c", "import os, csv", "from csv import writer",
    "from csv import *", "import _csv", "__import__('csv')",
    "import importlib\nimportlib.import_module('csv')",
    "from importlib import import_module\nimport_module('csv')"])
def test_every_form_of_import_is_refused(code):
    assert len(csv_imports(code)) == 1, code


@pytest.mark.parametrize("code", [
    "from .data import write_csv", "from .data import load_csv",
    "csv = 'report.csv'", "import csvkit_free_name as c", "__import__('json')"])
def test_other_imports_pass(code):
    assert csv_imports(code) == [], code
