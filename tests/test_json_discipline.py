"""Every JSON the package writes is strict (RFC 8259).

An AST scan of ``src/rtnet/*.py`` refuses any ``dump``/``dumps`` call, under
any name, that does not pass ``allow_nan=False`` itself: a NaN or infinity
then raises where it is written, never reaching a file or stdout as a bare
``NaN`` token that strict readers reject.  The output files go through
``data.write_json``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rtnet"


def lax_dumps(source: str) -> list[str]:
    """``"<line>: <code>"`` for each call of a function named ``dump`` or ``dumps``
    (``json.dump``, an alias of the module, or a name imported from it) with no
    literal ``allow_nan=False`` keyword."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if called in ("dump", "dumps") and not any(
                kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False for kw in node.keywords):
            bad.append(node)
    return [f"{node.lineno}: {ast.get_source_segment(source, node)}"
            for node in sorted(bad, key=lambda node: node.lineno)]


def test_every_json_dump_refuses_nan():
    sources = sorted(SRC.glob("*.py"))
    assert {"cli.py", "data.py", "model.py"} <= {p.name for p in sources}
    found = {p.name: lax_dumps(p.read_text()) for p in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_an_injected_bare_dumps_in_cli_is_caught():
    source = (SRC / "cli.py").read_text()
    assert lax_dumps(source) == []
    line = source.count("\n") + 1
    assert lax_dumps(source + "json.dumps(x)\n") == [f"{line}: json.dumps(x)"]


@pytest.mark.parametrize("code", [
    "json.dumps(x)", "json.dump(x, fh)", "json.dumps(x, indent=2)",
    "json.dumps(x, allow_nan=True)", "json.dumps(x, allow_nan=0)",
    "json.dumps(x, **options)", "import json as j\nj.dumps(x)",
    "from json import dumps\ndumps(x)", "from json import dump\ndump(x, fh, indent=2)"])
def test_every_lax_call_is_refused(code):
    assert len(lax_dumps(code)) == 1, code


@pytest.mark.parametrize("code", [
    "json.dumps(x, allow_nan=False)", "json.dump(x, fh, indent=2, allow_nan=False)",
    "json.load(fh)", "json.loads(text)", "write_json(path, obj)", "dumps = 'report.json'"])
def test_strict_calls_and_other_names_pass(code):
    assert lax_dumps(code) == [], code
