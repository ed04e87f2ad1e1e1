"""Rules on the source of ``src/rtnet``, checked by AST scans: one row of ``RULES`` each.

They keep every output strict and whole, and every seeded comparison bit-reproducible:
one CSV dialect, JSON without a bare ``NaN``, seeded draws only, one batch path in
``training.py`` for ``evaluate`` and the supervised step, and one atomic file writer.
"""

import ast
from collections import namedtuple
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rtnet"
SEEDED = {"default_rng", "SeedSequence", "Generator"}


def callee(call: ast.Call) -> str:
    return ast.unparse(call.func).rsplit(".", 1)[-1]


def csv_imports(tree):
    """Each import of ``csv`` or ``_csv``: a statement, or an ``__import__``/``import_module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and callee(node) in ("__import__", "import_module")
              and node.args and isinstance(node.args[0], ast.Constant)):
            names = [str(node.args[0].value)]
        else:
            continue
        if any(name.split(".")[0] in ("csv", "_csv") for name in names):
            yield node, "csv"


def lax_dumps(tree):
    """Each call of a ``dump`` or ``dumps`` without a literal ``allow_nan=False``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and callee(node) in ("dump", "dumps") and not any(
                kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False for kw in node.keywords):
            yield node, "dumps"


def unseeded_draws(tree):
    """Each use or import of ``random`` or of a ``numpy.random`` name outside ``SEEDED``,
    and each ``default_rng`` or ``SeedSequence`` call whose seed is missing or ``None``."""
    numpy = {"numpy"} | {alias.asname or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.Import) for alias in node.names
                         if alias.name == "numpy"}
    # the attribute read of each ``<numpy>.random`` node, or the node itself when bare
    outer = {id(node.value): node for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(alias.name.split(".")[0] == "random"
                      or alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module, names = node.module or "", {alias.name for alias in node.names}
            bad = (module.split(".")[0] == "random" or (module == "numpy" and "random" in names)
                   or (module == "numpy.random" and not names <= SEEDED))
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in numpy):
            node = outer.get(id(node), node)
            bad = node.attr not in SEEDED
        elif isinstance(node, ast.Call) and callee(node) in ("default_rng", "SeedSequence"):
            seed = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg in ("seed", "entropy")), None)
            bad = seed is None or (isinstance(seed, ast.Constant) and seed.value is None)
        else:
            continue
        if bad:
            yield node, "random"


def batch_path_calls(tree):
    """Each ``gather_batch`` or ``forward`` call, bare or through an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and callee(node) in ("gather_batch", "forward"):
            yield node, callee(node)


def file_writes(tree):
    """Each ``open``/``io.open`` whose mode may write, and each ``write_text``/``write_bytes``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("open", "io.open"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg in ("mode", None)), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(str(mode.value)).isdisjoint("wax+")):
                yield node, "write"
        elif isinstance(node, ast.Call) and callee(node) in ("write_text", "write_bytes"):
            yield node, "write"


# A rule: its scanner (a module's tree -> (node, pattern) of each use); the glob of the
# modules it scans; each pattern's one owner, "module" or "module:function"; a violation
# (module, code appended to it, the node reported at its last line); and the snippets,
# read as that module, that it refuses (one offence each) and that it passes.
Rule = namedtuple("Rule", "scan files owners inject refused passing")
RULES = {
    "csv": Rule(csv_imports, "*.py", {"csv": "data.py"}, ("cli.py", "import csv\n", "import csv"), (
        "import csv", "import csv as c", "import os, csv", "from csv import writer",
        "from csv import *", "import _csv", "__import__('csv')",
        "import importlib\nimportlib.import_module('csv')",
        "from importlib import import_module\nimport_module('csv')"), (
        "from .data import write_csv", "from .data import load_csv", "csv = 'report.csv'",
        "import csvkit_free_name as c", "__import__('json')")),
    "json": Rule(lax_dumps, "*.py", {}, ("cli.py", "json.dumps(x)\n", "json.dumps(x)"), (
        "json.dumps(x)", "json.dump(x, fh)", "json.dumps(x, indent=2)",
        "json.dumps(x, allow_nan=True)", "json.dumps(x, allow_nan=0)", "json.dumps(x, **options)",
        "import json as j\nj.dumps(x)", "from json import dumps\ndumps(x)",
        "from json import dump\ndump(x, fh, indent=2)"), (
        "json.dumps(x, allow_nan=False)", "json.dump(x, fh, indent=2, allow_nan=False)",
        "json.load(fh)", "json.loads(text)", "write_json(path, obj)", "dumps = 'report.json'")),
    "rng": Rule(unseeded_draws, "*.py", {}, (
        "training.py", "np.random.shuffle(AUGMENT_KINDS)\n", "np.random.shuffle"), (
        "import random", "import random as r", "from random import shuffle",
        "import numpy.random", "import numpy.random as npr", "from numpy import random",
        "from numpy.random import shuffle", "from numpy.random import default_rng, seed",
        "import numpy as np\nnp.random.seed(0)", "import numpy\nnumpy.random.rand(3)",
        "import numpy as onp\nonp.random.normal()", "import numpy as np\nsampler = np.random",
        "import numpy as np\nrng = np.random.default_rng()",
        "import numpy as np\nrng = np.random.default_rng(None)",
        "import numpy as np\nseeds = np.random.SeedSequence()",
        "from numpy.random import default_rng\nrng = default_rng()"), (
        "import numpy as np\nrng = np.random.default_rng(0)",
        "import numpy as np\nseeds = np.random.SeedSequence(1).spawn(2)",
        "import numpy as np\ndef draw(rng: np.random.Generator):\n    return rng.random(3)",
        "from numpy.random import default_rng, Generator",
        "import numpy as np\nrandom = 1\nx = np.zeros(2).random",
        "from numpy.random import default_rng\nrng = default_rng(seed=3)")),
    "batch path": Rule(batch_path_calls, "training.py", {
        "gather_batch": "training.py:_gather", "forward": "training.py:_predict"}, (
        "training.py", "\ndef evaluate_again(model, wb):\n    return model.forward(wb.inputs)\n",
        "model.forward(wb.inputs)"), (
        "def f(ds):\n    return gather_batch(ds, [0], 4, 2)",
        "def f(ds):\n    return data.gather_batch(ds, [0], 4, 2)",
        "def f(model, x):\n    return model.forward(x)",
        "class C:\n    def f(self, x):\n        return self.forward(x)",
        "def _predict(model, ds):\n    return gather_batch(ds, [0], 4, 2)",
        "x = model.forward(inputs)"), (
        "def _gather(model, ds, offsets):\n    return gather_batch(ds, offsets, 4, 2)",
        "def _predict(model, wb):\n    return model.forward(wb.inputs)",
        "def f(model, ds):\n    return _gather(model, ds, [0])",
        "def f(model, wb):\n    return _predict(model, wb, False, None)",
        "def f(ds):\n    return gather_batches(ds)", "def f(model):\n    return model.forward")),
    "atomic writer": Rule(file_writes, "*.py", {"write": "data.py:atomic_open"}, (
        "data.py", "\ndef write_lines(path, lines):\n    open(path, 'w').writelines(lines)\n",
        "open(path, 'w')"), (
        "open(path, 'w')", "open(path, 'ab')", "open(path, 'x')", "open(path, 'r+b')",
        "open(path, mode)", "open(path, mode='w')", "open(path, **options)",
        "import io\nio.open(path, 'w', encoding='utf-8')", "Path(path).write_text(text)",
        "path.write_bytes(blob)", "def write_csv(path, rows):\n    return open(path, 'w')"), (
        "open(path)", "open(path, 'rb')", "open(path, encoding='utf-8')", "open(path, mode='r')",
        "os.open(path, os.O_RDWR | os.O_CREAT, 0o666)", "zf.open(name, 'w')",
        "with atomic_open(path, 'wb') as fh:\n    fh.write(blob)",
        "def atomic_open(path, mode):\n    return open(path + '.tmp', mode)")),
}


def uses(rule: Rule, source: str) -> list[tuple[int, str, str, str]]:
    """(line, top-level def or class or "", pattern, code) of each use ``rule.scan`` finds."""
    tree = ast.parse(source)
    top = {id(node): getattr(stmt, "name", "") for stmt in tree.body for node in ast.walk(stmt)}
    return sorted((node.lineno, top[id(node)], pattern, ast.get_source_segment(source, node))
                  for node, pattern in rule.scan(tree))


def offences(rule: Rule, source: str, module: str) -> list[str]:
    """``"<line>: <code>"`` of each use in ``source``, read as ``module``, outside its owner."""
    return [f"{line}: {code}" for line, top, pattern, code in uses(rule, source)
            if rule.owners.get(pattern) not in (module, f"{module}:{top}")]


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES)
def test_src_obeys_the_rule_and_each_owner_holds_its_pattern(rule):
    modules = {p.name: p.read_text() for p in sorted(SRC.glob(rule.files))}
    assert {rule.inject[0], *(o.split(":")[0] for o in rule.owners.values())} <= modules.keys()
    assert {m: hits for m, source in modules.items() if (hits := offences(rule, source, m))} == {}
    places = {(pattern, place) for m, source in modules.items()
              for _, top, pattern, _ in uses(rule, source) for place in (m, f"{m}:{top}")}
    assert set(rule.owners.items()) <= places


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES)
def test_an_injected_violation_is_reported_at_its_line(rule):
    module, code, node = rule.inject
    source = (SRC / module).read_text()
    assert offences(rule, source, module) == []
    line = (source + code).count("\n")
    assert offences(rule, source + code, module) == [f"{line}: {node}"]


@pytest.mark.parametrize("name,verdict,code", [
    (name, verdict, code) for name, rule in RULES.items()
    for verdict, codes in (("refused", rule.refused), ("passes", rule.passing)) for code in codes])
def test_each_snippet_is_refused_or_passes(name, verdict, code):
    assert len(offences(RULES[name], code, RULES[name].inject[0])) == (verdict == "refused"), code
