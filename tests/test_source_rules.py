"""Rules on the source of ``src/rtnet``, checked by AST scans: one row of ``RULES`` each.

They keep every output strict and whole, and every seeded comparison bit-reproducible:
one CSV dialect, JSON without a bare ``NaN``, seeded draws only, one batch path in
``training.py`` for ``evaluate`` and the supervised step, and one atomic file writer.
They also keep the effective weights off the training tape: only ``RTNet.weights_held``
builds one with ``weight_norm_effective``.
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
    and each ``default_rng`` or ``SeedSequence`` call, under any imported alias, whose
    seed is missing or ``None``."""
    numpy = {"numpy"} | {alias.asname or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.Import) for alias in node.names
                         if alias.name == "numpy"}
    # the attribute read of each ``<numpy>.random`` node, or the node itself when bare
    outer = {id(node.value): node for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    seeders = {"default_rng", "SeedSequence"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module == "numpy.random" for alias in node.names
        if alias.asname and alias.name in ("default_rng", "SeedSequence")}
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
        elif isinstance(node, ast.Call) and callee(node) in seeders:
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


def may_write(call: ast.Call, name: str) -> bool:
    """Whether the mode in argument 1 or keyword ``name`` (or ``**``) is not a literal
    free of ``w``, ``a``, ``x`` and ``+``; ``open`` and ``ZipFile`` read by default."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg in (name, None)), None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and set(str(mode.value)).isdisjoint("wax+"))


READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NONBLOCK", "O_DIRECTORY", "O_NOFOLLOW"}


def file_writes(tree):
    """Each ``open``/``io.open`` whose mode may write, each ``write_text``/``write_bytes``,
    each call named as a numpy file writer (``save``, ``savez``, ``savez_compressed``,
    ``savetxt``, ``tofile``), each ``os.open`` whose flags are not all read flags, and
    each ``ZipFile`` whose mode may write on anything but the ``as`` name of an
    enclosing ``atomic_open(...)`` item."""
    atomic = set()  # the ZipFile calls on an enclosing atomic_open(...) item's name
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for i, item in enumerate(node.items):
                if (isinstance(item.context_expr, ast.Call)
                        and callee(item.context_expr) == "atomic_open"
                        and isinstance(item.optional_vars, ast.Name)):
                    scope = [later.context_expr for later in node.items[i + 1:]] + node.body
                    atomic |= {id(call) for part in scope for call in ast.walk(part)
                               if isinstance(call, ast.Call) and call.args
                               and isinstance(call.args[0], ast.Name)
                               and call.args[0].id == item.optional_vars.id}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func) in ("open", "io.open") and may_write(node, "mode"):
            yield node, "write"
        elif callee(node) in ("write_text", "write_bytes"):
            yield node, "write"
        elif callee(node) in ("save", "savez", "savez_compressed", "savetxt", "tofile"):
            yield node, "numpy"
        elif ast.unparse(node.func) == "os.open":
            flags = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg in ("flags", None)), None)
            parts = list(ast.walk(flags)) if flags else []
            names = {getattr(n, "attr", getattr(n, "id", None)) for n in parts
                     if isinstance(n, (ast.Attribute, ast.Name))}
            if (not parts or not names <= READ_FLAGS
                    or any(isinstance(n, ast.Constant) and n.value for n in parts)):
                yield node, "os.open"
        elif callee(node) == "ZipFile" and may_write(node, "mode") and id(node) not in atomic:
            yield node, "zip"


def effective_weight_reads(tree):
    """Each read of ``weight_norm_effective``, bare, through an attribute or under an
    imported alias: a call, or a reference a later call could go through."""
    names = {"weight_norm_effective"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "weight_norm_effective" and alias.asname}
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr == "weight_norm_effective")):
            yield node, "weight_norm_effective"


# A rule: its scanner (a module's tree -> (node, pattern) of each use); the glob of the
# modules it scans; each pattern's one owner, "module" or "module:function"; a violation
# (module, code appended to it, the node reported at its last line); and the snippets,
# read as that module, that it refuses (one offence each) and that it passes.  A
# function is a top-level def or class, or a method as "Class.method".
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
        "from numpy.random import default_rng\nrng = default_rng()",
        "from numpy.random import default_rng as make\nmake()",
        "from numpy.random import SeedSequence as S\nS()"), (
        "import numpy as np\nrng = np.random.default_rng(0)",
        "import numpy as np\nseeds = np.random.SeedSequence(1).spawn(2)",
        "import numpy as np\ndef draw(rng: np.random.Generator):\n    return rng.random(3)",
        "from numpy.random import default_rng, Generator",
        "import numpy as np\nrandom = 1\nx = np.zeros(2).random",
        "from numpy.random import default_rng\nrng = default_rng(seed=3)",
        "from numpy.random import default_rng as make\nmake(0)")),
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
    # os.open is the lock's: every command writes under --out only after taking it
    "atomic writer": Rule(file_writes, "*.py", {"write": "data.py:atomic_open",
                                                "os.open": "cli.py:OutDirLock"}, (
        "data.py", "\ndef write_lines(path, lines):\n    open(path, 'w').writelines(lines)\n",
        "open(path, 'w')"), (
        "open(path, 'w')", "open(path, 'ab')", "open(path, 'x')", "open(path, 'r+b')",
        "open(path, mode)", "open(path, mode='w')", "open(path, **options)",
        "import io\nio.open(path, 'w', encoding='utf-8')", "Path(path).write_text(text)",
        "path.write_bytes(blob)", "def write_csv(path, rows):\n    return open(path, 'w')",
        "os.open(path, os.O_RDWR | os.O_CREAT, 0o666)", "os.open(path, flags)",
        "os.open(path, os.O_WRONLY)", "os.open(path, 1)",
        "np.save(path, a)", "np.savez(path, a=a)", "np.savez_compressed(path, a=a)",
        "np.savetxt(path, a)", "a.tofile(path)", "zipfile.ZipFile(path, 'w')",
        "zipfile.ZipFile(fh, mode='a')", "ZipFile(path, mode)",
        "with open(path, 'rb') as fh, zipfile.ZipFile(fh, 'w') as zf:\n    pass",
        "with atomic_open(path, 'wb') as fh:\n    zipfile.ZipFile(other, 'w')"), (
        "open(path)", "open(path, 'rb')", "open(path, encoding='utf-8')", "open(path, mode='r')",
        "os.open(path, os.O_RDONLY)", "os.open(path, os.O_RDONLY | os.O_CLOEXEC)",
        "zf.open(name, 'w')", "np.load(path)", "zipfile.ZipFile(fh)",
        "zipfile.ZipFile(fh, 'r')",
        "with atomic_open(path, 'wb') as fh:\n    fh.write(blob)",
        "with atomic_open(path, 'wb') as fh, zipfile.ZipFile(fh, 'w') as zf:\n    pass",
        "with atomic_open(path, 'wb') as fh:\n    with zipfile.ZipFile(fh, 'w') as zf:\n"
        "        pass",
        "def atomic_open(path, mode):\n    return open(path + '.tmp', mode)")),
    # a weight-normed unit trains through norm.weight_normed, whose node keeps no
    # effective weight; evaluate holds them, built once per call, outside any tape
    "effective weight": Rule(effective_weight_reads, "*.py", {
        "weight_norm_effective": "model.py:RTNet.weights_held"}, (
        "model.py", "\ndef rebuild(unit):\n    return weight_norm_effective(unit.v, unit.g)\n",
        "weight_norm_effective"), (
        "weight_norm_effective(v, g)", "norm.weight_norm_effective(v, g)",
        "from .norm import weight_norm_effective as wn\nwn(v, g)",
        "make = weight_norm_effective",
        "class ConvUnit:\n    def forward(self, x):\n        return weight_norm_effective(self.v, "
        "self.g)",
        "class RTNet:\n    def forward(self, x):\n        return weight_norm_effective(v, g)",
        "def weights_held(units):\n    return [weight_norm_effective(u.v, u.g) for u in units]"), (
        "class RTNet:\n    def weights_held(self):\n        for u in units:\n"
        "            u._held = weight_norm_effective(u.v, u.g)",
        "from .norm import weight_norm_effective",
        "from .norm import weight_norm_effective as wn",
        "weight_normed(kernels, x, v, g, bias)",
        "def weight_norm_effective(v, g):\n    return v",
        "weight_norm_effective_calls = 0")),
}


def uses(rule: Rule, source: str) -> list[tuple[int, str, str, str]]:
    """(line, function or "", pattern, code) of each use ``rule.scan`` finds."""
    tree = ast.parse(source)
    where = {}
    for stmt in tree.body:
        where.update((id(node), getattr(stmt, "name", "")) for node in ast.walk(stmt))
        if isinstance(stmt, ast.ClassDef):
            where.update((id(node), f"{stmt.name}.{method.name}") for method in stmt.body
                         if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                         for node in ast.walk(method))
    return sorted((node.lineno, where[id(node)], pattern, ast.get_source_segment(source, node))
                  for node, pattern in rule.scan(tree))


def places(module: str, function: str) -> set[str]:
    """The owners that hold a use in ``function`` of ``module``: the module, the
    top-level def or class, and the method."""
    return {module, f"{module}:{function.split('.')[0]}", f"{module}:{function}"}


def offences(rule: Rule, source: str, module: str) -> list[str]:
    """``"<line>: <code>"`` of each use in ``source``, read as ``module``, outside its owner."""
    return [f"{line}: {code}" for line, function, pattern, code in uses(rule, source)
            if rule.owners.get(pattern) not in places(module, function)]


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES)
def test_src_obeys_the_rule_and_each_owner_holds_its_pattern(rule):
    modules = {p.name: p.read_text() for p in sorted(SRC.glob(rule.files))}
    assert {rule.inject[0], *(o.split(":")[0] for o in rule.owners.values())} <= modules.keys()
    assert {m: hits for m, source in modules.items() if (hits := offences(rule, source, m))} == {}
    held = {(pattern, place) for m, source in modules.items()
            for _, function, pattern, _ in uses(rule, source) for place in places(m, function)}
    assert set(rule.owners.items()) <= held


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
