"""Every random draw in ``rtnet`` comes from a seeded ``np.random.Generator``.

An AST scan of ``src/rtnet/*.py`` refuses the ``random`` module and every
``numpy.random`` name but the three that build or name a seeded generator: a
draw from a global generator ignores the seed that the golden tests pin.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rtnet"
ALLOWED = {"default_rng", "SeedSequence", "Generator"}


def unseeded_draws(source: str) -> list[str]:
    """``"<line>: <code>"`` for each use of ``random`` or of a ``numpy.random``
    name outside ``ALLOWED``, including an import that would hide one."""
    tree = ast.parse(source)
    numpy_names = {"numpy"} | {alias.asname or alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.Import) for alias in node.names
                               if alias.name == "numpy"}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad += [node for alias in node.names
                    if alias.name.split(".")[0] == "random" or alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if (module.split(".")[0] == "random" or (module == "numpy" and "random" in names)
                    or (module == "numpy.random" and not names <= ALLOWED)):
                bad.append(node)
    # the attribute read of each ``<numpy>.random`` node, or the node itself when bare
    outer = {id(node.value): node for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            use = outer.get(id(node), node)
            if use.attr not in ALLOWED:
                bad.append(use)
    return [f"{node.lineno}: {ast.get_source_segment(source, node)}"
            for node in sorted(bad, key=lambda node: node.lineno)]


def test_rtnet_draws_only_from_seeded_generators():
    sources = sorted(SRC.glob("*.py"))
    assert {"training.py", "model.py", "tensor.py", "data.py"} <= {p.name for p in sources}
    found = {p.name: unseeded_draws(p.read_text()) for p in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_an_injected_shuffle_in_training_is_caught():
    source = (SRC / "training.py").read_text()
    assert "np.random.SeedSequence" in source and unseeded_draws(source) == []
    line = source.count("\n") + 1
    assert unseeded_draws(source + "np.random.shuffle(AUGMENT_KINDS)\n") == [
        f"{line}: np.random.shuffle"]


@pytest.mark.parametrize("code", [
    "import random", "import random as r", "from random import shuffle",
    "import numpy.random", "import numpy.random as npr", "from numpy import random",
    "from numpy.random import shuffle", "from numpy.random import default_rng, seed",
    "import numpy as np\nnp.random.seed(0)", "import numpy\nnumpy.random.rand(3)",
    "import numpy as onp\nonp.random.normal()", "import numpy as np\nsampler = np.random"])
def test_unseeded_use_is_refused(code):
    assert len(unseeded_draws(code)) == 1, code


@pytest.mark.parametrize("code", [
    "import numpy as np\nrng = np.random.default_rng(0)",
    "import numpy as np\nseeds = np.random.SeedSequence(1).spawn(2)",
    "import numpy as np\ndef draw(rng: np.random.Generator):\n    return rng.random(3)",
    "from numpy.random import default_rng, Generator",
    "import numpy as np\nrandom = 1\nx = np.zeros(2).random"])
def test_seeded_use_passes(code):
    assert unseeded_draws(code) == [], code
