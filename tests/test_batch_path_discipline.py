"""How a batch of windows becomes a forecast is decided in one place of ``rtnet.training``.

An AST scan of ``training.py`` refuses a ``gather_batch`` call outside
``_gather`` and a ``.forward`` call outside ``_predict``: ``evaluate`` and the
supervised training step both reach the data and the model through those two
helpers, so they read the same windows, marks and time mode.
"""

import ast
from pathlib import Path

import pytest

TRAINING = Path(__file__).resolve().parent.parent / "src" / "rtnet" / "training.py"
OWNERS = {"gather_batch": "_gather", "forward": "_predict"}


def batch_path_calls(source: str) -> list[tuple[int, str, str]]:
    """(line, owner, callee) for each ``gather_batch`` or ``forward`` call, bare
    or through an attribute, where ``owner`` is the top-level function or class
    it sits in, or ``<module>``."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if callee in OWNERS:
                    found.append((node.lineno, owner, callee))
    return sorted(found)


def misplaced(source: str) -> list[str]:
    """``"<line>: <owner>: <callee>"`` for each call outside its helper."""
    return [f"{line}: {owner}: {callee}" for line, owner, callee in batch_path_calls(source)
            if OWNERS[callee] != owner]


def test_training_gathers_and_forwards_in_one_helper_each():
    source = TRAINING.read_text()
    calls = {(owner, callee) for _, owner, callee in batch_path_calls(source)}
    assert calls == {("_gather", "gather_batch"), ("_predict", "forward")}
    assert misplaced(source) == []


def test_an_injected_forward_call_is_caught():
    source = TRAINING.read_text()
    line = source.count("\n") + 3
    injected = source + "\ndef evaluate_again(model, wb):\n    return model.forward(wb.inputs)\n"
    assert misplaced(injected) == [f"{line}: evaluate_again: forward"]


@pytest.mark.parametrize("code", [
    "def f(ds):\n    return gather_batch(ds, [0], 4, 2)",
    "def f(ds):\n    return data.gather_batch(ds, [0], 4, 2)",
    "def f(model, x):\n    return model.forward(x)",
    "class C:\n    def f(self, x):\n        return self.forward(x)",
    "def _predict(model, ds):\n    return gather_batch(ds, [0], 4, 2)",
    "x = model.forward(inputs)"])
def test_every_form_of_call_outside_its_helper_is_refused(code):
    assert len(misplaced(code)) == 1, code


@pytest.mark.parametrize("code", [
    "def _gather(model, ds, offsets):\n    return gather_batch(ds, offsets, 4, 2)",
    "def _predict(model, wb):\n    return model.forward(wb.inputs)",
    "def f(model, ds):\n    return _gather(model, ds, [0])",
    "def f(model, wb):\n    return _predict(model, wb, False, None)",
    "def f(ds):\n    return gather_batches(ds)",
    "def f(model):\n    return model.forward"])
def test_other_calls_pass(code):
    assert misplaced(code) == [], code
