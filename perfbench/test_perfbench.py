"""Smoke test of the benchmark: every workload end to end, untraced and
traced, in a few seconds.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    assert "failed_share" in proc.stdout

    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-smoke-trace{trace}.json")
                        .read_text())
    assert record["machine"]["seed"] == SEED and record["machine"]["nproc"] >= 1
    if trace:
        # tracing must not change the program: untraced and traced
        # repetitions give the same test MSE to the last bit
        reps = record["repetitions"]
        assert sorted(r["traced"] for r in reps) == [False, True]
        assert len({r["test_mse_hex"] for r in reps}) == 1
        layers = next(r for r in reps if r["traced"])["layers"]
        assert layers["trace.attributed_s"] + layers["trace.unattributed_s"] == pytest.approx(
            layers["trace.train_s"], abs=1e-3)


def test_refuses_to_run_without_the_program():
    OUT = HERE / "out"
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(Path(tmp), WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
