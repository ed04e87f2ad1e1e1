"""rtnet benchmark: one workload, measured for a fixed time, checked, reported.

    python3 perfbench/run.py --workload uni_time_e2e --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The seed generates the workload's CSV,
which the program receives as a file.  The benchmark is a closed loop: it
runs one repetition at a time, each in a fresh worker process (so peak RSS
belongs to that repetition), until ``--seconds`` are used, and reports
medians over the repetitions.  Workers run with one BLAS thread, so that
figures do not depend on how many cores the machine has or on what else it
runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, with the tracing overhead (traced minus untraced train_s).
Every repetition's test MSE must be bit-identical, traced or not.
``--smoke`` runs a tiny variant of the workload once, for tests.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Each run also writes
its full record (machine, repetitions, metrics) and, when traced, its spans
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0          # a run must end within 180 s
MIN_REP_TIMEOUT_S = 30.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_windows_per_s": "windows/s",
    "peak_rss_mb": "MB",
    "test_rel_mse": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "step_ms" in name:
        return "ms"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("_mb") or name.endswith(".mb"):
        return "MB"
    if name.endswith("share"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def run_rep(workload: str, csv_path: str, trace: bool, smoke: bool, spans: Path | None,
            timeout: float) -> dict:
    """One repetition in a fresh worker; a crash or bad output is an error."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--csv", csv_path, "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker timed out after {timeout:.0f} s"], "traced": trace}
    wall = time.perf_counter() - t0
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"errors": [f"worker exited {proc.returncode} without a result"]}
    if proc.returncode != 0:
        rep.setdefault("errors", []).append(f"worker exited {proc.returncode}")
    rep["traced"] = trace
    rep["wall_s"] = wall
    return rep


def tag(args) -> str:
    return f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")


def repetitions(args, csv_path: str) -> list[dict]:
    """Run repetitions until the time is used; traced runs alternate
    untraced and traced repetitions, starting untraced."""
    reps: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    min_reps = 2 if args.trace else 1
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and (
                args.smoke
                # start another only if at most half of it would overrun
                or elapsed + longest / 2 >= args.seconds
                or elapsed + max(longest, MIN_REP_TIMEOUT_S) > RUN_LIMIT_S):
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        spans = OUT / f"spans-{tag(args)}.json" if traced else None
        rep = run_rep(args.workload, csv_path, traced, args.smoke, spans,
                      timeout=max(MIN_REP_TIMEOUT_S, RUN_LIMIT_S - elapsed))
        reps.append(rep)
        longest = max(longest, rep.get("wall_s", 0.0))
    return reps


def check_repeatable(reps: list[dict]) -> None:
    """Every repetition of one seed, traced or not, must give the same
    test MSE to the last bit; a repetition that differs is failed."""
    values = [r["test_mse_hex"] for r in reps if not r["errors"]]
    if not values:
        return
    reference = statistics.mode(values)
    for r in reps:
        if not r["errors"] and r["test_mse_hex"] != reference:
            r["errors"].append(f"test_mse {r['test_mse_hex']} differs from {reference} "
                               "of the other repetitions")


def end_to_end(ok: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(s for r in ok for s in r["setup_s"]),
        "train_s": statistics.median(r["train_s"] for r in ok),
        "eval_windows_per_s": statistics.median(r["eval_windows"] / s
                                                for r in ok for s in r["eval_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        # The raw test MSE follows the variance of the short test split, which
        # differs from seed to seed by about as much as the untrained paper
        # model's error itself; relative to the zero forecast on the same
        # windows it is steady across seeds and still moves with any change
        # to the arithmetic or to the model that gets built.
        "test_rel_mse": ok[0]["test_mse"] / ok[0]["zero_mse"],
    }


def per_layer(ok: list[dict]) -> dict:
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    if not traced or not untraced:
        return {}
    names = traced[0]["layers"]
    m = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    base = statistics.median(r["train_s"] for r in untraced)
    m["trace.untraced_train_s"] = base
    m["trace.overhead_s"] = m["trace.train_s"] - base
    m["trace.overhead_share"] = m["trace.overhead_s"] / base
    return m


def main(argv=None) -> int:
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run a tiny variant once, to check the benchmark itself")
    args = p.parse_args(argv)
    # on SIGTERM, unwind like an interrupt: subprocess.run then kills and
    # reaps the running worker, and the temporary data directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rtnet" / "__init__.py").is_file():
        print(f"no rtnet sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    from machine import machine_record
    from synth import write_csv

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke_variant()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        csv_path = os.path.join(tmp, "data.csv")
        write_csv(csv_path, w.rows, args.seed)
        reps = repetitions(args, csv_path)

    for r in reps:
        r.setdefault("errors", [])
    check_repeatable(reps)
    ok = [r for r in reps if not r["errors"]]
    failed = len(reps) - len(ok)
    machine = machine_record(ROOT, args.seed, BLAS_THREADS)
    mode = "traced" if args.trace else "untraced"
    print(f"rtnet benchmark: workload {args.workload}, seed {args.seed}, {mode}, "
          f"{len(reps)} repetitions{' (smoke)' if args.smoke else ''}")
    print("machine: " + json.dumps(machine))
    for i, r in enumerate(reps):
        for e in r["errors"]:
            print(f"repetition {i} failed: {e}")

    if args.trace:
        values = per_layer(ok)
        units = {k: layer_unit(k) for k in values}
    else:
        values = end_to_end(ok) if ok else {}
        units = END_TO_END_UNITS
    complete = bool(values)
    for k, v in values.items():
        print(f"  {k:<36} {v:>16.6g} {units[k]}")
    if ok and not args.trace:
        print(f"  {'test_mse':<36} {ok[0]['test_mse']:>16.6g} standardized MSE")
    print(f"  {'failed_share':<36} {failed / len(reps):>16.6g} failed/attempted "
          f"({failed}/{len(reps)})")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": machine, "repetitions": reps,
              "metrics": values, "failed": failed, "attempted": len(reps)}
    with open(OUT / f"{tag(args)}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {"correct": failed == 0 and complete, "attempted": len(reps), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
