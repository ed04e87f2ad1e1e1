"""One repetition of a workload in a fresh process.

Runs the library's public API in the order ``rtnet train`` then ``rtnet eval``
use it: load_csv -> select_variates -> split -> standardize -> relation
matrix -> RTNet -> train_end_to_end / train_contrastive -> evaluate(test).
Prints one JSON object with the timings, checks and (when traced) the
per-layer figures.  Started by run.py with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import rtnet
from rtnet import data, model, relation, training
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# The workload seed drives the data only.  Model initialisation, dropout and
# batch order use this fixed seed, so differences between seeds come from the
# data and a given seed repeats bit for bit.
MODEL_SEED = 0
# Stage-1 losses are non-negative up to rounding; the tolerance is the one
# the acceptance suite's non-negativity criterion uses.
NONNEGATIVE_TOL = 1e-12
# Untraced repetitions time this many evaluate calls on the test split, so a
# run holds about as much evaluation time as training time to take medians of.
EVAL_CALLS = 2
# Set-up takes 0.1-0.4 s, so it is repeated (at least twice, at most
# MAX_SETUPS times) until this much of it has been timed.
SETUP_BUDGET_S = 0.6
MAX_SETUPS = 8


def setup(w, csv_path: str):
    """Everything a ``rtnet train`` run pays before its first step."""
    ds = data.load_csv(csv_path)
    if w.task == "univariate":
        ds = ds.select_variates([ds.target_index])
    parts = data.split(ds, data.SplitSpec(mode="ratio"))
    (train_ds, val_ds, test_ds), _ = data.standardize(*parts, guard_eps=1e-8)
    mixing = None
    if w.use_relation:
        raw = relation.cos_relation_matrix(train_ds.values, train_ds.variate_names)
        mixing = relation.threshold_and_standardize(raw, w.model["theta_degrees"])
    cfg = model.ModelConfig(n_variates=train_ds.n_variates, **w.model)
    net = model.RTNet(cfg, np.random.default_rng(MODEL_SEED), relation=mixing)
    return train_ds, val_ds, test_ds, net


def check_outputs(w, net, test_ds, result, test_mse: float) -> list[str]:
    """Output checks; each failure is one message."""
    errors = []
    cfg = net.cfg
    offsets = data.make_windows(len(test_ds), cfg.l_in, cfg.l_out)[:16]
    batch = data.gather_batch(test_ds, offsets, cfg.l_in, cfg.l_out,
                              with_marks=cfg.time_mode == "decoupled")
    pred = net.forward(batch.inputs, batch.time_marks, training=False).data
    expected = (offsets.size, cfg.l_out, cfg.n_variates)
    if pred.shape != expected:
        errors.append(f"prediction shape {pred.shape} != {expected}")
    if not np.all(np.isfinite(pred)):
        errors.append("non-finite prediction")
    if not np.isfinite(test_mse):
        errors.append(f"non-finite test_mse {test_mse}")
    for row in result.history:
        losses = [v for k, v in row.items() if k.startswith("train_loss_") or k == "val_mse"]
        if not all(np.isfinite(losses)):
            errors.append(f"non-finite loss in history row {row}")
        elif row.get("stage") == 1 and min(losses) < -NONNEGATIVE_TOL:
            errors.append(f"negative contrastive loss in stage-1 row {row}")
    if w.fmt == "contrastive" and not any(r.get("stage") == 1 for r in result.history):
        errors.append("contrastive run recorded no stage-1 history")
    return errors


def zero_forecast_mse(ds, cfg) -> float:
    """MSE of forecasting every test target as the train mean (0 once standardized)."""
    offsets = data.make_windows(len(ds), cfg.l_in, cfg.l_out)
    targets = data.gather_batch(ds, offsets, cfg.l_in, cfg.l_out).targets
    return float(np.mean(targets ** 2))


def timed(tracer, name: str, fn, *args):
    """(result, seconds) of fn(*args), inside a root span when traced."""
    idx = tracer.open(name) if tracer is not None else None
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(idx)
    return result, seconds


def run(w, csv_path: str, tracer, min_setups: int) -> dict:
    setup_s: list[float] = []
    while len(setup_s) < min_setups or (sum(setup_s) < SETUP_BUDGET_S
                                        and len(setup_s) < MAX_SETUPS):
        (train_ds, val_ds, test_ds, net), seconds = timed(tracer, "setup", setup, w, csv_path)
        setup_s.append(seconds)
    if tracer is not None:
        tracer.wrap_head_time(net)

    tcfg = training.TrainConfig(seed=MODEL_SEED, **w.train)
    trainer = training.train_contrastive if w.fmt == "contrastive" else training.train_end_to_end
    result, train_s = timed(tracer, "train", trainer, net, train_ds, val_ds, tcfg)
    eval_s, mses = [], []
    for _ in range(1 if tracer is not None else EVAL_CALLS):
        (mse, _), seconds = timed(tracer, "eval", training.evaluate, net, test_ds)
        eval_s.append(seconds)
        mses.append(mse)
    test_mse = mses[0]

    cfg = net.cfg
    out = {
        "setup_s": setup_s,
        "train_s": train_s,
        "eval_s": eval_s,
        "eval_windows": int(data.make_windows(len(test_ds), cfg.l_in, cfg.l_out).size),
        "test_mse": test_mse,
        "test_mse_hex": float(test_mse).hex(),
        "zero_mse": zero_forecast_mse(test_ds, cfg),
        "params": int(sum(p.size for p in net.parameters())),
        "errors": check_outputs(w, net, test_ds, result, test_mse),
    }
    if any(m != test_mse for m in mses):
        out["errors"].append(f"repeated evaluate calls disagree: {mses}")
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--csv", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spans", help="file the traced run writes its spans to")
    args = p.parse_args(argv)

    if not Path(rtnet.__file__).resolve().is_relative_to(ROOT):
        print(f"rtnet imported from {rtnet.__file__}, not from this checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke_variant()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        out = run(w, args.csv, tracer, min_setups=1 if args.smoke else 2)
        if tracer is not None:
            from layers import layer_metrics
            out["layers"] = layer_metrics(tracer, out)
            layers = out["layers"]
            error = layers["trace.attributed_s"] + layers["trace.unattributed_s"] - out["train_s"]
            if abs(error) > 1e-3:
                out["errors"].append(f"span self times miss train_s by {error:.6f} s")
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump(tracer.spans, fh)
    except Exception as exc:  # a failed repetition is reported, not fatal to the benchmark
        traceback.print_exc()
        out = {"errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
