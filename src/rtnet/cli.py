"""Command-line front end.

Subcommands: relate, train, eval, sweep, pacf, experiment.  All outputs
land under --out, stdout carries machine-readable JSON only (for `eval`), and
human-readable logs go to stderr.  A lock file serializes invocations per
output directory.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import os
import sys

import numpy as np

from . import harness
from .data import SplitSpec, load_csv, split, standardize
from .diagnostics import line_plot_svg, pacf
from .errors import ConfigError, RTNetError
from .model import RTNet, load_checkpoint, save_checkpoint
from .relation import cos_relation_matrix, relation_csv, threshold_and_standardize
from .training import train_contrastive, train_end_to_end, evaluate

LOCK_NAME = ".rtnet.lock"


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtnet", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, data=True, out=True, config=False):
        if data:
            p.add_argument("--data", required=True, help="input CSV path")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--split-mode", choices=("ratio", "months"), default="ratio")

    p = sub.add_parser("relate", help="emit raw and processed relation matrices as CSV")
    common(p)
    p.add_argument("--theta", type=float, default=45.0)

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    common(p, config=True)
    p.add_argument("--fidelity", choices=("desk", "paper"), default="desk")
    p.add_argument("--format", choices=("e2e", "contrastive"), default="e2e")

    p = sub.add_parser("eval", help="evaluate a checkpoint; prints JSON metrics to stdout")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split-mode", choices=("ratio", "months"), default="ratio")
    p.add_argument("--split", choices=("val", "test"), default="test")

    p = sub.add_parser("sweep", help="input-length sweep")
    common(p, config=True)
    p.add_argument("--fidelity", choices=("desk", "paper"), default="desk")
    p.add_argument("--format", choices=("e2e", "contrastive"), default="e2e")

    p = sub.add_parser("pacf", help="partial autocorrelation of the target variate")
    common(p)
    p.add_argument("--max-lag", type=int, default=48)

    p = sub.add_parser("experiment", help="run an experiment spec")
    p.add_argument("--spec", required=True, help="ExperimentSpec JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--compare-formats", action="store_true")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Validated CLI arguments; duplicated --seed warns and keeps the last value."""
    if sum(1 for a in argv if a == "--seed") > 1:
        log("warning: --seed given more than once; the last value wins")
    return _build_parser().parse_args(argv)


class OutDirLock:
    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, LOCK_NAME)
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not self._holder_is_dead():
                raise RTNetError(f"output directory is locked by {self.path}; "
                                 "remove the stale lock if no other run is active") from None
            log(f"reclaiming stale lock {self.path}")
            os.unlink(self.path)
            return self.__enter__()
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def _holder_is_dead(self) -> bool:
        """True only when the lock names a PID that no longer exists."""
        try:
            with open(self.path, encoding="ascii") as fh:
                pid = int(fh.read())
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError):
            return False
        return False

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.path)


def _load_job(path: str, extra: tuple[str, ...] = ()) -> dict:
    """A train or sweep config file with its defaults filled in; unknown keys fail."""
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    unknown = set(config) - {"task", "use_relation", "model", "train", *extra}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {"task": "univariate", "use_relation": True, "model": {}, "train": {}, **config}


def _cmd_relate(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    train_ds, _, _ = split(ds, SplitSpec(mode=args.split_mode))
    (train_std,), _ = standardize(train_ds, guard_eps=1e-8)
    raw = cos_relation_matrix(train_std.values, train_std.variate_names)
    processed = threshold_and_standardize(raw, args.theta)
    with open(os.path.join(args.out, "relation_raw.csv"), "w", encoding="utf-8") as fh:
        fh.write(relation_csv(raw, train_std.variate_names))
    with open(os.path.join(args.out, "relation_processed.csv"), "w", encoding="utf-8") as fh:
        fh.write(relation_csv(processed, train_std.variate_names))
    log(f"wrote relation matrices for {len(train_std.variate_names)} variates to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    job = _load_job(args.config)
    splits, scaler = harness.load_splits(args.data, args.split_mode, job["task"])
    mcfg, tcfg, relation = harness.build_job(splits[0], job["task"], job["use_relation"],
                                             args.fidelity, job["model"], job["train"],
                                             args.seed)
    model = RTNet(mcfg, np.random.default_rng(args.seed), relation=relation)
    trainer = train_contrastive if args.format == "contrastive" else train_end_to_end
    log(f"training {args.format} model: {mcfg}")
    result = trainer(model, splits[0], splits[1], tcfg)
    save_checkpoint(model, os.path.join(args.out, "checkpoint.rtnet"))
    result.write_history_csv(os.path.join(args.out, "history.csv"))
    with open(os.path.join(args.out, "scaler.json"), "w", encoding="utf-8") as fh:
        fh.write(scaler.to_json())
    mse, mae = evaluate(model, splits[2])
    log(f"best epoch {result.best_epoch}; test mse {mse:.6f}, mae {mae:.6f}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    task = "univariate" if model.cfg.n_variates == 1 else "multivariate"
    (_, val_ds, test_ds), _ = harness.load_splits(args.data, args.split_mode, task)
    ds = val_ds if args.split == "val" else test_ds
    mse, mae = evaluate(model, ds)
    print(json.dumps({"split": args.split, "mse": mse, "mae": mae}))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    job = _load_job(args.config, extra=("lengths", "seeds"))
    lengths = job.get("lengths")
    if not lengths:
        raise ConfigError("sweep config needs a non-empty 'lengths' list")
    spec = harness.ExperimentSpec(
        data_path=args.data, pred_lengths=[job["model"].get("l_out", 24)],
        seeds=job.get("seeds", [args.seed]), task=job["task"], split_mode=args.split_mode,
        ablation="input_length", ablation_values=[int(l) for l in lengths],
        fidelity=args.fidelity, format=args.format, model=job["model"], train=job["train"],
        use_relation=job["use_relation"])
    report = harness.run_experiment(spec)
    rows, skipped = [], []
    for r in report.summary:
        length = int(r["axis_value"])
        failed = [c for c in report.cells if c.axis_value == length and c.status != "ok"]
        for c in failed:
            log(f"cell failed: length={length} seed={c.seed}: {c.reason}")
        if r["n_seeds"]:
            rows.append({"length": length, "n_seeds": r["n_seeds"], "mean_mse": r["mean_mse"],
                         "std_mse": r["std_mse"], "mean_mae": r["mean_mae"],
                         "std_mae": r["std_mae"]})
        else:
            skipped.append({"length": length, "reason": failed[0].reason})
    if not rows:
        raise ConfigError("no input length in the sweep produced a result")
    best = min(rows, key=lambda row: row["mean_mse"])
    near_best = [row["length"] for row in rows if row["mean_mse"] <= best["mean_mse"] * 1.05]

    csv_text = io.StringIO()
    w = csv_mod.writer(csv_text)
    columns = ["length", "mean_mse", "std_mse", "mean_mae", "std_mae"]
    w.writerow(columns)
    w.writerows([[row[c] for c in columns] for row in rows])
    svg = line_plot_svg([float(row["length"]) for row in rows],
                        {"mean MSE": [row["mean_mse"] for row in rows],
                         "mean MAE": [row["mean_mae"] for row in rows]},
                        "Forecast error vs input length", "input length", "error")
    payload = {"rows": rows, "best_length": best["length"], "near_best": near_best,
               "skipped": skipped}
    harness.write_atomic(os.path.join(args.out, "sweep.csv"), csv_text.getvalue())
    harness.write_atomic(os.path.join(args.out, "sweep.json"), json.dumps(payload, indent=2))
    harness.write_atomic(os.path.join(args.out, "sweep.svg"), svg)
    log(f"sweep complete; best length {best['length']}")
    return 0


def _cmd_pacf(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    train_ds, _, _ = split(ds, SplitSpec(mode=args.split_mode))
    series = train_ds.values[:, train_ds.target_index]
    result = pacf(series, args.max_lag)
    out_path = os.path.join(args.out, "pacf.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        w = csv_mod.writer(fh)
        w.writerow(["lag", "phi_kk", "confidence_band"])
        for lag, phi in zip(result.lags, result.phi):
            w.writerow([int(lag), f"{phi:.8f}", f"{result.confidence_band:.8f}"])
    log(f"wrote PACF for {train_ds.variate_names[train_ds.target_index]!r} to {out_path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = harness.ExperimentSpec.from_json(fh.read())
    runner = harness.compare_formats if args.compare_formats else harness.run_experiment
    report = runner(spec)
    report.write(args.out)
    failed = [c for c in report.cells if c.status != "ok"]
    for c in failed:
        log(f"cell failed: axis={c.axis_value} pred={c.pred_len} seed={c.seed}: {c.reason}")
    if report.all_failed():
        raise RTNetError("every experiment cell failed")
    log(f"experiment complete: {len(report.cells) - len(failed)}/{len(report.cells)} cells ok")
    return 0


_COMMANDS = {
    "relate": _cmd_relate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "pacf": _cmd_pacf,
    "experiment": _cmd_experiment,
}


def dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand: 0 on success, 1 on runtime failure."""
    fn = _COMMANDS[args.subcommand]
    try:
        if "out" in args:
            with OutDirLock(args.out):
                return fn(args)
        return fn(args)
    except RTNetError as exc:
        log(f"error: {exc}")
        return 1
    except OSError as exc:
        log(f"error: {exc}")
        return 1


def main(argv: list[str] | None = None) -> int:
    return dispatch(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
