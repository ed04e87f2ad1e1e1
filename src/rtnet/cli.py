"""Command-line front end.

Subcommands: relate, train, eval, sweep, pacf, experiment.  All outputs
land under --out, stdout carries machine-readable JSON only (for `eval`), and
human-readable logs go to stderr.  A lock serializes invocations per output
directory.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from . import harness
from .data import SplitSpec, atomic_open, load_csv, split, write_csv, write_json
from .diagnostics import line_plot_svg, pacf
from .errors import ConfigError, RTNetError
from .model import load_checkpoint, load_config, save_checkpoint
from .relation import cos_relation_matrix, threshold_and_standardize
from .training import evaluate


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


class _SeedAction(argparse.Action):
    """Store --seed, warning when an earlier occurrence in any spelling is overwritten."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            log("warning: --seed given more than once; the last value wins")
        setattr(namespace, self.dest, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtnet", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, out=True, config=False):
        p.add_argument("--data", required=True, help="input CSV path")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
            p.add_argument("--fidelity", choices=("desk", "paper"), default="desk")
            p.add_argument("--format", choices=("e2e", "contrastive"), default="e2e")
            p.add_argument("--seed", type=int, action=_SeedAction)
        p.add_argument("--split-mode", choices=("ratio", "months"), default="ratio")

    p = sub.add_parser("relate", help="emit raw and processed relation matrices as CSV")
    common(p)
    p.add_argument("--theta", type=float, default=45.0)

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    common(p, config=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint; prints JSON metrics to stdout")
    p.add_argument("--checkpoint", required=True)
    common(p, out=False)
    p.add_argument("--split", choices=("val", "test"), default="test")

    p = sub.add_parser("sweep", help="input-length sweep")
    common(p, config=True)

    p = sub.add_parser("pacf", help="partial autocorrelation of the target variate")
    common(p)
    p.add_argument("--max-lag", type=int, default=48)

    p = sub.add_parser("experiment", help="run an experiment spec")
    p.add_argument("--spec", required=True, help="ExperimentSpec JSON path")
    p.add_argument("--out", required=True)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    return _build_parser().parse_args(argv)


class OutDirLock:
    """An exclusive flock on the output directory's ``.rtnet.lock``, which the kernel
    drops however its holder ends.  The holder unlinks the file before letting go,
    and a run that locked a file no longer at the path tries again."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, ".rtnet.lock")
        self.fd = None

    def __enter__(self):
        while True:
            # read-write, so that flock works where NFS emulates it by byte-range locks
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self.fd = fd
                    return self
            except BlockingIOError:
                raise RTNetError(f"another run holds the lock {self.path}") from None
            except FileNotFoundError:
                pass  # its holder unlinked it after this run opened it
            finally:
                if self.fd is None:
                    os.close(fd)

    def __exit__(self, *exc):
        os.unlink(self.path)
        os.close(self.fd)


@dataclass
class TrainFile:
    """The keys of a train config file; the spec it becomes checks their values."""
    task: str = "univariate"
    use_relation: bool = True
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)

    def validate(self) -> None:
        pass


@dataclass
class SweepFile(TrainFile):
    """A sweep config file: a train file's keys, the input lengths and optional seeds."""
    lengths: list[int] = field(kw_only=True)
    seeds: list[int] | None = None


def _read_json(path: str, what: str):
    """The parsed content of a --config or --spec file; bytes that are not UTF-8
    or text that is not JSON is a ``ConfigError`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable {what} ({exc})") from None


def _job_spec(args: argparse.Namespace) -> harness.ExperimentSpec:
    """A train or sweep config file plus the command's flags, as an experiment spec."""
    what = f"{args.subcommand} config"
    job = load_config(SweepFile if args.subcommand == "sweep" else TrainFile,
                      _read_json(args.config, what), what)
    if isinstance(job, SweepFile) and job.seeds is not None and args.seed is not None:
        raise ConfigError("--seed is set by the sweep config's seeds, not by the command line")
    model = dict(job.model)  # its l_out is the one prediction length
    spec = {"data_path": args.data, "pred_lengths": [model.pop("l_out", 24)],
            "seeds": [args.seed or 0], "split_mode": args.split_mode, "fidelity": args.fidelity,
            "format": args.format, **{k: v for k, v in asdict(job).items() if v is not None},
            "model": model}
    if isinstance(job, SweepFile):
        spec.update(ablation="input_length", ablation_values=spec.pop("lengths"))
    return harness.load_spec(spec, what)


def _cmd_relate(args: argparse.Namespace) -> int:
    (train_std, _, _), _ = harness.load_splits(args.data, args.split_mode, "multivariate")
    raw = cos_relation_matrix(train_std.values, train_std.variate_names)
    processed = threshold_and_standardize(raw, args.theta)
    names = train_std.variate_names
    for name, matrix in (("relation_raw.csv", raw), ("relation_processed.csv", processed)):
        write_csv(os.path.join(args.out, name), [["", *names], *(
            [label, *(f"{v:.6f}" for v in row)] for label, row in zip(names, matrix))])
    log(f"wrote relation matrices for {len(names)} variates to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    spec = _job_spec(args)
    splits, scaler = harness.load_splits(args.data, args.split_mode, spec.task)
    model, result = harness.train_cell(spec, splits, None, spec.pred_lengths[0], spec.seeds[0])
    log(f"trained {args.format} model: {model.cfg}")
    mse, mae = evaluate(model, splits[2])  # a failed forecast writes nothing
    save_checkpoint(model, os.path.join(args.out, "checkpoint.rtnet"))
    result.write_history_csv(os.path.join(args.out, "history.csv"))
    write_json(os.path.join(args.out, "scaler.json"),
               {"mean": scaler.mean.tolist(), "std": scaler.std.tolist()})
    log(f"best epoch {result.best_epoch}; test mse {mse:.6f}, mae {mae:.6f}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    task = "univariate" if model.cfg.n_variates == 1 else "multivariate"
    (_, val_ds, test_ds), _ = harness.load_splits(args.data, args.split_mode, task)
    ds = val_ds if args.split == "val" else test_ds
    mse, mae = evaluate(model, ds)
    print(json.dumps({"split": args.split, "mse": mse, "mae": mae}, allow_nan=False))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    report = harness.run_experiment(_job_spec(args))
    rows, skipped = [], []
    for r in report.summary:
        length = int(r["axis_value"])
        failed = [c for c in report.cells if c.axis_value == length and c.status != "ok"]
        for c in failed:
            log(f"cell failed: length={length} seed={c.seed}: {c.reason}")
        if r["n_seeds"]:
            rows.append({"length": length, **{k: r[k] for k in (
                "n_seeds", "mean_mse", "std_mse", "mean_mae", "std_mae")}})
        else:
            skipped.append({"length": length, "reason": failed[0].reason})
    if not rows:
        raise ConfigError("no input length in the sweep produced a result")
    best = min(rows, key=lambda row: row["mean_mse"])
    near_best = [row["length"] for row in rows if row["mean_mse"] <= best["mean_mse"] * 1.05]

    columns = ["length", "mean_mse", "std_mse", "mean_mae", "std_mae"]
    write_csv(os.path.join(args.out, "sweep.csv"),
              [columns, *([row[c] for c in columns] for row in rows)])
    svg = line_plot_svg([float(row["length"]) for row in rows],
                        {"mean MSE": [row["mean_mse"] for row in rows],
                         "mean MAE": [row["mean_mae"] for row in rows]},
                        "Forecast error vs input length", "input length", "error")
    write_json(os.path.join(args.out, "sweep.json"), {
        "rows": rows, "best_length": best["length"], "near_best": near_best, "skipped": skipped})
    with atomic_open(os.path.join(args.out, "sweep.svg")) as fh:
        fh.write(svg)
    log(f"sweep complete; best length {best['length']}")
    return 0


def _cmd_pacf(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    train_ds, _, _ = split(ds, SplitSpec(mode=args.split_mode))
    series = train_ds.values[:, train_ds.target_index]
    result = pacf(series, args.max_lag)
    out_path = os.path.join(args.out, "pacf.csv")
    write_csv(out_path, [["lag", "phi_kk", "confidence_band"], *(
        [int(lag), f"{phi:.8f}", f"{result.confidence_band:.8f}"]
        for lag, phi in zip(result.lags, result.phi))])
    log(f"wrote PACF for {train_ds.variate_names[train_ds.target_index]!r} to {out_path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = harness.load_spec(_read_json(args.spec, "experiment spec"), "experiment spec")
    report = harness.run_experiment(spec)
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
    except (RTNetError, OSError) as exc:
        log(f"error: {exc}")
        return 1


def main(argv: list[str] | None = None) -> int:
    return dispatch(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
