"""Experiment orchestration: ablations, format comparison, seeded statistics.

A spec names one ablation axis (normalization kind, relation matrix on/off,
input length, time-embedding mode or format), a prediction-length grid and a
seed list; every cell trains a fresh model through `train_cell`, as `rtnet
train` does, and reports test MSE/MAE.  Cells are independent, so a worker pool
may run them concurrently; a failed cell is recorded and the run continues.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import (SplitSpec, Standardizer, TimeSeriesDataset, load_csv, make_windows, split,
                   standardize, write_csv, write_json)
from .errors import ConfigError
from .model import TIME_MODES, ModelConfig, RTNet, check_fields, check_json_type, load_config
from .norm import NORM_KINDS
from .relation import cos_relation_matrix, threshold_and_standardize
from .training import TrainConfig, TrainResult, train_contrastive, train_end_to_end, evaluate

PAPER_PRED_GRIDS = ({24, 48, 168, 336, 720}, {24, 48, 96, 288, 672})
FORMATS = ("e2e", "contrastive")
# the spec or model field each axis sets, its JSON type and its values (None: any > 0)
ABLATION_AXES = {"norm_kind": ("norm_kind", str, NORM_KINDS), "input_length": ("l_in", int, None),
                 "relation": ("use_relation", bool, (True, False)),
                 "time_mode": ("time_mode", str, TIME_MODES), "format": ("format", str, FORMATS)}
# the block keys every cell sets itself, and their owners; the axis owns its model field
CELL_OWNED = {("model", "l_out"): "pred_lengths", ("model", "n_variates"): "the data",
              ("model", "groups"): "task and use_relation", ("train", "seed"): "seeds or --seed"}
REPORT_VERSION = "RTNET1"


@dataclass
class ExperimentSpec:
    data_path: str
    pred_lengths: list[int]
    seeds: list[int]
    task: str = "univariate"
    split_mode: str = "ratio"
    ablation: str | None = None
    ablation_values: list = field(default_factory=list)
    fidelity: str = "desk"
    format: str = "e2e"
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    use_relation: bool = True
    BLOCKS = {"model": ModelConfig, "train": TrainConfig}  # not a field: no annotation

    def validate(self) -> None:
        for name, allowed in (("task", ("univariate", "multivariate")),
                              ("split_mode", ("ratio", "months")), ("fidelity", ("desk", "paper")),
                              ("format", FORMATS), ("ablation", (None, *ABLATION_AXES))):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        owners = dict(CELL_OWNED)
        if self.ablation is not None:
            if not self.ablation_values:
                raise ConfigError("ablation axis given without ablation_values")
            if self.ablation == "relation" and self.task == "univariate":
                raise ConfigError("the relation axis needs a multivariate task, got univariate")
            name, hint, allowed = ABLATION_AXES[self.ablation]
            owners["model", name] = f"the {self.ablation} axis"
            for v in self.ablation_values:
                check_json_type(v, hint, f"{self.ablation} values")
                if v < 1 if allowed is None else v not in allowed:
                    rule = f"one of {allowed}" if allowed else "positive"
                    raise ConfigError(f"{self.ablation} values must be {rule}, got {v!r}")
        elif self.ablation_values:
            raise ConfigError("ablation_values given without an ablation axis")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if len({str(v) for v in self.ablation_values}) != len(self.ablation_values):
            raise ConfigError("ablation_values must be distinct")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not self.pred_lengths or min(self.pred_lengths) < 1:
            raise ConfigError(f"pred_lengths must hold at least one length, each >= 1, "
                              f"got {self.pred_lengths}")
        if self.fidelity == "paper" and not any(
                set(self.pred_lengths) <= grid for grid in PAPER_PRED_GRIDS):
            raise ConfigError(f"paper fidelity requires prediction lengths within "
                              f"{PAPER_PRED_GRIDS}, got {self.pred_lengths}")
        for block, cls in self.BLOCKS.items():
            check_fields(cls, getattr(self, block), block)
            for key in getattr(self, block):
                if (block, key) in owners:
                    raise ConfigError(f"{block}.{key} is set by {owners[block, key]}, "
                                      f"not by the {block} block")


def load_spec(obj, what: str) -> ExperimentSpec:
    """An experiment spec from parsed JSON.  A top-level key that the spec's axis
    sets in every cell is refused here, where the keys that were given are known."""
    spec = load_config(ExperimentSpec, obj, what)
    name = ABLATION_AXES[spec.ablation][0] if spec.ablation else None
    if name in obj:
        raise ConfigError(f"{name} is set by the {spec.ablation} axis, not by the spec")
    return spec


def load_splits(path: str, split_mode: str, task: str
                ) -> tuple[list[TimeSeriesDataset], Standardizer]:
    """Train/val/test splits of a CSV, standardized with train statistics; a
    univariate task keeps only the target variate."""
    ds = load_csv(path)
    if task == "univariate":
        ds = ds.select_variates([ds.target_index])
    parts = split(ds, SplitSpec(mode=split_mode))
    return standardize(*parts, guard_eps=1e-8)


# Desk fidelity shrinks the published budget (TrainConfig's defaults) to laptop
# scale.  The default width is this many channels per variate of a multivariate task.
_DESK_TRAIN = {"epochs": 3, "lr": 1e-3, "patience": 2, "max_steps_per_epoch": 120}
_CHANNELS_PER_VARIATE = {"desk": 8, "paper": 32}


def resolve_cell(spec: ExperimentSpec, train_ds: TimeSeriesDataset, axis_value,
                 pred_len: int, seed: int
                 ) -> tuple[ModelConfig, TrainConfig, np.ndarray | None, str]:
    """One cell's model and training configs, relation matrix and format; the
    only place that decides them.

    Job defaults, overridden by the ``model``/``train`` blocks, then what the
    cell derives, which ``ExperimentSpec.validate`` keeps out of the blocks.
    A multivariate job with the relation matrix gets one group per variate;
    every other job is a single fully mixed group.  The default width scales
    with the variate count of a multivariate task either way, so the relation
    ablation compares networks of equal width.
    """
    derived = {}
    if spec.ablation is not None:
        name = ABLATION_AXES[spec.ablation][0]
        if name in ("use_relation", "format"):
            spec = replace(spec, **{name: axis_value})
        else:
            derived[name] = axis_value
    n = train_ds.n_variates
    multivariate = spec.task == "multivariate"
    use_relation = spec.use_relation and multivariate
    derived.update(l_out=pred_len, n_variates=n, groups=n if use_relation else 1)
    width = _CHANNELS_PER_VARIATE[spec.fidelity] * (n if multivariate else 1)
    mcfg = load_config(ModelConfig, {"l_in": 168, "d_channels": width, **spec.model, **derived},
                       "model")
    desk = _DESK_TRAIN if spec.fidelity == "desk" else {}
    tcfg = load_config(TrainConfig, {**desk, **spec.train, "seed": seed}, "train")

    relation = None
    if use_relation:
        raw = cos_relation_matrix(train_ds.values, train_ds.variate_names)
        relation = threshold_and_standardize(raw, mcfg.theta_degrees)
    return mcfg, tcfg, relation, spec.format


@dataclass
class CellResult:
    axis_value: object
    pred_len: int
    seed: int
    status: str = "ok"
    mse: float | None = None  # None unless the cell finished
    mae: float | None = None
    seconds: float = 0.0
    reason: str = ""


@dataclass
class ExperimentReport:
    spec: dict
    cells: list[CellResult]
    summary: list[dict]

    def all_failed(self) -> bool:
        return all(c.status != "ok" for c in self.cells)

    def write(self, out_dir: str) -> None:
        """``report.json``, in which a failed cell's metrics are null, and
        ``report.csv``, the summary rows; a summary statistic of no finished cell,
        or one that overflows, is null in the one and nan in the other."""
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, "report.json"), {
            "version": REPORT_VERSION, "spec": self.spec,
            "cells": [asdict(c) for c in self.cells], "summary": self.summary})
        columns = ("mean_mse", "std_mse", "mean_mae", "std_mae")
        write_csv(os.path.join(out_dir, "report.csv"), [
            ["axis_value", "pred_len", *columns, "n_seeds"],
            *([row["axis_value"], row["pred_len"],
               *("nan" if row[c] is None else f"{row[c]:.6f}" for c in columns),
               row["n_seeds"]] for row in self.summary)])


def train_cell(spec: ExperimentSpec, splits: list[TimeSeriesDataset], axis_value,
               pred_len: int, seed: int) -> tuple[RTNet, TrainResult]:
    """The one path from a job to a trained model; a split with no window fails first."""
    mcfg, tcfg, relation, fmt = resolve_cell(spec, splits[0], axis_value, pred_len, seed)
    for ds in splits:
        make_windows(len(ds), mcfg.l_in, mcfg.l_out)
    model = RTNet(mcfg, np.random.default_rng(seed), relation=relation)
    trainer = train_contrastive if fmt == "contrastive" else train_end_to_end
    return model, trainer(model, splits[0], splits[1], tcfg)


def run_cell(spec: ExperimentSpec, splits: list[TimeSeriesDataset], axis_value,
             pred_len: int, seed: int) -> CellResult:
    cell = CellResult(axis_value=axis_value, pred_len=pred_len, seed=seed)
    start = time.monotonic()
    try:
        model, _ = train_cell(spec, splits, axis_value, pred_len, seed)
        cell.mse, cell.mae = evaluate(model, splits[2])
    except Exception as exc:  # one failed cell is recorded; the experiment goes on
        cell.status = "failed"
        cell.reason = f"{type(exc).__name__}: {exc}"
    cell.seconds = time.monotonic() - start
    return cell


def _summarize(cells: list[CellResult]) -> list[dict]:
    """One row per (axis value, prediction length), in the order cells first appear."""
    keys = dict.fromkeys((str(c.axis_value), c.pred_len) for c in cells)
    out = []
    for axis_value, pred_len in keys:
        ok = [c for c in cells if c.status == "ok"
              and (str(c.axis_value), c.pred_len) == (axis_value, pred_len)]
        row = {"axis_value": axis_value, "pred_len": pred_len}
        for metric in ("mse", "mae"):
            values = [getattr(c, metric) for c in ok]
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is missing too
                stats = (np.mean(values), np.std(values)) if ok else (np.nan, np.nan)
            row[f"mean_{metric}"], row[f"std_{metric}"] = (
                float(v) if np.isfinite(v) else None for v in stats)
        out.append({**row, "n_seeds": len(ok)})
    return out


def worker_count() -> int:
    """Threads for experiment cells: RTNET_WORKERS, or 1 when it is unset or empty."""
    env = os.environ.get("RTNET_WORKERS") or "1"
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"RTNET_WORKERS must be a positive integer, got {env!r}")
    return int(env)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Train/evaluate every (ablation value, prediction length, seed) cell."""
    spec.validate()
    splits, _ = load_splits(spec.data_path, spec.split_mode, spec.task)
    values = spec.ablation_values if spec.ablation is not None else [spec.format]
    jobs = [(spec, splits, v, pl, s)
            for v in values for pl in spec.pred_lengths for s in spec.seeds]
    workers = worker_count()
    if workers == 1:
        cells = [run_cell(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda job: run_cell(*job), jobs))
    # the key the axis sets is left out, so the report's spec reruns as a spec
    owned = ABLATION_AXES[spec.ablation][0] if spec.ablation else None
    report_spec = {k: v for k, v in asdict(spec).items() if k != owned}
    return ExperimentReport(spec=report_spec, cells=cells, summary=_summarize(cells))
