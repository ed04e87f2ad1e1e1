"""Losses, augmentation, the overlap-limited batch sampler, and the fit loop.

End-to-end training backpropagates the sum of per-variate MSE losses; with
grouped layers this is gradient-identical to backpropagating each variate's
loss through its own group.  Contrastive training runs in two stages: the
pyramid learns window representations against an overlap-limited minibatch,
then the pyramid is frozen and only the projection heads fit the targets.
Both formats, and both contrastive stages, run the same loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesDataset, gather_batch, make_windows
from .errors import ConfigError, NumericalError, SamplerError
from .model import RTNet
from .optim import Adam
from .tensor import (GradTape, Tensor, abs_op, add, add_scalar, backward, exp_op,
                     log_op, matmul_t, mse_per_variate, mul_const, mul_scalar,
                     normalize_rows, sub, sum_axis, take_axis1, take_rows)

AUGMENT_KINDS = ("scaling", "jittering", "entirety_scaling")


@dataclass
class AugmentSpec:
    kind: str
    beta: float = 0.2

    def __post_init__(self):
        if self.kind not in AUGMENT_KINDS:
            raise ConfigError(f"augmentation kind must be one of {AUGMENT_KINDS}, got {self.kind!r}")
        _check_beta(self.beta, "augmentation beta")


def _check_beta(beta: float, name: str) -> None:
    # augment draws from uniform(-beta, beta), whose width 2*beta must be finite
    try:
        usable = beta >= 0.0 and math.isfinite(2.0 * beta)
    except OverflowError:  # an int too large for a float
        usable = False
    if not usable:
        raise ConfigError(f"{name} must be >= 0 with 2*beta finite, got {beta}")


def augment(window: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Perturb one input window; every drawn amplitude lies in [-beta, beta]."""
    window = np.asarray(window, dtype=np.float64)
    if spec.kind == "scaling":
        return window * (1.0 + rng.uniform(-spec.beta, spec.beta, window.shape))
    if spec.kind == "jittering":
        return window + rng.uniform(-spec.beta, spec.beta, window.shape)
    return window * (1.0 + rng.uniform(-spec.beta, spec.beta))


def max_condition1_batch(n_rows: int, l_in: int, alpha: float) -> tuple[int, int]:
    """(max feasible batch, minimum offset gap) for the overlap bound L_in(1 - 1/alpha)."""
    if alpha < 1.0:
        raise ConfigError(f"alpha must be >= 1, got {alpha}")
    n_offsets = n_rows - l_in + 1
    if n_offsets < 1:
        raise SamplerError(f"series of {n_rows} rows cannot host a window of {l_in}")
    min_gap = math.ceil(l_in / alpha)
    return (n_offsets - 1) // min_gap + 1, min_gap


def sample_batch_condition1(dataset, batch: int, l_in: int, alpha: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Draw ``batch`` window offsets whose pairwise overlaps satisfy the bound.

    Rejection-samples random offset sets, then falls back to a deterministic
    evenly spaced sweep with a random start.
    """
    n_rows = len(dataset) if not isinstance(dataset, int) else dataset
    feasible, min_gap = max_condition1_batch(n_rows, l_in, alpha)
    if batch > feasible:
        raise SamplerError(f"batch {batch} infeasible: at most {feasible} windows of "
                           f"length {l_in} fit {n_rows} rows at alpha={alpha}")
    n_offsets = n_rows - l_in + 1
    for _ in range(64):
        cand = np.sort(rng.choice(n_offsets, size=batch, replace=False))
        if batch == 1 or np.diff(cand).min() >= min_gap:
            return cand
    slack = (n_offsets - 1) - (batch - 1) * min_gap
    start = int(rng.integers(0, slack + 1)) if slack > 0 else 0
    gap = (n_offsets - 1 - start) // (batch - 1) if batch > 1 else 1
    return start + gap * np.arange(batch)


@dataclass
class ContrastiveBatch:
    """Original windows followed by their augmented instances.

    Instance layout along axis 0: the B originals first, then instance i of
    window m at index B + m*I + i.
    """

    windows: np.ndarray          # ((1+I)*B, L_in, N)
    offsets: np.ndarray          # (B,)
    n_windows: int
    n_augments: int

    @property
    def total_instances(self) -> int:
        return (1 + self.n_augments) * self.n_windows


def make_contrastive_batch(ds: TimeSeriesDataset, batch: int, l_in: int, alpha: float,
                           n_augments: int, beta: float,
                           rng: np.random.Generator) -> ContrastiveBatch:
    offsets = sample_batch_condition1(len(ds), batch, l_in, alpha, rng)
    originals = ds.values[offsets[:, None] + np.arange(l_in)]
    pieces = [originals]
    for m in range(batch):
        for _ in range(n_augments):
            kind = AUGMENT_KINDS[rng.integers(0, len(AUGMENT_KINDS))]
            pieces.append(augment(originals[m], AugmentSpec(kind, beta), rng)[None])
    return ContrastiveBatch(np.concatenate(pieces, axis=0), offsets, batch, n_augments)


def contrastive_loss(reps: Tensor, n_windows: int, n_augments: int
                     ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Similarity-ratio loss over (total, groups, features) representations.

    Returns (scalar total for backward, per-variate means, per-window losses).
    For window m: -log[(e + sum_i sim(h_m, h_mi)) / sum over all instances of
    sim(h_m, .)], with sim(u, v) = exp(|u.v| / (|u||v|)); the literal constant
    e stands in for the self-similarity sim(h_m, h_m).
    """
    total_inst, groups, _ = reps.data.shape
    if total_inst != (1 + n_augments) * n_windows:
        raise ConfigError(f"{total_inst} instances != (1+{n_augments})*{n_windows}")
    mask = np.zeros((n_windows, total_inst))
    for m in range(n_windows):
        mask[m, n_windows + m * n_augments: n_windows + (m + 1) * n_augments] = 1.0

    total: Tensor | None = None
    per_variate = np.empty(groups)
    per_window = np.empty((groups, n_windows))
    for g in range(groups):
        h = normalize_rows(take_axis1(reps, g))
        sims = exp_op(abs_op(matmul_t(h, h)))
        rows = take_rows(sims, 0, n_windows)
        den = sum_axis(rows, 1)
        num = add_scalar(sum_axis(mul_const(rows, mask), 1), float(np.e))
        loss_m = sub(log_op(den), log_op(num))
        loss_g = mul_scalar(sum_axis(loss_m), 1.0 / n_windows)
        per_window[g] = loss_m.data
        per_variate[g] = loss_g.item()
        total = loss_g if total is None else add(total, loss_g)
    return total, per_variate, per_window


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    stage1_batch_size: int = 64
    stage2_batch_size: int = 16
    lr: float = 1e-4
    patience: int = 3
    alpha: float = 4.0
    n_augments: int = 3
    beta: float = 0.2
    seed: int = 0
    max_steps_per_epoch: int | None = None
    stage1_epochs: int | None = None

    def validate(self) -> None:
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.stage1_epochs is not None and self.stage1_epochs < 1:
            raise ConfigError(f"stage1_epochs must be >= 1, got {self.stage1_epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr}")
        if self.n_augments < 1:
            # the contrastive loss needs a positive pair for every window
            raise ConfigError(f"n_augments must be >= 1, got {self.n_augments}")
        _check_beta(self.beta, "beta")
        for name in ("batch_size", "stage1_batch_size", "stage2_batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_steps_per_epoch is not None and self.max_steps_per_epoch < 1:
            # every epoch takes a step, so its mean loss is defined
            raise ConfigError(f"max_steps_per_epoch must be >= 1, "
                              f"got {self.max_steps_per_epoch}")


def early_stop(history: list[float], patience: int) -> tuple[bool, int]:
    """Stop once the best value is ``patience`` evaluations old; ties don't improve."""
    if patience < 1:
        raise ConfigError(f"patience must be >= 1, got {patience}")
    if not history:
        return False, -1
    best = int(np.argmin(history))  # first occurrence: a tie is no improvement
    return (len(history) - 1 - best) >= patience, best


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mse: float = float("inf")

    def write_history_csv(self, path: str) -> None:
        if not self.history:
            return
        keys: list[str] = []
        for row in self.history:
            keys.extend(k for k in row if k not in keys)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(keys)
            for row in self.history:
                w.writerow([row.get(k, "") for k in keys])


def _history_row(epoch: int, per_variate_loss: np.ndarray, val_mse: float,
                 val_mae: float, stage: int | None = None) -> dict:
    row: dict = {"epoch": epoch}
    if stage is not None:
        row["stage"] = stage
    for i, v in enumerate(np.atleast_1d(per_variate_loss)):
        row[f"train_loss_{i}"] = float(v)
    row["val_mse"] = val_mse
    row["val_mae"] = val_mae
    return row


def evaluate(model: RTNet, ds: TimeSeriesDataset, batch_size: int = 64) -> tuple[float, float]:
    """Mean squared / absolute error over every window of a split (eval mode)."""
    cfg = model.cfg
    offsets = make_windows(len(ds), cfg.l_in, cfg.l_out)
    se = 0.0
    ae = 0.0
    count = 0
    for start in range(0, offsets.size, batch_size):
        chunk = offsets[start:start + batch_size]
        wb = gather_batch(ds, chunk, cfg.l_in, cfg.l_out,
                          with_marks=cfg.time_mode == "decoupled",
                          with_input_marks=cfg.time_mode == "input")
        pred = model.forward(wb.inputs, wb.time_marks, training=False,
                             input_marks=wb.input_marks)
        diff = pred.data - wb.targets
        se += float((diff ** 2).sum())
        ae += float(np.abs(diff).sum())
        count += diff.size
    return se / count, ae / count


def _window_batches(model: RTNet, ds: TimeSeriesDataset, batch_size: int,
                    rng: np.random.Generator, max_steps: int | None):
    """Per-epoch source of shuffled supervised batches, each gathered just before its step."""
    mcfg = model.cfg
    offsets = make_windows(len(ds), mcfg.l_in, mcfg.l_out)
    steps = offsets.size // batch_size
    if steps < 1:
        raise ConfigError(f"batch size {batch_size} exceeds the {offsets.size} "
                          "available training windows")
    if max_steps is not None:
        steps = min(steps, max_steps)

    def epoch():
        order = rng.permutation(offsets.size)
        for s in range(steps):
            yield gather_batch(ds, offsets[order[s * batch_size:(s + 1) * batch_size]],
                               mcfg.l_in, mcfg.l_out,
                               with_marks=mcfg.time_mode == "decoupled",
                               with_input_marks=mcfg.time_mode == "input")
    return epoch


def _mse_step(model: RTNet, rng: np.random.Generator):
    """Supervised step loss: per-variate MSE, backpropagated through its sum."""
    def step_loss(wb):
        pred = model.forward(wb.inputs, wb.time_marks, training=True, rng=rng,
                             input_marks=wb.input_marks)
        loss_vec = mse_per_variate(pred, wb.targets)
        return sum_axis(loss_vec), loss_vec.data
    return step_loss


def _fit(model: RTNet, named_params, cfg: TrainConfig, epochs: int, batches, step_loss,
         validate, result: TrainResult, label: str, stage: int | None = None) -> None:
    """Fit ``named_params`` with Adam, validating after every epoch.

    ``batches()`` yields one epoch's batches lazily; ``step_loss(batch)``
    returns the scalar to backpropagate and the per-variate losses to report;
    ``validate()`` returns (val_mse, val_mae).  Stops once the best validation
    value is ``cfg.patience`` epochs old and leaves the model at its best state.
    """
    opt = Adam(list(named_params), lr=cfg.lr)
    best_state = {n: a.copy() for n, a in model.state().items()}
    val_history: list[float] = []
    for epoch in range(epochs):
        epoch_loss = 0.0
        steps = 0
        for batch in batches():
            with GradTape() as tape:
                total, per_variate = step_loss(batch)
            if not np.isfinite(total.item()):
                raise NumericalError(f"{label} diverged: non-finite loss at "
                                     f"epoch {epoch}, step {steps}")
            opt.zero_grad()
            backward(tape, total, params=opt.params)
            del tape  # the step's activations must not outlive it into validate()
            opt.step()
            epoch_loss += per_variate
            steps += 1

        val_mse, val_mae = validate()
        val_history.append(val_mse)
        result.history.append(_history_row(epoch, epoch_loss / steps, val_mse, val_mae,
                                           stage))
        stop, best = early_stop(val_history, cfg.patience)
        if best == epoch:
            best_state = {n: a.copy() for n, a in model.state().items()}
            result.best_epoch = epoch
            result.best_val_mse = val_mse
        if stop:
            break
    model.load_state(best_state)


def train_end_to_end(model: RTNet, train_ds: TimeSeriesDataset, val_ds: TimeSeriesDataset,
                     cfg: TrainConfig) -> TrainResult:
    """Single-stage supervised training with per-variate MSE and early stopping."""
    cfg.validate()
    shuffle_seed, drop_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    batches = _window_batches(model, train_ds, cfg.batch_size,
                              np.random.default_rng(shuffle_seed), cfg.max_steps_per_epoch)
    result = TrainResult()
    _fit(model, model.named_parameters(), cfg, cfg.epochs, batches,
         _mse_step(model, np.random.default_rng(drop_seed)),
         lambda: evaluate(model, val_ds), result, "training")
    return result


def _stage1_loss(model: RTNet, batch: ContrastiveBatch, training: bool,
                 rng: np.random.Generator | None):
    reps = model.representations(batch.windows, training=training, rng=rng)
    return contrastive_loss(reps, batch.n_windows, batch.n_augments)


def train_contrastive(model: RTNet, train_ds: TimeSeriesDataset, val_ds: TimeSeriesDataset,
                      cfg: TrainConfig) -> TrainResult:
    """Two stages: representation learning on the pyramid, then frozen-backbone heads."""
    cfg.validate()
    mcfg = model.cfg
    if mcfg.time_mode == "input":
        raise ConfigError("contrastive training expects decoupled or absent time features")
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    sample_rng, drop_rng, shuffle_rng, val_rng = (np.random.default_rng(s) for s in seeds)

    stage1_epochs = cfg.stage1_epochs if cfg.stage1_epochs is not None else cfg.epochs
    n_windows = make_windows(len(train_ds), mcfg.l_in, mcfg.l_out).size
    steps_per_epoch = max(1, n_windows // cfg.stage1_batch_size)
    if cfg.max_steps_per_epoch is not None:
        steps_per_epoch = min(steps_per_epoch, cfg.max_steps_per_epoch)

    feasible, _ = max_condition1_batch(len(val_ds), mcfg.l_in, cfg.alpha)
    val_batch = make_contrastive_batch(val_ds, min(cfg.stage1_batch_size, feasible),
                                       mcfg.l_in, cfg.alpha, cfg.n_augments,
                                       cfg.beta, val_rng)

    def stage1_batches():
        for _ in range(steps_per_epoch):
            yield make_contrastive_batch(train_ds, cfg.stage1_batch_size, mcfg.l_in,
                                         cfg.alpha, cfg.n_augments, cfg.beta, sample_rng)

    def stage1_validate():
        val_total, _, _ = _stage1_loss(model, val_batch, False, None)
        return val_total.item() / mcfg.groups, float("nan")

    result = TrainResult()
    _fit(model, model.cpn_named_parameters(), cfg, stage1_epochs, stage1_batches,
         lambda batch: _stage1_loss(model, batch, True, drop_rng)[:2], stage1_validate,
         result, "stage 1", stage=1)

    model.freeze_cpn()
    batches = _window_batches(model, train_ds, cfg.stage2_batch_size, shuffle_rng,
                              cfg.max_steps_per_epoch)
    _fit(model, model.head_named_parameters(), cfg, cfg.epochs, batches,
         _mse_step(model, drop_rng),
         lambda: evaluate(model, val_ds), result, "stage 2", stage=2)
    return result
