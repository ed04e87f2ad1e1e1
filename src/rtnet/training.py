"""Losses, augmentation, the overlap-limited batch sampler, and the fit loop.

End-to-end training backpropagates the sum of per-variate MSE losses; with
grouped layers this is gradient-identical to backpropagating each variate's
loss through its own group.  Contrastive training runs in two stages: the
pyramid learns window representations against an overlap-limited minibatch,
then the pyramid is frozen and only the projection heads fit the targets.
Both formats, and both contrastive stages, run the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesDataset, WindowBatch, gather_batch, make_windows, write_csv
from .errors import ConfigError, NumericalError, SamplerError
from .model import RTNet
from .optim import Adam
from .tensor import GradTape, backward, contrastive_loss, mse_loss

AUGMENT_KINDS = ("scaling", "jittering", "entirety_scaling")
EVAL_BATCH = 64  # windows per evaluate forward; the fastest measured batch


def _finite(value: float) -> bool:
    """``math.isfinite``, and False for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_beta(beta: float, name: str) -> None:
    # augment draws from uniform(-beta, beta), whose width 2*beta must be finite
    if not (beta >= 0.0 and _finite(beta) and math.isfinite(2.0 * beta)):
        raise ConfigError(f"{name} must be >= 0 with 2*beta finite, got {beta}")


def _check_alpha(alpha: float) -> None:
    # the minimum offset gap ceil(l_in/alpha) is 0 for an infinite alpha
    if not (alpha >= 1.0 and _finite(alpha)):
        raise ConfigError(f"alpha must be a finite number >= 1, got {alpha}")


def augment(window: np.ndarray, kind: str, beta: float,
            rng: np.random.Generator) -> np.ndarray:
    """Perturb one input window by one of ``AUGMENT_KINDS``; every drawn
    amplitude lies in [-beta, beta]."""
    if kind not in AUGMENT_KINDS:
        raise ConfigError(f"augmentation kind must be one of {AUGMENT_KINDS}, got {kind!r}")
    _check_beta(beta, "augmentation beta")
    window = np.asarray(window, dtype=np.float64)
    if kind == "scaling":
        return window * (1.0 + rng.uniform(-beta, beta, window.shape))
    if kind == "jittering":
        return window + rng.uniform(-beta, beta, window.shape)
    return window * (1.0 + rng.uniform(-beta, beta))


def max_condition1_batch(n_rows: int, l_in: int, alpha: float) -> tuple[int, int]:
    """(max feasible batch, minimum offset gap) for the overlap bound L_in(1 - 1/alpha)."""
    _check_alpha(alpha)
    n_offsets = n_rows - l_in + 1
    if n_offsets < 1:
        raise SamplerError(f"series of {n_rows} rows cannot host a window of {l_in}")
    min_gap = math.ceil(l_in / alpha)
    return (n_offsets - 1) // min_gap + 1, min_gap


def sample_batch_condition1(n_rows: int, batch: int, l_in: int, alpha: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Draw ``batch`` sorted window offsets whose pairwise overlaps satisfy the bound.

    One draw, uniform over every valid offset set: the k-th smallest of
    ``batch`` distinct values from ``range(free)`` is shifted by
    ``k * (min_gap - 1)``, which maps the subsets one to one onto the sets
    whose gaps are all >= ``min_gap``.
    """
    feasible, min_gap = max_condition1_batch(n_rows, l_in, alpha)
    if batch > feasible:
        raise SamplerError(f"batch {batch} infeasible: at most {feasible} windows of "
                           f"length {l_in} fit {n_rows} rows at alpha={alpha}")
    free = n_rows - l_in + 1 - (batch - 1) * (min_gap - 1)
    return np.sort(rng.choice(free, size=batch, replace=False)) + (min_gap - 1) * np.arange(batch)


def make_contrastive_batch(ds: TimeSeriesDataset, batch: int, l_in: int, alpha: float,
                           n_augments: int, beta: float,
                           rng: np.random.Generator) -> np.ndarray:
    """A ((1+I)*B, L_in, N) array: the B windows at overlap-limited offsets
    first, then instance i of window m, augmented by a kind drawn for it, at
    row B + m*I + i."""
    offsets = sample_batch_condition1(len(ds), batch, l_in, alpha, rng)
    windows = np.empty(((1 + n_augments) * batch, l_in, ds.values.shape[1]))
    originals = windows[:batch]
    originals[...] = ds.values[offsets[:, None] + np.arange(l_in)]
    for m in range(batch):
        for i in range(n_augments):
            kind = AUGMENT_KINDS[rng.integers(0, len(AUGMENT_KINDS))]
            windows[batch + m * n_augments + i] = augment(originals[m], kind, beta, rng)
    return windows


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
        _check_alpha(self.alpha)
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.stage1_epochs is not None and self.stage1_epochs < 1:
            raise ConfigError(f"stage1_epochs must be >= 1, got {self.stage1_epochs}")
        if not (_finite(self.lr) and self.lr > 0.0):
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


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1

    def write_history_csv(self, path: str) -> None:
        if not self.history:
            return
        keys = list(dict.fromkeys(k for row in self.history for k in row))
        write_csv(path, [keys, *([row.get(k, "") for k in keys] for row in self.history)])


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


def _gather(model: RTNet, ds: TimeSeriesDataset, offsets: np.ndarray) -> WindowBatch:
    """The windows at ``offsets``, with the calendar marks ``model``'s time mode reads."""
    cfg = model.cfg
    return gather_batch(ds, offsets, cfg.l_in, cfg.l_out,
                        with_marks=cfg.time_mode == "decoupled",
                        with_input_marks=cfg.time_mode == "input")


def _predict(model: RTNet, wb: WindowBatch, training: bool, rng: np.random.Generator | None):
    """``model``'s forecast of a ``WindowBatch``."""
    return model.forward(wb.inputs, wb.time_marks, training=training, rng=rng,
                         input_marks=wb.input_marks)


def evaluate(model: RTNet, ds: TimeSeriesDataset) -> tuple[float, float]:
    """Mean squared / absolute error over every window of a split (eval mode).

    Runs ``EVAL_BATCH`` windows per forward, each reading effective weights
    built once for this call.  A non-finite error sum raises ``NumericalError``.
    """
    cfg = model.cfg
    offsets = make_windows(len(ds), cfg.l_in, cfg.l_out)
    se = 0.0
    ae = 0.0
    count = 0
    with model.weights_held():
        for start in range(0, offsets.size, EVAL_BATCH):
            wb = _gather(model, ds, offsets[start:start + EVAL_BATCH])
            diff = _predict(model, wb, False, None).data - wb.targets
            se += float((diff ** 2).sum())
            ae += float(np.abs(diff).sum())
            count += diff.size
    if not (math.isfinite(se) and math.isfinite(ae)):
        raise NumericalError(f"non-finite forecast error: squared sum {se}, absolute sum {ae}")
    return se / count, ae / count


def _fit(model: RTNet, named_params, cfg: TrainConfig, epochs: int, batches, step_loss,
         validate, result: TrainResult, stage: int | None = None) -> None:
    """Fit ``named_params`` with Adam, validating after every epoch.

    ``batches()`` yields one epoch's batches lazily; ``step_loss(batch)``
    returns the scalar to backpropagate and the per-variate losses to report;
    ``validate()`` returns (val_mse, val_mae).  An epoch improves only on a
    val_mse below the best so far (a tie is no improvement); the loop stops
    once the best epoch is ``cfg.patience`` epochs old and leaves the model at
    its best state.  A non-finite loss or validation, or a ``NumericalError``
    from ``validate()``, raises ``NumericalError`` naming the stage and the epoch.

    It keeps one best-state snapshot, taken at epoch 0 (always the best so
    far) and overwritten in place on each improvement.  A step's gradients
    live until the next step's ``backward``, and the epoch's last step's
    until just before validation.
    """
    label = "training" if stage is None else f"stage {stage}"
    opt = Adam(list(named_params), lr=cfg.lr)
    best_state: dict[str, np.ndarray] = {}
    best_val, best_epoch = math.inf, -1
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

        opt.zero_grad()  # the epoch's last gradients must not outlive it into validate() either
        try:
            val_mse, val_mae = validate()
            if not np.isfinite(val_mse):  # NaN would pass as no improvement, -inf as the best
                raise NumericalError(f"non-finite validation MSE {val_mse}")
        except NumericalError as exc:
            raise NumericalError(f"{label} diverged at epoch {epoch}: {exc}") from None
        result.history.append(_history_row(epoch, epoch_loss / steps, val_mse, val_mae,
                                           stage))
        if val_mse < best_val:
            if best_state:  # in place, so two snapshots never coexist
                for name, a in model.state().items():
                    best_state[name][...] = a
            else:
                best_state = {n: a.copy() for n, a in model.state().items()}
            best_val, best_epoch = val_mse, epoch
            result.best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            break
    model.load_state(best_state)


def _fit_supervised(model: RTNet, named_params, train_ds: TimeSeriesDataset,
                    val_ds: TimeSeriesDataset, cfg: TrainConfig, batch_size: int,
                    shuffle_rng: np.random.Generator, drop_rng: np.random.Generator,
                    result: TrainResult, stage: int | None = None) -> None:
    """``_fit`` on the per-variate MSE of shuffled training windows, each batch
    gathered just before its step, validated by ``evaluate`` on ``val_ds``."""
    mcfg = model.cfg
    offsets = make_windows(len(train_ds), mcfg.l_in, mcfg.l_out)
    steps = offsets.size // batch_size
    if steps < 1:
        raise ConfigError(f"batch size {batch_size} exceeds the {offsets.size} "
                          "available training windows")
    if cfg.max_steps_per_epoch is not None:
        steps = min(steps, cfg.max_steps_per_epoch)

    def batches():
        order = shuffle_rng.permutation(offsets.size)
        for s in range(steps):
            yield _gather(model, train_ds, offsets[order[s * batch_size:(s + 1) * batch_size]])

    def step_loss(wb):
        return mse_loss(_predict(model, wb, True, drop_rng), wb.targets)

    _fit(model, named_params, cfg, cfg.epochs, batches, step_loss,
         lambda: evaluate(model, val_ds), result, stage)


def train_end_to_end(model: RTNet, train_ds: TimeSeriesDataset, val_ds: TimeSeriesDataset,
                     cfg: TrainConfig) -> TrainResult:
    """Single-stage supervised training with per-variate MSE and early stopping."""
    cfg.validate()
    shuffle_seed, drop_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    result = TrainResult()
    _fit_supervised(model, model.named_parameters(), train_ds, val_ds, cfg, cfg.batch_size,
                    np.random.default_rng(shuffle_seed), np.random.default_rng(drop_seed), result)
    return result


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
    val_windows = min(cfg.stage1_batch_size, feasible)
    val_batch = make_contrastive_batch(val_ds, val_windows, mcfg.l_in, cfg.alpha,
                                       cfg.n_augments, cfg.beta, val_rng)

    def stage1_batches():
        for _ in range(steps_per_epoch):
            yield make_contrastive_batch(train_ds, cfg.stage1_batch_size, mcfg.l_in,
                                         cfg.alpha, cfg.n_augments, cfg.beta, sample_rng)

    def stage1_loss(windows):
        branches = model.pyramid(windows, training=True, rng=drop_rng)
        return contrastive_loss(branches, mcfg.groups, cfg.stage1_batch_size, cfg.n_augments)[:2]

    def stage1_validate():
        val_total = contrastive_loss(model.pyramid(val_batch), mcfg.groups, val_windows,
                                     cfg.n_augments)[0]
        return val_total.item() / mcfg.groups, float("nan")

    result = TrainResult()
    _fit(model, model.cpn_named_parameters(), cfg, stage1_epochs, stage1_batches,
         stage1_loss, stage1_validate, result, stage=1)

    model.freeze_cpn()
    _fit_supervised(model, model.head_named_parameters(), train_ds, val_ds, cfg,
                    cfg.stage2_batch_size, shuffle_rng, drop_rng, result, stage=2)
    return result
