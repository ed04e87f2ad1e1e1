"""The benchmark's workloads: data size, model, training format and budget.

Every workload uses l_in=168, l_out=24 and weight norm, on the seeded
ETT-shaped CSV.  ``patience`` is never below ``epochs``, so early stopping
cannot cut a run short and the step budget fixes the work done.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    rows: int                     # rows of the generated CSV
    task: str                     # "univariate" (target only) or "multivariate"
    fmt: str                      # "e2e" or "contrastive"
    model: dict                   # ModelConfig fields besides n_variates
    train: dict                   # TrainConfig fields besides seed
    smoke: dict = field(default_factory=dict)

    @property
    def use_relation(self) -> bool:
        return self.task == "multivariate"

    def smoke_variant(self) -> "Workload":
        """A tiny copy that runs the same code path end to end in about a second."""
        return replace(self, rows=self.smoke["rows"],
                       model={**self.model, **self.smoke.get("model", {})},
                       train={**self.train, **self.smoke.get("train", {})})


_BASE_MODEL = {"l_in": 168, "l_out": 24, "blocks": 3, "kernel": 3, "norm_kind": "wn",
               "dropout": 0.1, "n_time": 6, "theta_degrees": 45.0}

WORKLOADS = {
    # The only workload where gather_batch/time_features and the TimeNet do
    # real work, where the per-epoch full-split validation is the largest
    # share, and whose groups=1 convs show whether a grouped-kernel rewrite
    # slows the ungrouped case.
    "uni_time_e2e": Workload(
        rows=17420, task="univariate", fmt="e2e",
        model={**_BASE_MODEL, "d_channels": 8, "groups": 1, "time_mode": "decoupled"},
        train={"epochs": 1, "patience": 1, "batch_size": 16, "lr": 1e-3,
               "max_steps_per_epoch": 80},
        smoke={"rows": 1000, "train": {"max_steps_per_epoch": 2}},
    ),
    # ROADMAP's reference step: conv, maxpool, weight norm and Adam over
    # 5.09M parameters carry the time and the data layer does almost
    # nothing.  Rows are sized so training steps dominate train_s while the
    # per-epoch validation pass is kept.
    "multi_paper_e2e": Workload(
        rows=1400, task="multivariate", fmt="e2e",
        model={**_BASE_MODEL, "d_channels": 224, "groups": 7, "time_mode": "none"},
        train={"epochs": 1, "patience": 1, "batch_size": 16, "lr": 1e-4,
               "max_steps_per_epoch": 5},
        smoke={"rows": 1000, "model": {"d_channels": 14}, "train": {"max_steps_per_epoch": 2}},
    ),
    # The same model/tensor layers used differently: stage 1 is backward- and
    # memory-heavy with a negligible optimizer, stage 2 runs the pyramid
    # forward only on detached features, and the contrastive loss and the
    # condition-1 sampler run nowhere else.  A stage-1 batch of 64 at alpha 4
    # needs at least 2,814 train rows.
    "multi_contrastive": Workload(
        rows=4700, task="multivariate", fmt="contrastive",
        model={**_BASE_MODEL, "d_channels": 56, "groups": 7, "time_mode": "none"},
        train={"epochs": 1, "stage1_epochs": 1, "patience": 1, "stage1_batch_size": 64,
               "stage2_batch_size": 16, "n_augments": 3, "alpha": 4.0, "beta": 0.2,
               "lr": 1e-3, "max_steps_per_epoch": 1},
        smoke={"rows": 1000, "model": {"d_channels": 14},
               "train": {"stage1_batch_size": 8}},
    ),
}
