"""rtnet: a self-contained time-series forecasting engine.

Grouped residual pyramid backbone, pluggable normalization, a frozen cosine
relation matrix for multivariate mixing, decoupled calendar embedding, and
both supervised and two-stage contrastive training, plus diagnostics
(PACF, input-length sweeps) and a reproducible experiment harness.
"""

from .data import (SplitSpec, Standardizer, TimeSeriesDataset, WindowBatch,
                   gather_batch, load_csv, make_windows, split, standardize,
                   time_features)
from .diagnostics import PacfResult, pacf
from .errors import (ConfigError, DataError, DimensionError, NumericalError, RTNetError,
                     SamplerError)
from .harness import ExperimentReport, ExperimentSpec, run_experiment
from .model import ModelConfig, RTNet, load_checkpoint, save_checkpoint
from .norm import BatchNormParams, LayerNormParams, batch_norm, layer_norm, weight_norm_effective
from .optim import Adam
from .relation import cos_relation_matrix, threshold_and_standardize
from .tensor import GradTape, Tensor, backward
from .training import (TrainConfig, TrainResult, augment, contrastive_loss, evaluate,
                       make_contrastive_batch, sample_batch_condition1, train_contrastive,
                       train_end_to_end)

__version__ = "0.1.0"
