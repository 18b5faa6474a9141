"""Robust nonnegative latent factorization of sparse user-service-time tensors.

Completes sparse nonnegative third-order QoS tensors with a rank-R CP
model plus per-entity biases, trained by an ADMM scheme whose data term
can use either an outlier-damping Cauchy loss or a plain squared-error
baseline.
"""

__version__ = "0.1.0"

from .admm import (
    AdmmState,
    AugmentationConstants,
    TrainConfig,
    cauchy_weight,
    compute_augmentation_constants,
    project_nonnegative,
    train,
    train_epoch,
    update_auxiliary_bias,
    update_auxiliary_factor_row,
    update_multipliers,
)
from .dataio import (
    RecordFormat,
    SynthSpec,
    load_records,
    synthesize,
    write_predictions,
    write_records,
)
from .errors import DataFormatError, DivergenceError
from .evaluation import EvalReport, SplitSpec, mae, split
from .model import FactorModel, load_model, objective, save_model
from .tensor import Entry, SparseTensor, build_tensor

__all__ = [
    "AdmmState",
    "AugmentationConstants",
    "DataFormatError",
    "DivergenceError",
    "Entry",
    "EvalReport",
    "FactorModel",
    "RecordFormat",
    "SparseTensor",
    "SplitSpec",
    "SynthSpec",
    "TrainConfig",
    "build_tensor",
    "cauchy_weight",
    "compute_augmentation_constants",
    "load_model",
    "load_records",
    "mae",
    "objective",
    "project_nonnegative",
    "save_model",
    "split",
    "synthesize",
    "train",
    "train_epoch",
    "update_auxiliary_bias",
    "update_auxiliary_factor_row",
    "update_multipliers",
    "write_predictions",
    "write_records",
]
