"""Physics-informed remaining-useful-life prognosis.

Three small networks trained jointly on run-to-failure logs: a latent
health indicator, a RUL regressor, and a rate-law network tied together
by a squared-residual penalty on the predicted RUL's time derivative.
"""

from .data import (
    AugmentedSamples,
    Batch,
    EngineTrajectory,
    NormStats,
    SynthSpec,
    augment,
    fit_norm,
    parse_cmapss,
    parse_rul_truth,
    select_features,
    synth_generate,
    truncate_for_eval,
)
from .model import (
    CostBreakdown,
    NumericError,
    PinnConfig,
    PinnModel,
    init_model,
)
from .modelfile import load_model, save_model
from .optim import NadamConfig, NadamState, TrainingReport, nadam_step, split_indices, train

__version__ = "0.1.0"

__all__ = [
    "AugmentedSamples",
    "Batch",
    "CostBreakdown",
    "EngineTrajectory",
    "NadamConfig",
    "NadamState",
    "NormStats",
    "NumericError",
    "PinnConfig",
    "PinnModel",
    "SynthSpec",
    "TrainingReport",
    "augment",
    "fit_norm",
    "init_model",
    "load_model",
    "nadam_step",
    "parse_cmapss",
    "parse_rul_truth",
    "save_model",
    "select_features",
    "split_indices",
    "synth_generate",
    "train",
    "truncate_for_eval",
]
