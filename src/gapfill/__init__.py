"""Sequence-to-sequence recovery of missing gaps in time series.

A gap is reconstructed from the observed samples on both sides of it: one
LSTM encoder reads the data before the gap, a second reads the data after
it in reverse, and a two-stream decoder fills the gap while linear
proximity weights emphasise whichever stream is closer to real
observations. Training, evaluation, and a benchmark harness are included.
"""

__version__ = "0.1.0"

from .model import (
    ImputationWindow,
    ModelParams,
    NetworkConfig,
    ScalingSchedule,
    forward,
    gradient_check,
    impute,
    init_model_params,
    loss,
    make_schedule,
)
from .numerics import Rng, finite_diff_grad, sigmoid

__all__ = [
    "ImputationWindow",
    "ModelParams",
    "NetworkConfig",
    "Rng",
    "ScalingSchedule",
    "finite_diff_grad",
    "forward",
    "gradient_check",
    "impute",
    "init_model_params",
    "loss",
    "make_schedule",
    "sigmoid",
]
