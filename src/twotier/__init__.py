"""Two-tier solar generation forecasting.

A day-ahead global tier (weighted k-nearest-neighbor pattern matching
and a small feed-forward network trained by Levenberg-Marquardt) plus a
real-time local tier that corrects the remainder of the day from the
low-frequency content of the forecast residuals.
"""

from . import correction, evaluation, knn, nn, persistence, synth
from .config import RunConfig, parse_config, render_config
from .correction import (
    DaySimulation,
    DfsFit,
    ResidualWindow,
    fit_dfs,
    residual,
    simulate_day,
)
from .errors import TwoTierError
from .evaluation import EvalReport, TuneGrid, compare_methods, rmse, tune_knn, tune_nn
from .knn import KnnConfig, KnnModel, neighbor_weights
from .nn import NnConfig, NnModel, TrainTrace, fit_day_ahead, train_lm
from .persistence import load_model, save_model
from .rng import SplitMix64, derive_seed
from .synth import SynthConfig, SynthResult, generate
from .timeseries import (
    DatasetSplit,
    DayProfile,
    SamplingGrid,
    SolarSeries,
    day_context,
    export_csv,
    ingest_csv,
    split_chronological,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetSplit",
    "DayProfile",
    "DaySimulation",
    "DfsFit",
    "EvalReport",
    "KnnConfig",
    "KnnModel",
    "NnConfig",
    "NnModel",
    "ResidualWindow",
    "RunConfig",
    "SamplingGrid",
    "SolarSeries",
    "SplitMix64",
    "SynthConfig",
    "SynthResult",
    "TrainTrace",
    "TuneGrid",
    "TwoTierError",
    "compare_methods",
    "correction",
    "day_context",
    "derive_seed",
    "evaluation",
    "export_csv",
    "fit_day_ahead",
    "fit_dfs",
    "generate",
    "ingest_csv",
    "knn",
    "load_model",
    "neighbor_weights",
    "nn",
    "parse_config",
    "persistence",
    "render_config",
    "residual",
    "rmse",
    "save_model",
    "simulate_day",
    "split_chronological",
    "synth",
    "train_lm",
    "tune_knn",
    "tune_nn",
]
