"""Validation-driven adaptive pooling for multivariate time-series forecasting.

Trains one pooled forecaster plus cluster prototypes, reassigns series by
out-of-sample predictive loss, guards specialization with a leakage-free
fallback to the pooled model, selects the number of clusters by a penalized
validation criterion, and produces robust point and calibrated probabilistic
forecasts.
"""

from .data import (AccessAudit, DataError, MtsDataset, PreparedData,
                   SplitSpec, Standardizer, fit_impute_standardize,
                   load_dataset, load_pems, prepare, save_csv, save_packed,
                   write_csv)
from .losses import (REPORT_COLUMNS, format_rows, interval_stats, loss_elem,
                     paper_scale, summarize_method, write_report_csv)
from .model import (ParamSet, TrainConfig, TrainingDiverged, init_params,
                    load_checkpoint, loss_and_gradients, rollout,
                    save_checkpoint, train, train_stacked)

__version__ = "0.1.0"

__all__ = [
    "AccessAudit", "DataError", "MtsDataset", "PreparedData", "SplitSpec",
    "Standardizer", "fit_impute_standardize", "load_dataset", "load_pems",
    "prepare", "save_csv", "save_packed", "write_csv",
    "REPORT_COLUMNS", "format_rows", "interval_stats", "loss_elem",
    "paper_scale", "summarize_method", "write_report_csv",
    "ParamSet", "TrainConfig", "TrainingDiverged", "init_params",
    "load_checkpoint", "loss_and_gradients", "rollout", "save_checkpoint",
    "train", "train_stacked",
]
