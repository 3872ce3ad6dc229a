"""Censored quantile regression with random forest local weights.

Fit an ordinary bagged regression forest on censored observations, read
off its local weights, and solve a censoring-adjusted estimating
equation to recover conditional quantiles of the latent survival time.

Typical flow::

    from cqforest import SimConfig, simulate, ForestConfig, fit, predict_quantile

    data = simulate(SimConfig(model="aft1d", n=300, censor_rate_param=0.08, seed=1))
    forest = fit(data, ForestConfig(min_node_size=30, n_trees=200, seed=1))
    pred = predict_quantile(forest, data, x=[1.0], tau=0.5)
"""

from .data import (
    CsvSchema,
    DataError,
    Dataset,
    MODELS,
    SimConfig,
    load_csv,
    model_dim,
    simulate,
    true_quantile,
    write_csv,
)
from .forest import (
    Forest,
    ForestConfig,
    WeightVector,
    fit,
    forest_weights,
    load_forest,
    quantile_from_weights,
    save_forest,
    weight_matrix,
    weighted_mean,
    weighted_quantile,
)
from .survival import BeranNWConfig, SurvivalCurve, beran_nw, beran_rf, km, km_knn
from .estimator import (
    CqrConfig,
    QuantilePrediction,
    candidate_set,
    predict_batch,
    predict_interval,
    predict_quantile,
    predict_quantiles,
    predict_with_weights,
    score,
)
from .metrics import EvalReport, c_index, pinball, quantile_losses
from .bench import ExperimentSpec, illustrative_roots, load_spec, run

__version__ = "0.1.0"

__all__ = [
    "BeranNWConfig",
    "CqrConfig",
    "CsvSchema",
    "DataError",
    "Dataset",
    "EvalReport",
    "ExperimentSpec",
    "Forest",
    "ForestConfig",
    "MODELS",
    "QuantilePrediction",
    "SimConfig",
    "SurvivalCurve",
    "WeightVector",
    "beran_nw",
    "beran_rf",
    "c_index",
    "candidate_set",
    "fit",
    "forest_weights",
    "illustrative_roots",
    "km",
    "km_knn",
    "load_csv",
    "load_forest",
    "load_spec",
    "model_dim",
    "pinball",
    "predict_batch",
    "predict_interval",
    "predict_quantile",
    "predict_quantiles",
    "predict_with_weights",
    "quantile_from_weights",
    "quantile_losses",
    "run",
    "save_forest",
    "score",
    "simulate",
    "true_quantile",
    "weight_matrix",
    "weighted_mean",
    "weighted_quantile",
    "write_csv",
]
