"""scoregate: softmax-gated feature scoring learned jointly with a predictor,
with Shapley-value baselines for checking the rankings it produces."""

from .autodiff import (
    NumericError,
    ShapeError,
    backward,
    grad_check,
    leaf,
    recompute,
)
from .data import (
    Dataset,
    FeatureMeta,
    gen_classification,
    gen_friedman1,
    gen_friedman2,
    gen_synthetic,
    load_csv,
    save_csv,
    split,
)
from .explain import (
    ShapResult,
    exact_shapley,
    global_importance,
    kernel_shap,
    mean_background,
    rank_match_table,
    rank_stability,
    spearman,
    spearman_rho,
)
from .models import Model, ModelConfig, build_model
from .scores import (
    Ranking,
    analytic_grads,
    extract_ranking,
    init_scores,
)
from .training import TrainConfig, TrainReport, TrainingError, train

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FeatureMeta", "Model", "ModelConfig", "NumericError", "Ranking",
    "ShapResult", "ShapeError", "TrainConfig", "TrainReport",
    "TrainingError", "analytic_grads", "backward",
    "build_model", "exact_shapley", "extract_ranking", "gen_classification",
    "gen_friedman1", "gen_friedman2", "gen_synthetic", "global_importance",
    "grad_check", "init_scores", "kernel_shap", "leaf", "load_csv",
    "mean_background", "rank_match_table", "rank_stability", "recompute",
    "save_csv", "spearman", "spearman_rho", "split", "train",
]
