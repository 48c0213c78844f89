"""Mini-batch Adam training loop over the autodiff graph.

The batch graph is built once per fit and successive batches are fed in by
swapping the data-leaf values, so no graph reconstruction happens inside the
loop. Epoch metrics are computed on the full training set with the parameters
as they stand *before* that epoch's updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .models import Model
from .scores import entropy_penalty_score_grad, scores_to_weights, sparsity_penalty

TASKS = ("classification", "regression")


class TrainingError(RuntimeError):
    """Raised when training diverges; carries the epoch where it happened."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr: float = 0.001
    batch_size: int | None = 32  # None trains full-batch
    shuffle_seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    penalty: str = "none"
    penalty_lam: float = 0.0
    record_every: int = 100

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for full batch)")
        if self.penalty not in ("none", "entropy"):
            raise ValueError(f"unknown penalty {self.penalty!r}")

    def to_dict(self) -> dict:
        return {"epochs": self.epochs, "lr": self.lr, "batch_size": self.batch_size,
                "shuffle_seed": self.shuffle_seed, "beta1": self.beta1, "beta2": self.beta2,
                "eps": self.eps, "penalty": self.penalty, "penalty_lam": self.penalty_lam,
                "record_every": self.record_every}


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float
    penalty: float
    test_accuracy: float | None = None


@dataclass
class TrainReport:
    task: str
    loss_kind: str
    config: TrainConfig
    epochs_run: int = 0
    curve: list[EpochRecord] = field(default_factory=list)
    scores_trajectory: list[dict] = field(default_factory=list)
    final_train_loss: float = float("nan")
    final_accuracy: float = float("nan")
    final_test_accuracy: float | None = None
    y_min: float | None = None
    y_max: float | None = None
    wall_time_ms: float = 0.0  # kept out of to_dict so reports stay bit-reproducible

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "loss_kind": self.loss_kind,
            "config": self.config.to_dict(),
            "epochs_run": self.epochs_run,
            "curve": [
                {"epoch": r.epoch, "loss": r.loss, "accuracy": r.accuracy,
                 "penalty": r.penalty, "test_accuracy": r.test_accuracy}
                for r in self.curve
            ],
            "scores_trajectory": self.scores_trajectory,
            "final_train_loss": self.final_train_loss,
            "final_accuracy": self.final_accuracy,
            "final_test_accuracy": self.final_test_accuracy,
            "y_min": self.y_min,
            "y_max": self.y_max,
        }

    def save_curve_csv(self, path) -> None:
        lines = ["epoch,loss,accuracy,penalty,test_accuracy"]
        for r in self.curve:
            cell = "" if r.test_accuracy is None else repr(r.test_accuracy)
            lines.append(f"{r.epoch},{r.loss!r},{r.accuracy!r},{r.penalty!r},{cell}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# -- reference metric functions (numpy, no graph) ---------------------------


def bce(pred: np.ndarray, target: np.ndarray) -> float:
    p = np.clip(pred, ad.BCE_CLIP, 1.0 - ad.BCE_CLIP)
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def accuracy(pred: np.ndarray, target: np.ndarray, threshold: float = 0.5) -> float:
    return float(np.mean((pred > threshold) == (target > threshold)))


def normalize_targets(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Min-max scale regression targets to [0, 1] (sigmoid output range)."""
    lo, hi = float(y.min()), float(y.max())
    if hi <= lo:
        raise ValueError("targets are constant, nothing to fit")
    return (y - lo) / (hi - lo), lo, hi


# -- Adam --------------------------------------------------------------------


def adam_init(params: dict[str, np.ndarray]) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(state: dict, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              cfg: TrainConfig) -> None:
    """One in-place Adam update with bias correction."""
    state["t"] += 1
    t = state["t"]
    for name, g in grads.items():
        m = state["m"][name]
        v = state["v"][name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        params[name] -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


# -- training loop -------------------------------------------------------------


def _batch_starts(n: int, batch: int) -> range:
    # full batches only; a ragged tail would need its own graph
    return range(0, n - batch + 1, batch)


def train(model: Model, X: np.ndarray, y: np.ndarray, task: str, config: TrainConfig,
          X_test: np.ndarray | None = None, y_test: np.ndarray | None = None) -> TrainReport:
    """Fit ``model`` in place with mini-batch Adam; returns the run report.

    Classification uses binary cross-entropy on {0,1} targets. Regression
    min-max normalizes targets into the sigmoid range and uses mean squared
    error; its accuracy column binarizes at the normalized-target median.
    Batches are seeded-shuffle slices; a ragged tail smaller than the batch
    size is dropped (coverage rotates with the reshuffle each epoch).
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = X.shape[0]

    loss_kind = "bce" if task == "classification" else "mse"
    loss_ref = bce if loss_kind == "bce" else mse
    report = TrainReport(task=task, loss_kind=loss_kind, config=config)
    if task == "regression":
        y_fit, report.y_min, report.y_max = normalize_targets(y)
        span = report.y_max - report.y_min
        y_test_fit = None if y_test is None else (np.asarray(y_test, dtype=np.float64) - report.y_min) / span
        acc_threshold = float(np.median(y_fit))
    else:
        y_fit, y_test_fit = y, None if y_test is None else np.asarray(y_test, dtype=np.float64)
        acc_threshold = 0.5

    batch = n if config.batch_size is None else min(config.batch_size, n)
    full_batch = batch == n
    rng = np.random.default_rng(np.random.SeedSequence(config.shuffle_seed))

    loss_node, _, leaves, data_leaves = model.loss_graph(X[:batch], y_fit[:batch], loss_kind)
    param_values = {name: leaves[name].value for name in leaves}
    adam = adam_init(param_values)
    gated = model.config.gated and "scores" in leaves

    def penalty_value() -> float:
        if not gated or config.penalty == "none":
            return 0.0
        return sparsity_penalty(scores_to_weights(leaves["scores"].value[0]),
                                config.penalty_lam)

    def record_scores(epoch: int) -> None:
        if gated:
            s = leaves["scores"].value[0]
            report.scores_trajectory.append({
                "epoch": epoch,
                "scores": [float(x) for x in s],
                "weights": [float(w) for w in scores_to_weights(s)],
            })

    record_scores(0)
    for epoch in range(config.epochs):
        preds_now = model.predict(X)
        rec = EpochRecord(epoch=epoch, loss=loss_ref(preds_now, y_fit),
                          accuracy=accuracy(preds_now, y_fit, acc_threshold),
                          penalty=penalty_value())
        if X_test is not None:
            rec.test_accuracy = accuracy(model.predict(X_test), y_test_fit, acc_threshold)
        report.curve.append(rec)

        order = np.arange(n) if full_batch else rng.permutation(n)
        try:
            for start in _batch_starts(n, batch):
                rows = order[start:start + batch]
                data_leaves.assign(X[rows], y_fit[rows])
                ad.recompute(loss_node)
                grads = ad.backward(loss_node)
                named_grads = {name: grads[node] for name, node in leaves.items() if node in grads}
                if gated and config.penalty == "entropy" and config.penalty_lam != 0.0:
                    w = scores_to_weights(leaves["scores"].value[0])
                    named_grads["scores"] = named_grads["scores"] + \
                        entropy_penalty_score_grad(w, config.penalty_lam).reshape(1, -1)
                adam_step(adam, param_values, named_grads, cfg=config)
        except ad.NumericError as exc:
            raise TrainingError(str(exc), epoch) from exc
        report.epochs_run = epoch + 1

        if (epoch + 1) % config.record_every == 0 and epoch + 1 < config.epochs:
            record_scores(epoch + 1)

    record_scores(config.epochs)
    final_preds = model.predict(X)
    report.final_train_loss = loss_ref(final_preds, y_fit)
    report.final_accuracy = accuracy(final_preds, y_fit, acc_threshold)
    if X_test is not None:
        report.final_test_accuracy = accuracy(model.predict(X_test), y_test_fit, acc_threshold)
    report.wall_time_ms = (time.perf_counter() - t0) * 1000.0
    return report
