"""Mini-batch Adam training loop over the autodiff graph.

The batch graph is built once per fit and successive batches are fed in by
swapping the data-leaf values, so no graph reconstruction happens inside the
loop. ``Model.loss_graph`` builds that graph's loss, and ``backward`` gives
every gradient Adam applies, writing each into a view of Adam's one flat
gradient vector. Epoch metrics are computed on the full training set with the
parameters as they stand *before* that epoch's updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import bce, mse  # the loss nodes' arithmetic, used as metrics
from .data import check_finite, stream
from .models import Model

TASKS = ("classification", "regression")

# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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
    record_every: int = 100

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for full batch)")
        if not 0 < self.lr < math.inf:  # these comparisons reject NaN too
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float
    test_accuracy: float | None = None


@dataclass
class TrainReport:
    task: str
    config: TrainConfig
    curve: list[EpochRecord] = field(default_factory=list)
    scores_trajectory: list[dict] = field(default_factory=list)
    final_train_loss: float = float("nan")
    final_accuracy: float = float("nan")
    final_test_accuracy: float | None = None
    y_min: float | None = None
    y_max: float | None = None

    def to_dict(self) -> dict:
        return {**vars(self), "config": {**vars(self.config)},
                "curve": [{**vars(r)} for r in self.curve]}


# -- reference metric functions (numpy, no graph) ---------------------------


def accuracy(pred: np.ndarray, target: np.ndarray, threshold: float = 0.5) -> float:
    hits = (pred > threshold) == (target > threshold)
    return float(np.add.reduce(hits, None, np.float64) / hits.size)  # np.mean, unwrapped


def normalize_targets(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Min-max scale regression targets to [0, 1] (sigmoid output range)."""
    lo, hi = float(y.min()), float(y.max())
    if hi <= lo:
        raise ValueError("targets are constant, nothing to fit")
    return (y - lo) / (hi - lo), lo, hi


# -- Adam --------------------------------------------------------------------


def _views(flat: np.ndarray, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One view of ``flat`` per parameter, shaped as it, in ``params``' order."""
    views, start = {}, 0
    for name, p in params.items():
        views[name] = flat[start:start + p.size].reshape(p.shape)
        start += p.size
    return views


def adam_init(params: dict[str, np.ndarray]) -> dict:
    """Adam state for ``params``: the step count ``t``; flat first- and
    second-moment vectors ``m`` and ``v`` over all parameters, in ``params``'
    order; the flat gradient vector ``g`` that ``adam_step`` reads, with
    ``grads`` holding one view of it per parameter (write each gradient there,
    or bind a graph leaf's ``grad`` to it so ``backward`` does); and two
    scratch vectors for the update, with ``steps`` one view of the first per
    parameter."""
    size = sum(p.size for p in params.values())
    g, step = np.zeros(size), np.empty(size)
    return {"t": 0, "m": np.zeros(size), "v": np.zeros(size), "g": g,
            "grads": _views(g, params), "step": step, "denom": np.empty(size),
            "steps": list(_views(step, params).values())}


def adam_step(state: dict, params: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """One Adam update with bias correction over all parameters at once, from
    the gradients in ``state["g"]``.

    The update is computed on flat vectors into the state's scratch, in the
    operation order of the per-array formula, so it is bit for bit that
    formula; each parameter array is then updated in place.
    """
    state["t"] += 1
    t = state["t"]
    g, m, v, step, denom = state["g"], state["m"], state["v"], state["step"], state["denom"]
    np.multiply(1.0 - BETA1, g, out=step)  # m = beta1 * m + (1 - beta1) * g
    m *= BETA1
    m += step
    np.multiply(1.0 - BETA2, g, out=step)  # v = beta2 * v + (1 - beta2) * g * g
    step *= g
    v *= BETA2
    v += step
    np.divide(v, 1.0 - BETA2 ** t, out=denom)  # sqrt(v_hat) + eps
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, 1.0 - BETA1 ** t, out=step)  # lr * m_hat / (sqrt(v_hat) + eps)
    step *= cfg.lr
    step /= denom
    for p, s in zip(params.values(), state["steps"]):
        p -= s


# -- training loop -------------------------------------------------------------


def _batch_starts(n: int, batch: int) -> range:
    # full batches only; a ragged tail would need its own graph
    return range(0, n - batch + 1, batch)


def _prepared(model: Model, x_name: str, X, y_name: str, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as float64 arrays, ``y`` flattened, after the checks each
    (inputs, targets) pair of ``train`` must pass; each check names the argument."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    d = model.config.d_in
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"{x_name} must be a 2-D array with {d} columns, got shape {X.shape}")
    if len(y) != len(X):
        raise ValueError(f"{y_name} holds {len(y)} targets for the {len(X)} rows of {x_name}")
    check_finite(x_name, X)
    check_finite(y_name, y)
    return X, y


def train(model: Model, X: np.ndarray, y: np.ndarray, task: str, config: TrainConfig,
          X_test: np.ndarray | None = None, y_test: np.ndarray | None = None) -> TrainReport:
    """Fit ``model`` in place with mini-batch Adam; returns the run report.

    Classification uses binary cross-entropy on {0,1} targets. Regression
    min-max normalizes targets into the sigmoid range and uses mean squared
    error; its accuracy column binarizes at the normalized-target median. A
    held-out pair is checked, scaled and scored as the training pair is.
    Batches are seeded-shuffle slices; a ragged tail smaller than the batch
    size is dropped (coverage rotates with the reshuffle each epoch).
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if (X_test is None) != (y_test is None):
        raise ValueError("X_test and y_test must be given together")
    gated = model.config.gated
    # keyed by the targets' argument name: the training pair, then the held-out one if given
    pairs = {y_name: _prepared(model, x_name, X_, y_name, y_) for x_name, X_, y_name, y_ in
             (("X", X, "y", y), ("X_test", X_test, "y_test", y_test)) if X_ is not None}

    loss_kind, loss_ref = ("bce", bce) if task == "classification" else ("mse", mse)
    report = TrainReport(task=task, config=config)
    if task == "regression":
        _, lo, hi = normalize_targets(pairs["y"][1])  # each pair scaled as it scales y
        pairs = {name: (X_, (y_ - lo) / (hi - lo)) for name, (X_, y_) in pairs.items()}
        report.y_min, report.y_max, acc_threshold = lo, hi, float(np.median(pairs["y"][1]))
    else:
        for name, (_, y_) in pairs.items():
            soft = np.flatnonzero((y_ != 0.0) & (y_ != 1.0))
            if soft.size:
                raise ValueError(f"classification targets must be 0 or 1; {name} holds "
                                 f"{y_[soft[0]]:g} at row {soft[0]}")
        acc_threshold = 0.5
    (X, y_fit), *held_out = pairs.values()
    n = X.shape[0]

    def measure() -> tuple[float, float, float | None]:
        """Training loss and accuracy, and held-out accuracy (None if no pair)."""
        preds = model.predict(X)
        test_accuracy = None
        for X_held, y_held in held_out:
            test_accuracy = accuracy(model.predict(X_held), y_held, acc_threshold)
        return loss_ref(preds, y_fit), accuracy(preds, y_fit, acc_threshold), test_accuracy

    batch = n if config.batch_size is None else min(config.batch_size, n)
    full_batch = batch == n
    rng = stream(config.shuffle_seed)

    loss_node, _, leaves, data_leaves = model.loss_graph(X[:batch], y_fit[:batch], loss_kind)
    adam = adam_init(model.params)  # the graph's parameter leaves alias these arrays
    for name, node in leaves.items():  # backward writes each gradient into Adam's vector
        node.grad = adam["grads"][name]

    def record_scores(epoch: int) -> None:
        if gated:
            report.scores_trajectory.append({
                "epoch": epoch,
                "scores": [float(x) for x in model.scores],
                "weights": [float(w) for w in model.gate_weights()],
            })

    record_scores(0)
    for epoch in range(config.epochs):
        loss, acc, test_acc = measure()
        report.curve.append(EpochRecord(epoch, loss, acc, test_acc))

        order = np.arange(n) if full_batch else rng.permutation(n)
        try:
            for start in _batch_starts(n, batch):
                rows = order[start:start + batch]
                data_leaves.assign(X[rows], y_fit[rows])
                ad.recompute(loss_node)
                ad.backward(loss_node)
                adam_step(adam, model.params, config)
        except ad.NumericError as exc:
            raise TrainingError(str(exc), epoch) from exc

        if (epoch + 1) % config.record_every == 0 and epoch + 1 < config.epochs:
            record_scores(epoch + 1)

    record_scores(config.epochs)
    report.final_train_loss, report.final_accuracy, report.final_test_accuracy = measure()
    return report
