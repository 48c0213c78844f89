"""Model architectures, an MLP or a single-head attention backbone ending in
one sigmoid unit, and the optional score gate on their input features: how
its scores start (``init_scores``), its one readout outside the graph
(``Model.gate_weights``), its place in the forward pass, and the closed-form
gradients the gradient check takes as its reference (``analytic_grads``).

The gate scales the rows of the first layer's weight (``W0``, or ``emb`` for
attention) by the softmax weights in one ``scale_rows`` op, which equals
gating the input. So no forward pass builds a gated copy of its (n, d) input,
and in the training graph the input stays a constant that takes no gradient.

Each backbone's forward pass is written once, in ``Model._forward``, against
an op namespace: ``loss_graph`` runs it with ``autodiff`` on graph leaves to
build the training graph, and ``predict`` runs it with ``NUMPY_OPS`` on the
parameter arrays, a plain numpy fast path for inference and Shapley sampling.
``NUMPY_OPS`` holds the forwards of ``autodiff.OPS`` themselves, so both routes
do the same arithmetic and give bit-identical outputs. Training updates the
``params`` arrays in place, and the graph's parameter leaves alias them.
``loss_graph`` builds the whole training loss: a gate-entropy penalty reads
the same softmax node that gates the first layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .data import SCORE_INIT, check_finite, stream, write_text

BACKBONES = ("mlp", "attention")
INIT_STRATEGIES = ("zero", "random-uniform", "from-values")

# The autodiff forwards on plain arrays, without the graph's checks.
NUMPY_OPS = SimpleNamespace(constant=np.asarray, **{op: s.forward for op, s in ad.OPS.items()})


class DataLeaves:
    """Handles on a graph's input/target leaves so a training loop can feed
    successive equal-sized batches into one prebuilt graph."""

    def __init__(self, x_leaf: ad.Node, y_leaf: ad.Node):
        self.x_leaf = x_leaf
        self.y_leaf = y_leaf
        self.batch_rows = x_leaf.value.shape[0]

    def assign(self, X: np.ndarray, y: np.ndarray) -> None:
        if X.shape != self.x_leaf.value.shape:
            raise ValueError(f"batch shape {X.shape} differs from graph "
                             f"shape {self.x_leaf.value.shape}")
        if y.size != self.batch_rows:
            raise ValueError(f"target length {y.size} differs from graph "
                             f"shape {self.y_leaf.value.shape}")
        self.x_leaf.value = np.ascontiguousarray(X, dtype=np.float64)
        self.y_leaf.value = np.ascontiguousarray(y.reshape(-1, 1), dtype=np.float64)


@dataclass
class ModelConfig:
    d_in: int
    backbone: str = "mlp"
    hidden: tuple[int, ...] = (32, 16)
    model_dim: int = 16
    ffn_dim: int = 32
    gated: bool = False
    score_init: str = "zero"
    score_init_values: list[float] | None = None

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        for name in ("model_dim", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def param_specs(self) -> dict[str, tuple[tuple[int, int], int]]:
        """Each parameter's (rows, cols) shape and the fan-in that scales its
        uniform init (0: it starts at zero), in the order ``build_model``
        draws them; a gated model's ``scores`` row comes last."""
        if self.backbone == "mlp":
            dims = [self.d_in, *self.hidden, 1]
            specs = {}
            for i in range(len(dims) - 1):
                specs[f"W{i}"] = ((dims[i], dims[i + 1]), dims[i])
                specs[f"b{i}"] = ((1, dims[i + 1]), 0)
        else:
            d, m, f = self.d_in, self.model_dim, self.ffn_dim
            specs = {"emb": ((d, m), m), "pos": ((d, m), m), "wq": ((m, m), m),
                     "wk": ((m, m), m), "wv": ((m, m), m), "fw1": ((m, f), m),
                     "fb1": ((1, f), 0), "fw2": ((f, m), f), "fb2": ((1, m), 0),
                     "head_w": ((m, 1), m), "head_b": ((1, 1), 0)}
        if self.gated:
            specs["scores"] = ((1, self.d_in), 0)
        return specs

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        expected = {f.name for f in fields(cls)}
        missing, unknown = sorted(expected - d.keys()), sorted(d.keys() - expected)
        if missing or unknown:
            raise ValueError(f"model config keys differ from ModelConfig: "
                             f"missing {missing}, unknown {unknown}")
        return cls(**d)


class Model:
    """A backbone described by ``config`` with parameters held as named
    float64 matrices; the score vector, when gated, lives in
    ``params["scores"]`` as a 1 x d_in row."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @property
    def scores(self) -> np.ndarray | None:
        s = self.params.get("scores")
        return None if s is None else s[0]

    def gate_weights(self) -> np.ndarray:
        """Each feature's gate weight, the one readout of the gate outside the
        graph: its ``softmax_rows`` arithmetic on the scores, bit for bit."""
        if self.scores is None:
            raise ValueError("model has no score gate to rank features with; "
                             "train with --model scores")
        return ad._stable_softmax_rows(self.scores)

    def _forward(self, ops, x, params):
        """The backbone's forward pass from (n, d_in) inputs: the (n, 1)
        sigmoid output and the (1, d_in) gate weights (None if ungated);
        ``ops`` is ``autodiff`` on graph nodes or ``NUMPY_OPS`` on arrays."""
        cfg = self.config
        gate = None
        if cfg.gated:  # (x * w) @ W0 = x @ (w.mT * W0): scale the weight's rows, not x
            first = "W0" if cfg.backbone == "mlp" else "emb"
            gate = ops.softmax_rows(params["scores"])
            params = {**params, first: ops.scale_rows(params[first], gate)}
        if cfg.backbone == "mlp":
            n_layers = len(cfg.hidden) + 1
            for i in range(n_layers):
                x = ops.dense(x, params[f"W{i}"], params[f"b{i}"], relu=i < n_layers - 1)
            return ops.sigmoid(x), gate
        # single-head self-attention with residual, then a 2-layer feed-forward
        # with residual, over an (n, d, model_dim) stack of one token per
        # feature. The calls are nested so that each (n, d, .) intermediate is
        # freed once used: numpy reuses no temporary across function calls.
        d, m, p = cfg.d_in, cfg.model_dim, params
        tokens = ops.add(ops.hadamard(ops.reshape(x, (-1, d, 1)), p["emb"]), p["pos"])
        tokens = ops.add(tokens, ops.matmul(  # softmax(q k^T / sqrt(m)) v
            ops.softmax_rows(ops.scale(ops.matmul(ops.matmul(tokens, p["wq"]),
                                                  ops.matmul(tokens, p["wk"]), transpose_b=True),
                                       1.0 / np.sqrt(m))),
            ops.matmul(tokens, p["wv"])))
        tokens = ops.add(tokens, ops.dense(  # relu(t W1 + b1) W2 + b2
            ops.dense(tokens, p["fw1"], p["fb1"], relu=True), p["fw2"], p["fb2"]))
        # the mean over each sample's d tokens, as a (1, d) row of 1/d
        pooled = ops.reshape(ops.matmul(ops.constant(np.full((1, d), 1.0 / d)), tokens), (-1, m))
        return ops.sigmoid(ops.dense(pooled, p["head_w"], p["head_b"])), gate

    def loss_graph(self, X: np.ndarray, y: np.ndarray, loss_kind: str,
                   penalty_lam: float = 0.0) \
            -> tuple[ad.Node, ad.Node, dict[str, ad.Node], DataLeaves]:
        """Build the training loss node over a batch: the ``loss_kind`` loss,
        plus ``penalty_lam`` times the gate weights' entropy when
        ``penalty_lam`` is above 0, which needs a gated model (checked before
        any node is built).

        Returns (loss, prediction node, parameter leaves, data leaves).
        Predictions stay live across ``recompute`` calls (read them from the
        prediction node's (n, 1) ``value``), and the data leaves accept new
        same-shaped batches via ``DataLeaves.assign`` — that is how the
        training loop iterates mini-batches over one prebuilt graph.
        """
        losses = {"bce": ad.bce_loss, "mse": ad.mse_loss}
        if loss_kind not in losses:
            raise ValueError(f"unknown loss_kind {loss_kind!r}; expected "
                             + " or ".join(map(repr, losses)))
        if penalty_lam > 0 and not self.config.gated:
            raise ValueError("penalty_lam penalizes the gate's entropy; an ungated model has no gate")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        if X.shape[1] != self.config.d_in:
            raise ad.ShapeError(f"model expects {self.config.d_in} features, got {X.shape[1]}")
        x_leaf, y_leaf = ad.constant(X), ad.constant(y)
        leaves = {name: ad.leaf(arr) for name, arr in self.params.items()}
        pred, gate = self._forward(ad, x_leaf, leaves)
        loss = losses[loss_kind](pred, y_leaf)
        if penalty_lam > 0:
            loss = ad.add(loss, ad.scale(ad.entropy_rows(gate), penalty_lam))
        return loss, pred, leaves, DataLeaves(x_leaf, y_leaf)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch predictions in (0, 1); pure numpy, no graph construction."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.config.d_in:
            raise ad.ShapeError(f"model expects (n, {self.config.d_in}) inputs, got {X.shape}")
        pred, _ = self._forward(NUMPY_OPS, X, self.params)
        return pred[:, 0]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The config and each parameter, ``scores`` included, as one flat
        row-major list; ``from_dict`` reshapes it by ``param_specs``."""
        return {"config": {**vars(self.config)},
                "parameters": {name: arr.ravel().tolist() for name, arr in self.params.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "Model":
        if d.keys() != {"config", "parameters"}:
            raise ValueError(f"a model needs exactly the keys config and parameters, got {sorted(d)}")
        config = ModelConfig.from_dict(d["config"])
        values = d["parameters"]
        shapes = {name: shape for name, (shape, _) in config.param_specs().items()}
        wrong = []
        for name in sorted(values.keys() | shapes):
            if name not in shapes:
                wrong.append(f"{name} is not a parameter of this config")
            elif name not in values:
                wrong.append(f"{name} is missing")
            elif len(values[name]) != shapes[name][0] * shapes[name][1]:
                wrong.append(f"{name} holds {len(values[name])} values, "
                             f"not {shapes[name][0]} x {shapes[name][1]}")
        if wrong:
            raise ValueError(f"model parameters differ from the config's: {', '.join(wrong)}")
        params = {name: np.asarray(values[name], dtype=np.float64).reshape(shape)
                  for name, shape in shapes.items()}
        bad = sorted(name for name, arr in params.items() if not np.isfinite(arr).all())
        if bad:  # predict would return NaN for them without an error
            raise ad.NumericError(f"model parameters must be finite: {', '.join(bad)}")
        return cls(config, params)

    def save(self, path) -> None:
        write_text(path, json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Model":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def init_scores(d: int, strategy: str = "zero", seed: int = 0,
                values=None) -> np.ndarray:
    """Create a scores vector of length ``d``.

    ``zero`` starts all scores equal (uniform weights), ``random-uniform``
    draws i.i.d. from U[-1, 1] on its own stream of ``seed`` (not the one the
    weights draw from), and ``from-values`` copies a supplied vector (e.g.
    ground-truth coefficients).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if strategy not in INIT_STRATEGIES:
        raise ValueError(f"unknown init strategy {strategy!r}")
    if (values is not None) != (strategy == "from-values"):
        raise ValueError("values must be supplied iff strategy is 'from-values'")
    if strategy == "zero":
        s = np.zeros(d)
    elif strategy == "random-uniform":
        s = stream(seed, SCORE_INIT).uniform(-1.0, 1.0, size=d)
    else:
        s = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        if s.shape[0] != d:
            raise ValueError(f"from-values needs length {d}, got {s.shape[0]}")
        check_finite("score_init_values", s, axes=("feature",))
    return s


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_model(config: ModelConfig, seed: int) -> Model:
    """Instantiate a model with fan-in-scaled uniform weights, zero biases,
    and scores initialized per ``config.score_init``."""
    rng = stream(seed)
    params = {name: _uniform_fan_in(rng, fan_in, shape) if fan_in else np.zeros(shape)
              for name, (shape, fan_in) in config.param_specs().items()}
    if config.gated:
        params["scores"] = init_scores(config.d_in, config.score_init, seed=seed,
                                       values=config.score_init_values).reshape(1, -1)
    return Model(config, params)


def analytic_grads(W, s, x) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form partials of the gated hidden layer
    y = (w * x) @ W = x @ (w[:, None] * W).

    With w = softmax(s), W of shape (d, K) and x of shape (d,):
      dW[i, k]  = d y_k / d W[i, k] = w_i * x_i          (same for every k)
      ds[k, l]  = d y_k / d s_l
                = sum_i W[i, k] * w_i * (delta_il - w_l) * x_i
    """
    W = np.asarray(W, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if W.ndim != 2 or W.shape[0] != s.shape[0] or s.shape[0] != x.shape[0]:
        raise ValueError(f"analytic_grads dimension mismatch: W {W.shape}, s ({s.shape[0]},), x ({x.shape[0]},)")
    check_finite("s", s, axes=("feature",))
    w = ad._stable_softmax_rows(s)
    u = w * x
    d_w = np.repeat(u[:, None], W.shape[1], axis=1)
    d_s = (W * u[:, None]).T - np.outer(W.T @ u, w)
    return d_w, d_s
