"""Model architectures: an MLP or a single-head attention backbone ending in
one sigmoid unit, with an optional score gate in front of a chosen layer.

Each model offers two equivalent forward routes: ``loss_graph`` builds the
autodiff graph used for training, and ``predict`` is a plain numpy fast path
used for inference and Shapley sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .scores import init_scores, scores_to_weights

BACKBONES = ("mlp", "attention")


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
    gate_index: int = 0
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
        if self.gated:
            if self.backbone == "mlp" and not 0 <= self.gate_index < len(self.hidden) + 1:
                raise ValueError("gate_index must address one of the model's layers")
            if self.backbone == "attention" and self.gate_index != 0:
                raise ValueError("the attention backbone only supports gating the input layer")

    def layer_dims(self) -> list[int]:
        return [self.d_in, *self.hidden, 1]

    def gate_width(self) -> int:
        return self.layer_dims()[self.gate_index]

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
    ``params["scores"]`` as a 1 x gate_width row."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @property
    def scores(self) -> np.ndarray | None:
        s = self.params.get("scores")
        return None if s is None else s[0]

    def gate_weights(self) -> np.ndarray:
        return scores_to_weights(self.scores)

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- graph route ------------------------------------------------------

    def _mlp_graph(self, x_leaf: ad.Node) -> tuple[ad.Node, dict[str, ad.Node]]:
        cfg = self.config
        leaves = {name: ad.leaf(arr) for name, arr in self.params.items()}
        h = x_leaf
        n_layers = len(cfg.hidden) + 1
        for i in range(n_layers):
            if cfg.gated and cfg.gate_index == i:
                h = ad.hadamard(h, ad.softmax_rows(leaves["scores"]))
            z = ad.add(ad.matmul(h, leaves[f"W{i}"]), leaves[f"b{i}"])
            h = ad.relu(z) if i < n_layers - 1 else ad.sigmoid(z)
        return h, leaves

    def _attention_graph(self, x_leaf: ad.Node) -> tuple[ad.Node, dict[str, ad.Node]]:
        cfg = self.config
        d, m = cfg.d_in, cfg.model_dim
        n = x_leaf.value.shape[0]
        leaves = {name: ad.leaf(arr) for name, arr in self.params.items()}
        tile = ad.constant(np.tile(np.eye(d), (n, 1)))  # one d x d identity per sample
        x = x_leaf
        if cfg.gated:
            x = ad.hadamard(x, ad.softmax_rows(leaves["scores"]))
        x_col = ad.block_matmul(tile, x, n, transpose_b=True)  # x[k, i] at row k*d + i
        x_mat = ad.matmul(x_col, ad.constant(np.ones((1, m))))
        tokens = ad.add(ad.hadamard(ad.matmul(tile, leaves["emb"]), x_mat),
                        ad.matmul(tile, leaves["pos"]))
        block = attention_block(tokens, leaves, m, n)
        pooled = ad.block_matmul(ad.constant(np.full((n, d), 1.0 / d)), block, n)  # n x m
        return ad.sigmoid(ad.add(ad.matmul(pooled, leaves["head_w"]), leaves["head_b"])), leaves

    def loss_graph(self, X: np.ndarray, y: np.ndarray, loss_kind: str) \
            -> tuple[ad.Node, ad.Node, dict[str, ad.Node], DataLeaves]:
        """Build the loss node over a batch.

        Returns (loss, prediction node, parameter leaves, data leaves).
        Predictions stay live across ``recompute`` calls (read them with
        ``batch_predictions``), and the data leaves accept new same-shaped
        batches via ``DataLeaves.assign`` — that is how the training loop
        iterates mini-batches over one prebuilt graph.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        if X.shape[1] != self.config.d_in:
            raise ad.ShapeError(f"model expects {self.config.d_in} features, got {X.shape[1]}")
        loss_fn = ad.bce_loss if loss_kind == "bce" else ad.mse_loss
        build = self._mlp_graph if self.config.backbone == "mlp" else self._attention_graph
        x_leaf, y_leaf = ad.constant(X), ad.constant(y)
        pred, leaves = build(x_leaf)
        return loss_fn(pred, y_leaf), pred, leaves, DataLeaves(x_leaf, y_leaf)

    # -- numpy fast path ---------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch predictions in (0, 1); pure numpy, no graph construction."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.config.d_in:
            raise ad.ShapeError(f"model expects (n, {self.config.d_in}) inputs, got {X.shape}")
        if self.config.backbone == "mlp":
            return self._predict_mlp(X)
        return self._predict_attention(X)

    def _predict_mlp(self, X: np.ndarray) -> np.ndarray:
        cfg = self.config
        h = X
        n_layers = len(cfg.hidden) + 1
        for i in range(n_layers):
            if cfg.gated and cfg.gate_index == i:
                h = h * self.gate_weights()
            z = h @ self.params[f"W{i}"] + self.params[f"b{i}"]
            h = np.maximum(z, 0.0) if i < n_layers - 1 else ad._stable_sigmoid(z)
        return h[:, 0]

    def _predict_attention(self, X: np.ndarray) -> np.ndarray:
        cfg, p = self.config, self.params
        if cfg.gated:
            X = X * self.gate_weights()
        m = cfg.model_dim
        tokens = X[:, :, None] * p["emb"][None] + p["pos"][None]  # (n, d, m)
        q = tokens @ p["wq"]
        k = tokens @ p["wk"]
        v = tokens @ p["wv"]
        att = ad._stable_softmax_rows(q @ k.transpose(0, 2, 1) / np.sqrt(m))
        res1 = tokens + att @ v
        ffn = np.maximum(res1 @ p["fw1"] + p["fb1"], 0.0) @ p["fw2"] + p["fb2"]
        pooled = (res1 + ffn).mean(axis=1)  # (n, m)
        return ad._stable_sigmoid(pooled @ p["head_w"] + p["head_b"])[:, 0]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        parameters = {
            name: {"rows": arr.shape[0], "cols": arr.shape[1], "data": [float(v) for v in arr.ravel()]}
            for name, arr in self.params.items() if name != "scores"
        }
        scores = None if self.scores is None else [float(v) for v in self.scores]
        return {"config": {**vars(self.config)}, "parameters": parameters, "scores": scores}

    @classmethod
    def from_dict(cls, d: dict) -> "Model":
        config = ModelConfig.from_dict(d["config"])
        params = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["rows"], entry["cols"])
            for name, entry in d["parameters"].items()
        }
        if d["scores"] is not None:
            params["scores"] = np.asarray(d["scores"], dtype=np.float64).reshape(1, -1)
        return cls(config, params)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Model":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def batch_predictions(pred: ad.Node) -> np.ndarray:
    """Current prediction values from the node returned by ``loss_graph``."""
    return pred.value[:, 0].copy()


def attention_block(tokens: ad.Node, leaves: dict[str, ad.Node], model_dim: int,
                    blocks: int) -> ad.Node:
    """Single-head scaled dot-product self-attention with residual, then a
    2-layer feed-forward with residual. ``tokens`` is a (blocks*d) x model_dim
    stack of one d x model_dim block per sample; attention stays within a block."""
    q = ad.matmul(tokens, leaves["wq"])
    k = ad.matmul(tokens, leaves["wk"])
    v = ad.matmul(tokens, leaves["wv"])
    att = ad.softmax_rows(ad.scale(ad.block_matmul(q, k, blocks, transpose_b=True),
                                   1.0 / np.sqrt(model_dim)))
    res1 = ad.add(tokens, ad.block_matmul(att, v, blocks))
    ffn = ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(res1, leaves["fw1"]), leaves["fb1"])),
                           leaves["fw2"]), leaves["fb2"])
    return ad.add(res1, ffn)


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_model(config: ModelConfig, seed: int) -> Model:
    """Instantiate a model with fan-in-scaled uniform weights, zero biases,
    and scores initialized per ``config.score_init``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params: dict[str, np.ndarray] = {}
    if config.backbone == "mlp":
        dims = config.layer_dims()
        for i in range(len(dims) - 1):
            params[f"W{i}"] = _uniform_fan_in(rng, dims[i], (dims[i], dims[i + 1]))
            params[f"b{i}"] = np.zeros((1, dims[i + 1]))
    else:
        d, m, f = config.d_in, config.model_dim, config.ffn_dim
        params["emb"] = _uniform_fan_in(rng, m, (d, m))
        params["pos"] = _uniform_fan_in(rng, m, (d, m))
        for name in ("wq", "wk", "wv"):
            params[name] = _uniform_fan_in(rng, m, (m, m))
        params["fw1"] = _uniform_fan_in(rng, m, (m, f))
        params["fb1"] = np.zeros((1, f))
        params["fw2"] = _uniform_fan_in(rng, f, (f, m))
        params["fb2"] = np.zeros((1, m))
        params["head_w"] = _uniform_fan_in(rng, m, (m, 1))
        params["head_b"] = np.zeros((1, 1))
    if config.gated:
        params["scores"] = init_scores(config.gate_width(), config.score_init, seed=seed,
                                       values=config.score_init_values).reshape(1, -1)
    return Model(config, params)
