"""Learnable feature-scoring layer: score vector init, ranking extraction from
a model's gate weights, and the closed-form gradients of the gated linear map.
A model applies the weights by scaling the rows of its first layer's weight,
which equals multiplying the input elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import SCORE_INIT, check_finite, stream

INIT_STRATEGIES = ("zero", "random-uniform", "from-values")
RANKING_SOURCES = ("scores", "shap", "ground-truth")


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


@dataclass
class Ranking:
    """Features ordered by descending importance value.

    ``values[i]`` is the importance of feature ``i``; ``order[k]`` is the
    0-based feature index at rank ``k``, derived from the values by a stable
    descending sort, so ties break toward the lower index.
    """

    values: list[float]
    source: str = "scores"
    order: list[int] = field(init=False)

    def __post_init__(self):
        if self.source not in RANKING_SOURCES:
            raise ValueError(f"unknown ranking source {self.source!r}")
        values = np.asarray(self.values, dtype=np.float64)
        check_finite(f"{self.source} ranking", values, axes=("feature",))
        self.values = values.tolist()
        self.order = np.argsort(-values, kind="stable").tolist()

    def to_dict(self) -> dict:
        return {"order": list(self.order), "values": list(self.values), "source": self.source}

    @classmethod
    def from_dict(cls, d: dict) -> "Ranking":
        """The ranking a ``to_dict`` payload holds; its order must be its values' order."""
        if not {"order", "values", "source"} <= d.keys():
            raise ValueError(f"a ranking needs keys order, values and source, got {sorted(d)}")
        ranking = cls(d["values"], d["source"])
        if list(d["order"]) != ranking.order:
            raise ValueError(f"order {list(d['order'])} is not the stable descending order "
                             f"of its values, {ranking.order}")
        return ranking


def extract_ranking(model) -> Ranking:
    """Global feature ranking of a gated model, from its gate weights."""
    return Ranking(model.gate_weights(), source="scores")
