"""Learnable feature-scoring layer: a score vector softmax-normalized into
gating weights that multiply the input elementwise, plus ranking extraction
and the closed-form gradients of the gated linear map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericError

INIT_STRATEGIES = ("zero", "random-uniform", "from-values")
RANKING_SOURCES = ("scores", "shap", "ground-truth")


def init_scores(d: int, strategy: str = "zero", seed: int = 0,
                values=None) -> np.ndarray:
    """Create a scores vector of length ``d``.

    ``zero`` starts all scores equal (uniform weights), ``random-uniform``
    draws i.i.d. from U[-1, 1] under ``seed``, and ``from-values`` copies a
    supplied vector (e.g. ground-truth coefficients).
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
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        s = rng.uniform(-1.0, 1.0, size=d)
    else:
        s = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        if s.shape[0] != d:
            raise ValueError(f"from-values needs length {d}, got {s.shape[0]}")
    return s


def scores_to_weights(s) -> np.ndarray:
    """Softmax of the score vector, stabilized by max subtraction."""
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if s.size < 1:
        raise ValueError("scores vector must have length >= 1")
    if not np.all(np.isfinite(s)):
        raise NumericError("scores must be finite")
    e = np.exp(s - s.max())
    return e / e.sum()


def gate(weights, X) -> np.ndarray:
    """Scale every sample row of ``X`` elementwise by ``weights``."""
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != weights.shape[0]:
        raise ValueError(f"gate dimension mismatch: X {X.shape} vs weights ({weights.shape[0]},)")
    return X * weights


def analytic_grads(W, s, x) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form partials of the gated hidden layer y = (w * x) @ W.

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
    w = scores_to_weights(s)
    u = w * x
    d_w = np.repeat(u[:, None], W.shape[1], axis=1)
    d_s = (W * u[:, None]).T - np.outer(W.T @ u, w)
    return d_w, d_s


def sparsity_penalty(weights, lam: float = 0.0) -> float:
    """Optional score regularizer: lam * entropy(w)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        return 0.0
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    wc = np.clip(w, 1e-300, None)
    return lam * float(-(w * np.log(wc)).sum())


def entropy_penalty_score_grad(weights, lam: float) -> np.ndarray:
    """Gradient of lam * entropy(softmax(s)) with respect to the scores s.

    d/ds_l = -lam * w_l * (ln w_l + H(w)); used by the training loop, which
    cannot express the entropy through its graph ops.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    wc = np.clip(w, 1e-300, None)
    h = -(w * np.log(wc)).sum()
    return -lam * w * (np.log(wc) + h)


@dataclass
class Ranking:
    """Features ordered by descending importance value.

    ``order[k]`` is the 0-based feature index at rank ``k``; ``values[i]`` is
    the importance of feature ``i``. Ties break toward the lower index.
    """

    order: list[int]
    values: list[float]
    source: str = "scores"

    def __post_init__(self):
        if self.source not in RANKING_SOURCES:
            raise ValueError(f"unknown ranking source {self.source!r}")
        if sorted(self.order) != list(range(len(self.values))):
            raise ValueError("order must be a permutation of feature indices")

    def rank_of(self, feature: int) -> int:
        """0-based rank position of a feature."""
        return self.order.index(feature)

    def to_dict(self) -> dict:
        return {"order": list(self.order), "values": list(self.values), "source": self.source}

    @classmethod
    def from_dict(cls, d: dict) -> "Ranking":
        return cls(order=[int(i) for i in d["order"]],
                   values=[float(v) for v in d["values"]],
                   source=d["source"])


def ranking_from_values(values, source: str) -> Ranking:
    """Rank features by descending value; equal values keep index order."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    order = np.argsort(-values, kind="stable")
    return Ranking(order=[int(i) for i in order],
                   values=[float(v) for v in values],
                   source=source)


def extract_ranking(scores) -> Ranking:
    """Global feature ranking from the softmax weights of a score vector."""
    return ranking_from_values(scores_to_weights(scores), source="scores")
