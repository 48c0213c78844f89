"""Shapley-value attribution baselines, feature rankings and their comparison.

Both explainers use a single reference point (the background mean): a
coalition's value is the model output with absent features replaced by the
background. ``exact_shapley`` enumerates all coalitions; ``kernel_shap``
solves the weighted least-squares formulation and switches to full
enumeration with exact kernel weights whenever the budget covers it, at which
point the two agree to solver precision. Either way the regression runs on
masks plus weights: the sampled branch evaluates each distinct drawn
coalition once, weighted by its draw count.

A ``Ranking`` orders features by one source's importance values: a gated
model's gate weights (``extract_ranking``), SHAP's mean |phi|
(``global_importance``) or a dataset's ground truth. ``spearman``,
``rank_match_table`` and ``rank_stability`` compare rankings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericError
from .data import check_finite, stream

EXACT_MAX_FEATURES = 15
RANKING_SOURCES = ("scores", "shap", "ground-truth")
RESIDUAL_ROWS = 16  # rows whose fit residuals share one pass over the kernel design


@dataclass
class ShapResult:
    phi: np.ndarray  # (n_samples, d) per-instance attributions
    base_value: float
    method: str  # "exact" | "kernel"
    n_coalitions: int
    # kernel regression only (None for "exact" and for d = 1): the weighted
    # design's condition number s[0] / s[-1], and the largest relative
    # residual of a row's weighted least-squares fit, ||Aw sol - bw|| / ||bw||.
    # The residual is 0 up to rounding when the model is additive in its
    # inputs, and grows with the interactions the linear fit cannot express.
    design_condition: float | None = None
    regression_residual: float | None = None

    @property
    def n_samples(self) -> int:
        return self.phi.shape[0]

    def global_importance(self) -> np.ndarray:
        """Mean absolute attribution per feature across explained instances."""
        return np.mean(np.abs(self.phi), axis=0)

    def to_dict(self) -> dict:
        return {**vars(self), "phi": [[float(v) for v in row] for row in self.phi],
                "global_importance": [float(v) for v in self.global_importance()],
                "n_samples": self.n_samples}


def mean_background(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("background data must be a non-empty 2-D array")
    return X.mean(axis=0)


def _rows_to_explain(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("no rows to explain: X is empty")
    check_finite("X", X)
    return X


def _background(background, d: int) -> np.ndarray:
    bg = np.asarray(background, dtype=np.float64).reshape(-1)
    if bg.shape[0] != d:
        raise ValueError("background length must match feature count")
    check_finite("background", bg, axes=("column",))
    return bg


def _gather_index(masks: np.ndarray) -> np.ndarray:
    """Flat indices that build one row's coalition inputs by a plain copy:
    ``np.concatenate([bg, x]).take(index)`` reads x where a mask is set and the
    background elsewhere."""
    d = masks.shape[1]
    return masks * d + np.arange(d)


def _coalition_masks(d: int) -> np.ndarray:
    """All 2^d membership masks; row index read as a bitmask, bit i = feature i."""
    return ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1).astype(bool)


def _shapley_order_weights(d: int) -> np.ndarray:
    """w[k] = k! (d-1-k)! / d!, the weight of a size-k coalition in the sum."""
    fact_d = math.factorial(d)
    return np.array([math.factorial(k) * math.factorial(d - 1 - k) / fact_d for k in range(d)])


def exact_shapley(predict_fn, X: np.ndarray, background: np.ndarray) -> ShapResult:
    """Exact Shapley values by full coalition enumeration (feasible for small d)."""
    X = _rows_to_explain(X)
    n, d = X.shape
    if d > EXACT_MAX_FEATURES:
        raise ValueError(f"exact enumeration is capped at {EXACT_MAX_FEATURES} features, got {d}")
    bg = _background(background, d)

    masks = _coalition_masks(d)
    sizes = masks.sum(axis=1)
    w = _shapley_order_weights(d)
    base_value = float(predict_fn(bg.reshape(1, -1))[0])

    # row i: the coalitions without feature i, and the same ones with it added
    absent = np.stack([np.flatnonzero(~masks[:, i]) for i in range(d)])
    present = absent + (1 << np.arange(d))[:, None]
    weight = w[sizes[absent]]
    pick = _gather_index(masks)
    phi = np.zeros((n, d))
    for r in range(n):
        Z = np.concatenate([bg, X[r]]).take(pick)
        vals = np.asarray(predict_fn(Z), dtype=np.float64).reshape(-1)
        phi[r] = np.sum(weight * (vals[present] - vals[absent]), axis=1)
    return ShapResult(phi=phi, base_value=base_value, method="exact", n_coalitions=2 ** d)


def shapley_kernel_weight(d: int, k: int) -> float:
    """Kernel weight of a coalition of size k among d features (0 < k < d)."""
    if not 0 < k < d:
        raise ValueError("kernel weight is defined for non-trivial coalitions only")
    return (d - 1) / (math.comb(d, k) * k * (d - k))


def _sample_masks(d: int, n_coalitions: int, rng: np.random.Generator) -> np.ndarray:
    """Draw coalition masks with size distributed as the Shapley kernel.

    Each coalition's members are uniform given its size k: every row of
    ``position`` is a random permutation, read as the place of each feature in
    a random order, and the features placed before k are the members.
    """
    sizes = np.arange(1, d)
    p = (d - 1) / (sizes * (d - sizes))
    p = p / p.sum()
    draws = rng.choice(sizes, size=n_coalitions, p=p)
    position = np.tile(np.arange(d), (n_coalitions, 1))
    rng.permuted(position, axis=1, out=position)
    return position < draws[:, None]


def _distinct_masks(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct row of ``masks`` once, weighted by how often it was drawn.

    Least squares with integer row weights is least squares over the repeated
    rows. A row's key is its packed bits read as one byte string, exact for
    any feature count.
    """
    packed = np.packbits(masks, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return masks[first], counts


def _full_masks(d: int) -> tuple[np.ndarray, np.ndarray]:
    masks = _coalition_masks(d)
    sizes = masks.sum(axis=1)
    keep = (sizes > 0) & (sizes < d)
    masks = masks[keep]
    by_size = np.array([0.0] + [shapley_kernel_weight(d, k) for k in range(1, d)])
    return masks, by_size[sizes[keep]]


def check_coalitions(n_coalitions: int, d: int) -> None:
    """Kernel SHAP's floor: the empty and full coalitions plus one per feature."""
    if n_coalitions < d + 2:
        raise ValueError(f"need at least {d + 2} coalitions for {d} features, got {n_coalitions}")


def kernel_shap(predict_fn, X: np.ndarray, background: np.ndarray, n_coalitions: int = 2048,
                seed: int = 0) -> ShapResult:
    """Kernel-regression Shapley estimates.

    ``n_coalitions`` is the total coalition budget; the empty and full
    coalitions are always evaluated (they anchor the efficiency constraint)
    and the remainder is sampled from the Shapley kernel, with replacement.
    A coalition drawn more than once is evaluated once, and its row of the
    regression is weighted by its draw count, which solves the same problem
    as the repeated rows; the result's ``n_coalitions`` still reports the
    budget, repeats included. The efficiency property is enforced exactly by
    eliminating the last feature from the regression and recovering it from
    the total output difference. When the budget covers every non-trivial
    coalition, sampling is replaced by full enumeration under exact kernel
    weights, which reproduces exact Shapley values.
    """
    X = _rows_to_explain(X)
    n, d = X.shape
    bg = _background(background, d)
    check_coalitions(n_coalitions, d)
    base_value = float(predict_fn(bg.reshape(1, -1))[0])

    if d == 1:
        phi = (np.asarray(predict_fn(X), dtype=np.float64) - base_value).reshape(n, 1)
        return ShapResult(phi=phi, base_value=base_value, method="kernel", n_coalitions=2)

    budget = n_coalitions - 2  # empty + full are evaluated outside the regression
    drawn = min(budget, 2 ** d - 2)  # design rows, repeated draws included
    if budget >= 2 ** d - 2:
        masks, weights = _full_masks(d)
    else:
        masks, weights = _distinct_masks(_sample_masks(d, budget, stream(seed)))

    z = masks.astype(np.float64)
    # eliminate the last feature so the efficiency constraint holds exactly
    A = z[:, :-1] - z[:, -1:]
    sw = np.sqrt(weights)
    # the weighted design is the same for every row: factor it once, with
    # the rank rule of lstsq under rcond=None on the drawn design, and keep
    # its pseudo-inverse with the weights folded in, so each row's solve is
    # one matvec
    Aw = A * sw[:, None]
    U, s, Vt = np.linalg.svd(Aw, full_matrices=False)
    rank = int(np.count_nonzero(s > np.finfo(np.float64).eps * max(drawn, d - 1) * s[0]))
    if rank < d - 1:
        raise NumericError(
            f"kernel regression design is singular (rank {rank} < {d - 1}); "
            "increase n_coalitions")
    solve = (Vt.T / s) @ (U.T * sw)  # (d-1, m)

    delta = np.asarray(predict_fn(X), dtype=np.float64).reshape(-1) - base_value
    pick = _gather_index(masks)
    phi = np.zeros((n, d))
    # a block's weighted targets: one product per block checks their fits,
    # where one per row would read the whole design again after each predict
    held = np.empty((min(n, RESIDUAL_ROWS), masks.shape[0]))
    worst = 0.0  # the largest squared relative residual
    for start in range(0, n, len(held)):
        rows = range(start, min(start + len(held), n))
        for i, r in enumerate(rows):
            Z = np.concatenate([bg, X[r]]).take(pick)
            vals = np.asarray(predict_fn(Z), dtype=np.float64).reshape(-1)
            target = vals - base_value - z[:, -1] * delta[r]
            sol = solve @ target
            phi[r, :-1] = sol
            phi[r, -1] = delta[r] - sol.sum()
            held[i] = target * sw
        bw = held[:len(rows)]
        res = phi[rows.start:rows.stop, :-1] @ Aw.T - bw
        fit = np.einsum("ij,ij->i", bw, bw)  # 0 for an all-zero target, which sol = 0 fits
        worst = max(worst, (np.einsum("ij,ij->i", res, res)[fit > 0] / fit[fit > 0]).max(initial=0))
    return ShapResult(phi=phi, base_value=base_value, method="kernel",
                      n_coalitions=drawn + 2, design_condition=float(s[0] / s[-1]),
                      regression_residual=math.sqrt(worst))


# -- rankings and their comparison -------------------------------------------


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


def global_importance(result: ShapResult) -> Ranking:
    """Global ranking by descending mean |phi|, ties toward the lower index."""
    return Ranking(result.global_importance(), source="shap")


def fractional_ranks(values) -> np.ndarray:
    """Ascending ranks starting at 1, ties sharing their average rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.shape[0])
    i = 0
    while i < v.shape[0]:
        j = i
        while j + 1 < v.shape[0] and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class UndefinedCorrelation(ValueError):
    """No rank correlation exists: a side is all ties, or both rank under two features."""


def spearman_rho(a, b) -> float:
    """Spearman rank correlation (fractional ranks, so ties are handled)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("length mismatch")
    if a.shape[0] < 2:
        raise ValueError("need at least two items to correlate")
    check_finite("a", a, axes=("entry",))
    check_finite("b", b, axes=("entry",))
    ra, rb = fractional_ranks(a), fractional_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra ** 2).sum() * (rb ** 2).sum())
    if denom == 0.0:
        raise UndefinedCorrelation("constant ranks have no defined correlation")
    return float((ra * rb).sum() / denom)


def spearman(a: Ranking, b: Ranking) -> float:
    """Spearman rho between two rankings over the same features.

    If either side is a ground-truth ranking, the comparison is restricted to
    the features that ground truth actually ranks (importance > 0) — the
    irrelevant tail carries no defined order.
    """
    if len(a.values) != len(b.values):
        raise ValueError("rankings cover different feature counts")
    keep = np.ones(len(a.values), dtype=bool)
    for r in (a, b):
        if r.source == "ground-truth":
            keep &= np.asarray(r.values) > 0
    if keep.sum() < 2:
        raise UndefinedCorrelation("fewer than two mutually ranked features")
    return spearman_rho(np.asarray(a.values)[keep], np.asarray(b.values)[keep])


def rank_match_table(ours: Ranking, shap: Ranking, gt: Ranking, top_k: int) -> list[dict]:
    """Per-position agreement with ground truth for the two methods.

    Row ``p`` names the feature ground truth puts at rank ``p`` and the
    features each method put there, with match flags.
    """
    d = len(gt.values)
    if not 0 < top_k <= d:
        raise ValueError("top_k must be between 1 and the feature count")
    table = []
    for p in range(top_k):
        row = {"position": p + 1, "ground_truth": gt.order[p]}
        for label, r in (("ours", ours), ("shap", shap)):
            row[label] = r.order[p]
            row[f"{label}_match"] = r.order[p] == gt.order[p]
        table.append(row)
    return table


def rank_stability(rankings: list[Ranking]) -> np.ndarray:
    """Per-feature population variance of assigned rank across repeated runs."""
    if len(rankings) < 2:
        raise ValueError("need at least two rankings")
    d = len(rankings[0].values)
    if any(len(r.values) != d for r in rankings):
        raise ValueError("rankings cover different feature counts")
    return np.argsort([r.order for r in rankings], axis=1).var(axis=0)  # argsort inverts
