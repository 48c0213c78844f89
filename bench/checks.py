"""Output checks for the benchmark's operations, and canonical output digests.

Each check tests an invariant the package guarantees for any input, not the
quality of a ranking (the acceptance tests cover quality). A check raises
``CheckError`` when an output breaks its invariant.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

SHAPLEY_TOL = 1e-9
UNIT_TOL = 1e-9  # gate weights summing to 1, compare's unit diagonal and symmetry


class CheckError(Exception):
    """An operation's output breaks an invariant."""


def check_fit(report: dict) -> None:
    """A fit's final train loss is finite and below its epoch-0 loss, and its
    final gate weights sum to 1."""
    first = report["curve"][0]["loss"]
    final = report["final_train_loss"]
    if not (math.isfinite(final) and final < first):
        raise CheckError(f"final train loss {final} is not finite and below epoch-0 loss {first}")
    weights = report["scores_trajectory"][-1]["weights"]
    if abs(math.fsum(weights) - 1.0) > UNIT_TOL:
        raise CheckError(f"gate weights sum to {math.fsum(weights)!r}, not 1")


def check_efficiency(phi, fx, base_value: float) -> None:
    """Every row of attributions sums to f(x) - base (Shapley efficiency)."""
    phi = np.asarray(phi, dtype=np.float64)
    gap = np.abs(phi.sum(axis=1) - (np.asarray(fx, dtype=np.float64) - base_value))
    if not np.all(gap <= SHAPLEY_TOL):  # also rejects NaN
        raise CheckError(f"efficiency gap {np.nanmax(gap) if gap.size else gap} > {SHAPLEY_TOL}")


def check_same_phi(phi_a, phi_b) -> None:
    """Two attribution matrices agree entrywise (kernel SHAP under full
    enumeration against exact Shapley)."""
    a = np.asarray(phi_a, dtype=np.float64)
    b = np.asarray(phi_b, dtype=np.float64)
    if a.shape != b.shape:
        raise CheckError(f"attribution shapes differ: {a.shape} vs {b.shape}")
    gap = np.abs(a - b)
    if not np.all(gap <= SHAPLEY_TOL):
        raise CheckError(f"attributions differ by {np.nanmax(gap)} > {SHAPLEY_TOL}")


def check_rank(payload: dict) -> None:
    """A ranking's order is the stable descending sort of its weights."""
    order = [int(i) for i in payload["order"]]
    values = np.asarray(payload["values"], dtype=np.float64)
    if sorted(order) != list(range(values.size)):
        raise CheckError(f"order {order} is not a permutation of {values.size} features")
    expected = np.argsort(-values, kind="stable").tolist()
    if order != expected:
        raise CheckError(f"order {order} is not the stable descending sort {expected}")


def check_compare(payload: dict) -> None:
    """A Spearman matrix is square, symmetric and has a unit diagonal."""
    m = np.asarray(payload["spearman"], dtype=np.float64)
    k = len(payload["labels"])
    if m.shape != (k, k):
        raise CheckError(f"spearman matrix has shape {m.shape}, expected {(k, k)}")
    if not np.all(np.abs(np.diag(m) - 1.0) <= UNIT_TOL):
        raise CheckError(f"spearman diagonal {np.diag(m).tolist()} is not all 1")
    if not np.all(np.abs(m - m.T) <= UNIT_TOL):
        raise CheckError("spearman matrix is not symmetric")


def strip_timing(obj):
    """Drop ``*_ms`` keys: they measure the run, they are not results of it."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload`` with timing keys stripped."""
    text = json.dumps(strip_timing(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
