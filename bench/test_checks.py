"""Self-test of the benchmark's output checks: each accepts a valid output
and rejects a corrupted one.

    python3 -m pytest bench
"""

import copy
import math

import numpy as np
import pytest

from checks import (
    CheckError,
    check_compare,
    check_efficiency,
    check_fit,
    check_rank,
    check_same_phi,
    digest,
)


def shap_output():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(5, 4))
    base = 0.3
    return phi, phi.sum(axis=1) + base, base


def fit_report():
    return {"curve": [{"epoch": 0, "loss": 0.69}, {"epoch": 1, "loss": 0.5}],
            "final_train_loss": 0.4,
            "scores_trajectory": [{"weights": [0.25, 0.25, 0.25, 0.25]},
                                  {"weights": [0.4, 0.3, 0.2, 0.1]}]}


def test_efficiency_rejects_perturbed_row():
    phi, fx, base = shap_output()
    check_efficiency(phi, fx, base)
    phi[2, 1] += 1e-6
    with pytest.raises(CheckError):
        check_efficiency(phi, fx, base)


def test_same_phi_rejects_perturbed_row():
    phi, _, _ = shap_output()
    check_same_phi(phi, phi.copy())
    other = phi.copy()
    other[0] += 1e-6
    with pytest.raises(CheckError):
        check_same_phi(phi, other)


def test_rank_rejects_non_permutation_and_wrong_order():
    good = {"order": [1, 0, 2, 3], "values": [0.3, 0.4, 0.2, 0.1]}
    check_rank(good)
    for order in ([1, 1, 2, 3], [1, 0, 2], [0, 1, 2, 3]):
        with pytest.raises(CheckError):
            check_rank({**good, "order": order})


def test_rank_ties_keep_the_lower_index_first():
    check_rank({"order": [0, 1, 2], "values": [0.4, 0.4, 0.2]})
    with pytest.raises(CheckError):
        check_rank({"order": [1, 0, 2], "values": [0.4, 0.4, 0.2]})


@pytest.mark.parametrize("loss", [math.nan, math.inf, 0.69, 0.8])
def test_fit_rejects_bad_final_loss(loss):
    check_fit(fit_report())
    report = fit_report()
    report["final_train_loss"] = loss
    with pytest.raises(CheckError):
        check_fit(report)


def test_fit_rejects_gate_not_summing_to_one():
    report = fit_report()
    report["scores_trajectory"][-1]["weights"][0] += 1e-6
    with pytest.raises(CheckError):
        check_fit(report)


def test_compare_rejects_asymmetry_and_diagonal():
    good = {"labels": ["a", "b"], "spearman": [[1.0, 0.5], [0.5, 1.0]]}
    check_compare(good)
    for matrix in ([[1.0, 0.5], [0.4, 1.0]], [[0.9, 0.5], [0.5, 1.0]], [[1.0, 0.5]]):
        with pytest.raises(CheckError):
            check_compare({**good, "spearman": matrix})


def test_digest_ignores_timing_keys_only():
    payload = {"phi": [[0.1]], "elapsed_ms": 3.0, "nested": [{"wall_ms": 1.0, "x": 1}]}
    changed = copy.deepcopy(payload)
    changed["elapsed_ms"] = 4.0
    changed["nested"][0]["wall_ms"] = 2.0
    assert digest(payload) == digest(changed)
    changed["nested"][0]["x"] = 2
    assert digest(payload) != digest(changed)
