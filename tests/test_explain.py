"""Shapley attribution validation.

Independent oracles: a brute-force average over all d! permutations (the
definition), the linear-model closed form phi_i = a_i * (x_i - bg_i), and
scipy.stats.spearmanr for the rank correlation. Kernel regression estimates
must collapse onto exact enumeration whenever the coalition budget covers
every subset.
"""

import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from scoregate import explain
from scoregate.autodiff import NumericError
from scoregate.explain import (
    EXACT_MAX_FEATURES,
    Ranking,
    ShapResult,
    exact_shapley,
    fractional_ranks,
    global_importance,
    kernel_shap,
    mean_background,
    rank_match_table,
    rank_stability,
    shapley_kernel_weight,
    spearman,
    spearman_rho,
    UndefinedCorrelation,
)
from scoregate.models import ModelConfig, build_model


def permutation_shapley(predict_fn, x, bg):
    """Definition-level oracle: average marginal contribution over all
    feature orderings, one coalition at a time."""
    d = x.shape[0]
    phi = np.zeros(d)

    def value(subset):
        z = bg.copy()
        z[list(subset)] = x[list(subset)]
        return float(predict_fn(z.reshape(1, -1))[0])

    for perm in itertools.permutations(range(d)):
        acc = set()
        before = value(acc)
        for i in perm:
            acc.add(i)
            after = value(acc)
            phi[i] += after - before
            before = after
    return phi / math.factorial(d)


def mlp_predict(d, seed):
    model = build_model(ModelConfig(d_in=d, hidden=(6,), gated=True,
                                    score_init="random-uniform"), seed=seed)
    return model.predict


# --- exact enumeration -------------------------------------------------------


def test_exact_shapley_matches_permutation_definition():
    rng = np.random.default_rng(0)
    predict = mlp_predict(4, seed=3)
    X = rng.normal(size=(2, 4))
    bg = rng.normal(size=4)
    res = exact_shapley(predict, X, bg)
    assert res.method == "exact" and res.n_coalitions == 16
    for r in range(2):
        oracle = permutation_shapley(predict, X[r], bg)
        np.testing.assert_allclose(res.phi[r], oracle, rtol=1e-10, atol=1e-12)


def test_exact_shapley_linear_closed_form():
    a = np.array([1.5, -2.0, 0.0, 0.25])
    predict = lambda Z: Z @ a + 3.0
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 4))
    bg = rng.normal(size=4)
    res = exact_shapley(predict, X, bg)
    np.testing.assert_allclose(res.phi, (X - bg) * a, rtol=1e-12, atol=1e-12)
    assert res.base_value == pytest.approx(float(bg @ a + 3.0), rel=1e-15)


def test_exact_shapley_efficiency_symmetry_dummy():
    predict = mlp_predict(5, seed=8)
    rng = np.random.default_rng(2)
    x = rng.normal(size=5)
    x[1] = x[0]  # symmetric pair under a symmetric value function
    bg = np.zeros(5)

    def tied(Z):  # same dependence on features 0 and 1, none on feature 4
        s = Z[:, 0] + Z[:, 1] + 0.4 * Z[:, 2] - 0.7 * Z[:, 3]
        return 1.0 / (1.0 + np.exp(-s))

    res = exact_shapley(tied, x, bg)
    phi = res.phi[0]
    assert phi[0] == pytest.approx(phi[1], rel=1e-12)
    assert phi[4] == 0.0
    total = float(tied(x.reshape(1, -1))[0]) - res.base_value
    assert phi.sum() == pytest.approx(total, abs=1e-12)

    # efficiency also holds for a generic nonlinear model
    res2 = exact_shapley(predict, x, bg)
    total2 = float(predict(x.reshape(1, -1))[0]) - res2.base_value
    assert res2.phi[0].sum() == pytest.approx(total2, abs=1e-12)


@pytest.mark.parametrize("method", ["exact", "kernel"])
@given(d=st.integers(3, 6), hidden=st.integers(1, 6), gated=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_shapley_axioms_on_random_mlps(method, d, hidden, gated, seed):
    """Efficiency, symmetry and dummy on a random MLP in which features i and
    j enter identically and feature k not at all; kernel SHAP is checked on
    its full-enumeration path."""
    rng = np.random.default_rng(seed)
    i, j, k = (int(f) for f in rng.permutation(d)[:3])
    model = build_model(ModelConfig(d_in=d, hidden=(hidden,), gated=gated,
                                    score_init="random-uniform"), seed=seed)
    W0 = model.params["W0"]
    W0[j] = W0[i]
    W0[k] = 0.0
    if gated:
        model.params["scores"][0, j] = model.params["scores"][0, i]
    X = rng.normal(size=(2, d))
    bg = rng.normal(size=d)
    X[:, j], bg[j] = X[:, i], bg[i]

    if method == "exact":
        res, tol = exact_shapley(model.predict, X, bg), 1e-12
    else:
        res, tol = kernel_shap(model.predict, X, bg, n_coalitions=2 ** d), 1e-10
    total = model.predict(X) - model.predict(bg.reshape(1, -1))[0]
    np.testing.assert_allclose(res.phi.sum(axis=1), total, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.phi[:, i], res.phi[:, j], rtol=0, atol=tol)
    np.testing.assert_allclose(res.phi[:, k], 0.0, rtol=0, atol=tol)


def test_exact_shapley_input_validation():
    predict = mlp_predict(3, seed=0)
    with pytest.raises(ValueError, match="capped"):
        exact_shapley(lambda Z: Z.sum(axis=1), np.ones((1, 16)), np.zeros(16))
    with pytest.raises(ValueError, match="background"):
        exact_shapley(predict, np.ones((1, 3)), np.zeros(4))
    assert EXACT_MAX_FEATURES == 15


def where_exact_reference(predict_fn, X, bg):
    """Exact Shapley with each row's coalition inputs built by ``np.where``."""
    n, d = X.shape
    masks = explain._coalition_masks(d)
    w = explain._shapley_order_weights(d)
    absent = np.stack([np.flatnonzero(~masks[:, i]) for i in range(d)])
    present = absent + (1 << np.arange(d))[:, None]
    weight = w[masks.sum(axis=1)[absent]]
    phi = np.zeros((n, d))
    for r in range(n):
        vals = predict_fn(np.where(masks, X[r], bg))
        phi[r] = np.sum(weight * (vals[present] - vals[absent]), axis=1)
    return phi


@pytest.mark.parametrize("d", [2, 5, 9])
def test_exact_shapley_gather_matches_where_bit_for_bit(d):
    predict = mlp_predict(d, seed=d)
    rng = np.random.default_rng(d)
    X = rng.normal(size=(4, d))
    bg = rng.normal(size=d)
    np.testing.assert_array_equal(exact_shapley(predict, X, bg).phi,
                                  where_exact_reference(predict, X, bg))


@pytest.mark.parametrize("explainer", [exact_shapley, kernel_shap])
def test_explainers_reject_an_empty_x(explainer):
    with pytest.raises(ValueError, match="no rows to explain"):
        explainer(mlp_predict(4, seed=0), np.ones((0, 4)), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("explainer", [exact_shapley, kernel_shap])
def test_explainers_name_the_first_non_finite_input(explainer, bad):
    predict = mlp_predict(4, seed=0)
    X, bg = np.ones((5, 4)), np.zeros(4)
    X[3, 2] = X[4, 0] = bad
    with pytest.raises(ValueError, match=r"^X holds a non-finite value at row 3, column 2$"):
        explainer(predict, X, bg)
    bg[1] = bad
    with pytest.raises(ValueError, match=r"^background holds a non-finite value at column 1$"):
        explainer(predict, np.ones((5, 4)), bg)


# --- kernel regression --------------------------------------------------------


def test_kernel_full_enumeration_equals_exact():
    predict = mlp_predict(6, seed=5)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 6))
    bg = rng.normal(size=6)
    ker = kernel_shap(predict, X, bg, n_coalitions=2 ** 6)
    exa = exact_shapley(predict, X, bg)
    np.testing.assert_allclose(ker.phi, exa.phi, rtol=1e-8, atol=1e-10)
    assert ker.base_value == exa.base_value
    assert ker.method == "kernel"
    assert ker.n_coalitions == 2 ** 6  # 62 interior masks + empty + full


def test_kernel_sampled_recovers_linear_model_exactly():
    # an additive game has a zero-residual regression, so sampling noise
    # cannot move the solution once the design has full rank
    a = np.array([0.5, -1.0, 2.0, 0.0, 0.75, 1.25])
    predict = lambda Z: Z @ a - 1.0
    rng = np.random.default_rng(4)
    X = rng.normal(size=(3, 6))
    bg = rng.normal(size=6)
    res = kernel_shap(predict, X, bg, n_coalitions=30, seed=11)
    assert res.n_coalitions == 30  # the stated budget includes empty + full
    np.testing.assert_allclose(res.phi, (X - bg) * a, rtol=1e-8, atol=1e-10)


def test_kernel_sampled_efficiency_is_exact():
    predict = mlp_predict(9, seed=2)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 9))
    bg = rng.normal(size=9)
    res = kernel_shap(predict, X, bg, n_coalitions=64, seed=3)
    fx = predict(X)
    for r in range(3):
        assert res.phi[r].sum() == pytest.approx(fx[r] - res.base_value, abs=1e-10)


def test_kernel_shap_seeded():
    predict = mlp_predict(8, seed=1)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(2, 8))
    bg = np.zeros(8)
    a = kernel_shap(predict, X, bg, n_coalitions=40, seed=9)
    b = kernel_shap(predict, X, bg, n_coalitions=40, seed=9)
    c = kernel_shap(predict, X, bg, n_coalitions=40, seed=10)
    np.testing.assert_array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)


def test_kernel_shap_single_feature():
    predict = lambda Z: 2.0 * Z[:, 0] + 1.0
    res = kernel_shap(predict, np.array([[3.0], [5.0]]), np.array([1.0]), n_coalitions=8)
    np.testing.assert_allclose(res.phi, [[4.0], [8.0]], rtol=1e-12)
    assert res.n_coalitions == 2


def test_kernel_shap_budget_validation():
    predict = mlp_predict(6, seed=0)
    with pytest.raises(ValueError, match=r"^need at least 8 coalitions for 6 features, got 7$"):
        kernel_shap(predict, np.ones((1, 6)), np.zeros(6), n_coalitions=7)
    with pytest.raises(ValueError, match="background"):
        kernel_shap(predict, np.ones((1, 6)), np.zeros(5))


@pytest.mark.parametrize("n_coalitions", [40, 2 ** 6])
def test_kernel_shap_coalition_inputs_equal_where(n_coalitions, monkeypatch):
    # every coalition batch handed to the model is np.where(masks, x, bg), bit
    # for bit; a sampled budget's masks hold each drawn mask exactly once
    d = 6
    predict = mlp_predict(d, seed=3)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3, d))
    bg = rng.normal(size=d)
    drawn, gathered, batches = [], [], []
    sample, gather = explain._sample_masks, explain._gather_index

    def recorded_sample(*args):
        drawn.append(sample(*args))
        return drawn[-1]

    def recorded_gather(masks):
        gathered.append(masks.copy())
        return gather(masks)

    def recorded_predict(Z):
        batches.append(Z.copy())
        return predict(Z)

    monkeypatch.setattr(explain, "_sample_masks", recorded_sample)
    monkeypatch.setattr(explain, "_gather_index", recorded_gather)
    kernel_shap(recorded_predict, X, bg, n_coalitions=n_coalitions, seed=4)
    if drawn:
        (masks,) = gathered
        keys = [m.tobytes() for m in masks]
        drawn_keys = [m.tobytes() for m in drawn[0]]
        assert len(drawn_keys) == n_coalitions - 2
        assert len(set(drawn_keys)) < len(drawn_keys)  # the draws repeat some masks
        assert len(set(keys)) == len(keys)  # no repeat
        assert set(keys) == set(drawn_keys)  # none missing, none added
    else:
        masks = explain._full_masks(d)[0]
    assert len(batches) == 2 + 3
    for r, Z in enumerate(batches[2:]):
        np.testing.assert_array_equal(Z, np.where(masks, X[r], bg))


# --- coalition sampler --------------------------------------------------------


@given(d=st.integers(2, 20), n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_sample_masks_shape_sizes_and_seed(d, n, seed):
    masks = explain._sample_masks(d, n, np.random.default_rng(seed))
    assert masks.dtype == bool and masks.shape == (n, d)
    sizes = masks.sum(axis=1)
    assert sizes.min() >= 1 and sizes.max() <= d - 1
    np.testing.assert_array_equal(masks, explain._sample_masks(d, n, np.random.default_rng(seed)))


def test_sample_masks_follow_the_shapley_kernel():
    # 200k draws at d = 7: each size's frequency matches the kernel p(k), and
    # within a size every feature is a member at rate k/d. Tolerance: five
    # binomial standard errors of each rate.
    d, n = 7, 200_000
    masks = explain._sample_masks(d, n, np.random.default_rng(2024))
    sizes = masks.sum(axis=1)
    k = np.arange(1, d)
    p = (d - 1) / (k * (d - k))
    p /= p.sum()
    freq = np.bincount(sizes, minlength=d)[1:] / n
    assert np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / n))
    for size in k:
        rows = masks[sizes == size]
        rate = rows.mean(axis=0)
        q = size / d
        assert np.all(np.abs(rate - q) <= 5 * np.sqrt(q * (1 - q) / rows.shape[0])), size


def lstsq_reference(predict_fn, X, bg, n_coalitions, seed):
    """Kernel SHAP as one ``np.linalg.lstsq`` per explained row, on the same
    coalitions and weights as ``kernel_shap``."""
    n, d = X.shape
    base = float(predict_fn(bg.reshape(1, -1))[0])
    if n_coalitions - 2 >= 2 ** d - 2:
        masks, weights = explain._full_masks(d)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        masks = explain._sample_masks(d, n_coalitions - 2, rng)
        weights = np.ones(masks.shape[0])
    z = masks.astype(np.float64)
    A = z[:, :-1] - z[:, -1:]
    sw = np.sqrt(weights)
    phi = np.zeros((n, d))
    for r in range(n):
        vals = predict_fn(np.where(masks, X[r], bg))
        delta = float(predict_fn(X[r].reshape(1, -1))[0]) - base
        sol, _, rank, _ = np.linalg.lstsq(A * sw[:, None], (vals - base - z[:, -1] * delta) * sw,
                                          rcond=None)
        if rank < d - 1:
            raise NumericError(f"rank {rank}")
        phi[r, :-1] = sol
        phi[r, -1] = delta - sol.sum()
    return phi


@given(d=st.integers(2, 16), full=st.booleans(), budget=st.integers(0, 2 ** 16),
       gated=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernel_shap_matches_per_row_lstsq(d, full, budget, gated, seed):
    """The design factored once per call solves every row as lstsq would."""
    sampled_budgets = min(2 ** d - d - 2, 600)  # d + 2 up to below 2^d; none for d = 2
    if full or sampled_budgets == 0:
        d = min(d, 10)
        n_coalitions = 2 ** d + budget % 8
    else:
        n_coalitions = d + 2 + budget % sampled_budgets
    model = build_model(ModelConfig(d_in=d, hidden=(5,), gated=gated,
                                    score_init="random-uniform"), seed=seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(3, d))
    bg = rng.normal(size=d)
    try:
        expect = lstsq_reference(model.predict, X, bg, n_coalitions, seed)
    except NumericError:
        with pytest.raises(NumericError, match="singular"):
            kernel_shap(model.predict, X, bg, n_coalitions=n_coalitions, seed=seed)
        return
    res = kernel_shap(model.predict, X, bg, n_coalitions=n_coalitions, seed=seed)
    np.testing.assert_allclose(res.phi, expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_coalitions", [40, 2 ** 6])
def test_kernel_shap_predicts_each_row_once_plus_two(n_coalitions):
    # the background, all rows' f(x) in one batch, then one coalition batch per row
    predict = mlp_predict(6, seed=4)
    calls = []

    def counted(Z):
        calls.append(Z.shape[0])
        return predict(Z)

    X = np.random.default_rng(8).normal(size=(5, 6))
    kernel_shap(counted, X, np.zeros(6), n_coalitions=n_coalitions, seed=2)
    assert len(calls) == 5 + 2
    assert calls[:2] == [1, 5]


def test_kernel_shap_rejects_a_singular_design(monkeypatch):
    # every sampled coalition the same: the design has rank 1 of the 3 needed
    monkeypatch.setattr(explain, "_sample_masks",
                        lambda d, m, rng: np.tile([True, False, True, False], (m, 1)))
    predict = mlp_predict(4, seed=0)
    with pytest.raises(NumericError,
                       match=r"kernel regression design is singular \(rank 1 < 3\)"):
        kernel_shap(predict, np.ones((2, 4)), np.zeros(4), n_coalitions=12)


def test_kernel_shap_evaluates_each_repeated_draw_once(monkeypatch):
    # 198 draws from a pool of 14 masks, some drawn dozens of times and some
    # once: the count-weighted design solves as lstsq does on the repeated
    # rows. (d = 8: a budget of 198 at d = 4 would enumerate all 14 masks.)
    d, n_coalitions = 8, 200
    rng = np.random.default_rng(2)
    pool = np.concatenate([np.eye(d, dtype=bool), rng.random((6, d)) < 0.5])
    pool[8:, 0], pool[8:, 1] = True, False  # neither empty nor full
    p = 0.7 ** np.arange(14)
    monkeypatch.setattr(explain, "_sample_masks",
                        lambda d, m, rng: pool[rng.choice(14, size=m, p=p / p.sum())])
    predict = mlp_predict(d, seed=6)
    X = rng.normal(size=(3, d))
    bg = rng.normal(size=d)
    batches = []

    def recorded(Z):
        batches.append(Z.shape[0])
        return predict(Z)

    res = kernel_shap(recorded, X, bg, n_coalitions=n_coalitions, seed=5)
    assert len(batches) == 2 + 3 and max(batches[2:]) <= 14
    assert res.n_coalitions == n_coalitions
    np.testing.assert_allclose(res.phi, lstsq_reference(predict, X, bg, n_coalitions, seed=5),
                               rtol=0, atol=1e-12)
    masks = explain._sample_masks(d, n_coalitions - 2,
                                  np.random.default_rng(np.random.SeedSequence(5)))
    z = masks.astype(np.float64)
    s = np.linalg.svd(z[:, :-1] - z[:, -1:], compute_uv=False)
    assert res.design_condition == pytest.approx(s[0] / s[-1], rel=1e-12)


def test_kernel_shap_keys_masks_past_64_features(monkeypatch):
    # draws that differ only in a feature past index 63, each drawn twice:
    # an integer bit code would overflow there and merge them
    d = 70
    rng = np.random.default_rng(7)
    base = rng.random((120, d)) < 0.5
    base[:, 64:] = False
    pairs = np.concatenate([base, base])
    pairs[120 + np.arange(120), 64 + np.arange(120) % 6] = True
    draws = np.concatenate([pairs, pairs])[rng.permutation(480)]
    monkeypatch.setattr(explain, "_sample_masks", lambda d, m, rng: draws[:m])
    predict = mlp_predict(d, seed=1)
    X = rng.normal(size=(2, d))
    bg = rng.normal(size=d)
    batches = []

    def recorded(Z):
        batches.append(Z.copy())
        return predict(Z)

    res = kernel_shap(recorded, X, bg, n_coalitions=len(draws) + 2, seed=0)
    assert res.n_coalitions == len(draws) + 2 and len(batches) == 2 + 2
    for r, Z in enumerate(batches[2:]):
        seen = sorted(m.tobytes() for m in Z == X[r])
        assert seen == sorted(m.tobytes() for m in pairs)  # each mask reaches the model once
    np.testing.assert_allclose(res.phi, lstsq_reference(predict, X, bg, len(draws) + 2, seed=0),
                               rtol=0, atol=1e-12)


def test_kernel_shap_design_diagnostics():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(4, 6))
    bg = rng.normal(size=6)
    w = rng.normal(size=6)
    for n_coalitions in (40, 2 ** 6):  # sampled, then full enumeration
        # an additive model is fit exactly; an interaction leaves a residual
        linear = kernel_shap(lambda Z: Z @ w, X, bg, n_coalitions=n_coalitions, seed=1)
        assert 1.0 <= linear.design_condition < 1e3
        assert 0.0 <= linear.regression_residual <= 1e-12
        product = kernel_shap(lambda Z: Z[:, 0] * Z[:, 1] + Z[:, 2], X, bg,
                              n_coalitions=n_coalitions, seed=1)
        assert product.regression_residual >= 0.1
    # the background itself: every coalition's target is 0, fit exactly by phi = 0
    at_bg = kernel_shap(lambda Z: Z[:, 0] * Z[:, 1] + Z[:, 2], bg[None], bg, n_coalitions=40)
    assert at_bg.regression_residual == 0.0
    one = kernel_shap(lambda Z: Z[:, 0], np.ones((2, 1)), np.zeros(1), n_coalitions=4)
    assert one.design_condition is None and one.regression_residual is None
    exact = exact_shapley(lambda Z: Z @ w, X, bg)
    assert exact.design_condition is None and exact.regression_residual is None


def test_regression_residual_reaches_the_last_partial_block():
    # every row but the last is the background (an all-zero target, residual
    # 0); the last row sits alone in a partial block of RESIDUAL_ROWS
    d = 6
    rng = np.random.default_rng(3)
    bg = rng.normal(size=d)

    def f(Z):
        return Z[:, 0] * Z[:, 1] + Z[:, 2]

    X = np.tile(bg, (2 * explain.RESIDUAL_ROWS + 1, 1))
    X[-1] = rng.normal(size=d)
    res = kernel_shap(f, X, bg, n_coalitions=2 ** d)
    # reference: the last row's weighted least-squares fit, rebuilt by hand
    masks, weights = explain._full_masks(d)
    z, sw = masks.astype(np.float64), np.sqrt(weights)
    delta = f(X[-1:])[0] - res.base_value
    target = (f(np.where(masks, X[-1], bg)) - res.base_value - z[:, -1] * delta) * sw
    fitted = ((z[:, :-1] - z[:, -1:]) * sw[:, None]) @ res.phi[-1, :-1]
    expect = np.linalg.norm(fitted - target) / np.linalg.norm(target)
    assert expect >= 0.1
    assert res.regression_residual == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 10, 12])
def test_full_masks_weigh_each_coalition_by_its_size(d):
    masks, weights = explain._full_masks(d)
    assert len(masks) == 2 ** d - 2
    expect = np.array([shapley_kernel_weight(d, int(k)) for k in masks.sum(axis=1)])
    assert weights.tobytes() == expect.tobytes()


def test_kernel_weight_values():
    # hand-computed for d = 4: (d-1) / (C(d,k) * k * (d-k))
    assert shapley_kernel_weight(4, 1) == pytest.approx(3 / 12)
    assert shapley_kernel_weight(4, 2) == pytest.approx(3 / 24)
    assert shapley_kernel_weight(4, 3) == pytest.approx(3 / 12)
    for d in (3, 6, 11):
        for k in range(1, d):
            assert shapley_kernel_weight(d, k) == pytest.approx(
                shapley_kernel_weight(d, d - k), rel=1e-15)  # symmetric
    with pytest.raises(ValueError):
        shapley_kernel_weight(4, 0)
    with pytest.raises(ValueError):
        shapley_kernel_weight(4, 4)


def test_mean_background():
    X = np.array([[1.0, 2.0], [3.0, 6.0]])
    np.testing.assert_array_equal(mean_background(X), [2.0, 4.0])
    with pytest.raises(ValueError):
        mean_background(np.ones(3))
    with pytest.raises(ValueError):
        mean_background(np.ones((0, 3)))


def test_shap_result_round_trip_and_global_importance():
    phi = np.array([[1.0, -3.0], [-2.0, 1.0]])
    res = ShapResult(phi=phi, base_value=0.5, method="exact", n_coalitions=4)
    np.testing.assert_array_equal(res.global_importance(), [1.5, 2.0])
    assert res.n_samples == 2
    back = json.loads(json.dumps(res.to_dict()))
    np.testing.assert_array_equal(back["phi"], phi)
    assert back["method"] == "exact" and back["n_coalitions"] == 4
    assert back["global_importance"] == [1.5, 2.0]
    r = global_importance(res)
    assert r.order == [1, 0] and r.source == "shap"


@pytest.mark.parametrize("n_coalitions", [30, 2 ** 5])
def test_shap_payload_schema(n_coalitions):
    predict = mlp_predict(5, seed=1)
    X = np.random.default_rng(2).normal(size=(3, 5))
    for res in (kernel_shap(predict, X, np.zeros(5), n_coalitions=n_coalitions, seed=3),
                exact_shapley(predict, X, np.zeros(5))):
        payload = json.loads(json.dumps(res.to_dict()))
        assert sorted(payload) == ["base_value", "design_condition", "global_importance",
                                   "method", "n_coalitions", "n_samples", "phi",
                                   "regression_residual"]
        assert payload == res.to_dict()
        assert payload["design_condition"] == res.design_condition
        assert payload["regression_residual"] == res.regression_residual


def test_shap_result_serializes_each_of_its_fields():
    @dataclass
    class Extended(ShapResult):
        extra: int = 7

    payload = Extended(phi=np.ones((2, 3)), base_value=0.5, method="exact",
                       n_coalitions=8).to_dict()
    assert set(payload) == {f.name for f in fields(Extended)} | {"global_importance",
                                                                 "n_samples"}
    assert payload["extra"] == 7 and payload["n_samples"] == 2


def test_explainers_rerun_to_equal_results():
    # a result holds no clock reading: no key needs stripping to compare reruns
    predict = mlp_predict(5, seed=1)
    X = np.random.default_rng(2).normal(size=(3, 5))
    for explainer in (lambda: exact_shapley(predict, X, np.zeros(5)),
                      lambda: kernel_shap(predict, X, np.zeros(5), n_coalitions=20, seed=3),
                      lambda: kernel_shap(predict, X, np.zeros(5), n_coalitions=2 ** 5)):
        assert explainer().to_dict() == explainer().to_dict()


# --- rank correlation ----------------------------------------------------------


def test_spearman_rho_textbook_value():
    # one adjacent swap among five items: rho = 1 - 6*2/(5*24) = 0.9
    assert spearman_rho([1, 2, 3, 4, 5], [2, 1, 3, 4, 5]) == pytest.approx(0.9)
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert spearman_rho([0.1, 0.2, 0.9], [5, 70, 71]) == pytest.approx(1.0)


def test_spearman_rho_matches_scipy_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        a = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        b = rng.normal(size=n)
        if np.unique(a).size < 2:
            continue
        expect = stats.spearmanr(a, b).statistic
        assert spearman_rho(a, b) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_fractional_ranks():
    np.testing.assert_array_equal(fractional_ranks([10.0, 20.0, 20.0, 30.0]),
                                  [1.0, 2.5, 2.5, 4.0])
    np.testing.assert_array_equal(fractional_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=16))
@settings(max_examples=300, deadline=None)
def test_fractional_ranks_equal_scipy_average_ranks(values):
    expect = stats.rankdata(values, method="average")
    np.testing.assert_array_equal(fractional_ranks(values), expect, strict=True)


def test_spearman_rho_validation():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman_rho([1], [2])
    with pytest.raises(ValueError):
        spearman_rho([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("a, b, message", [
    ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "a holds a non-finite value at entry 1"),
    ([np.nan] * 3, [1.0, 2.0, 3.0], "a holds a non-finite value at entry 0"),
    ([1.0, 2.0, 3.0], [1.0, 2.0, -np.inf], "b holds a non-finite value at entry 2"),
])
def test_spearman_rho_rejects_a_non_finite_entry(a, b, message):
    # NaN has no rank: argsort would place it last and return a number
    with pytest.raises(ValueError, match=message):
        spearman_rho(a, b)


def test_spearman_restricts_to_ground_truth_support():
    gt = Ranking([0.2, 0.3, 0.1, 0.0, 0.0], source="ground-truth")
    # agrees on the three ranked features; the irrelevant tail is scrambled
    ours = Ranking([0.25, 0.5, 0.05, 0.9, 0.01], source="scores")
    assert spearman(gt, ours) == pytest.approx(1.0)
    # restricted ranks invert exactly: gt puts f1 > f0 > f2, flipped f2 > f0 > f1
    flipped = Ranking([0.5, 0.25, 0.9, 0.0, 0.0], source="scores")
    assert spearman(gt, flipped) == pytest.approx(-1.0)
    # no restriction between two non-ground-truth rankings
    a = Ranking([1.0, 2.0, 3.0, 4.0, 5.0], source="scores")
    b = Ranking([5.0, 4.0, 3.0, 2.0, 1.0], source="shap")
    assert spearman(a, b) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        spearman(gt, Ranking([1.0, 2.0], source="scores"))
    # one feature ranked by both sides: undefined, as for an all-tie side
    thin = Ranking([1.0, 0.0, 0.0], source="ground-truth")
    with pytest.raises(UndefinedCorrelation, match="fewer than two mutually ranked features"):
        spearman(thin, Ranking([1.0, 2.0, 3.0], source="scores"))
    with pytest.raises(UndefinedCorrelation, match="constant ranks"):
        spearman(gt, Ranking([1.0, 1.0, 1.0, 2.0, 3.0], source="scores"))


def test_rank_match_table():
    gt = Ranking([0.5, 0.3, 0.2], source="ground-truth")
    ours = Ranking([0.9, 0.1, 0.45], source="scores")
    shap = Ranking([0.2, 0.9, 0.1], source="shap")
    table = rank_match_table(ours, shap, gt, top_k=2)
    assert table == [
        {"position": 1, "ground_truth": 0, "ours": 0, "ours_match": True,
         "shap": 1, "shap_match": False},
        {"position": 2, "ground_truth": 1, "ours": 2, "ours_match": False,
         "shap": 0, "shap_match": False},
    ]
    with pytest.raises(ValueError):
        rank_match_table(ours, shap, gt, top_k=0)
    with pytest.raises(ValueError):
        rank_match_table(ours, shap, gt, top_k=4)


def test_rank_stability_hand_example():
    a = Ranking([4.0, 3.0, 2.0, 1.0], source="scores")
    b = Ranking([3.0, 4.0, 2.0, 1.0], source="scores")
    # features 0 and 1 swap ranks 0 and 1: population variance 0.25 each
    np.testing.assert_allclose(rank_stability([a, b]), [0.25, 0.25, 0.0, 0.0])
    np.testing.assert_array_equal(rank_stability([a, a, a]), 0.0)
    with pytest.raises(ValueError):
        rank_stability([a])
    short = Ranking([2.0, 1.0], source="scores")
    with pytest.raises(ValueError):
        rank_stability([a, short])
