"""Scores layer validation.

The gradient of the gated linear map is checked three independent ways:
a hand-rolled loop oracle written straight from the chain rule, central
finite differences on a pure-numpy forward, and the autodiff graph with
per-output unit-vector readouts. Softmax values are cross-checked against
a 50-digit mpmath reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import scoregate.autodiff as ad
from scoregate.scores import (
    Ranking,
    analytic_grads,
    entropy_penalty_score_grad,
    extract_ranking,
    gate,
    init_scores,
    ranking_from_values,
    scores_to_weights,
    sparsity_penalty,
)


def mp_softmax(s):
    with mp.workdps(50):
        es = [mp.e ** mp.mpf(float(v)) for v in s]
        tot = sum(es)
        return np.array([float(e / tot) for e in es])


# --- oracles ---------------------------------------------------------------


def loop_grads(W, s, x):
    """Chain-rule oracle for y = (softmax(s) * x) @ W, all plain loops."""
    d, K = W.shape
    m = max(s)
    ex = [math.exp(v - m) for v in s]
    tot = sum(ex)
    w = [e / tot for e in ex]
    d_w = np.zeros((d, K))
    for i in range(d):
        for k in range(K):
            d_w[i, k] = w[i] * x[i]
    d_s = np.zeros((K, d))
    for k in range(K):
        for l in range(d):
            acc = 0.0
            for i in range(d):
                delta = 1.0 if i == l else 0.0
                acc += W[i, k] * w[i] * (delta - w[l]) * x[i]
            d_s[k, l] = acc
    return d_w, d_s


def forward_y(s, x, W):
    e = np.exp(s - s.max())
    w = e / e.sum()
    return (w * x) @ W


def fd_s_jacobian(W, s, x, eps=1e-6):
    d, K = W.shape
    out = np.zeros((K, d))
    for l in range(d):
        sp, sm = s.copy(), s.copy()
        sp[l] += eps
        sm[l] -= eps
        out[:, l] = (forward_y(sp, x, W) - forward_y(sm, x, W)) / (2 * eps)
    return out


def autodiff_output_grads(W, s, x, k):
    """Gradients of y_k via the graph: read out one output with a unit vector."""
    d, K = W.shape
    x_leaf = ad.leaf(x[None, :])
    s_leaf = ad.leaf(s[None, :])
    W_leaf = ad.leaf(W)
    e_k = np.zeros((K, 1))
    e_k[k, 0] = 1.0
    y = ad.matmul(ad.hadamard(x_leaf, ad.softmax_rows(s_leaf)), W_leaf)
    out = ad.mean(ad.matmul(y, ad.leaf(e_k)))
    grads = ad.backward(out)
    return grads[W_leaf], grads[s_leaf].reshape(-1)


# --- analytic_grads, triple route -------------------------------------------


def test_analytic_grads_match_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        K = int(rng.integers(1, 6))
        W = rng.normal(size=(d, K))
        s = rng.normal(size=d)
        x = rng.normal(size=d)
        d_w, d_s = analytic_grads(W, s, x)
        o_w, o_s = loop_grads(W, s, x)
        np.testing.assert_allclose(d_w, o_w, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(d_s, o_s, rtol=1e-12, atol=1e-14)


def test_analytic_grads_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d, K = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        W = rng.normal(size=(d, K))
        s = rng.normal(size=d)
        x = rng.normal(size=d)
        _, d_s = analytic_grads(W, s, x)
        np.testing.assert_allclose(d_s, fd_s_jacobian(W, s, x), rtol=1e-5, atol=1e-7)


def test_analytic_grads_dW_matches_finite_differences():
    rng = np.random.default_rng(12)
    d, K = 5, 3
    W = rng.normal(size=(d, K))
    s = rng.normal(size=d)
    x = rng.normal(size=d)
    d_w, _ = analytic_grads(W, s, x)
    eps = 1e-6
    for i in range(d):
        for k in range(K):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, k] += eps
            Wm[i, k] -= eps
            fd = (forward_y(s, x, Wp) - forward_y(s, x, Wm)) / (2 * eps)
            # only output k moves, by exactly the tabulated amount
            assert abs(fd[k] - d_w[i, k]) < 1e-7
            fd[k] = 0.0
            assert np.max(np.abs(fd)) < 1e-9


def test_analytic_grads_match_autodiff_route():
    rng = np.random.default_rng(29)
    for _ in range(5):
        d, K = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        W = rng.normal(size=(d, K))
        s = rng.normal(size=d)
        x = rng.normal(size=d)
        d_w, d_s = analytic_grads(W, s, x)
        for k in range(K):
            gW, gs = autodiff_output_grads(W, s, x, k)
            np.testing.assert_allclose(gs, d_s[k], rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(gW[:, k], d_w[:, k], rtol=1e-10, atol=1e-12)
            other = np.delete(gW, k, axis=1)
            assert np.max(np.abs(other)) < 1e-15  # y_k ignores other columns


def test_analytic_grads_shape_errors():
    with pytest.raises(ValueError):
        analytic_grads(np.ones((3, 2)), np.ones(4), np.ones(3))
    with pytest.raises(ValueError):
        analytic_grads(np.ones((3, 2)), np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        analytic_grads(np.ones(3), np.ones(3), np.ones(3))


# --- softmax weights ---------------------------------------------------------


def test_scores_to_weights_known_values():
    np.testing.assert_allclose(scores_to_weights([0.0, 0.0]), [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(
        scores_to_weights([math.log(2.0), 0.0]), [2 / 3, 1 / 3], rtol=1e-14
    )


def test_scores_to_weights_extreme_scores_stable():
    w = scores_to_weights([1000.0, 0.0])
    np.testing.assert_allclose(w, mp_softmax([1000.0, 0.0]), rtol=1e-15, atol=1e-300)
    assert w[0] == 1.0 and w[1] == 0.0


def test_scores_to_weights_matches_mpmath():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = rng.normal(scale=4.0, size=int(rng.integers(1, 9)))
        np.testing.assert_allclose(scores_to_weights(s), mp_softmax(s), rtol=1e-14)


def test_scores_to_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        scores_to_weights([])
    with pytest.raises(ad.NumericError):
        scores_to_weights([np.inf, 0.0])
    with pytest.raises(ad.NumericError):
        scores_to_weights([np.nan])


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=10),
       st.floats(-100, 100))
@settings(max_examples=60, deadline=None)
def test_weights_sum_to_one_and_shift_invariant(s, c):
    w = scores_to_weights(s)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(w >= 0)
    shifted = scores_to_weights([v + c for v in s])
    np.testing.assert_allclose(shifted, w, rtol=1e-9, atol=1e-12)


# --- gate --------------------------------------------------------------------


def test_gate_matches_double_loop():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(6, 4))
    w = rng.uniform(size=4)
    out = gate(w, X)
    for i in range(6):
        for j in range(4):
            assert out[i, j] == X[i, j] * w[j]


def test_gate_accepts_lists_and_rejects_mismatch():
    out = gate([1.0, 2.0], [[1.0, 1.0], [3.0, 4.0]])
    np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 8.0]])
    assert out.dtype == np.float64
    with pytest.raises(ValueError):
        gate([1.0, 2.0, 3.0], np.ones((2, 2)))
    with pytest.raises(ValueError):
        gate([1.0, 2.0], np.ones(2))  # 1-D input


# --- init strategies ----------------------------------------------------------


def test_init_zero_gives_uniform_weights():
    s = init_scores(5, "zero")
    assert np.all(s == 0.0)
    np.testing.assert_allclose(scores_to_weights(s), np.full(5, 0.2), rtol=1e-15)


def test_init_random_uniform_seeded_and_bounded():
    a = init_scores(1000, "random-uniform", seed=42)
    b = init_scores(1000, "random-uniform", seed=42)
    c = init_scores(1000, "random-uniform", seed=43)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= -1.0) and np.all(a <= 1.0)
    # coarse uniformity: E|u| = 0.5, sd of the mean ~ 0.009
    assert abs(np.abs(a).mean() - 0.5) < 0.05


def test_init_from_values_copies():
    vals = np.array([0.2, 0.3, 0.1])
    s = init_scores(3, "from-values", values=vals)
    vals[0] = 99.0
    assert s[0] == 0.2


def test_init_scores_errors():
    with pytest.raises(ValueError):
        init_scores(0, "zero")
    with pytest.raises(ValueError):
        init_scores(3, "xavier")
    with pytest.raises(ValueError):
        init_scores(3, "from-values")  # values missing
    with pytest.raises(ValueError):
        init_scores(3, "zero", values=[1, 2, 3])  # values forbidden
    with pytest.raises(ValueError):
        init_scores(3, "from-values", values=[1.0, 2.0])


# --- penalties -----------------------------------------------------------------


def test_sparsity_penalty_values():
    w = np.full(4, 0.25)
    assert sparsity_penalty(w, 0.0) == 0.0
    assert abs(sparsity_penalty(w, 2.0) - 2.0 * math.log(4)) < 1e-14
    one_hot = np.array([1.0, 0.0, 0.0])
    assert sparsity_penalty(one_hot, 1.0) < 1e-12
    with pytest.raises(ValueError):
        sparsity_penalty(w, -0.5)


def test_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(23)
    lam = 0.37

    def penalty(s):
        e = np.exp(s - s.max())
        w = e / e.sum()
        return lam * float(-(w * np.log(w)).sum())

    for _ in range(10):
        s = rng.normal(size=int(rng.integers(2, 9)))
        g = entropy_penalty_score_grad(scores_to_weights(s), lam)
        eps = 1e-6
        for l in range(s.size):
            sp, sm = s.copy(), s.copy()
            sp[l] += eps
            sm[l] -= eps
            fd = (penalty(sp) - penalty(sm)) / (2 * eps)
            assert abs(g[l] - fd) < 1e-8


def test_entropy_grad_zero_at_uniform():
    # uniform weights maximize entropy, so the gradient vanishes there
    g = entropy_penalty_score_grad(np.full(6, 1 / 6), 1.0)
    assert np.max(np.abs(g)) < 1e-15


# --- rankings -------------------------------------------------------------------


def test_ranking_from_values_descending_with_stable_ties():
    r = ranking_from_values([1.0, 2.0, 2.0, 0.5], source="shap")
    assert r.order == [1, 2, 0, 3]
    assert r.values == [1.0, 2.0, 2.0, 0.5]
    assert r.rank_of(3) == 3
    assert r.rank_of(1) == 0


def test_ranking_validation():
    with pytest.raises(ValueError):
        Ranking(order=[0, 0, 1], values=[1.0, 2.0, 3.0], source="scores")
    with pytest.raises(ValueError):
        Ranking(order=[0, 1], values=[1.0, 2.0], source="magic")
    with pytest.raises(ValueError):
        Ranking(order=[0, 2], values=[1.0, 2.0], source="scores")


def test_ranking_round_trip():
    r = ranking_from_values([0.1, 0.9, 0.4], source="ground-truth")
    back = Ranking.from_dict(r.to_dict())
    assert back.order == r.order
    assert back.values == r.values
    assert back.source == r.source


def test_extract_ranking_uses_current_weights():
    s = np.array([0.0, 3.0, 1.0])
    r = extract_ranking(s)
    assert r.order == [1, 2, 0]
    assert r.source == "scores"
    np.testing.assert_allclose(r.values, scores_to_weights(s), rtol=1e-15)


@given(st.lists(st.floats(-20, 20), min_size=2, max_size=8, unique=True),
       st.floats(-50, 50))
@settings(max_examples=50, deadline=None)
def test_extract_ranking_shift_invariant(s, c):
    # softmax is shift-invariant, so the ranking must be too
    base = extract_ranking(np.array(s))
    moved = extract_ranking(np.array(s) + c)
    assert base.order == moved.order
