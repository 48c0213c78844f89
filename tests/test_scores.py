"""Scores layer validation.

The gradient of the gated linear map is checked three independent ways:
a hand-rolled loop oracle written straight from the chain rule, central
finite differences on a pure-numpy forward, and the autodiff graph with
per-output unit-vector readouts, both as ``(x * w) @ W`` and in the folded
form ``x @ (w[:, None] * W)`` the models train. The gate weights a model reads,
``Model.gate_weights``, are cross-checked against a 50-digit mpmath reference.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

import scoregate.autodiff as ad
from scoregate.explain import RANKING_SOURCES, Ranking, extract_ranking
from scoregate.models import Model, ModelConfig, analytic_grads, build_model, init_scores


def gated(s) -> Model:
    """A gated model whose scores are ``s``, set by the ``from-values`` init."""
    s = np.asarray(s, dtype=np.float64)
    return build_model(ModelConfig(d_in=s.size, hidden=(1,), gated=True,
                                   score_init="from-values", score_init_values=s.tolist()),
                       seed=0)


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


def autodiff_output_grads(W, s, x, k, folded=False):
    """Gradients of y_k via the graph: read out one output with a unit vector.
    The graph is ``(x * w) @ W``, or with ``folded`` ``x @ (w[:, None] * W)``,
    the form the model trains."""
    d, K = W.shape
    x_leaf = ad.leaf(x[None, :])
    s_leaf = ad.leaf(s[None, :])
    W_leaf = ad.leaf(W)
    e_k = np.zeros((K, 1))
    e_k[k, 0] = 1.0
    w = ad.softmax_rows(s_leaf)
    y = ad.matmul(x_leaf, ad.hadamard(W_leaf, ad.reshape(w, (-1, 1)))) if folded \
        else ad.matmul(ad.hadamard(x_leaf, w), W_leaf)
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
        for k, folded in itertools.product(range(K), (False, True)):
            gW, gs = autodiff_output_grads(W, s, x, k, folded)
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
    with pytest.raises(ValueError, match="s holds a non-finite value at feature 1"):
        analytic_grads(np.ones((3, 2)), [0.0, np.nan, 1.0], np.ones(3))


# --- gate weights ---------------------------------------------------------------


def test_gate_weights_known_values():
    np.testing.assert_allclose(gated([0.0, 0.0]).gate_weights(), [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(
        gated([math.log(2.0), 0.0]).gate_weights(), [2 / 3, 1 / 3], rtol=1e-14
    )


def test_gate_weights_extreme_scores_stable():
    w = gated([1000.0, 0.0]).gate_weights()
    np.testing.assert_allclose(w, mp_softmax([1000.0, 0.0]), rtol=1e-15, atol=1e-300)
    assert w[0] == 1.0 and w[1] == 0.0


def test_gate_weights_match_mpmath():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = rng.normal(scale=4.0, size=int(rng.integers(1, 9)))
        np.testing.assert_allclose(gated(s).gate_weights(), mp_softmax(s), rtol=1e-14)


def test_a_gated_model_rejects_empty_or_non_finite_scores():
    # so gate_weights never sees them: no model has an empty score vector,
    # and neither the init nor a model file puts a NaN or an inf in one
    with pytest.raises(ValueError, match="d_in must be >= 1"):
        ModelConfig(d_in=0, gated=True)
    raw = gated([0.5, 1.0]).to_dict()
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="score_init_values holds a non-finite value "
                                             "at feature 0"):
            gated([bad, 0.0])
        with pytest.raises(ad.NumericError, match="model parameters must be finite: scores"):
            Model.from_dict({**raw, "parameters": {**raw["parameters"], "scores": [bad, 0.0]}})


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=10),
       st.floats(-100, 100))
@settings(max_examples=60, deadline=None)
def test_weights_sum_to_one_and_shift_invariant(s, c):
    w = gated(s).gate_weights()
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(w >= 0)
    shifted = gated([v + c for v in s]).gate_weights()
    np.testing.assert_allclose(shifted, w, rtol=1e-9, atol=1e-12)


# --- init strategies ----------------------------------------------------------


def test_init_zero_gives_uniform_weights():
    s = init_scores(5, "zero")
    assert np.all(s == 0.0)
    model = build_model(ModelConfig(d_in=5, hidden=(1,), gated=True), seed=0)
    np.testing.assert_array_equal(model.scores, s)
    np.testing.assert_allclose(model.gate_weights(), np.full(5, 0.2), rtol=1e-15)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_init_from_values_rejects_a_non_finite_value(bad):
    with pytest.raises(ValueError, match="score_init_values holds a non-finite value at feature 2"):
        init_scores(4, "from-values", values=[0.5, 1.0, bad, 0.0])


# --- gate-entropy penalty, a graph term ------------------------------------------


def entropy_penalty(s_leaf, lam):
    """The training loss's penalty term: lam * entropy(softmax(s))."""
    return ad.scale(ad.entropy_rows(ad.softmax_rows(s_leaf)), lam)


def closed_form_entropy_grad(s, lam):
    """d/ds_l of lam * H(softmax(s)) = -lam * w_l * (ln w_l + H(w))."""
    w = gated(s).gate_weights()
    h = -(w * np.log(w)).sum()
    return -lam * w * (np.log(w) + h)


@given(st.integers(2, 8), st.floats(0.01, 5.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_entropy_penalty_passes_grad_check(d, lam, seed):
    s = np.random.default_rng(seed).normal(scale=2.0, size=(1, d))
    # central differences carry ~1e-10 absolute noise: keep every entry well above it
    assume(np.abs(closed_form_entropy_grad(s[0], lam)).min() > 1e-3)
    s_leaf = ad.leaf(s)
    assert ad.grad_check(entropy_penalty(s_leaf, lam), s_leaf) < 1e-6


def test_entropy_penalty_gradient_matches_the_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(2, 17))
        s = rng.normal(scale=float(rng.choice([0.1, 1.0, 5.0])), size=d)
        lam = float(rng.uniform(0.01, 3.0))
        s_leaf = ad.leaf(s.reshape(1, -1))
        grad = ad.backward(entropy_penalty(s_leaf, lam))[s_leaf][0]
        np.testing.assert_allclose(grad, closed_form_entropy_grad(s, lam), rtol=0, atol=1e-12)


def test_entropy_penalty_gradient_is_zero_at_uniform_weights():
    # uniform weights maximize entropy, so the gradient vanishes there
    s_leaf = ad.leaf(np.zeros((1, 6)))
    assert np.max(np.abs(ad.backward(entropy_penalty(s_leaf, 1.0))[s_leaf])) < 1e-15


def test_entropy_values_and_an_underflowed_weight():
    for d in (1, 4, 9):
        uniform = ad.softmax_rows(ad.leaf(np.zeros((1, d))))
        assert abs(ad.entropy_rows(uniform).value[0, 0] - math.log(d)) < 1e-14
    assert ad.entropy(np.array([[0.0, 1.0, 0.0]]))[0, 0] == 0.0  # one-hot
    np.testing.assert_array_equal(ad.entropy(np.full((2, 4), 0.25)), [[math.log(4)]] * 2)
    s_leaf = ad.leaf(np.array([[0.0, -800.0]]))  # softmax underflows to exactly [1, 0]
    penalty = entropy_penalty(s_leaf, 0.5)
    assert penalty.value[0, 0] == 0.0
    grad = ad.backward(penalty)[s_leaf]
    assert np.isfinite(grad).all()
    np.testing.assert_array_equal(grad, [[0.0, 0.0]])


# --- rankings -------------------------------------------------------------------


def test_ranking_derives_order_descending_with_stable_ties():
    r = Ranking(np.array([1.0, 2.0, 2.0, 0.5]), source="shap")
    assert r.order == [1, 2, 0, 3]
    assert r.values == [1.0, 2.0, 2.0, 0.5]
    assert Ranking([0.0, -0.0, 0.0]).order == [0, 1, 2]  # -0.0 ties with 0.0
    with pytest.raises(TypeError):
        Ranking(values=[1.0, 2.0], source="scores", order=[1, 0])  # no order argument


def test_ranking_validation():
    with pytest.raises(ValueError, match="unknown ranking source 'magic'"):
        Ranking([1.0, 2.0], source="magic")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="shap ranking holds a non-finite value at feature 1"):
            Ranking([1.0, bad, 3.0], source="shap")
    good = {"order": [1, 0], "values": [1.0, 2.0], "source": "scores"}
    with pytest.raises(ValueError, match=r"order \[0, 1\] is not the stable descending order "
                                         r"of its values, \[1, 0\]"):
        Ranking.from_dict({**good, "order": [0, 1]})
    for order in ([0, 0], [1], [1, 0, 2], [0, 2]):
        with pytest.raises(ValueError, match="is not the stable descending order"):
            Ranking.from_dict({**good, "order": order})
    with pytest.raises(ValueError, match="needs keys order, values and source, got"):
        Ranking.from_dict({"values": [1.0, 2.0], "source": "scores"})


def test_ranking_round_trip():
    r = Ranking([0.1, 0.9, 0.4], source="ground-truth")
    back = Ranking.from_dict(json.loads(json.dumps(r.to_dict())))
    assert back == r
    assert back.order == r.order == [1, 2, 0]


# finite values with frequent ties, signed zeros included
tie_prone_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=12)


@given(tie_prone_values, st.sampled_from(RANKING_SOURCES))
@settings(max_examples=200, deadline=None)
def test_ranking_order_is_the_stable_descending_argsort(values, source):
    v = np.array(values)
    r = Ranking(v, source)
    assert r.order == np.argsort(-v, kind="stable").tolist()
    assert Ranking.from_dict(r.to_dict()) == r
    assert Ranking.from_dict(json.loads(json.dumps(r.to_dict()))) == r


def test_extract_ranking_uses_current_weights():
    model = gated([0.0, 3.0, 1.0])
    r = extract_ranking(model)
    assert r.order == [1, 2, 0]
    assert r.source == "scores"
    np.testing.assert_array_equal(r.values, model.gate_weights())
    model.params["scores"][0, 0] = 5.0  # the ranking reads the scores as they stand
    assert extract_ranking(model).order == [0, 1, 2]


@given(st.lists(st.floats(-20, 20), min_size=2, max_size=8, unique=True),
       st.floats(-50, 50))
@settings(max_examples=50, deadline=None)
def test_extract_ranking_shift_invariant(s, c):
    # softmax is shift-invariant, so the ranking must be too. Rounding can tie
    # two weights (s=[0, 2**-52], c=2 makes s + c one value); every step is
    # monotone, so when neither side has tied weights the orders must agree.
    base, moved = extract_ranking(gated(s)), extract_ranking(gated(np.array(s) + c))
    assume(len(set(base.values)) == len(s) and len(set(moved.values)) == len(s))
    assert base.order == moved.order


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=8), st.integers(-50, 50))
@settings(max_examples=50, deadline=None)
def test_extract_ranking_shift_invariant_with_ties(s, c):
    # integer scores shift exactly, so tied scores stay tied and keep index order
    base = extract_ranking(gated(np.array(s, dtype=float)))
    moved = extract_ranking(gated(np.array(s, dtype=float) + c))
    assert base.order == moved.order
