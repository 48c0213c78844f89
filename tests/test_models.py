"""Model validation.

The central property is that the two forward routes agree: the autodiff
graph built by ``loss_graph`` and the pure-numpy ``predict`` must give the
same outputs for every backbone/gating combination, and a hand-rolled loop
forward pins the tiny-MLP case independently of both. Leaf swapping via
``DataLeaves.assign`` must behave exactly like rebuilding the graph on the
new batch.
"""

import math

import numpy as np
import pytest

import scoregate.autodiff as ad
from scoregate.models import (
    Model,
    ModelConfig,
    batch_predictions,
    build_model,
)
from scoregate.scores import scores_to_weights
from scoregate.training import TrainConfig, train


def make_batch(rng, n, d, binary=False):
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(float) if binary else rng.normal(size=n)
    return X, y


CONFIGS = [
    ModelConfig(d_in=4, backbone="mlp", hidden=(5, 3), gated=False),
    ModelConfig(d_in=4, backbone="mlp", hidden=(5, 3), gated=True),
    ModelConfig(d_in=4, backbone="mlp", hidden=(5, 3), gated=True, gate_index=1),
    ModelConfig(d_in=4, backbone="mlp", hidden=(5, 3), gated=True, gate_index=2,
                score_init="random-uniform"),
    ModelConfig(d_in=3, backbone="attention", model_dim=4, ffn_dim=6, gated=False),
    ModelConfig(d_in=3, backbone="attention", model_dim=4, ffn_dim=6, gated=True),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.backbone}-g{int(c.gated)}i{c.gate_index}")
def test_graph_forward_matches_numpy_predict(cfg):
    rng = np.random.default_rng(1)
    model = build_model(cfg, seed=2)
    X, y = make_batch(rng, 6, cfg.d_in, binary=True)
    _, pred, _, _ = model.loss_graph(X, y, "bce")
    np.testing.assert_allclose(batch_predictions(pred), model.predict(X),
                               rtol=1e-12, atol=1e-12)


def test_tiny_gated_mlp_against_loop_forward():
    # d=3 -> (2,) -> 1, gate on the input: recompute everything with scalars
    cfg = ModelConfig(d_in=3, hidden=(2,), gated=True,
                      score_init="from-values", score_init_values=[0.3, -0.2, 0.9])
    model = build_model(cfg, seed=5)
    rng = np.random.default_rng(8)
    X, _ = make_batch(rng, 4, 3)
    got = model.predict(X)

    s = [0.3, -0.2, 0.9]
    mx = max(s)
    es = [math.exp(v - mx) for v in s]
    w = [e / sum(es) for e in es]
    W0, b0 = model.params["W0"], model.params["b0"]
    W1, b1 = model.params["W1"], model.params["b1"]
    for i in range(4):
        gated = [X[i, j] * w[j] for j in range(3)]
        h = [max(0.0, sum(gated[j] * W0[j, k] for j in range(3)) + b0[0, k])
             for k in range(2)]
        z = sum(h[k] * W1[k, 0] for k in range(2)) + b1[0, 0]
        p = 1.0 / (1.0 + math.exp(-z))
        assert abs(got[i] - p) < 1e-12


def test_hidden_gate_multiplies_the_right_layer():
    cfg = ModelConfig(d_in=3, hidden=(4,), gated=True, gate_index=1,
                      score_init="from-values", score_init_values=[2.0, 0.0, -1.0, 0.5])
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(3)
    X, _ = make_batch(rng, 5, 3)
    w = scores_to_weights([2.0, 0.0, -1.0, 0.5])
    h = np.maximum(X @ model.params["W0"] + model.params["b0"], 0.0)
    z = (h * w) @ model.params["W1"] + model.params["b1"]
    expect = 1.0 / (1.0 + np.exp(-z[:, 0]))
    np.testing.assert_allclose(model.predict(X), expect, rtol=1e-12)


@pytest.mark.parametrize("backbone", ["mlp", "attention"])
def test_assign_swaps_batches_like_a_fresh_graph(backbone):
    cfg = ModelConfig(d_in=3, backbone=backbone, hidden=(4,), model_dim=4,
                      ffn_dim=5, gated=True)
    model = build_model(cfg, seed=1)
    rng = np.random.default_rng(2)
    XA, yA = make_batch(rng, 4, 3, binary=True)
    XB, yB = make_batch(rng, 4, 3, binary=True)

    loss, pred, _, leaves = model.loss_graph(XA, yA, "bce")
    leaves.assign(XB, yB)
    swapped_loss = ad.recompute(loss)[0, 0]
    swapped_pred = batch_predictions(pred)

    fresh_loss, fresh_pred, _, _ = model.loss_graph(XB, yB, "bce")
    assert swapped_loss == fresh_loss.value[0, 0]
    np.testing.assert_array_equal(swapped_pred, batch_predictions(fresh_pred))


def test_assign_validates_shapes():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    rng = np.random.default_rng(0)
    X, y = make_batch(rng, 4, 3)
    _, _, _, leaves = model.loss_graph(X, y, "mse")
    assert leaves.batch_rows == 4
    with pytest.raises(ValueError):
        leaves.assign(np.ones((5, 3)), np.ones(5))
    with pytest.raises(ValueError):
        leaves.assign(np.ones((4, 2)), np.ones(4))
    with pytest.raises(ValueError, match="differs from graph shape"):
        leaves.assign(np.ones((4, 3)), np.ones(3))  # too few targets

    att = build_model(ModelConfig(d_in=3, backbone="attention", model_dim=4,
                                  ffn_dim=5), seed=0)
    _, _, _, leaves = att.loss_graph(X, y, "mse")
    assert leaves.batch_rows == 4
    with pytest.raises(ValueError):
        leaves.assign(np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize("backbone", ["mlp", "attention"])
def test_param_arrays_are_aliased_into_the_graph(backbone):
    # the trainer updates params in place and recomputes; no copying allowed
    cfg = ModelConfig(d_in=3, backbone=backbone, hidden=(2,), model_dim=4, ffn_dim=5,
                      gated=True)
    model = build_model(cfg, seed=4)
    rng = np.random.default_rng(6)
    X, y = make_batch(rng, 4, 3, binary=True)
    loss, _, param_leaves, _ = model.loss_graph(X, y, "bce")
    for name, leaf in param_leaves.items():
        assert leaf.value is model.params[name]
    before = loss.value[0, 0]
    model.params["W0" if backbone == "mlp" else "wq"][0, 0] += 0.5
    model.params["scores"][0, 1] -= 1.0
    after = ad.recompute(loss)[0, 0]
    assert after != before
    fresh, _, _, _ = model.loss_graph(X, y, "bce")
    assert after == fresh.value[0, 0]

    # Adam reaches the parameters only through this aliasing
    arrays = dict(model.params)
    start = {name: arr.copy() for name, arr in arrays.items()}
    train(model, X, y, "classification", TrainConfig(epochs=2, lr=0.01, batch_size=None))
    for name, arr in arrays.items():
        assert model.params[name] is arr, name
        assert not np.array_equal(arr, start[name]), name


def test_attention_graph_gradients_pass_grad_check():
    cfg = ModelConfig(d_in=3, backbone="attention", model_dim=4, ffn_dim=5, gated=True)
    model = build_model(cfg, seed=7)
    rng = np.random.default_rng(7)
    X, y = make_batch(rng, 2, 3, binary=True)
    loss, _, leaves, _ = model.loss_graph(X, y, "bce")
    for name in ("wq", "fw1", "head_w", "scores", "emb"):
        assert ad.grad_check(loss, leaves[name]) < 1e-4, name


def test_mlp_graph_gradients_pass_grad_check():
    cfg = ModelConfig(d_in=4, hidden=(3,), gated=True, gate_index=1)
    model = build_model(cfg, seed=9)
    rng = np.random.default_rng(9)
    X, y = make_batch(rng, 5, 4, binary=True)
    loss, _, leaves, _ = model.loss_graph(X, y, "bce")
    for name in leaves:
        assert ad.grad_check(loss, leaves[name]) < 1e-4, name


# --- serialization ---------------------------------------------------------------


@pytest.mark.parametrize("cfg", CONFIGS[1::2], ids=lambda c: c.backbone)
def test_save_load_round_trip(cfg, tmp_path):
    model = build_model(cfg, seed=3)
    path = tmp_path / "model.json"
    model.save(path)
    back = Model.load(path)
    assert back.config == model.config
    assert set(back.params) == set(model.params)
    for name in model.params:
        np.testing.assert_array_equal(back.params[name], model.params[name])
    rng = np.random.default_rng(0)
    X, _ = make_batch(rng, 5, cfg.d_in)
    np.testing.assert_array_equal(back.predict(X), model.predict(X))


def test_vanilla_model_has_no_scores(tmp_path):
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    assert model.scores is None
    path = tmp_path / "vanilla.json"
    model.save(path)
    assert Model.load(path).scores is None


def test_scores_property_is_a_live_view():
    model = build_model(ModelConfig(d_in=3, hidden=(2,), gated=True), seed=0)
    model.params["scores"][0, 0] = 5.0
    assert model.scores[0] == 5.0
    np.testing.assert_allclose(model.gate_weights(),
                               scores_to_weights(model.params["scores"][0]), rtol=1e-15)


# --- config ------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_in=0)
    with pytest.raises(ValueError):
        ModelConfig(d_in=3, backbone="cnn")
    with pytest.raises(ValueError):
        ModelConfig(d_in=3, hidden=(4, 0))
    with pytest.raises(ValueError):
        ModelConfig(d_in=3, hidden=(4,), gated=True, gate_index=2)
    with pytest.raises(ValueError):
        ModelConfig(d_in=3, backbone="attention", gated=True, gate_index=1)


def test_gate_width_follows_gate_index():
    cfg = ModelConfig(d_in=7, hidden=(5, 3), gated=True, gate_index=1)
    assert cfg.layer_dims() == [7, 5, 3, 1]
    assert cfg.gate_width() == 5
    assert ModelConfig(d_in=7, hidden=(5, 3), gated=True).gate_width() == 7


def test_parameter_count():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    assert model.parameter_count() == 3 * 2 + 2 + 2 * 1 + 1
    gated = build_model(ModelConfig(d_in=3, hidden=(2,), gated=True), seed=0)
    assert gated.parameter_count() == 11 + 3


def test_build_model_init_scheme():
    cfg = ModelConfig(d_in=100, hidden=(50,), gated=True)
    a = build_model(cfg, seed=12)
    b = build_model(cfg, seed=12)
    c = build_model(cfg, seed=13)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    assert not np.array_equal(a.params["W0"], c.params["W0"])
    # fan-in uniform bounds and zero biases
    assert np.all(np.abs(a.params["W0"]) <= 1.0 / np.sqrt(100))
    assert np.all(np.abs(a.params["W1"]) <= 1.0 / np.sqrt(50))
    assert np.all(a.params["b0"] == 0.0) and np.all(a.params["b1"] == 0.0)
    assert np.all(a.params["scores"] == 0.0)


def test_loss_graph_rejects_wrong_width():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    with pytest.raises(ad.ShapeError):
        model.loss_graph(np.ones((4, 2)), np.ones(4), "mse")
    with pytest.raises(ad.ShapeError):
        model.predict(np.ones((4, 2)))
    with pytest.raises(ad.ShapeError):
        model.predict(np.ones(3))


def test_batch_predictions_returns_a_copy():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    rng = np.random.default_rng(1)
    X, y = make_batch(rng, 4, 3)
    _, pred, _, _ = model.loss_graph(X, y, "mse")
    out = batch_predictions(pred)
    out[:] = -1.0
    assert not np.array_equal(batch_predictions(pred), out)
