"""Training loop validation.

Adam is pinned two ways: a constant-gradient closed form (bias correction
makes m_hat == g and v_hat == g**2, so every step moves by exactly
lr*g/(|g|+eps)) and an independent per-array reimplementation on random
gradients, which the flat-vector update must equal bit for bit.
The full loop is then compared bit-for-bit against a transparent hand-rolled
loop using the same primitives, for both the full-batch and the
shuffled-mini-batch protocols.
"""

import gc
import json
import math
from dataclasses import fields

import numpy as np
import pytest

import scoregate.autodiff as ad
import scoregate.training as training
from scoregate.models import Model, ModelConfig, build_model
from scoregate.training import (
    TrainConfig,
    TrainingError,
    _batch_starts,
    accuracy,
    adam_init,
    adam_step,
    bce,
    mse,
    normalize_targets,
    train,
)


def class_data(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    return X, y


# --- adam ---------------------------------------------------------------------


def hand_in(state, grads):
    """Write named gradients into the Adam state's flat vector, where
    ``adam_step`` reads them."""
    for name, g in grads.items():
        state["grads"][name][...] = g


def test_adam_constant_gradient_closed_form():
    cfg = TrainConfig(epochs=1, lr=0.01)
    params = {"w": np.array([[1.0, -2.0]]), "b": np.array([[7.5]])}
    grads = {"w": np.array([[3.0, -0.25]]), "b": np.array([[1e-3]])}
    start = {k: v.copy() for k, v in params.items()}
    state = adam_init(params)
    hand_in(state, grads)  # adam_step reads the gradients and leaves them as they are
    T = 50
    for _ in range(T):
        adam_step(state, params, cfg)
    assert state["t"] == T
    for name in params:
        g = grads[name]
        expect = start[name] - T * cfg.lr * g / (np.abs(g) + training.EPS)
        np.testing.assert_allclose(params[name], expect, rtol=1e-10)


def test_adam_matches_reference_implementation():
    cfg = TrainConfig(epochs=1, lr=0.007)
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Adam's published defaults
    assert (training.BETA1, training.BETA2, training.EPS) == (beta1, beta2, eps)
    rng = np.random.default_rng(4)
    params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(1, 4))}
    mirror = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v_) for k, v_ in params.items()}
    state = adam_init(params)
    for t in range(1, 11):
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        hand_in(state, grads)
        adam_step(state, params, cfg)
        for k, g in grads.items():
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            m_hat = m[k] / (1 - beta1 ** t)
            v_hat = v[k] / (1 - beta2 ** t)
            mirror[k] -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in params:  # the flat update is the per-array formula, operation for operation
            np.testing.assert_array_equal(params[k], mirror[k], err_msg=f"{k}, step {t}")
            np.testing.assert_array_equal(state["grads"][k], grads[k])
    np.testing.assert_array_equal(state["m"], np.concatenate([m[k].ravel() for k in params]))
    np.testing.assert_array_equal(state["v"], np.concatenate([v[k].ravel() for k in params]))


# --- loop protocol ---------------------------------------------------------------


def test_batch_starts_drops_ragged_tail():
    assert list(_batch_starts(10, 3)) == [0, 3, 6]
    assert list(_batch_starts(10, 5)) == [0, 5]
    assert list(_batch_starts(5, 5)) == [0]
    assert list(_batch_starts(6, 7)) == []


def test_full_batch_train_matches_hand_rolled_loop():
    X, y = class_data(16, 4, seed=0)
    cfg = TrainConfig(epochs=5, lr=0.01, batch_size=None)
    mcfg = ModelConfig(d_in=4, hidden=(3,), gated=True)

    trained = build_model(mcfg, seed=1)
    train(trained, X, y, "classification", cfg)

    mirror = build_model(mcfg, seed=1)
    loss_node, _, leaves, _ = mirror.loss_graph(X, y, "bce")
    pv = {name: leaves[name].value for name in leaves}
    state = adam_init(pv)
    for _ in range(5):
        ad.recompute(loss_node)
        grads = ad.backward(loss_node)
        hand_in(state, {name: grads[node] for name, node in leaves.items() if node in grads})
        adam_step(state, pv, cfg)

    for name in trained.params:
        np.testing.assert_array_equal(trained.params[name], mirror.params[name])


def test_mini_batch_train_matches_hand_rolled_loop():
    # pins the protocol: one reshuffle per epoch, full batches only, tail dropped
    n = 14
    X, y = class_data(n, 4, seed=2)
    cfg = TrainConfig(epochs=3, lr=0.01, batch_size=4, shuffle_seed=9)
    mcfg = ModelConfig(d_in=4, hidden=(3,), gated=True)

    trained = build_model(mcfg, seed=5)
    train(trained, X, y, "classification", cfg)

    mirror = build_model(mcfg, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(9))
    loss_node, _, leaves, dl = mirror.loss_graph(X[:4], y[:4], "bce")
    pv = {name: leaves[name].value for name in leaves}
    state = adam_init(pv)
    for _ in range(3):
        order = rng.permutation(n)
        for start in (0, 4, 8):  # 12 rows used, 2 dropped
            rows = order[start:start + 4]
            dl.assign(X[rows], y[rows])
            ad.recompute(loss_node)
            grads = ad.backward(loss_node)
            hand_in(state, {name: grads[node] for name, node in leaves.items() if node in grads})
            adam_step(state, pv, cfg)

    for name in trained.params:
        np.testing.assert_array_equal(trained.params[name], mirror.params[name])


@pytest.mark.parametrize("backbone", ["mlp", "attention"])
def test_train_orders_its_graph_once(backbone, monkeypatch):
    orders = []
    topo_order = ad.topo_order

    def counted(root):
        orders.append(root)
        return topo_order(root)

    monkeypatch.setattr(ad, "topo_order", counted)
    X, y = class_data(16, 4, seed=0)
    model = build_model(ModelConfig(d_in=4, backbone=backbone, hidden=(3,), model_dim=4,
                                    ffn_dim=4, gated=True), seed=1)
    train(model, X, y, "classification", TrainConfig(epochs=3, batch_size=4))
    assert len(orders) == 1  # 12 steps, one graph


def test_training_is_deterministic_and_seed_sensitive():
    X, y = class_data(24, 4, seed=3)
    mcfg = ModelConfig(d_in=4, hidden=(3,), gated=True)

    def run(shuffle_seed):
        model = build_model(mcfg, seed=0)
        report = train(model, X, y, "classification",
                       TrainConfig(epochs=4, batch_size=8, shuffle_seed=shuffle_seed))
        return model, report

    m1, r1 = run(7)
    m2, r2 = run(7)
    m3, _ = run(8)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    assert not np.array_equal(m1.params["W0"], m3.params["W0"])


def test_oversized_batch_is_full_batch():
    X, y = class_data(10, 3, seed=1)
    mcfg = ModelConfig(d_in=3, hidden=(2,))
    a = build_model(mcfg, seed=2)
    b = build_model(mcfg, seed=2)
    train(a, X, y, "classification", TrainConfig(epochs=3, batch_size=999, shuffle_seed=1))
    train(b, X, y, "classification", TrainConfig(epochs=3, batch_size=None, shuffle_seed=77))
    for name in a.params:  # full-batch never consumes the shuffle stream
        np.testing.assert_array_equal(a.params[name], b.params[name])


# --- reporting --------------------------------------------------------------------


def test_epoch_metrics_are_pre_update():
    X, y = class_data(20, 4, seed=5)
    model = build_model(ModelConfig(d_in=4, hidden=(3,)), seed=6)
    virgin = build_model(ModelConfig(d_in=4, hidden=(3,)), seed=6)
    report = train(model, X, y, "classification", TrainConfig(epochs=30, batch_size=None))
    p0 = virgin.predict(X)
    assert report.curve[0].loss == bce(p0, y)
    assert report.curve[0].accuracy == accuracy(p0, y)
    assert report.final_train_loss < report.curve[0].loss  # it actually learned
    preds = model.predict(X)
    assert report.final_train_loss == bce(preds, y)


def test_curve_and_trajectory_shapes():
    X, y = class_data(12, 3, seed=0)
    model = build_model(ModelConfig(d_in=3, hidden=(2,), gated=True), seed=0)
    report = train(model, X, y, "classification",
                   TrainConfig(epochs=7, batch_size=None, record_every=3))
    assert [r.epoch for r in report.curve] == list(range(7))
    assert [t["epoch"] for t in report.scores_trajectory] == [0, 3, 6, 7]
    for t in report.scores_trajectory:  # the stored weights are gate_weights of the stored scores
        stored = Model(model.config, {"scores": np.array([t["scores"]])})
        assert t["weights"] == stored.gate_weights().tolist()
    assert report.scores_trajectory[-1]["scores"] == [float(v) for v in model.scores]


def test_vanilla_model_has_empty_trajectory():
    X, y = class_data(12, 3, seed=0)
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    report = train(model, X, y, "classification", TrainConfig(epochs=2, batch_size=None))
    assert report.scores_trajectory == []


def test_test_set_metrics_recorded():
    X, y = class_data(20, 3, seed=1)
    Xt, yt = class_data(10, 3, seed=2)
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    report = train(model, X, y, "classification", TrainConfig(epochs=3, batch_size=None),
                   X_test=Xt, y_test=yt)
    assert report.curve[0].test_accuracy is not None
    assert report.final_test_accuracy == accuracy(model.predict(Xt), yt)
    no_test = train(build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0),
                    X, y, "classification", TrainConfig(epochs=1, batch_size=None))
    assert no_test.final_test_accuracy is None
    assert no_test.curve[0].test_accuracy is None


def test_wall_time_not_serialized():
    # the report holds no clock reading: two fits give equal reports, no key stripped
    X, y = class_data(10, 3, seed=1)
    payloads = []
    for _ in range(2):
        model = build_model(ModelConfig(d_in=3, hidden=(2,), gated=True), seed=0)
        report = train(model, X, y, "classification", TrainConfig(epochs=3, batch_size=None))
        payloads.append(json.dumps(report.to_dict(), sort_keys=True))
    assert payloads[0] == payloads[1]
    assert "_ms" not in payloads[0]
    assert json.loads(payloads[0])["config"]["batch_size"] is None


def test_report_carries_every_train_config_field():
    X, y = class_data(12, 3, seed=2)
    cfg = TrainConfig(epochs=2, lr=0.01, batch_size=4, shuffle_seed=3, penalty_lam=0.1,
                      record_every=1)
    model = build_model(ModelConfig(d_in=3, hidden=(2,), gated=True), seed=0)
    payload = train(model, X, y, "classification", cfg).to_dict()
    assert [f.name for f in fields(TrainConfig)] == [
        "epochs", "lr", "batch_size", "shuffle_seed", "penalty_lam", "record_every"]
    assert set(payload["config"]) == {f.name for f in fields(TrainConfig)}
    for f in fields(TrainConfig):
        assert payload["config"][f.name] == getattr(cfg, f.name), f.name


@pytest.mark.parametrize("row", [0, 10])
def test_classification_rejects_a_soft_target_in_any_batch(row):
    X, y = class_data(16, 3, seed=5)
    y[row] = 0.5
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    with pytest.raises(ValueError, match="classification targets must be 0 or 1"):
        train(model, X, y, "classification", TrainConfig(epochs=2, batch_size=4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, cell, message", [
    ("X", (11, 2), "X holds a non-finite value at row 11, column 2"),
    ("y", 11, "y holds a non-finite value at row 11"),
    ("X_test", (3, 2), "X_test holds a non-finite value at row 3, column 2"),
    ("y_test", 3, "y_test holds a non-finite value at row 3"),
], ids=["X", "y", "X_test", "y_test"])
def test_train_names_the_first_non_finite_input(name, cell, message, bad):
    X, _ = class_data(16, 3, seed=5)
    data = {"X": X, "y": X[:, 0] + 0.1, "X_test": X[:6].copy(), "y_test": X[:6, 0] + 0.1}
    data[name][cell] = bad
    data[name][-1] = bad  # a later bad cell is not the one named
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    with pytest.raises(ValueError) as info:
        train(model, data["X"], data["y"], "regression", TrainConfig(epochs=1, batch_size=4),
              X_test=data["X_test"], y_test=data["y_test"])
    assert str(info.value) == message


def test_a_column_of_held_out_targets_scores_as_a_flat_one():
    X, y = class_data(40, 3, seed=1)
    Xt, yt = class_data(10, 3, seed=2)
    reports = [train(build_model(ModelConfig(d_in=3, hidden=(4,)), seed=0), X, y,
                     "classification", TrainConfig(epochs=5, lr=0.05, batch_size=None),
                     X_test=Xt, y_test=targets)
               for targets in (yt, yt.reshape(-1, 1))]
    flat, column = reports
    assert column.final_test_accuracy == flat.final_test_accuracy
    assert [r.test_accuracy for r in column.curve] == [r.test_accuracy for r in flat.curve]


def test_classification_rejects_a_soft_held_out_target():
    X, y = class_data(16, 3, seed=5)
    Xt, yt = class_data(6, 3, seed=6)
    yt[3] = 0.5
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    with pytest.raises(ValueError) as info:
        train(model, X, y, "classification", TrainConfig(epochs=1), X_test=Xt, y_test=yt)
    assert str(info.value) == "classification targets must be 0 or 1; y_test holds 0.5 at row 3"


@pytest.mark.parametrize("name, bad, message", [
    ("X", lambda a: a[:, 0], "X must be a 2-D array with 3 columns, got shape (16,)"),
    ("y", lambda a: a[:-1], "y holds 15 targets for the 16 rows of X"),
    ("X_test", lambda a: a[:, :2], "X_test must be a 2-D array with 3 columns, got shape (6, 2)"),
    ("y_test", lambda a: a[:-1], "y_test holds 5 targets for the 6 rows of X_test"),
], ids=["X-1d", "y-short", "X_test-narrow", "y_test-short"])
def test_train_rejects_a_misshapen_pair_before_building_the_graph(name, bad, message,
                                                                  monkeypatch):
    X, y = class_data(16, 3, seed=5)
    Xt, yt = class_data(6, 3, seed=6)
    data = {"X": X, "y": y, "X_test": Xt, "y_test": yt}
    data[name] = bad(data[name])

    def no_graph(*args, **kwargs):
        raise AssertionError("loss_graph was called")

    monkeypatch.setattr(Model, "loss_graph", no_graph)
    with pytest.raises(ValueError) as info:
        train(build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0), data["X"], data["y"],
              "classification", TrainConfig(epochs=1), X_test=data["X_test"],
              y_test=data["y_test"])
    assert str(info.value) == message


# --- regression path -----------------------------------------------------------------


def test_normalize_targets():
    y = np.array([2.0, 4.0, 10.0])
    scaled, lo, hi = normalize_targets(y)
    np.testing.assert_allclose(scaled, [0.0, 0.25, 1.0], rtol=1e-15)
    assert (lo, hi) == (2.0, 10.0)
    with pytest.raises(ValueError):
        normalize_targets(np.full(5, 3.3))


def test_regression_training_normalizes_and_binarizes_at_median():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(30, 3))
    y = 5.0 * X[:, 0] + 2.0  # targets well outside (0, 1)
    model = build_model(ModelConfig(d_in=3, hidden=(4,)), seed=3)
    report = train(model, X, y, "regression", TrainConfig(epochs=40, lr=0.05, batch_size=None))
    assert report.task == "regression"
    assert report.y_min == y.min() and report.y_max == y.max()
    y_norm = (y - y.min()) / (y.max() - y.min())
    med = float(np.median(y_norm))
    preds = model.predict(X)
    assert report.final_train_loss == mse(preds, y_norm)
    assert report.final_accuracy == accuracy(preds, y_norm, med)
    assert report.final_train_loss < report.curve[0].loss


# --- penalties -------------------------------------------------------------------------


def entropy_of(w):
    w = np.asarray(w)
    return float(-(w * np.log(w)).sum())


def test_entropy_penalty_sharpens_weights():
    X, y = class_data(32, 5, seed=7)
    mcfg = ModelConfig(d_in=5, hidden=(4,), gated=True)

    def final_entropy(lam):
        model = build_model(mcfg, seed=1)
        report = train(model, X, y, "classification",
                       TrainConfig(epochs=60, batch_size=None, penalty_lam=lam))
        # curve rows are pre-update; row 0 sees the uniform zero-init weights
        assert report.curve[0].penalty == pytest.approx(lam * math.log(5), rel=1e-12)
        return entropy_of(model.gate_weights())

    assert final_entropy(0.5) < final_entropy(0.0)


@pytest.mark.parametrize("backbone", ["mlp", "attention"])
def test_penalty_gradient_reaches_adam_from_backward_alone(backbone, monkeypatch):
    X, y = class_data(16, 4, seed=3)
    mcfg = ModelConfig(d_in=4, backbone=backbone, hidden=(3,), model_dim=4, ffn_dim=4,
                       gated=True, score_init="random-uniform")
    lam = 0.7
    seen = []

    def recording_adam_step(state, params, cfg):
        seen.append({name: g.copy() for name, g in state["grads"].items()})
        adam_step(state, params, cfg)

    monkeypatch.setattr(training, "adam_step", recording_adam_step)
    train(build_model(mcfg, seed=2), X, y, "classification",
          TrainConfig(epochs=1, batch_size=None, penalty_lam=lam))
    # the same step without the penalty, plus its closed-form score gradient
    model = build_model(mcfg, seed=2)
    loss, _, leaves, _ = model.loss_graph(X, y, "bce")
    grads = ad.backward(loss)
    w = model.gate_weights()
    entropy = -(w * np.log(w)).sum()
    expected = {name: grads[node] for name, node in leaves.items()}
    expected["scores"] = expected["scores"] - lam * w * (np.log(w) + entropy)
    step, = seen
    assert list(step) == list(expected)
    np.testing.assert_allclose(step.pop("scores"), expected.pop("scores"), rtol=0, atol=1e-12)
    for name in expected:  # the penalty reaches no other parameter
        np.testing.assert_array_equal(step[name], expected[name], err_msg=name)


def test_penalty_on_an_ungated_model_fails_before_the_graph_is_built(monkeypatch):
    X, y = class_data(16, 3, seed=7)
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)

    def no_graph(*args, **kwargs):
        raise AssertionError("the forward graph was built")

    # loss_graph checks the penalty before it builds the forward pass
    monkeypatch.setattr(Model, "_forward", no_graph)
    with pytest.raises(ValueError, match="an ungated model has no gate"):
        train(model, X, y, "classification", TrainConfig(epochs=2, penalty_lam=5.0))


# --- failure modes -----------------------------------------------------------------------


def test_divergence_raises_training_error_with_epoch():
    X, y = class_data(8, 3, seed=9)
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    # one colossal step puts the weights at ~1e200; the next forward overflows
    with np.errstate(over="ignore"), pytest.raises(TrainingError) as info:
        train(model, X, y, "classification",
              TrainConfig(epochs=3, lr=1e200, batch_size=4))
    assert info.value.epoch in (0, 1)
    assert f"(epoch {info.value.epoch})" in str(info.value)


def _live_nodes() -> int:
    return sum(isinstance(o, ad.Node) for o in gc.get_objects())


@pytest.mark.parametrize("backbone", ["mlp", "attention"])
def test_dropped_graphs_need_no_cyclic_collector(backbone):
    X, y = class_data(40, 3, seed=2)
    model = build_model(ModelConfig(d_in=3, backbone=backbone, hidden=(4,), model_dim=4,
                                    ffn_dim=4, gated=True), seed=0)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_nodes()
        loss, pred, leaves, data_leaves = model.loss_graph(X[:8], y[:8], "bce")
        ad.recompute(loss)
        ad.backward(loss)
        assert _live_nodes() > before
        del loss, pred, leaves, data_leaves
        assert _live_nodes() == before  # freed by reference counting alone
        train(model, X, y, "classification", TrainConfig(epochs=2, batch_size=8))
        assert _live_nodes() == before
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name, value, message", [
    ("lr", -1.0, "lr must be finite and > 0"),
    ("lr", 0.0, "lr must be finite and > 0"),
    ("lr", math.nan, "lr must be finite and > 0"),
    ("lr", math.inf, "lr must be finite and > 0"),
    ("penalty_lam", math.inf, "penalty_lam must be >= 0 and finite"),
])
def test_config_rejects_bad_optimizer_input(name, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("backbone", ["mlp", "attention"])
def test_backward_writes_every_gradient_into_adams_flat_vector(backbone, monkeypatch):
    X, y = class_data(8, 3, seed=0)
    model = build_model(ModelConfig(d_in=3, backbone=backbone, hidden=(2,), model_dim=4,
                                    ffn_dim=4, gated=True), seed=0)
    graphs, states = [], []
    loss_graph = Model.loss_graph

    def recording_loss_graph(self, *args, **kwargs):
        graphs.append(loss_graph(self, *args, **kwargs))
        return graphs[-1]

    def checking_adam_step(state, params, cfg):
        _, _, leaves, _ = graphs[-1]
        flat, offset = state["g"], 0
        assert list(leaves) == list(params)
        for name, node in leaves.items():  # one view per leaf, in params order, no gaps
            assert node.grad is state["grads"][name] and np.shares_memory(node.grad, flat)
            assert node.grad.ctypes.data == flat.ctypes.data + offset * flat.itemsize
            offset += node.grad.size
        assert offset == flat.size
        states.append(state)
        adam_step(state, params, cfg)

    monkeypatch.setattr(Model, "loss_graph", recording_loss_graph)
    monkeypatch.setattr(training, "adam_step", checking_adam_step)
    train(model, X, y, "classification", TrainConfig(epochs=2, lr=0.01, batch_size=4))
    assert len(graphs) == 1 and len(states) == 4
    assert all(state is states[0] for state in states)


@pytest.mark.parametrize("backbone", ["mlp", "attention"])
def test_adam_updates_the_arrays_the_graph_leaves_hold(backbone):
    X, y = class_data(8, 3, seed=0)
    model = build_model(ModelConfig(d_in=3, backbone=backbone, hidden=(2,), model_dim=4,
                                    ffn_dim=4, gated=True), seed=0)
    _, _, leaves, _ = model.loss_graph(X, y, "bce")
    assert list(leaves) == list(model.params)
    assert all(leaves[name].value is arr for name, arr in model.params.items())
    arrays = dict(model.params)
    start = {name: arr.copy() for name, arr in arrays.items()}
    train(model, X, y, "classification", TrainConfig(epochs=2, lr=0.01, batch_size=4))
    assert all(model.params[name] is arr for name, arr in arrays.items())
    assert all(not np.array_equal(arr, start[name]) for name, arr in arrays.items())


def test_config_and_task_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="record_every must be >= 1"):
        TrainConfig(record_every=0)
    with pytest.raises(ValueError, match="penalty_lam must be >= 0"):
        TrainConfig(penalty_lam=-0.1)
    with pytest.raises(ValueError, match="penalty_lam must be >= 0"):
        TrainConfig(penalty_lam=math.nan)
    X, y = class_data(8, 3, seed=0)
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    with pytest.raises(ValueError):
        train(model, X, y, "clustering", TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="X_test and y_test must be given together"):
        train(model, X, y, "classification", TrainConfig(epochs=1), X_test=X)
    with pytest.raises(ValueError, match="X_test and y_test must be given together"):
        train(model, X, y, "classification", TrainConfig(epochs=1), y_test=y)


# --- reference metrics ---------------------------------------------------------------------


def test_reference_metrics():
    pred = np.array([0.9, 0.2, 0.6])
    target = np.array([1.0, 0.0, 0.0])
    want = -(math.log(0.9) + math.log(0.8) + math.log(0.4)) / 3
    assert abs(bce(pred, target) - want) < 1e-12
    assert np.isfinite(bce(np.array([0.0, 1.0]), np.array([0.0, 1.0])))  # clipped
    assert mse(pred, target) == pytest.approx((0.01 + 0.04 + 0.36) / 3, rel=1e-12)
    assert accuracy(pred, target) == pytest.approx(2 / 3)
    assert accuracy(np.array([0.3, 0.8]), np.array([0.2, 0.9]), threshold=0.5) == 1.0
