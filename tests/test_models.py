"""Model validation.

The central property is that the one forward pass gives the same outputs on
both backends: the autodiff graph built by ``loss_graph`` and the pure-numpy
``predict`` must agree bit for bit for every backbone/gating combination, and
a hand-rolled loop forward pins the tiny-MLP case independently of both. Leaf
swapping via ``DataLeaves.assign`` must behave exactly like rebuilding the
graph on the new batch.
"""

import ast
import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scoregate.autodiff as ad
from scoregate.explain import Ranking, extract_ranking
from scoregate.models import (
    BACKBONES,
    INIT_STRATEGIES,
    Model,
    ModelConfig,
    build_model,
    init_scores,
)
from scoregate.training import TrainConfig, train


def make_batch(rng, n, d, binary=False):
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(float) if binary else rng.normal(size=n)
    return X, y


CONFIGS = [
    ModelConfig(d_in=4, backbone="mlp", hidden=(5, 3), gated=False),
    ModelConfig(d_in=4, backbone="mlp", hidden=(5, 3), gated=True),
    ModelConfig(d_in=4, backbone="mlp", hidden=(5, 3), gated=True, score_init="random-uniform"),
    ModelConfig(d_in=3, backbone="attention", model_dim=4, ffn_dim=6, gated=False),
    ModelConfig(d_in=3, backbone="attention", model_dim=4, ffn_dim=6, gated=True),
]


def config_id(cfg):
    """``g1``: gated; ``i0``: the gate multiplies the input, the only place it
    sits; ``-random``: the scores start random rather than at zero."""
    init = "" if cfg.score_init == "zero" else "-random"
    return f"{cfg.backbone}-g{int(cfg.gated)}i0{init}"


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_graph_forward_matches_numpy_predict(cfg):
    rng = np.random.default_rng(1)
    model = build_model(cfg, seed=2)
    for n in (1, 40):
        X, y = make_batch(rng, n, cfg.d_in, binary=True)
        _, pred, _, _ = model.loss_graph(X, y, "bce")
        np.testing.assert_array_equal(pred.value[:, 0], model.predict(X))


@given(st.sampled_from(BACKBONES), st.integers(1, 5), st.lists(st.integers(1, 6), min_size=1,
       max_size=3), st.booleans(), st.integers(1, 6), st.integers(1, 70),
       st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_graph_and_predict_are_bit_identical(backbone, d_in, hidden, gated, width, n, seed):
    cfg = ModelConfig(d_in=d_in, backbone=backbone, hidden=tuple(hidden), model_dim=width,
                      ffn_dim=width + 1, gated=gated, score_init="random-uniform")
    model = build_model(cfg, seed=seed)
    X, y = make_batch(np.random.default_rng(seed), n, d_in, binary=True)
    _, pred, _, _ = model.loss_graph(X, y, "bce")
    np.testing.assert_array_equal(pred.value[:, 0], model.predict(X))


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
    swapped_pred = pred.value[:, 0].copy()

    fresh_loss, fresh_pred, _, _ = model.loss_graph(XB, yB, "bce")
    assert swapped_loss == fresh_loss.value[0, 0]
    np.testing.assert_array_equal(swapped_pred, fresh_pred.value[:, 0])


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
    cfg = ModelConfig(d_in=4, hidden=(3,), gated=True)
    model = build_model(cfg, seed=9)
    rng = np.random.default_rng(9)
    X, y = make_batch(rng, 5, 4, binary=True)
    loss, _, leaves, _ = model.loss_graph(X, y, "bce")
    for name in leaves:
        assert ad.grad_check(loss, leaves[name]) < 1e-4, name


@pytest.mark.parametrize("cfg, nodes, dense", [
    (ModelConfig(d_in=16, hidden=(16,), gated=True), 13, 2),
    (ModelConfig(d_in=16, backbone="attention", gated=True), 36, 3),
], ids=["mlp", "attention"])
def test_each_layer_and_head_is_one_dense_node(cfg, nodes, dense):
    X, y = make_batch(np.random.default_rng(0), 32, cfg.d_in, binary=True)
    loss, _, _, _ = build_model(cfg, seed=0).loss_graph(X, y, "bce")
    ops = [node.op for node in ad.topo_order(loss)]
    assert len(ops) == nodes  # the gate is softmax_rows and one scale_rows
    assert ops.count("dense") == dense


@pytest.mark.parametrize("lam, extra", [(0.0, 0), (0.1, 3)], ids=["lam0", "lam0.1"])
@pytest.mark.parametrize("cfg, nodes", [
    (ModelConfig(d_in=16, hidden=(8,), gated=True), 13),
    (ModelConfig(d_in=16, backbone="attention", hidden=(8,), gated=True), 36),
], ids=["mlp", "attention"])
def test_penalty_reads_the_gates_own_softmax_node(cfg, nodes, lam, extra):
    # the entropy penalty adds entropy_rows, scale and add on the gate's node,
    # so the scores leaf feeds exactly one softmax_rows node
    X, y = make_batch(np.random.default_rng(0), 32, cfg.d_in, binary=True)
    loss, _, leaves, _ = build_model(cfg, seed=0).loss_graph(X, y, "bce", penalty_lam=lam)
    order = ad.topo_order(loss)
    assert len(order) == nodes + extra
    gate, = [node for node in order
             if node.op == "softmax_rows" and node.parents[0] is leaves["scores"]]
    entropy = [node.parents for node in order if node.op == "entropy_rows"]
    assert entropy == ([(gate,)] if lam > 0 else [])


def _bound_parents(loss, x_leaf):
    """The parents the compiled tape binds a gradient rule for, as sorted op
    names, split into those computed from the input ``x_leaf`` and the rest (a
    parent bound by several consumers counts once per consumer)."""
    on_x, live = {x_leaf}, set()
    for node in ad.topo_order(loss):
        if node.op == "leaf" or any(p in live for p in node.parents):
            live.add(node)
        if any(p in on_x for p in node.parents):
            on_x.add(node)
    tape = ad._tape(loss)
    triples = [tape.root_step[1], *(rules for _, _, rules in tape.steps)]
    bound = [p for rules in triples for p, _, _ in rules]
    assert not any(p in on_x and p not in live for p in bound)  # x, or a node of x alone
    return (sorted(p.op for p in bound if p in on_x),
            sorted(p.op for p in bound if p not in on_x))


@pytest.mark.parametrize("backbone", BACKBONES)
def test_gate_adds_no_gradient_on_the_input_side(backbone):
    # the gate scales the first layer's weight rows, so the input stays a
    # constant: beside a vanilla graph's, the gated tape binds rules only on
    # the gate's own chain of (1, d) and weight-shaped nodes
    X, y = make_batch(np.random.default_rng(0), 11, 5, binary=True)
    sides = {}
    for gated in (False, True):
        cfg = ModelConfig(d_in=5, backbone=backbone, hidden=(7,), model_dim=6, ffn_dim=8,
                          gated=gated)
        loss, _, _, data = build_model(cfg, seed=0).loss_graph(X, y, "bce")
        sides[gated] = _bound_parents(loss, data.x_leaf)
    (vanilla_x, vanilla_rest), (gated_x, gated_rest) = sides[False], sides[True]
    assert gated_x == vanilla_x
    assert gated_rest == sorted(vanilla_rest + ["leaf", "scale_rows", "softmax_rows"])


@given(st.sampled_from(BACKBONES), st.integers(1, 16), st.integers(1, 2048),
       st.integers(0, 2 ** 16))
@example("mlp", 1, 1, 0)
@example("attention", 16, 2048, 0)
@settings(max_examples=30, deadline=None)
def test_gated_predict_is_vanilla_predict_on_gated_inputs(backbone, d, n, seed):
    cfg = ModelConfig(d_in=d, backbone=backbone, hidden=(16,), gated=True,
                      score_init="random-uniform")
    model = build_model(cfg, seed=seed)
    before = {name: arr.copy() for name, arr in model.params.items()}
    vanilla = Model(replace(cfg, gated=False),
                    {name: arr for name, arr in model.params.items() if name != "scores"})
    X = np.random.default_rng(seed).normal(size=(n, d))
    np.testing.assert_allclose(model.predict(X), vanilla.predict(X * model.gate_weights()),
                               rtol=1e-12, atol=0)
    # the folded weight is a new array: predict edits no parameter, so the
    # ranking reads the scores it read before
    for name, arr in before.items():
        np.testing.assert_array_equal(model.params[name], arr)
    assert extract_ranking(model) == \
        Ranking(Model(cfg, {"scores": before["scores"]}).gate_weights())


@pytest.mark.parametrize("n, d", [(2046, 16), (1024, 10)])
def test_attention_predict_working_set(n, d):
    # the feed-forward layers compute in place, so predict peaks near two
    # (n, d, ffn_dim) float64 arrays; separate matmul, add and relu
    # temporaries took it past 2.5
    cfg = ModelConfig(d_in=d, backbone="attention", gated=True)
    model = build_model(cfg, seed=0)
    X = np.random.default_rng(n).normal(size=(n, d))
    model.predict(X)
    tracemalloc.start()
    try:
        model.predict(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * d * cfg.ffn_dim * 8


# --- serialization ---------------------------------------------------------------


@pytest.mark.parametrize("cfg", [c for c in CONFIGS if c.gated], ids=lambda c: c.backbone)
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


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_a_model_file_holds_the_config_and_one_flat_list_per_parameter(cfg, tmp_path):
    model = build_model(cfg, seed=3)
    path = tmp_path / "model.json"
    model.save(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw.keys() == {"config", "parameters"}
    assert raw["parameters"].keys() == cfg.param_specs().keys()
    assert ("scores" in raw["parameters"]) == cfg.gated
    for name, values in raw["parameters"].items():
        assert all(type(v) is float for v in values), name
        assert values == model.params[name].ravel().tolist(), name


@pytest.mark.parametrize("gated", [True, False], ids=["gated", "vanilla"])
def test_load_names_the_scores_key_of_a_file_in_the_old_layout(gated, tmp_path):
    # the old layout kept the scores under a top-level key (null when
    # ungated) and wrote each other parameter as {"rows", "cols", "data"}
    model = build_model(ModelConfig(d_in=3, hidden=(2,), gated=gated), seed=0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "config": model.to_dict()["config"],
        "parameters": {name: {"rows": arr.shape[0], "cols": arr.shape[1],
                              "data": arr.ravel().tolist()}
                       for name, arr in model.params.items() if name != "scores"},
        "scores": None if model.scores is None else model.scores.tolist(),
    }), encoding="utf-8")
    with pytest.raises(ValueError, match=r"a model needs exactly the keys config and "
                                         r"parameters, got \['config', 'parameters', 'scores'\]$"):
        Model.load(path)


def test_vanilla_model_has_no_scores(tmp_path):
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    assert model.scores is None
    path = tmp_path / "vanilla.json"
    model.save(path)
    assert Model.load(path).scores is None


def _other_value(value):
    """A valid value of the same kind that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return tuple(v + 1 for v in value)
    if isinstance(value, str):
        group = next(g for g in (BACKBONES, INIT_STRATEGIES) if value in g)
        return next(v for v in group if v != value)
    assert value is None, value
    return [0.25, -0.5]


@pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig)])
def test_every_config_field_survives_save_load(name, tmp_path):
    base = ModelConfig(d_in=4)
    cfg = replace(base, **{name: _other_value(getattr(base, name))})
    assert getattr(cfg, name) != getattr(base, name)
    path = tmp_path / "model.json"
    build_model(cfg, seed=0).save(path)
    assert Model.load(path).config == cfg


def _saved_config(tmp_path):
    path = tmp_path / "model.json"
    build_model(ModelConfig(d_in=3, hidden=(2,), gated=True), seed=0).save(path)
    return json.loads(path.read_text(encoding="utf-8")), path


@pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig)])
def test_load_names_a_missing_config_key(name, tmp_path):
    raw, path = _saved_config(tmp_path)
    del raw["config"][name]
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match=f"missing \\['{name}'\\]"):
        Model.load(path)


def test_load_names_an_unknown_config_key(tmp_path):
    raw, path = _saved_config(tmp_path)
    raw["config"]["dropout"] = 0.5
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown \\['dropout'\\]"):
        Model.load(path)


@pytest.mark.parametrize("name", ["scores", "W0"])
def test_load_rejects_non_finite_parameters(name, tmp_path):
    raw, path = _saved_config(tmp_path)
    if name == "scores":
        raw["parameters"]["scores"][1] = float("nan")
    else:
        raw["parameters"][name][0] = float("inf")
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ad.NumericError, match=f"must be finite: {name}"):
        Model.load(path)


def _tampered_model_file(tmp_path, gated, tamper):
    path = tmp_path / "model.json"
    build_model(ModelConfig(d_in=10, hidden=(4, 3), gated=gated), seed=0).save(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    tamper(raw)
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize("gated, tamper, message", [
    (True, lambda raw: raw["parameters"]["scores"].pop(), r": scores holds 9 values, not 1 x 10$"),
    (False, lambda raw: raw["parameters"].update(scores=[0.0] * 10),
     r": scores is not a parameter of this config$"),
    (True, lambda raw: raw["parameters"].pop("b1"), r": b1 is missing$"),
    (False, lambda raw: raw["parameters"].update(W1=[0.5] * 9), r": W1 holds 9 values, not 4 x 3$"),
    (False, lambda raw: raw["parameters"]["W0"].pop(), r": W0 holds 39 values, not 10 x 4$"),
], ids=["nine-scores", "scores-on-vanilla", "missing-b1", "short-W1", "short-W0-data"])
def test_load_checks_parameters_against_the_config(gated, tamper, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        Model.load(_tampered_model_file(tmp_path, gated, tamper))


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_build_model_follows_param_specs(cfg):
    model = build_model(cfg, seed=0)
    assert [(name, arr.shape) for name, arr in model.params.items()] == \
        [(name, shape) for name, (shape, _) in cfg.param_specs().items()]


def test_scores_property_is_a_live_view():
    model = build_model(ModelConfig(d_in=3, hidden=(2,), gated=True), seed=0)
    model.params["scores"][0, 0] = 5.0
    assert model.scores[0] == 5.0
    # gate_weights reads the scores as they stand
    np.testing.assert_allclose(model.gate_weights(), np.array([math.exp(5.0), 1.0, 1.0])
                               / (math.exp(5.0) + 2.0), rtol=1e-15)


@pytest.mark.parametrize("cfg", [c for c in CONFIGS if c.gated and c.score_init == "zero"],
                         ids=lambda c: f"{c.backbone}-i0")  # i0: as in config_id
@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_gate_weights_equal_the_graphs_softmax_node(cfg, scale):
    # the ranking and the report read gate_weights; the forward pass reads the
    # graph's softmax_rows node: one softmax serves both
    model = build_model(replace(cfg, score_init="random-uniform"), seed=11)
    model.params["scores"] *= scale
    X, y = make_batch(np.random.default_rng(11), 3, cfg.d_in, binary=True)
    loss, _, leaves, _ = model.loss_graph(X, y, "bce")
    gate, = [node for node in ad.topo_order(loss)
             if node.op == "softmax_rows" and node.parents[0] is leaves["scores"]]
    np.testing.assert_array_equal(model.gate_weights(), gate.value[0])


def test_an_ungated_model_has_no_gate_to_read():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    for read in (model.gate_weights, lambda: extract_ranking(model)):
        with pytest.raises(ValueError, match="model has no score gate to rank features with; "
                                             "train with --model scores"):
            read()


def _scopes_naming(source: str, name: str) -> set[str]:
    """The dotted class/function path around each place ``source`` names
    ``name`` (as a name, an attribute or an import); "" is module level."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if name in (getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None) if isinstance(node, ast.alias) else None):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_the_gate_readout_and_the_reference_gradients_compute_the_softmax():
    # autodiff owns the softmax arithmetic; outside it, Model.gate_weights is
    # the one readout of the gate, and analytic_grads the independent reference
    # of the gradient check. Any other reader goes through gate_weights.
    package = Path(ad.__file__).parent
    scopes = {p.name: _scopes_naming(p.read_text("utf-8"), "_stable_softmax_rows")
              for p in package.glob("*.py") if p.name != "autodiff.py"}
    assert {name: found for name, found in scopes.items() if found} == \
        {"models.py": {"Model.gate_weights", "analytic_grads"}}


# --- config ------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_in=0)
    with pytest.raises(ValueError):
        ModelConfig(d_in=3, backbone="cnn")
    with pytest.raises(ValueError):
        ModelConfig(d_in=3, hidden=(4, 0))
    with pytest.raises(ValueError, match="model_dim must be >= 1"):
        ModelConfig(d_in=3, backbone="attention", model_dim=0)
    with pytest.raises(ValueError, match="ffn_dim must be >= 1"):
        ModelConfig(d_in=3, backbone="attention", ffn_dim=0)


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


@pytest.mark.parametrize("backbone", BACKBONES)
def test_random_score_init_is_not_a_copy_of_the_first_layer(backbone):
    # the scores draw from their own stream: had they shared the weights' root
    # stream, they would be the first layer's first d draws rescaled by its
    # fan-in bound, sqrt(d) for an MLP
    d = 5
    cfg = ModelConfig(d_in=d, backbone=backbone, hidden=(8,), gated=True,
                      score_init="random-uniform")
    model = build_model(cfg, seed=3)
    first = "W0" if backbone == "mlp" else "emb"
    _, fan_in = cfg.param_specs()[first]
    copy = math.sqrt(fan_in) * model.params[first].ravel()[:d]
    assert not np.allclose(model.scores, copy, rtol=0.0, atol=1e-6)
    np.testing.assert_array_equal(model.scores,
                                  init_scores(d, "random-uniform", seed=3))


def test_loss_graph_rejects_an_unknown_loss_kind():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    with pytest.raises(ValueError) as info:
        model.loss_graph(np.ones((4, 3)), np.ones(4), "bxe")
    assert str(info.value) == "unknown loss_kind 'bxe'; expected 'bce' or 'mse'"


def test_loss_graph_rejects_a_penalty_on_an_ungated_model():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    X, y = make_batch(np.random.default_rng(0), 4, 3, binary=True)
    with pytest.raises(ValueError, match="penalty_lam penalizes the gate's entropy; "
                                         "an ungated model has no gate"):
        model.loss_graph(X, y, "bce", penalty_lam=0.1)
    loss, *_ = model.loss_graph(X, y, "bce", penalty_lam=0.0)  # no penalty, no gate needed
    assert [node.op for node in ad.topo_order(loss)].count("entropy_rows") == 0


def test_loss_graph_rejects_wrong_width():
    model = build_model(ModelConfig(d_in=3, hidden=(2,)), seed=0)
    with pytest.raises(ad.ShapeError):
        model.loss_graph(np.ones((4, 2)), np.ones(4), "mse")
    with pytest.raises(ad.ShapeError):
        model.predict(np.ones((4, 2)))
    with pytest.raises(ad.ShapeError):
        model.predict(np.ones(3))
