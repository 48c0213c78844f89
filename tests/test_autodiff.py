"""Autodiff core validation.

Strategy: every backward rule is checked against an independent central
finite-difference oracle implemented here (not the library's own grad_check,
which gets its own sanity tests), and the numerically hairy forwards
(softmax, sigmoid, BCE at the clip) are checked against 50-digit mpmath
references.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scoregate import autodiff as ad
from scoregate.models import NUMPY_OPS, ModelConfig, build_model
from scoregate.training import accuracy

RNG = np.random.default_rng(20240817)


def numeric_grad(loss: ad.Node, target: ad.Node, eps: float = 1e-6) -> np.ndarray:
    """Independent central-difference gradient of a scalar loss w.r.t. a leaf."""
    out = np.zeros_like(target.value)
    base = target.value.copy()
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            target.value[i, j] = base[i, j] + eps
            f_plus = ad.recompute(loss)[0, 0]
            target.value[i, j] = base[i, j] - eps
            f_minus = ad.recompute(loss)[0, 0]
            target.value[i, j] = base[i, j]
            out[i, j] = (f_plus - f_minus) / (2.0 * eps)
    ad.recompute(loss)
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# forward values against high-precision references


def mp_softmax_row(row):
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def test_softmax_matches_mpmath_on_extreme_rows():
    rows = np.array([
        [1000.0, 0.0, -5.0],
        [-1000.0, -1000.0, -1000.0],
        [708.0, 707.0, -708.0],  # exp(708) overflows unshifted float64
        [0.3, -0.7, 1.9],
    ])
    got = ad.softmax_rows(ad.leaf(rows)).value
    for r in range(rows.shape[0]):
        want = mp_softmax_row(rows[r])
        assert np.allclose(got[r], want, rtol=1e-13, atol=1e-300)
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_sigmoid_matches_mpmath_and_never_saturates_to_exact_bounds():
    xs = np.array([[-745.0, -30.0, -1.5, 0.0, 1.5, 30.0, 745.0]])
    got = ad.sigmoid(ad.leaf(xs)).value[0]
    with mpmath.workdps(50):
        want = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(float(v))))) for v in xs[0]])
    assert np.allclose(got, want, rtol=1e-14, atol=5e-324)
    assert np.all(got >= 0.0) and np.all(got <= 1.0)


def test_bce_matches_mpmath_including_lower_clip():
    # upper-clip arithmetic (1 - pc near 1) is float64-cancellation-bound by
    # construction; its behavior is pinned by the gradient-zeroing test below
    p = np.array([[1e-15, 0.25, 0.5, 0.75]])
    t = np.array([[1.0, 0.0, 1.0, 0.0]])
    got = ad.bce_loss(ad.leaf(p), ad.leaf(t)).value[0, 0]
    with mpmath.workdps(60):
        clip = mpmath.mpf(ad.BCE_CLIP)
        terms = []
        for pi, ti in zip(p[0], t[0]):
            pc = min(max(mpmath.mpf(float(pi)), clip), 1 - clip)
            terms.append(ti * mpmath.log(pc) + (1 - ti) * mpmath.log(1 - pc))
        want = float(-mpmath.fsum(terms) / len(terms))
    assert got == pytest.approx(want, rel=1e-13)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_sum_to_one_and_stay_in_unit_interval(rows, cols, seed):
    x = np.random.default_rng(seed).normal(0.0, 5.0, size=(rows, cols))
    w = ad.softmax_rows(ad.leaf(x)).value
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((w > 0.0) & (w < 1.0)) or cols == 1


# ---------------------------------------------------------------------------
# backward rules, one oracle check per op kind


def test_matmul_backward_closed_form_and_fd():
    A = ad.leaf(RNG.normal(size=(3, 4)))
    B = ad.leaf(RNG.normal(size=(4, 2)))
    loss = ad.mean(ad.matmul(A, B))
    grads = ad.backward(loss)
    # d mean(AB) / dA = (1/nm) * ones @ B^T
    g = np.full((3, 2), 1.0 / 6.0)
    assert np.allclose(grads[A], g @ B.value.T, atol=1e-14)
    assert np.allclose(grads[B], A.value.T @ g, atol=1e-14)
    assert rel_err(grads[A], numeric_grad(loss, A)) < 1e-7


def test_add_broadcast_backward_sums_over_rows():
    X = ad.leaf(RNG.normal(size=(5, 3)))
    b = ad.leaf(RNG.normal(size=(1, 3)))
    loss = ad.mean(ad.sigmoid(ad.add(X, b)))
    grads = ad.backward(loss)
    assert grads[b].shape == (1, 3)
    assert rel_err(grads[b], numeric_grad(loss, b)) < 1e-6
    assert rel_err(grads[X], numeric_grad(loss, X)) < 1e-6


def test_hadamard_broadcast_backward():
    X = ad.leaf(RNG.normal(size=(4, 3)))
    w = ad.leaf(RNG.normal(size=(1, 3)))
    loss = ad.mean(ad.hadamard(X, w))
    grads = ad.backward(loss)
    assert rel_err(grads[w], numeric_grad(loss, w)) < 1e-7
    # closed form: each w_j sees sum_i X_ij / size
    assert np.allclose(grads[w], X.value.sum(axis=0, keepdims=True) / 12.0, atol=1e-14)


def test_scale_rows_forward_is_the_row_scaled_weight_bit_for_bit():
    W, w = RNG.normal(size=(5, 3)), RNG.uniform(0.01, 1.0, size=(1, 5))
    expected = W * w.reshape(-1, 1)
    assert np.array_equal(ad.scale_rows(ad.leaf(W), ad.leaf(w)).value, expected)
    assert np.array_equal(NUMPY_OPS.scale_rows(W, w), expected)


def test_scale_rows_gradients_pass_grad_check():
    x = ad.constant(RNG.normal(size=(6, 4)))
    W = ad.leaf(RNG.normal(size=(4, 3)))
    s = ad.leaf(RNG.normal(size=(1, 4)))
    out = ad.matmul(x, ad.scale_rows(W, ad.softmax_rows(s)))
    loss = ad.mse_loss(out, ad.constant(RNG.normal(size=(6, 3))))
    assert ad.grad_check(loss, W) < 1e-6
    assert ad.grad_check(loss, s) < 1e-6


def test_scale_rows_checks_its_output_and_its_row():
    with np.errstate(over="ignore"), \
            pytest.raises(ad.NumericError, match="scale_rows produced a non-finite value"):
        ad.scale_rows(ad.leaf(np.full((2, 1), 1e200)), ad.leaf(np.full((1, 2), 1e200)))
    with pytest.raises(ad.ShapeError, match=r"scale_rows needs a \(1, 3\) row"):
        ad.scale_rows(ad.leaf(np.ones((3, 2))), ad.leaf(np.ones((1, 1))))


def test_softmax_backward_fd():
    s = ad.leaf(RNG.normal(size=(2, 5)))
    c = ad.leaf(RNG.normal(size=(2, 5)))
    loss = ad.mean(ad.hadamard(ad.softmax_rows(s), c))
    assert rel_err(ad.backward(loss)[s], numeric_grad(loss, s)) < 1e-6


def identity_dense(x: ad.Node) -> ad.Node:
    """The relu of ``x``, as ``dense`` through a constant identity and zero
    bias: ``x @ I`` adds only exact zeros to each entry."""
    k = x.shape[-1]
    return ad.dense(x, ad.constant(np.eye(k)), ad.constant(np.zeros((1, k))), relu=True)


def test_dense_relu_backward_fd_and_zero_subgradient():
    x = RNG.normal(size=(3, 4))
    x[np.abs(x) < 0.05] += 0.1  # keep clear of the kink for the FD check
    X = ad.leaf(x)
    loss = ad.mean(identity_dense(X))
    assert np.array_equal(identity_dense(X).value, np.maximum(x, 0.0))
    assert rel_err(ad.backward(loss)[X], numeric_grad(loss, X)) < 1e-7

    Z = ad.leaf(np.zeros((1, 3)))
    g = ad.backward(ad.mean(identity_dense(Z)))[Z]
    assert np.all(g == 0.0)  # subgradient at 0 is taken as 0
    W, b = ad.leaf(np.eye(3)), ad.leaf(np.zeros((1, 3)))
    grads = ad.backward(ad.mean(ad.dense(Z, W, b, relu=True)))
    assert np.all(grads[W] == 0.0) and np.all(grads[b] == 0.0)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("x_shape, W_shape, b_shape", [
    ((5, 3), (3, 4), (1, 4)),
    ((5, 3), (3, 4), (5, 4)),         # a bias per row
    ((2, 3, 4), (4, 5), (1, 5)),      # a stack under a 2-D W, bias summed over two axes
    ((2, 3, 4), (2, 4, 5), (3, 5)),   # per-sample weights
])
def test_dense_forward_is_matmul_add_relu_bit_for_bit(relu, x_shape, W_shape, b_shape):
    rng = np.random.default_rng(len(x_shape) + sum(b_shape))
    x, W, b = (rng.normal(size=shape) for shape in (x_shape, W_shape, b_shape))
    expect = x @ W + b
    if relu:
        expect = np.maximum(expect, 0.0)

    def node(values):  # a 2-D leaf, reshaped to a stack when ``values`` is one
        flat = ad.leaf(values.reshape(-1, values.shape[-1]))
        return flat if values.ndim == 2 else ad.reshape(flat, values.shape)
    for value in (ad.dense(node(x), node(W), node(b), relu=relu).value,
                  ad.OPS["dense"].forward(x, W, b, relu=relu)):
        assert value.shape == expect.shape
        assert np.array_equal(value, expect)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_dense_gradients_pass_grad_check(relu, stacked):
    # a stacked (n, d, k) x under a 2-D W, with a (1, h) bias summed over
    # the two leading axes of its gradient
    rng = np.random.default_rng(40 + 2 * stacked + relu)
    X = ad.leaf(rng.normal(size=(6, 4)))
    W = ad.leaf(rng.normal(size=(4, 5)))
    b = ad.leaf(rng.normal(size=(1, 5)))
    x = ad.reshape(X, (2, 3, 4)) if stacked else X
    out = ad.dense(x, W, b, relu=relu)
    readout = ad.leaf(rng.normal(size=out.shape[-2:]))
    loss = ad.mean(ad.hadamard(out, readout))
    pre = x.value @ W.value + b.value
    assert np.abs(pre).min() > 1e-4  # central differences stay off the kink
    grads = ad.backward(loss)
    for leaf_node in (X, W, b):
        assert grads[leaf_node].shape == leaf_node.shape
        assert ad.grad_check(loss, leaf_node) < 1e-6
        assert rel_err(grads[leaf_node], numeric_grad(loss, leaf_node)) < 1e-6


def test_scale_mean_backward_fd():
    X = ad.leaf(RNG.normal(size=(3, 2)))
    loss = ad.mean(ad.scale(X, -2.5))
    grads = ad.backward(loss)
    assert np.allclose(grads[X], np.full((3, 2), -2.5 / 6.0), atol=1e-14)
    assert rel_err(grads[X], numeric_grad(loss, X)) < 1e-7


@pytest.mark.parametrize("transpose_b", [False, True])
def test_batched_matmul_forward_per_sample_and_backward_fd(transpose_b):
    # (n,p,q) @ (q,r): a shared 2-D weight; (n,p,q) @ (n,r,q)^T: per-sample pairs
    rng = np.random.default_rng(31)
    n, p, q, r = 3, 2, 4, 5
    A = ad.leaf(rng.normal(size=(n * p, q)))
    B = ad.leaf(rng.normal(size=(n * r, q) if transpose_b else (q, r)))
    a3 = ad.reshape(A, (n, p, q))
    b = ad.reshape(B, (n, r, q)) if transpose_b else B
    out = ad.matmul(a3, b, transpose_b=transpose_b)
    expect = np.stack([a3.value[k] @ (b.value[k].T if transpose_b else b.value)
                       for k in range(n)])
    assert out.shape == (n, p, r)
    assert np.allclose(out.value, expect, atol=1e-14)
    loss = ad.mean(ad.hadamard(out, ad.leaf(rng.normal(size=(p, r)))))
    grads = ad.backward(loss)
    for leaf_node in (A, B):
        assert rel_err(grads[leaf_node], numeric_grad(loss, leaf_node)) < 1e-6


def test_shared_weight_gradient_is_one_product_over_all_stacked_rows():
    rng = np.random.default_rng(5)
    X = ad.leaf(rng.normal(size=(6, 4)))
    W = ad.leaf(rng.normal(size=(4, 3)))
    C = rng.normal(size=(6, 3))
    stacked = ad.mean(ad.hadamard(ad.matmul(ad.reshape(X, (2, 3, 4)), W),
                                  ad.reshape(ad.constant(C), (2, 3, 3))))
    flat_X, flat_W = ad.leaf(X.value), ad.leaf(W.value)
    flat = ad.mean(ad.hadamard(ad.matmul(flat_X, flat_W), ad.constant(C)))
    assert stacked.value[0, 0] == flat.value[0, 0]
    assert np.array_equal(ad.backward(stacked)[W], ad.backward(flat)[flat_W])


def test_reshape_forward_and_backward_fd():
    rng = np.random.default_rng(12)
    X = ad.leaf(rng.normal(size=(4, 6)))
    out = ad.reshape(X, (-1, 3, 2))
    assert out.shape == (4, 3, 2)
    assert np.array_equal(out.value, X.value.reshape(4, 3, 2))
    loss = ad.mean(ad.hadamard(ad.sigmoid(out), ad.leaf(rng.normal(size=(3, 2)))))
    assert rel_err(ad.backward(loss)[X], numeric_grad(loss, X)) < 1e-7


@pytest.mark.parametrize("op", [ad.add, ad.hadamard])
@pytest.mark.parametrize("a_shape, b_shape, stack_a", [
    ((6, 1), (3, 4), (2, 3, 1)),   # (n,d,1) (.) (d,m)
    ((6, 4), (1, 4), (2, 3, 4)),   # a (1,m) bias on an (n,d,m) stack
    ((1, 3), (4, 3), None),        # broadcast on the left operand
])
def test_broadcast_add_and_hadamard_backward_fd(op, a_shape, b_shape, stack_a):
    rng = np.random.default_rng(sum(a_shape) + sum(b_shape))
    A = ad.leaf(rng.normal(size=a_shape))
    B = ad.leaf(rng.normal(size=b_shape))
    a = A if stack_a is None else ad.reshape(A, stack_a)
    out = op(a, B)
    assert out.shape == np.broadcast_shapes(a.shape, B.shape)
    loss = ad.mean(ad.hadamard(ad.sigmoid(out), ad.leaf(rng.normal(size=out.shape[-2:]))))
    grads = ad.backward(loss)
    for leaf_node in (A, B):
        assert grads[leaf_node].shape == leaf_node.shape
        assert rel_err(grads[leaf_node], numeric_grad(loss, leaf_node)) < 1e-6


def test_bce_backward_fd_away_from_clip():
    p = ad.leaf(RNG.uniform(0.05, 0.95, size=(4, 1)))
    t = ad.leaf(RNG.integers(0, 2, size=(4, 1)).astype(float))
    loss = ad.bce_loss(p, t)
    assert rel_err(ad.backward(loss)[p], numeric_grad(loss, p)) < 1e-6


def test_bce_gradient_is_zero_where_clip_is_active():
    p = ad.leaf(np.array([[0.0, 0.5, 1.0]]))
    t = ad.leaf(np.array([[0.0, 1.0, 1.0]]))
    g = ad.backward(ad.bce_loss(p, t))[p]
    assert g[0, 0] == 0.0 and g[0, 2] == 0.0 and g[0, 1] != 0.0


def test_mse_backward_closed_form():
    p = ad.leaf(RNG.normal(size=(5, 1)))
    t = ad.leaf(RNG.normal(size=(5, 1)))
    loss = ad.mse_loss(p, t)
    grads = ad.backward(loss)
    assert np.allclose(grads[p], 2.0 * (p.value - t.value) / 5.0, atol=1e-14)
    assert np.allclose(grads[t], -grads[p], atol=1e-14)


def test_sigmoid_backward_fd():
    X = ad.leaf(RNG.normal(size=(2, 3)))
    loss = ad.mean(ad.sigmoid(X))
    assert rel_err(ad.backward(loss)[X], numeric_grad(loss, X)) < 1e-7


# ---------------------------------------------------------------------------
# randomized composite graphs (the per-op checks above localize any failure)


def random_graph(rng):
    """A random 3-to-5 op chain over two leaves, ending in a scalar."""
    X = ad.leaf(rng.normal(size=(3, 4)))
    W = ad.leaf(rng.normal(size=(4, 3)))
    h = ad.matmul(X, W)
    for _ in range(rng.integers(1, 4)):
        pick = rng.integers(0, 5)
        if pick == 0:
            h = ad.sigmoid(h)
        elif pick == 1:
            h = ad.softmax_rows(h)
        elif pick == 2:
            # central FD only breaks within eps of the relu kink; with this
            # fixed seed no preactivation lands there
            k = h.shape[1]
            h = ad.dense(h, ad.leaf(rng.normal(size=(k, k))), ad.leaf(rng.normal(size=(1, k))),
                         relu=True)
        elif pick == 3:
            h = ad.scale(h, float(rng.uniform(0.5, 2.0)))
        else:
            h = ad.add(h, ad.leaf(rng.normal(size=(1, h.shape[1]))))
    # random readout weights keep the loss non-constant (plain mean of
    # softmax rows is 1/cols for any input, which turns FD into pure noise)
    loss = ad.mean(ad.hadamard(h, ad.leaf(rng.normal(size=h.shape))))
    return loss, X, W


def test_backward_matches_fd_on_100_random_graphs():
    rng = np.random.default_rng(7)
    for trial in range(100):
        loss, X, W = random_graph(rng)
        grads = ad.backward(loss)
        for leaf_node in (X, W):
            err = rel_err(grads[leaf_node], numeric_grad(loss, leaf_node))
            assert err < 1e-4, f"trial {trial}: rel err {err:.2e}"


def test_diamond_graph_accumulates_shared_parent():
    x = ad.leaf(np.array([[1.0, 2.0]]))
    y = ad.add(x, x)  # dL/dx must double up
    loss = ad.mean(y)
    g = ad.backward(loss)[x]
    assert np.allclose(g, np.full((1, 2), 1.0), atol=1e-15)


def _accumulated_grads(loss: ad.Node) -> dict:
    """Each leaf's gradient the textbook way: every node's gradient starts at
    zero and each rule's contribution is added into it, in reverse
    topological order."""
    order = ad.topo_order(loss)
    grads = {node: np.zeros_like(node.value) for node in order}
    grads[loss][0, 0] = 1.0
    for node in reversed(order):
        if not node.parents:
            continue
        spec = ad.OPS[node.op]
        g = grads[node] if spec.g_in is None else spec.g_in(grads[node], node.value, node.aux)
        values = [p.value for p in node.parents]
        for parent, rule in zip(node.parents, spec.grads):
            grads[parent] += ad._sum_to(rule(g, node.value, node.aux, *values), parent.value.shape)
    return {node: grads[node] for node in order if node.op == "leaf"}


def _shared_parent_losses():
    """Losses in which a node takes several gradient contributions: an
    interior node added to itself, one whose first contribution is also
    another node's whole gradient (``add`` passes its own on to both
    parents), a leaf multiplied by itself, and a gated MLP's and attention
    model's training losses; and one in which a leaf's only contribution
    holds a -0.0."""
    x = ad.constant(RNG.normal(size=(4, 3)))
    W, V = ad.leaf(RNG.normal(size=(3, 2))), ad.leaf(RNG.normal(size=(3, 2)))
    h, k = ad.sigmoid(ad.matmul(x, W)), ad.sigmoid(ad.matmul(x, V))
    yield ad.mean(ad.add(h, h))
    yield ad.mean(ad.add(h, ad.add(ad.scale(h, 2.0), k)))
    a = ad.leaf(RNG.normal(size=(2, 3)))
    yield ad.mean(ad.dense(ad.hadamard(a, a), ad.leaf(RNG.normal(size=(3, 3))),
                           ad.leaf(RNG.normal(size=(1, 3))), relu=True))
    # unit 0 is dead on a one-row batch under a negative upstream gradient, so
    # its bias takes -0.0 unsummed: the zero-filled sum reads +0.0
    b = ad.leaf(np.array([[-1e3, 1e3]]))
    yield ad.mean(ad.scale(ad.dense(ad.constant(RNG.normal(size=(1, 3))),
                                    ad.leaf(RNG.normal(size=(3, 2))), b, relu=True), -1.0))
    for backbone in ("mlp", "attention"):
        cfg = ModelConfig(d_in=5, backbone=backbone, hidden=(7, 4), model_dim=6, ffn_dim=8,
                          gated=True)
        X = RNG.normal(size=(9, 5))
        y = (RNG.uniform(size=9) < 0.5).astype(float)
        yield build_model(cfg, seed=3).loss_graph(X, y, "bce")[0]


def test_direct_gradient_writes_equal_zero_and_accumulate():
    writes = set()
    for loss in _shared_parent_losses():
        grads = ad.backward(loss)
        expected = _accumulated_grads(loss)
        assert grads.keys() == expected.keys()
        for node, g in grads.items():  # bytes, so a zero's sign counts too
            assert g.tobytes() == expected[node].tobytes(), node
        tape = ad._tape(loss)
        writes |= {w for rules in (tape.root_step[1], *(r for *_, r in tape.steps))
                   for *_, w in rules}
    assert writes == {ad._SET, ad._SUM, ad._INTO, ad._ADD}  # every kind was exercised


def test_repeated_backward_writes_equal_gradients_into_bound_buffers():
    for loss in _shared_parent_losses():
        leaves = [node for node in ad.topo_order(loss) if node.op == "leaf"]
        flat = np.zeros(sum(node.value.size for node in leaves))
        views, start = {}, 0
        for node in leaves:  # as training.train binds views of Adam's vector
            node.grad = views[node] = flat[start:start + node.value.size].reshape(node.shape)
            start += node.value.size
        first = {node: g.copy() for node, g in ad.backward(loss).items()}
        second = ad.backward(loss)
        for node, view in views.items():
            assert second[node] is view and node.grad is view
            assert np.array_equal(second[node], first[node])


def test_a_leaf_loss_takes_a_unit_gradient_in_its_kept_buffer():
    w = ad.leaf(np.array([[3.0]]))
    w.grad = buffer = np.full((1, 1), 7.0)
    for _ in range(2):
        grads = ad.backward(w)
        assert list(grads) == [w] and grads[w] is buffer
        assert np.array_equal(buffer, [[1.0]])


def test_backward_is_idempotent():
    X = ad.leaf(RNG.normal(size=(2, 2)))
    loss = ad.mean(ad.sigmoid(X))
    g1 = ad.backward(loss)[X].copy()
    g2 = ad.backward(loss)[X]
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# graph mechanics: topo order, recompute, leaf swapping


def test_topo_order_puts_parents_before_children():
    X = ad.leaf(RNG.normal(size=(2, 3)))
    W = ad.leaf(RNG.normal(size=(3, 1)))
    loss = ad.mean(ad.sigmoid(ad.matmul(X, W)))
    order = ad.topo_order(loss)
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node.parents:
            assert pos[id(parent)] < pos[id(node)]
    assert order[-1] is loss


def test_recompute_tracks_in_place_leaf_edits():
    X = ad.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    loss = ad.mean(X)
    assert loss.value[0, 0] == 2.5
    X.value[:] = 0.0
    assert ad.recompute(loss)[0, 0] == 0.0


def test_recompute_tracks_rebound_leaf_values():
    X = ad.leaf(np.ones((2, 2)))
    loss = ad.mean(ad.scale(X, 3.0))
    X.value = np.full((2, 2), 2.0)
    assert ad.recompute(loss)[0, 0] == pytest.approx(6.0)


def _logistic_loss(leaf_kind):
    """bce(sigmoid((x + x @ ones) @ W), t) with x, ones and t made by ``leaf_kind``."""
    x = leaf_kind(np.arange(12.0).reshape(4, 3) / 10.0)
    fixed = ad.matmul(x, leaf_kind(np.ones((3, 3))))
    W = ad.leaf(np.array([[0.3], [-0.2], [0.1]]))
    t = leaf_kind(np.array([[0.0], [1.0], [1.0], [0.0]]))
    return ad.bce_loss(ad.sigmoid(ad.matmul(ad.add(x, fixed), W)), t), x, fixed, W, t


def test_backward_keeps_no_gradient_for_constants():
    loss, x, fixed, W, t = _logistic_loss(ad.constant)
    grads = ad.backward(loss)
    assert list(grads) == [W]
    assert x.grad is None and t.grad is None and fixed.grad is None
    with pytest.raises(ValueError, match="constant"):
        ad.grad_check(loss, x)
    # skipping the constants does not change the trainable leaf's gradient
    trainable_loss, *_, trainable_W, _ = _logistic_loss(ad.leaf)
    assert np.array_equal(grads[W], ad.backward(trainable_loss)[trainable_W])


def test_backward_reuses_its_gradient_buffers():
    X = ad.leaf(np.array([[0.5, -1.0]]))
    loss = ad.mean(ad.sigmoid(X))
    first = ad.backward(loss)[X]
    before = first.copy()
    X.value[:] = 2.0
    ad.recompute(loss)
    second = ad.backward(loss)[X]
    assert second is first  # overwritten in place by the second call
    assert not np.array_equal(second, before)


def test_recompute_checks_every_op_not_only_the_loss():
    x = ad.constant(np.ones((2, 1)))
    W = ad.leaf(np.ones((1, 1)))
    loss = ad.bce_loss(ad.sigmoid(ad.matmul(x, W)), ad.constant(np.array([[0.0], [1.0]])))
    ad.recompute(loss)  # compiles the tape
    x.value[:] = 1e200
    W.value[:] = 1e200
    # sigmoid(inf) is exactly 1.0 and bce clips it, so the loss alone stays finite
    with np.errstate(over="ignore"), \
            pytest.raises(ad.NumericError, match="matmul produced a non-finite value"):
        ad.recompute(loss)


def test_leaf_aliases_caller_array():
    arr = np.zeros((2, 2))
    node = ad.leaf(arr)
    arr[0, 0] = 5.0
    assert node.value[0, 0] == 5.0  # same buffer, not a copy


# ---------------------------------------------------------------------------
# error contract


def test_shape_errors():
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.add(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 2))))
    with pytest.raises(ad.ShapeError):
        ad.hadamard(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 2))))
    stack = ad.reshape(ad.leaf(np.ones((6, 2))), (3, 2, 2))
    with pytest.raises(ad.ShapeError):
        ad.matmul(stack, ad.leaf(np.ones((3, 2))))  # 3-D inner dims differ
    with pytest.raises(ad.ShapeError):
        ad.matmul(stack, ad.reshape(ad.leaf(np.ones((6, 3))), (3, 2, 3)), transpose_b=True)
    with pytest.raises(ad.ShapeError):
        ad.add(stack, ad.leaf(np.ones((3, 2))))  # (3,2,2) and (3,2) do not broadcast
    with pytest.raises(ad.ShapeError):
        ad.hadamard(stack, ad.leaf(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.reshape(ad.leaf(np.ones((6, 2))), (5, -1))
    with pytest.raises(ad.ShapeError):
        ad.bce_loss(ad.leaf(np.full((2, 1), 0.5)), ad.leaf(np.zeros((3, 1))))
    with pytest.raises(ad.ShapeError):
        ad.as_matrix(np.ones((2, 2, 2)))


def test_shape_error_names_the_op_and_every_operand_shape():
    stack = ad.reshape(ad.leaf(np.ones((6, 2))), (3, 2, 2))
    cases = [
        (lambda: ad.matmul(stack, ad.reshape(ad.leaf(np.ones((6, 3))), (3, 2, 3)),
                           transpose_b=True),
         "matmul shapes incompatible: (3, 2, 2), (3, 2, 3); transpose_b=True"),
        (lambda: ad.add(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 2)))),
         "add shapes incompatible: (2, 3), (3, 2)"),
        (lambda: ad.reshape(ad.leaf(np.ones((6, 2))), (5, -1)),
         "reshape shapes incompatible: (6, 2); shape=(5, -1)"),
        (lambda: ad.dense(stack, ad.leaf(np.ones((3, 4))), ad.leaf(np.ones((1, 4))), relu=True),
         "dense shapes incompatible: (3, 2, 2), (3, 4), (1, 4); relu=True"),
        (lambda: ad.dense(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 1))),
                          ad.leaf(np.ones((1, 4)))),  # the bias may not widen the output
         "dense shapes incompatible: (2, 3), (3, 1), (1, 4); relu=False"),
    ]
    for build, message in cases:
        with pytest.raises(ad.ShapeError) as info:
            build()
        assert str(info.value) == message


def test_numeric_errors():
    with pytest.raises(ad.NumericError):
        ad.leaf(np.array([[np.nan]]))
    with np.errstate(over="ignore"), pytest.raises(ad.NumericError):
        ad.matmul(ad.leaf(np.full((1, 1), 1e200)), ad.leaf(np.full((1, 1), 1e200)))
    with pytest.raises(ad.NumericError):
        ad.scale(ad.leaf(np.ones((1, 1))), np.inf)


def test_bce_rejects_soft_targets():
    with pytest.raises(ValueError):
        ad.bce_loss(ad.leaf(np.full((1, 2), 0.5)), ad.leaf(np.array([[0.3, 0.7]])))


def test_backward_requires_scalar_loss():
    with pytest.raises(ValueError):
        ad.backward(ad.leaf(np.ones((2, 2))))


def test_as_matrix_promotes_vectors():
    assert ad.as_matrix([1.0, 2.0, 3.0]).shape == (1, 3)


# ---------------------------------------------------------------------------
# the built-in checker itself


def test_grad_check_agrees_with_this_files_oracle():
    X = ad.leaf(RNG.normal(size=(3, 3)))
    W = ad.leaf(RNG.normal(size=(3, 2)))
    loss = ad.mean(ad.sigmoid(ad.matmul(X, W)))
    assert ad.grad_check(loss, W) < 1e-6
    assert ad.grad_check(loss, X) < 1e-6


def test_grad_check_restores_leaf_values():
    X = ad.leaf(RNG.normal(size=(2, 2)))
    loss = ad.mean(X)
    before = X.value.copy()
    ad.grad_check(loss, X)
    assert np.array_equal(X.value, before)


def test_grad_check_returns_zero_for_disconnected_leaf():
    X = ad.leaf(np.ones((1, 2)))
    other = ad.leaf(np.ones((1, 2)))
    loss = ad.mean(X)
    assert ad.grad_check(loss, other) == 0.0


def test_grad_check_rejects_bad_eps():
    X = ad.leaf(np.ones((1, 2)))
    with pytest.raises(ValueError):
        ad.grad_check(ad.mean(X), X, eps=0.0)


# the per-step arithmetic against numpy's wrapped forms, bit for bit


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# predictions at, inside and beyond the clip bounds, and exactly 0 and 1
EDGE_PREDICTIONS = [0.0, 1.0, ad.BCE_CLIP, 1.0 - ad.BCE_CLIP, 5e-13, 1.0 - 5e-13, 1e-300,
                    -0.25, 1.25, 0.5]
prediction_target_pairs = st.lists(
    st.tuples(st.one_of(st.sampled_from(EDGE_PREDICTIONS), st.floats(-2.0, 3.0)),
              st.sampled_from([0.0, 1.0])), min_size=1, max_size=12)


@given(prediction_target_pairs, st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_loss_and_accuracy_equal_their_wrapped_numpy_forms(pairs, upstream, threshold):
    p, t = (np.array(col).reshape(-1, 1) for col in zip(*pairs))
    pc = np.clip(p, ad.BCE_CLIP, 1.0 - ad.BCE_CLIP)
    assert same_bits(ad.bce(p, t), float(-np.mean(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))))
    g = np.array([[upstream]])
    assert same_bits(ad._bce_grad_p(g, None, None, p, t),
                     g[0, 0] * (p == pc) * (-t / pc + (1.0 - t) / (1.0 - pc)) / p.size)
    assert same_bits(ad.mse(p, t), float(np.mean((p - t) ** 2)))
    for pred, target in ((p[:, 0], t[:, 0]), (p[:, 0], p[::-1, 0])):
        assert same_bits(accuracy(pred, target, threshold),
                         float(np.mean((pred > threshold) == (target > threshold))))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                  elements=st.floats(-800.0, 800.0)))
@settings(max_examples=200, deadline=None)
def test_sigmoid_and_softmax_equal_their_wrapped_numpy_forms(x):
    e = np.exp(-np.abs(x))
    assert same_bits(ad._stable_sigmoid(x), np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))
    e = x - x.max(axis=-1, keepdims=True)
    e = np.exp(e)
    assert same_bits(ad._stable_softmax_rows(x), e / e.sum(axis=-1, keepdims=True))
