"""Reverse-mode automatic differentiation over dense float64 arrays.

Each op is defined once, in ``OPS``: its plain-array forward, one gradient
rule per parent and, optionally, a ``g_in`` that ``backward`` computes once
per node for all of its rules (``dense`` masks relu's gradient there, not in
each rule). Graphs are built define-by-run: constructing a node runs its
forward at once. ``recompute`` re-runs the forward pass from the current leaf
values, ``backward`` applies the gradient rules from a scalar loss down to its
trainable leaves, and ``grad_check`` checks them against central finite
differences. ``models.NUMPY_OPS`` runs the same forwards on plain arrays, and
the forwards ``bce``/``mse``/``entropy`` give the training metrics.

Leaves come in two kinds. A ``leaf`` is trainable: ``backward`` returns its
gradient. A ``constant`` (data, targets, fixed matrices) never takes one, and
neither does any node computed from constants alone, so ``backward`` skips the
products and logs that only such nodes would receive.

The first ``recompute`` or ``backward`` of a root compiles its graph into a
tape cached on the root: the non-leaf nodes in topological order for the
forward pass, and, reversed, the nodes that depend on a trainable leaf for the
backward pass, each bound to its gradient-taking parents and their rules. The
tape leaves out the root itself, so it holds no reference back to the node
that holds it, and a dropped graph is freed by reference counting alone,
without waiting for the cyclic collector. A node's ``parents`` never change
after construction, so the tape stays valid for the life of the graph however
its leaf values are edited or rebound.

The tape also records, for each (parent, rule) pair, whether it is the
parent's first gradient contribution or a later one, so ``backward`` zeroes
nothing: an interior node's first contribution becomes its ``grad`` as it is
(a rule's output, or a view of another node's gradient) and each later one
makes a new sum, never written in place. Only the trainable leaves and the
root keep a ``grad`` buffer from call to call: a leaf's first contribution is
added to 0.0 into it and later ones in place, so its gradient, signed zeros
included, is bit for bit the zero-filled sum; the arrays ``backward`` returns
are those buffers. A caller may bind a leaf's ``grad`` to an array of its
own, of the leaf's shape (``training.train`` binds views of Adam's flat
gradient vector), and ``backward`` then writes that leaf's gradient there.

Every forward op checks its output for NaN and Inf (``reshape`` only views a
checked value). Checking only the loss would miss overflow: ``sigmoid(inf)``
is exactly 1.0, so a matmul that overflows can still leave the loss finite.
Operands numpy cannot combine raise a ``ShapeError`` that names the op, every
operand shape and the op's constant argument.

Leaves are 2-D (vectors are 1xN rows); op outputs may have more axes. A batch
of small matrices is a per-sample stack, an (n, p, q) array: ``matmul``
batches over leading axes as ``np.matmul`` does, ``reshape`` moves between
layouts, and ``add``/``hadamard`` broadcast as numpy does, each operand's
gradient summed back to its own shape. A shared 2-D weight under a stacked
operand takes its gradient as one 2-D product over all stacked rows.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

BCE_CLIP = 1e-12


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ValueError):
    """A forward evaluation produced NaN or Inf."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array; 1-D input becomes a single row."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"expected a non-empty 2-D array, got shape {arr.shape}")
    return arr


class Node:
    """One step of the computation: an op kind, parent nodes, and a value.

    ``grad`` is populated by ``backward`` and has the same shape as ``value``;
    it stays ``None`` on nodes that depend on no trainable leaf. On a
    trainable leaf or a root it is a buffer kept across calls; on any other
    node it is the last call's gradient, which may be shared with another
    node, so only read it. ``aux`` carries the op's constant argument
    (``aux_name`` in ``OPS``). ``tape`` caches the compiled graph under this
    node once it has been used as a root.
    """

    __slots__ = ("op", "parents", "value", "grad", "aux", "tape")

    def __init__(self, op: str, parents: tuple["Node", ...], value: np.ndarray, aux=None):
        self.op = op
        self.parents = parents
        self.value = value
        self.grad: np.ndarray | None = None
        self.aux = aux
        self.tape: _Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def _check_finite(op: str, value: np.ndarray) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(value), None):
        raise NumericError(f"{op} produced a non-finite value")
    return value


def leaf(values) -> Node:
    """A trainable input; it aliases ``values`` when that is already a
    2-D float64 array."""
    value = as_matrix(values)
    _check_finite("leaf", value)
    return Node("leaf", (), value)


def constant(values) -> Node:
    """An input that never takes a gradient: data, targets, fixed matrices."""
    node = leaf(values)
    node.op = "constant"
    return node


def _stable_softmax_rows(x: np.ndarray) -> np.ndarray:
    # the only new array: exp and divide write into it
    e = x - np.maximum.reduce(x, -1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to an operand of ``shape``."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, size in enumerate(shape) if size == 1 and g.shape[lead + i] != 1)
    return np.add.reduce(g, axes).reshape(shape)


def _same_shape(p: np.ndarray, t: np.ndarray) -> None:
    if p.shape != t.shape:  # a loss must not broadcast its operands
        raise ShapeError(f"loss operand shapes differ: {p.shape} vs {t.shape}")


# The per-step arithmetic calls the ufuncs and their reductions directly:
# ``np.clip``, ``np.mean`` and the array reduction methods run the same ufuncs
# in the same order, behind Python wrappers that cost more than the arithmetic
# on a training batch.


def _mean(a: np.ndarray):
    """``np.mean(a)`` of a float64 array, over all entries."""
    return np.add.reduce(a, None) / a.size


def _clip_p(p: np.ndarray) -> np.ndarray:
    """Predictions clipped to [BCE_CLIP, 1 - BCE_CLIP], as ``np.clip`` does."""
    return np.minimum(np.maximum(p, BCE_CLIP), 1.0 - BCE_CLIP)


def bce(p: np.ndarray, t: np.ndarray) -> float:
    """Mean binary cross-entropy, predictions clipped to [BCE_CLIP, 1 - BCE_CLIP]."""
    _same_shape(p, t)
    pc = _clip_p(p)
    return float(-_mean(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc)))


def mse(p: np.ndarray, t: np.ndarray) -> float:
    """Mean squared error over all entries."""
    _same_shape(p, t)
    return float(_mean((p - t) ** 2))


def entropy(w: np.ndarray) -> np.ndarray:
    """Entropy -sum(w ln w) of each row of weights as an (..., 1) column; the
    log's argument is clipped at 1e-300, so a weight that underflowed adds 0."""
    return -np.add.reduce(w * np.log(np.maximum(w, 1e-300)), -1, keepdims=True)


def _dense(x, W, b, relu=False):
    out = x @ W  # a new array, so the bias and the relu write into it
    out += b
    return np.maximum(out, 0.0, out=out) if relu else out


def _dense_g(g, out, relu):
    """The gradient at ``x @ W + b``, which all three of ``dense``'s rules
    read: relu's mask reads the output, which is positive exactly where its
    input was."""
    return g * (out > 0.0) if relu else g


def _matmul_grad_b(g, out, transpose_b, a, b):
    if b.ndim == 2 and a.ndim > 2:  # shared weight: one product over all rows
        a, g = a.reshape(-1, a.shape[-1]), g.reshape(-1, g.shape[-1])
    return g.mT @ a if transpose_b else a.mT @ g


def _bce_grad_p(g, out, aux, p, t):
    pc = _clip_p(p)  # no gradient where the clip is active
    return g[0, 0] * (p == pc) * (-t / pc + (1.0 - t) / (1.0 - pc)) / p.size


def _bce_grad_t(g, out, aux, p, t):
    pc = _clip_p(p)
    return g[0, 0] * (np.log(1.0 - pc) - np.log(pc)) / p.size


def _mse_grad_p(g, out, aux, p, t):
    return g[0, 0] * 2.0 * (p - t) / p.size


# An op's plain-array forward, ``forward(*parent_values[, aux])``, and one
# gradient rule per parent, ``rule(g, out, aux, *parent_values)``, giving that
# parent's gradient before it is summed back to the parent's shape.
# ``aux_name`` names the op's constant argument, if it takes one. ``g_in``, if
# given, is computed once per node, ``g_in(g, out, aux)``, and every rule then
# reads it as ``g`` in place of the node's own gradient.
_Op = namedtuple("_Op", "forward grads aux_name g_in", defaults=(None, None))
OPS = {
    "matmul": _Op(lambda a, b, transpose_b=False: a @ (b.mT if transpose_b else b),
                  (lambda g, out, transpose_b, a, b: g @ (b if transpose_b else b.mT),
                   _matmul_grad_b), "transpose_b"),
    "add": _Op(np.add, (lambda g, out, aux, a, b: g,) * 2),
    "hadamard": _Op(np.multiply, (lambda g, out, aux, a, b: g * b,
                                  lambda g, out, aux, a, b: g * a)),
    "scale_rows": _Op(lambda W, w: W * w.mT, (
        lambda g, out, aux, W, w: g * w.mT,
        lambda g, out, aux, W, w: np.add.reduce(g * W, -1).reshape(w.shape))),
    "reshape": _Op(np.reshape, (lambda g, out, shape, a: g.reshape(a.shape),), "shape"),
    "softmax_rows": _Op(_stable_softmax_rows, (
        lambda g, w, aux, a: w * (g - np.add.reduce(g * w, -1, keepdims=True)),)),
    "entropy_rows": _Op(entropy, (
        lambda g, h, aux, w: -g * (np.log(np.maximum(w, 1e-300)) + 1.0),)),
    "sigmoid": _Op(_stable_sigmoid, (lambda g, y, aux, a: g * y * (1.0 - y),)),
    "dense": _Op(_dense, (lambda g, out, relu, x, W, b: g @ W.mT,
                          lambda g, out, relu, x, W, b: _matmul_grad_b(g, out, False, x, W),
                          lambda g, out, relu, x, W, b: g), "relu", _dense_g),
    "mean": _Op(lambda a: np.array([[a.mean()]]),
                (lambda g, y, aux, a: np.full(a.shape, g[0, 0] / a.size),)),
    "scale": _Op(lambda a, factor: factor * a, (lambda g, y, factor, a: factor * g,), "factor"),
    "bce_loss": _Op(lambda p, t: np.array([[bce(p, t)]]), (_bce_grad_p, _bce_grad_t)),
    "mse_loss": _Op(lambda p, t: np.array([[mse(p, t)]]),
                    (_mse_grad_p, lambda *args: -_mse_grad_p(*args))),
}


def _forward(op: str, parent_values: list[np.ndarray], aux) -> np.ndarray:
    spec = OPS[op]
    try:
        out = spec.forward(*parent_values) if spec.aux_name is None \
            else spec.forward(*parent_values, aux)
    except ValueError:
        shapes = ", ".join(str(v.shape) for v in parent_values)
        named = "" if spec.aux_name is None else f"; {spec.aux_name}={aux!r}"
        raise ShapeError(f"{op} shapes incompatible: {shapes}{named}") from None
    return out if op == "reshape" else _check_finite(op, out)  # reshape views a checked value


def _node(op: str, *parents: Node, aux=None) -> Node:
    return Node(op, parents, _forward(op, [p.value for p in parents], aux), aux)


def matmul(a: Node, b: Node, transpose_b: bool = False) -> Node:
    """``a @ b`` (``a @ b^T`` over the last two axes when ``transpose_b``),
    batched over leading axes as ``np.matmul`` does."""
    return _node("matmul", a, b, aux=bool(transpose_b))


def reshape(a: Node, shape: tuple[int, ...]) -> Node:
    """``a``'s values in a new layout, as ``np.reshape`` (one axis may be -1)."""
    return _node("reshape", a, aux=tuple(shape))


def add(a: Node, b: Node) -> Node:
    return _node("add", a, b)


def hadamard(a: Node, b: Node) -> Node:
    return _node("hadamard", a, b)


def scale_rows(W: Node, w: Node) -> Node:
    """``W`` with row i scaled by ``w[0, i]``: ``W * w.mT`` for a (1, rows)
    ``w``, such as a ``softmax_rows`` gate over a weight's input rows."""
    if w.value.shape != (1, W.value.shape[-2]):
        raise ShapeError(f"scale_rows needs a (1, {W.value.shape[-2]}) row for "
                         f"{W.value.shape}, got {w.value.shape}")
    return _node("scale_rows", W, w)


def softmax_rows(a: Node) -> Node:
    return _node("softmax_rows", a)


def entropy_rows(a: Node) -> Node:
    """The ``entropy`` of each row of weights, such as a ``softmax_rows`` output."""
    return _node("entropy_rows", a)


def sigmoid(a: Node) -> Node:
    return _node("sigmoid", a)


def dense(x: Node, W: Node, b: Node, relu: bool = False) -> Node:
    """``x @ W + b``, then ``max(., 0)`` when ``relu``: one layer as one node,
    computed in one output array. ``x`` may be a stack under a 2-D ``W``."""
    return _node("dense", x, W, b, aux=bool(relu))


def mean(a: Node) -> Node:
    return _node("mean", a)


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)
    if not np.isfinite(factor):
        raise NumericError("scale factor must be finite")
    return _node("scale", a, aux=factor)


def bce_loss(pred: Node, target: Node) -> Node:
    """Mean binary cross-entropy (``bce``) of a prediction node.

    Targets must be exactly 0 or 1. Gradient flows to both parents, but is
    zeroed where the clip is active.
    """
    if not np.all((target.value == 0.0) | (target.value == 1.0)):
        raise ValueError("bce targets must be 0 or 1")
    return _node("bce_loss", pred, target)


def mse_loss(pred: Node, target: Node) -> Node:
    """Mean squared error (``mse``) of a prediction node."""
    return _node("mse_loss", pred, target)


def topo_order(root: Node) -> list[Node]:
    """Topological order of the graph under ``root`` (leaves first)."""
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


_Tape = namedtuple("_Tape", "forward root_step steps leaves")

# How ``backward`` stores a (parent, rule) pair's contribution in the parent's
# ``grad``. An interior parent's first contribution becomes its ``grad`` as it
# is (``_SET``) and each later one makes a new sum (``_SUM``), since the first
# may be another node's gradient too. A trainable leaf's first is added to 0.0
# into its kept buffer (``_INTO``), so an all-zero gradient reads +0.0 as a
# zero-filled sum would, and each later one is added in place (``_ADD``).
_SET, _SUM, _INTO, _ADD = range(4)


def _tape(root: Node) -> _Tape:
    """The graph under ``root`` compiled once and cached on it: the non-leaf
    nodes in topological order (``forward``); the root's own step
    (``root_step``); in reverse topological order, one step per non-leaf node
    that depends on a trainable leaf (``steps``); and the trainable leaves in
    topological order (``leaves``). A step is the node (left out of
    ``root_step``), its op's ``g_in`` and its (parent, gradient rule, write)
    triples, one per live parent, where ``write`` says how the contribution is
    stored. ``root`` is in none of the node lists (a cached reference to
    itself would make every graph a reference cycle); the callers handle it
    directly."""
    if root.tape is None:
        order = topo_order(root)[:-1]  # the root comes last
        live: set[Node] = set()
        for node in order:
            if node.op == "leaf" or any(p in live for p in node.parents):
                live.add(node)
        nodes = (root, *(n for n in reversed(order) if n in live and n.parents))
        written: set[Node] = set()

        def write(parent):
            leaf = parent.op == "leaf"
            if parent in written:
                return _ADD if leaf else _SUM
            written.add(parent)
            return _INTO if leaf else _SET

        steps = []
        for n in nodes:  # in backward's order, so ``write`` sees first contributions first
            spec = OPS[n.op] if n.parents else _Op(None, ())  # a leaf root has no rules
            steps.append((spec.g_in, [(p, rule, write(p))
                                      for p, rule in zip(n.parents, spec.grads) if p in live]))
        root.tape = _Tape([n for n in order if n.parents], steps[0],
                          [(n, *step) for n, step in zip(nodes[1:], steps[1:])],
                          [n for n in order if n.op == "leaf"])
    return root.tape


def recompute(root: Node) -> np.ndarray:
    """Re-run the forward pass from current leaf values; returns root value."""
    for node in (*_tape(root).forward, root):
        if node.parents:
            node.value = _forward(node.op, [p.value for p in node.parents], node.aux)
    return root.value


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Populate ``grad`` on every node between a 1x1 loss and its trainable
    leaves.

    Every call writes each gradient afresh, so repeated calls are idempotent.
    Returns a map from each trainable leaf the loss depends on to its gradient
    array; a ``constant`` leaf has no entry. The arrays are the leaves' kept
    ``grad`` buffers, so the next ``backward`` through them overwrites them:
    copy one to keep it.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"backward requires a scalar (1x1) loss, got {loss.value.shape}")
    _, root_step, steps, leaves = _tape(loss)
    if not root_step[1] and loss.op != "leaf":  # the loss has no live parent and is no leaf
        return {}
    for node in (loss, *leaves):
        g = node.grad
        if g is None or g.shape != node.value.shape:
            node.grad = np.zeros_like(node.value)
    loss.grad[0, 0] = 1.0
    for node, g_in, rules in ((loss, *root_step), *steps):
        g = node.grad if g_in is None else g_in(node.grad, node.value, node.aux)
        values = [p.value for p in node.parents]
        for parent, rule, write in rules:
            c = _sum_to(rule(g, node.value, node.aux, *values), parent.value.shape)
            if write == _SET:
                parent.grad = c
            elif write == _SUM:
                parent.grad = parent.grad + c
            elif write == _INTO:
                np.add(0.0, c, out=parent.grad)
            else:
                parent.grad += c
    return {n: n.grad for n in (loss, *leaves) if n.op == "leaf"}


def grad_check(loss: Node, target_leaf: Node, eps: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per entry the error is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-12). A leaf the loss does not depend on yields 0; a ``constant`` takes
    no gradient and is rejected. The leaf's values are restored (and the graph
    re-evaluated) before returning.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if target_leaf.op == "constant":
        raise ValueError("a constant takes no gradient to check")
    grads = backward(loss)
    analytic = grads[target_leaf].copy() if target_leaf in grads \
        else np.zeros_like(target_leaf.value)

    original = target_leaf.value.copy()
    worst = 0.0
    try:
        for ij in np.ndindex(original.shape):
            target_leaf.value[ij] = original[ij] + eps
            f_plus = recompute(loss)[0, 0]
            target_leaf.value[ij] = original[ij] - eps
            f_minus = recompute(loss)[0, 0]
            target_leaf.value[ij] = original[ij]
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(analytic[ij]), abs(numeric), 1e-12)
            worst = max(worst, abs(analytic[ij] - numeric) / denom)
    finally:
        target_leaf.value = original
        recompute(loss)
    return worst
