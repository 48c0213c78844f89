"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built define-by-run: constructing a node evaluates it immediately.
``recompute`` re-runs the forward pass from the current leaf values,
``backward`` fills ``grad`` on every node between a scalar loss and its
trainable leaves, and ``grad_check`` verifies analytic gradients against
central finite differences by re-evaluating the graph under perturbed leaf
values.

Leaves come in two kinds. A ``leaf`` is trainable: ``backward`` returns its
gradient. A ``constant`` (data, targets, fixed matrices) never takes one, and
neither does any node computed from constants alone, so ``backward`` skips the
products and logs that only such nodes would receive.

The first ``recompute`` or ``backward`` of a root compiles its graph into a
tape cached on the root: the non-leaf nodes in topological order for the
forward pass, and, reversed, the nodes that depend on a trainable leaf for
the backward pass. The tape leaves out the root itself, so it holds no
reference back to the node that holds it, and a dropped graph is freed by
reference counting alone, without waiting for the cyclic collector. A node's
``parents`` never change after construction, so the tape stays valid for the
life of the graph however its leaf values are edited or rebound. ``backward``
keeps each node's ``grad`` buffer and zeroes it in place on the next call;
the arrays it returns are those buffers.

Every forward op checks its output for NaN and Inf (``reshape`` only views a
checked value). Checking only the loss would miss overflow: ``sigmoid(inf)``
is exactly 1.0, so a matmul that overflows can still leave the loss finite.

Leaves are 2-D (vectors are 1xN rows); op outputs may have more axes. A batch
of small matrices is a per-sample stack, an (n, p, q) array: ``matmul``
batches over leading axes as ``np.matmul`` does, ``reshape`` moves between
layouts, and ``add``/``hadamard`` broadcast as numpy does, each operand's
gradient summed back to its own shape. A shared 2-D weight under a stacked
operand takes its gradient as one 2-D product over all stacked rows.
"""

from __future__ import annotations

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
    it stays ``None`` on nodes that depend on no trainable leaf. ``aux``
    carries op-specific constants (scale factor, loss target). ``tape`` caches
    the compiled graph under this node once it has been used as a root.
    """

    __slots__ = ("op", "parents", "value", "grad", "aux", "tape")

    def __init__(self, op: str, parents: tuple["Node", ...], value: np.ndarray, aux=None):
        self.op = op
        self.parents = parents
        self.value = value
        self.grad: np.ndarray | None = None
        self.aux = aux
        self.tape: tuple[list[Node], list[Node], list[Node]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def _check_finite(op: str, value: np.ndarray) -> np.ndarray:
    if not np.isfinite(value).all():
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
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to an operand of ``shape``."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, size in enumerate(shape) if size == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def _forward(op: str, parent_values: list[np.ndarray], aux) -> np.ndarray:
    if op in ("matmul", "add", "hadamard"):
        a, b = parent_values
        try:
            if op == "matmul":
                out = a @ (b.mT if aux else b)
            else:
                out = a + b if op == "add" else a * b
        except ValueError:
            raise ShapeError(f"{op} shapes incompatible: {a.shape}, {b.shape}"
                             + (" (b transposed)" if aux else "")) from None
        return _check_finite(op, out)
    if op == "reshape":  # a view of an already checked value
        try:
            return parent_values[0].reshape(aux)
        except ValueError:
            raise ShapeError(f"cannot reshape {parent_values[0].shape} to {aux}") from None
    if op == "softmax_rows":
        return _check_finite(op, _stable_softmax_rows(parent_values[0]))
    if op == "sigmoid":
        return _check_finite(op, _stable_sigmoid(parent_values[0]))
    if op == "relu":
        return _check_finite(op, np.maximum(parent_values[0], 0.0))
    if op == "mean":
        return _check_finite(op, np.array([[parent_values[0].mean()]]))
    if op == "scale":
        return _check_finite(op, aux * parent_values[0])
    if op == "bce_loss":
        p, t = parent_values
        if p.shape != t.shape:
            raise ShapeError(f"bce shapes differ: {p.shape} vs {t.shape}")
        pc = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
        v = -np.mean(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))
        return _check_finite(op, np.array([[v]]))
    if op == "mse_loss":
        p, t = parent_values
        if p.shape != t.shape:
            raise ShapeError(f"mse shapes differ: {p.shape} vs {t.shape}")
        return _check_finite(op, np.array([[np.mean((p - t) ** 2)]]))
    raise ValueError(f"unknown op kind: {op}")


def _unary(op: str, a: Node, aux=None) -> Node:
    return Node(op, (a,), _forward(op, [a.value], aux), aux)


def matmul(a: Node, b: Node, transpose_b: bool = False) -> Node:
    """``a @ b`` (``a @ b^T`` over the last two axes when ``transpose_b``),
    batched over leading axes as ``np.matmul`` does."""
    aux = bool(transpose_b)
    return Node("matmul", (a, b), _forward("matmul", [a.value, b.value], aux), aux)


def reshape(a: Node, shape: tuple[int, ...]) -> Node:
    """``a``'s values in a new layout, as ``np.reshape`` (one axis may be -1)."""
    return _unary("reshape", a, aux=tuple(shape))


def add(a: Node, b: Node) -> Node:
    return Node("add", (a, b), _forward("add", [a.value, b.value], None))


def hadamard(a: Node, b: Node) -> Node:
    return Node("hadamard", (a, b), _forward("hadamard", [a.value, b.value], None))


def softmax_rows(a: Node) -> Node:
    return _unary("softmax_rows", a)


def sigmoid(a: Node) -> Node:
    return _unary("sigmoid", a)


def relu(a: Node) -> Node:
    return _unary("relu", a)


def mean(a: Node) -> Node:
    return _unary("mean", a)


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)
    if not np.isfinite(factor):
        raise NumericError("scale factor must be finite")
    return _unary("scale", a, aux=factor)


def bce_loss(pred: Node, target: Node) -> Node:
    """Mean binary cross-entropy; predictions clipped to [1e-12, 1 - 1e-12].

    Targets must be exactly 0 or 1. Gradient flows to both parents, but is
    zeroed where the clip is active.
    """
    if not np.all((target.value == 0.0) | (target.value == 1.0)):
        raise ValueError("bce targets must be 0 or 1")
    return Node("bce_loss", (pred, target), _forward("bce_loss", [pred.value, target.value], None))


def mse_loss(pred: Node, target: Node) -> Node:
    """Mean squared error over all entries."""
    return Node("mse_loss", (pred, target), _forward("mse_loss", [pred.value, target.value], None))


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


def _tape(root: Node) -> tuple[list[Node], list[Node], list[Node]]:
    """The graph under ``root`` compiled once and cached on it: the non-leaf
    nodes in topological order, the nodes that depend on a trainable leaf in
    reverse order, and the trainable leaves in topological order. ``root`` is
    in none of the lists (a cached reference to itself would make every graph
    a reference cycle); the callers handle it directly."""
    if root.tape is None:
        order = topo_order(root)[:-1]  # the root comes last
        live: set[Node] = set()
        for node in order:
            if node.op == "leaf" or any(p in live for p in node.parents):
                live.add(node)
        root.tape = ([n for n in order if n.parents],
                     [n for n in reversed(order) if n in live],
                     [n for n in order if n.op == "leaf"])
    return root.tape


def recompute(root: Node) -> np.ndarray:
    """Re-run the forward pass from current leaf values; returns root value."""
    for node in (*_tape(root)[0], root):
        if node.parents:
            node.value = _forward(node.op, [p.value for p in node.parents], node.aux)
    return root.value


def _accumulate(node: Node) -> None:
    """Add ``node.grad``'s contribution to each parent that keeps a gradient;
    a unary op's parent always does, since the node itself depends on a
    trainable leaf."""
    g = node.grad
    op = node.op
    if op == "matmul":
        a, b = node.parents
        transpose_b = node.aux
        if a.grad is not None:
            a.grad += _sum_to(g @ (b.value if transpose_b else b.value.mT), a.value.shape)
        if b.grad is not None:
            av = a.value
            if b.value.ndim == 2 and av.ndim > 2:  # shared weight: one product over all rows
                av, g = av.reshape(-1, av.shape[-1]), g.reshape(-1, g.shape[-1])
            b.grad += _sum_to(g.mT @ av if transpose_b else av.mT @ g, b.value.shape)
    elif op in ("add", "hadamard"):
        a, b = node.parents
        if a.grad is not None:
            a.grad += _sum_to(g if op == "add" else g * b.value, a.value.shape)
        if b.grad is not None:
            b.grad += _sum_to(g if op == "add" else g * a.value, b.value.shape)
    elif op == "reshape":
        (a,) = node.parents
        a.grad += g.reshape(a.value.shape)
    elif op == "softmax_rows":
        (a,) = node.parents
        w = node.value
        a.grad += w * (g - (g * w).sum(axis=-1, keepdims=True))
    elif op == "sigmoid":
        (a,) = node.parents
        a.grad += g * node.value * (1.0 - node.value)
    elif op == "relu":
        (a,) = node.parents
        a.grad += g * (a.value > 0.0)
    elif op == "mean":
        (a,) = node.parents
        a.grad += np.full(a.value.shape, g[0, 0] / a.value.size)
    elif op == "scale":
        (a,) = node.parents
        a.grad += node.aux * g
    elif op == "bce_loss":
        p, t = node.parents
        pc = np.clip(p.value, BCE_CLIP, 1.0 - BCE_CLIP)
        n = p.value.size
        if p.grad is not None:
            unclipped = p.value == pc
            p.grad += g[0, 0] * unclipped * (-t.value / pc + (1.0 - t.value) / (1.0 - pc)) / n
        if t.grad is not None:
            t.grad += g[0, 0] * (np.log(1.0 - pc) - np.log(pc)) / n
    elif op == "mse_loss":
        p, t = node.parents
        d = g[0, 0] * 2.0 * (p.value - t.value) / p.value.size
        if p.grad is not None:
            p.grad += d
        if t.grad is not None:
            t.grad += -d
    else:
        raise ValueError(f"unknown op kind: {op}")


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Populate ``grad`` on every node between a 1x1 loss and its trainable
    leaves.

    Grads are reset first, so repeated calls are idempotent. Returns a map
    from each trainable leaf the loss depends on to its gradient array; a
    ``constant`` leaf has no entry. The arrays are the nodes' kept ``grad``
    buffers, so the next ``backward`` through them overwrites them: copy one
    to keep it.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"backward requires a scalar (1x1) loss, got {loss.value.shape}")
    _, live, leaves = _tape(loss)
    if not live and loss.op != "leaf":  # the loss has no live parent and is no leaf
        return {}
    live = (loss, *live)
    for node in live:
        g = node.grad
        if g is None or g.shape != node.value.shape:
            node.grad = np.zeros_like(node.value)
        else:
            g.fill(0.0)
    loss.grad[0, 0] = 1.0
    for node in live:
        if node.parents:
            _accumulate(node)
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
    analytic = grads.get(target_leaf)
    if analytic is None:
        analytic = np.zeros_like(target_leaf.value)
    else:
        analytic = analytic.copy()

    original = target_leaf.value.copy()
    worst = 0.0
    try:
        for i in range(original.shape[0]):
            for j in range(original.shape[1]):
                target_leaf.value[i, j] = original[i, j] + eps
                f_plus = recompute(loss)[0, 0]
                target_leaf.value[i, j] = original[i, j] - eps
                f_minus = recompute(loss)[0, 0]
                target_leaf.value[i, j] = original[i, j]
                numeric = (f_plus - f_minus) / (2.0 * eps)
                denom = max(abs(analytic[i, j]), abs(numeric), 1e-12)
                worst = max(worst, abs(analytic[i, j] - numeric) / denom)
    finally:
        target_leaf.value = original
        recompute(loss)
    return worst
