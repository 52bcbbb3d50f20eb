"""Reverse-mode autodiff over numpy arrays.

Storage is float32 throughout; matrix products and reductions accumulate in
float64 and round back to float32, so results are reproducible bit for bit on
a given platform (numpy's kernels fix the summation order). The graph is
define-by-run: every op that touches a grad-requiring tensor records a node,
and ``backward`` replays the tape once in reverse topological order.

Pullbacks compute a cotangent only for the inputs whose ``requires_grad`` is
true when ``backward`` runs, and return ``None`` for the others, so a frozen
weight costs no ``x^T g`` product. The cotangents that are computed do the
same arithmetic whichever inputs are frozen, so they keep their bits.

A tensor whose ``example_axis`` is set holds one example per index of axis 0,
and slice i reaches the loss only through example i. ``embedding`` sets it on
its output and every op passes it on to its output, so the forward pass
records which tensors carry examples. ``backward(loss, per_example=leaves)``
uses the record to return each leaf's gradient per example; see there.

A single graph must stay on one thread. ``no_grad`` and a per-example
``backward`` switch process-wide state while they run, so no other graph
may record or run backward concurrently with them. Tensors with
``requires_grad=False`` never enter the tape.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, GraphError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "backward",
    "finite_diff_grad",
    "matmul",
    "add",
    "subtract",
    "hadamard",
    "scale",
    "divide",
    "exp",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax_nll",
    "layer_norm",
    "column_l2_norm",
    "concat",
    "slice_axis",
    "reshape",
    "transpose",
    "embedding",
    "broadcast_to",
    "sum_axis",
    "mean_axis",
]

_grad_enabled = True
# True while a per-example backward runs: pullbacks then keep a leading
# example axis on the cotangent of every input without the example axis.
_per_example = False


class no_grad:
    """Context manager that suspends tape recording (used by evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float32 array plus an optional gradient and tape node.

    ``grad`` is populated only on leaves (tensors the user created with
    ``requires_grad=True``); intermediate gradients are released as soon as
    backward consumes them. ``example_axis`` marks axis 0 as the example
    axis (see the module docstring).
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "example_axis")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _Node | None = None
        self.example_axis = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Node:
    """Tape entry: the op name, its input tensors, and a pullback.

    The pullback maps the output cotangent (float32 array) to one cotangent
    per input, ``None`` for inputs that do not require grad when it runs.
    """

    __slots__ = ("op", "inputs", "pullback")

    def __init__(self, op: str, inputs: tuple[Tensor, ...],
                 pullback: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.pullback = pullback


def _record(op: str, data: np.ndarray, inputs: tuple[Tensor, ...],
            pullback: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(data)
    for t in inputs:  # a loop, not any(): this runs for every op
        if t.example_axis:
            out.example_axis = True
            break
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = _Node(op, inputs, pullback)
    return out


def _lead(g: np.ndarray, t: Tensor) -> tuple[int, ...]:
    """The axes that input ``t``'s cotangent carries in front of ``t.shape``.

    In a per-example backward, an input without the example axis gets a
    cotangent of shape ``(N,) + t.shape`` whose slice i is the gradient of
    example i's term. N is read off ``g``, the output cotangent: its axis 0
    is the example axis, whether the output carries that axis or the
    leading one. Otherwise ``()``.
    """
    return g.shape[:1] if _per_example and not t.example_axis else ()


def _shift(axis: int, lead: tuple[int, ...]) -> int:
    """``axis`` of a tensor, as an axis of its cotangent with ``lead``."""
    return axis + len(lead) if axis >= 0 else axis


def _sum_to(grad: np.ndarray, t: Tensor) -> np.ndarray:
    """Undo numpy broadcasting: sum input ``t``'s share of a cotangent down
    to ``t.shape`` in float64.

    In a per-example backward, an input without the example axis gets
    ``[N, *t.shape]``: ``grad``'s axis 0 is the example axis and is kept.
    When ``t`` spans the output's example axis, that axis of ``t`` must be
    broadcast (size 1); example i's slice then sits in ``t``'s axis 0.

    With nothing to reduce, a float32 ``grad`` is returned as is (the float64
    round trip would be exact), so a pullback that hands one cotangent to two
    inputs this way must copy one of them.
    """
    shape = t.shape
    keep = 0
    if _per_example and not t.example_axis:
        keep = 1
        if len(shape) == grad.ndim:
            if shape[0] != 1:
                raise ContractError(f"an input of shape {shape} without the "
                                    f"example axis spans it")
            shape = shape[1:]
        shape = grad.shape[:1] + shape
    if grad.shape == shape:
        out = grad if grad.dtype == np.float32 else grad.astype(np.float32)
    else:
        grad64 = np.asarray(grad, dtype=np.float64)
        extra = grad64.ndim - len(shape)
        if extra > 0:
            grad64 = grad64.sum(axis=tuple(range(keep, keep + extra)))
        axes = tuple(i for i, n in enumerate(shape)
                     if i >= keep and n == 1 and grad64.shape[i] != 1)
        if axes:
            grad64 = grad64.sum(axis=axes, keepdims=True)
        out = grad64.astype(np.float32).reshape(shape)
    if keep and out.ndim == t.ndim:  # put back t's size-1 spanning axis
        return out.reshape(grad.shape[:1] + t.shape)
    return out


def _topo_order(output: Tensor) -> list[Tensor]:
    """Every recorded tensor ``output`` depends on, inputs before consumers.

    Iterative postorder DFS; a cycle (impossible by construction, checked
    anyway) raises GraphError.
    """
    order: list[Tensor] = []
    state: dict[int, int] = {}  # id -> 1 visiting, 2 done
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        t, expanded = stack.pop()
        tid = id(t)
        if expanded:
            state[tid] = 2
            order.append(t)
            continue
        st = state.get(tid)
        if st == 2:
            continue
        if st == 1:
            raise GraphError(f"cycle through op '{t.node.op}'")
        state[tid] = 1
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if inp.node is not None and state.get(id(inp)) != 2:
                    stack.append((inp, False))
    return order


def backward(loss: Tensor, per_example: Sequence[Tensor] | None = None):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every requiring leaf.

    ``loss`` must be scalar. Each node is visited exactly once; cotangents of
    interior tensors are dropped once consumed. Grads add onto whatever is
    already in ``.grad``, so callers zero leaves between backward passes.

    Per-example mode: when ``loss`` sums one term per example of a batch of
    N and ``per_example`` lists leaves without the example axis, the pass
    writes no ``.grad``. It returns one ``[N, *leaf.shape]`` float32 array
    per listed leaf, whose slice i is the gradient of example i's term, or
    None where the loss does not reach the leaf. Tensors that lead to no
    listed leaf count as frozen for the pass, so nothing else is computed.
    A cotangent reduced onto a tensor without the example axis keeps the
    axis instead of summing it away; the arithmetic per example is that of
    a batch-1 pass. Ops must not mix examples (slice i of an output depends
    on slice i of its inputs with the example axis only); an op that cannot
    keep the axis for an input raises ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if per_example is not None:
        return _backward_per_example(loss, tuple(per_example))
    if loss.node is None:
        if loss.requires_grad:
            seed = np.ones(loss.shape, dtype=np.float32)
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return None
    _replay(loss, _topo_order(loss))
    return None


def _replay(loss: Tensor, order: list[Tensor]) -> dict[int, np.ndarray]:
    """Run every pullback once, consumers before their inputs.

    Leaf cotangents add onto ``.grad``, except in a per-example pass, where
    they stay in the returned dict (keyed by id) and each cotangent's shape
    is checked against its input's example axis.
    """
    cotangents: dict[int, np.ndarray] = {
        id(loss): np.ones(loss.shape, dtype=np.float32)
    }
    per_example = _per_example
    for t in reversed(order):
        g = cotangents.pop(id(t), None)
        if g is None:
            continue
        for inp, gi in zip(t.node.inputs, t.node.pullback(g)):
            if gi is None or not inp.requires_grad:
                continue
            if per_example:
                lead = 0 if inp.example_axis else 1
                if gi.ndim != inp.ndim + lead or gi.shape[lead:] != inp.shape:
                    raise ContractError(
                        f"'{t.node.op}' cannot keep the example axis in the "
                        f"cotangent of an input of shape {inp.shape}")
            elif inp.node is None:
                inp.grad = gi if inp.grad is None else inp.grad + gi
                continue
            acc = cotangents.get(id(inp))
            cotangents[id(inp)] = gi if acc is None else acc + gi
    return cotangents


def _backward_per_example(loss: Tensor, leaves: tuple[Tensor, ...]) -> list:
    global _per_example
    if not loss.example_axis:
        raise ContractError("a per-example backward needs a loss over "
                            "examples; no tensor it depends on carries the "
                            "example axis")
    if any(t.node is not None or t.example_axis for t in leaves):
        raise ContractError("per-example gradients are taken for leaves "
                            "without the example axis")
    if loss.node is None:
        return [None] * len(leaves)
    order = _topo_order(loss)
    needed = {id(t) for t in leaves}
    for t in order:
        if any(id(i) in needed for i in t.node.inputs):
            needed.add(id(t))
    tape = {id(i): i for t in order for i in t.node.inputs}
    tape.update((id(t), t) for t in order)
    # pullbacks skip inputs that do not require grad: hide the rest
    hidden = [t for k, t in tape.items() if t.requires_grad and k not in needed]
    for t in hidden:
        t.requires_grad = False
    _per_example = True
    try:
        cotangents = _replay(loss, order)
    finally:
        _per_example = False
        for t in hidden:
            t.requires_grad = True
    return [cotangents.get(id(t)) for t in leaves]


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting; float64 accumulation."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a64 = a.data.astype(np.float64)
    b64 = b.data.astype(np.float64)
    out = np.matmul(a64, b64).astype(np.float32)
    # each float64 operand copy is held only for the cotangent that uses it
    held_a = a64 if b.requires_grad else None
    held_b = b64 if a.requires_grad else None

    def pull(g: np.ndarray):
        g64 = g.astype(np.float64)
        ga = gb = None
        if a.requires_grad:
            bt = held_b if held_b is not None else b.data.astype(np.float64)
            ga = _sum_to(np.matmul(g64, np.swapaxes(bt, -1, -2)), a)
        if b.requires_grad:
            at = held_a if held_a is not None else a.data.astype(np.float64)
            if _per_example and a.ndim == 2 and a.example_axis \
                    and not b.example_axis:
                # rows of a are examples: one outer product per example
                gb = _sum_to(at[:, :, None] * g64[:, None, :], b)
            else:
                gb = _sum_to(np.matmul(np.swapaxes(at, -1, -2), g64), b)
        return ga, gb

    return _record("matmul", out, (a, b), pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def pull(g: np.ndarray):
        ga = _sum_to(g, a) if a.requires_grad else None
        gb = _sum_to(g, b) if b.requires_grad else None
        if gb is not None and gb is ga:
            gb = gb.copy()  # two leaves must not share one .grad array
        return ga, gb

    return _record("add", out, (a, b), pull)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def pull(g: np.ndarray):
        return (_sum_to(g, a) if a.requires_grad else None,
                _sum_to(-g, b) if b.requires_grad else None)

    return _record("subtract", out, (a, b), pull)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting (also the masking primitive:
    multiplying by a 0/1 array zeroes masked entries exactly and leaves kept
    entries bitwise unchanged, since x * 1.0 == x in IEEE arithmetic)."""
    out = a.data * b.data

    def pull(g: np.ndarray):
        g64 = g.astype(np.float64)
        ga = _sum_to(g64 * b.data, a) if a.requires_grad else None
        gb = _sum_to(g64 * a.data, b) if b.requires_grad else None
        return ga, gb

    return _record("hadamard", out, (a, b), pull)


def scale(a: Tensor, s: float) -> Tensor:
    s32 = np.float32(s)
    out = a.data * s32

    def pull(g: np.ndarray):
        return (g * s32,)

    return _record("scale", out, (a,), pull)


def divide(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def pull(g: np.ndarray):
        g64 = g.astype(np.float64)
        b64 = b.data.astype(np.float64)
        ga = gb = None
        if a.requires_grad:
            ga = _sum_to(g64 / b64, a)
        if b.requires_grad:
            gb = _sum_to(-g64 * a.data.astype(np.float64) / (b64 * b64), b)
        return ga, gb

    return _record("divide", out, (a, b), pull)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def pull(g: np.ndarray):
        return (g * out,)

    return _record("exp", out, (a,), pull)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, np.float32(0))

    def pull(g: np.ndarray):
        return (g * (a.data > 0),)

    return _record("relu", out, (a,), pull)


def sigmoid(a: Tensor) -> Tensor:
    x64 = a.data.astype(np.float64)
    y64 = np.where(x64 >= 0, 1.0 / (1.0 + np.exp(-x64)),
                   np.exp(x64) / (1.0 + np.exp(x64)))
    out = y64.astype(np.float32)

    def pull(g: np.ndarray):
        return ((g.astype(np.float64) * y64 * (1.0 - y64)).astype(np.float32),)

    return _record("sigmoid", out, (a,), pull)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed shift-stably in float64."""
    x64 = a.data.astype(np.float64)
    shifted = x64 - x64.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y64 = e / e.sum(axis=-1, keepdims=True)
    out = y64.astype(np.float32)

    def pull(g: np.ndarray):
        g64 = g.astype(np.float64)
        inner = (g64 * y64).sum(axis=-1, keepdims=True)
        return ((y64 * (g64 - inner)).astype(np.float32),)

    return _record("softmax", out, (a,), pull)


def log_softmax_nll(logits: Tensor, labels, reduction: str = "mean") -> Tensor:
    """Fused log-softmax + negative log likelihood of integer labels.

    ``logits`` is [N, C]; ``labels`` an int array of shape [N]. Returns a
    scalar (mean or sum over the batch).
    """
    if reduction not in ("mean", "sum"):
        raise ContractError(f"unknown reduction '{reduction}'")
    if logits.ndim != 2:
        raise ShapeError(f"log_softmax_nll expects [N, C] logits, got {logits.shape}")
    y = np.asarray(labels)
    if y.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels shape {y.shape} does not match batch {logits.shape[0]}")
    n, c = logits.shape
    if y.min() < 0 or y.max() >= c:
        raise ContractError(f"labels must lie in [0, {c}), got range "
                            f"[{int(y.min())}, {int(y.max())}]")
    x64 = logits.data.astype(np.float64)
    shifted = x64 - x64.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    picked = logp[np.arange(n), y]
    total = -picked.sum()
    denom = float(n) if reduction == "mean" else 1.0
    out = np.float32(total / denom)

    def pull(g: np.ndarray):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        gs = float(g.reshape(())) / denom
        return ((p * gs).astype(np.float32),)

    return _record("log_softmax_nll", np.asarray(out), (logits,), pull)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} "
                         f"do not match feature dim {d}")
    x64 = x.data.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x64 - mu) * inv
    g64 = gamma.data.astype(np.float64)
    out = (g64 * xhat + beta.data.astype(np.float64)).astype(np.float32)

    def pull(g: np.ndarray):
        go = g.astype(np.float64)
        lead = tuple(range(go.ndim - 1))
        dx = dgamma = dbeta = None
        if x.requires_grad:
            dxhat = go * g64
            dx = (inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                         - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
                  ).astype(np.float32)
        if gamma.requires_grad:
            dgamma = (go * xhat).sum(axis=lead).astype(np.float32)
        if beta.requires_grad:
            dbeta = go.sum(axis=lead).astype(np.float32)
        return dx, dgamma, dbeta

    return _record("layer_norm", out, (x, gamma, beta), pull)


def column_l2_norm(w: Tensor) -> Tensor:
    """Column-wise Euclidean norm of a [d, k] matrix, shape [1, k]."""
    if w.ndim != 2:
        raise ShapeError(f"column_l2_norm expects a matrix, got {w.shape}")
    w64 = w.data.astype(np.float64)
    y64 = np.sqrt((w64 * w64).sum(axis=0, keepdims=True))
    out = y64.astype(np.float32)

    def pull(g: np.ndarray):
        if np.any(y64 == 0.0):
            col = int(np.argmax(y64[0] == 0.0))
            raise NumericError(f"column_l2_norm grad undefined: column {col} "
                               f"has zero norm")
        return ((g.astype(np.float64) * w64 / y64).astype(np.float32),)

    return _record("column_l2_norm", out, (w,), pull)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractError("concat of an empty sequence")
    parts = tuple(tensors)
    out = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.shape[axis] for t in parts]
    splits = np.cumsum(sizes)[:-1]

    marked = any(t.example_axis for t in parts)

    def pull(g: np.ndarray):
        ax = axis if marked else _shift(axis, _lead(g, parts[0]))
        return tuple(np.ascontiguousarray(piece) if t.requires_grad else None
                     for t, piece in zip(parts, np.split(g, splits, axis=ax)))

    return _record("concat", out, parts, pull)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])

    def pull(g: np.ndarray):
        lead = _lead(g, a)
        full = np.zeros(lead + a.shape, dtype=np.float32)
        full[(slice(None),) * len(lead) + idx] = g
        return (full,)

    return _record("slice_axis", out, (a,), pull)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def pull(g: np.ndarray):
        return (g.reshape(_lead(g, a) + a.shape),)

    return _record("reshape", out, (a,), pull)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes; default swaps the last two."""
    if axes is None:
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inverse = np.argsort(axes)

    def pull(g: np.ndarray):
        k = len(_lead(g, a))
        perm = tuple(range(k)) + tuple(int(i) + k for i in inverse)
        return (np.ascontiguousarray(np.transpose(g, perm)),)

    return _record("transpose", out, (a,), pull)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: out[..., :] = table[ids[...], :]."""
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("embedding ids must be integers")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ContractError(f"embedding ids out of range [0, {table.shape[0]})")
    out = table.data[idx]

    def pull(g: np.ndarray):
        acc = np.zeros(table.shape, dtype=np.float64)
        np.add.at(acc, idx, g.astype(np.float64))
        return (acc.astype(np.float32),)

    rows = _record("embedding", out, (table,), pull)
    rows.example_axis = True  # one example per row of ids
    return rows


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = np.ascontiguousarray(np.broadcast_to(a.data, shape))

    def pull(g: np.ndarray):
        return (_sum_to(g, a),)

    return _record("broadcast_to", out, (a,), pull)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out = a.data.astype(np.float64).sum(axis=axis, keepdims=keepdims)

    def pull(g: np.ndarray):
        lead = _lead(g, a)
        gg = g if keepdims else np.expand_dims(g, _shift(axis, lead))
        return (np.broadcast_to(gg, lead + a.shape).astype(np.float32).copy(),)

    return _record("sum_axis", out.astype(np.float32), (a,), pull)


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.shape[axis]
    out = a.data.astype(np.float64).sum(axis=axis, keepdims=keepdims) / n

    def pull(g: np.ndarray):
        lead = _lead(g, a)
        gg = g if keepdims else np.expand_dims(g, _shift(axis, lead))
        return ((np.broadcast_to(gg, lead + a.shape) / np.float32(n))
                .astype(np.float32),)

    return _record("mean_axis", out.astype(np.float32), (a,), pull)


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_grad(f: Callable[[Tensor], float], w: Tensor,
                     step: float = 1e-3) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``w``.

    ``f`` receives a fresh non-grad Tensor per evaluation and must be
    deterministic. The result is float32, matching ``backward`` outputs.
    """
    base = w.data.ravel()
    grad = np.empty(base.size, dtype=np.float64)
    for i in range(base.size):
        plus = base.copy()
        plus[i] = np.float32(plus[i] + step)
        minus = base.copy()
        minus[i] = np.float32(minus[i] - step)
        f_plus = float(f(Tensor(plus.reshape(w.shape))))
        f_minus = float(f(Tensor(minus.reshape(w.shape))))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"finite_diff_grad: non-finite objective at "
                               f"coordinate {i}")
        h = float(plus[i]) - float(minus[i])
        grad[i] = (f_plus - f_minus) / h
    return Tensor(grad.reshape(w.shape))
