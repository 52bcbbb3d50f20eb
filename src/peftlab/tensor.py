"""Reverse-mode autodiff over numpy arrays.

Storage is float32 throughout; matrix products and reductions accumulate in
float64 and round back to float32, so results are reproducible bit for bit on
a given platform (numpy's kernels fix the summation order). The graph is
define-by-run: every op that touches a grad-requiring tensor records a node,
and ``backward`` replays the tape once in reverse topological order. A leaf
that has a ``.grad`` array adds into it in place; a flat view's leaves do.

Pullbacks compute a cotangent only for the inputs whose ``requires_grad`` is
true when ``backward`` runs, and return ``None`` for the others, so a frozen
weight costs no ``x^T g`` product. The cotangents that are computed do the
same arithmetic whichever inputs are frozen, so they keep their bits.

A tensor whose ``example_axis`` is set holds one example per index of axis 0,
and slice i reaches the loss only through example i. ``embedding`` sets it on
its output and every op passes it on to its output, so the forward pass
records which tensors carry examples. ``backward(loss, per_example=leaves)``
uses the record to return each leaf's gradient per example; see there.
Per-example code lives only where an input without the example axis meets
an output with it: in ``_sum_to`` and in ``_product``, the product that
``matmul`` and ``linear`` share. Other pullbacks have none.

Importing this module sets glibc's heap policy for the whole process (see
``_keep_freed_memory_mapped``). ``backward`` frees the tape as it goes, so
each training step frees megabytes of float32 arrays. Under glibc's default
policy the heap top goes back to the kernel and the next forward pass
faults every page in again; how many faults a step pays then depends on
what the process freed before. Fixed thresholds keep the freed memory
mapped for the next step. No arithmetic depends on it.

A single graph must stay on one thread. ``no_grad`` and a per-example
``backward`` switch process-wide state while they run, so no other graph
may record or run backward concurrently with them. Tensors with
``requires_grad=False`` never enter the tape.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, GraphError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "frozen",
    "backward",
    "matmul",
    "linear",
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

# glibc's mallopt parameter numbers (malloc.h) and the values set for them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's maximum on 64-bit platforms
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_memory_mapped() -> None:
    """Fix glibc's heap thresholds for the whole process.

    glibc serves blocks above ``M_MMAP_THRESHOLD`` (128 KiB at start) with
    their own mmap, unmapped on free, and returns the heap top to the kernel
    once more than ``M_TRIM_THRESHOLD`` of it is free. Both thresholds grow
    only after the process frees a large mmapped block, so a process that
    only trains keeps faulting its tape in, step after step. Fixing them
    here keeps every step's arrays on the heap and that heap mapped. Where
    the C library has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_memory_mapped()

_grad_enabled = True
# True while a per-example backward runs the pullback of a node with the
# example axis: cotangents for inputs without it keep a leading example axis.
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


@contextmanager
def frozen(tensors: Iterable[Tensor]):
    """Context manager under which none of ``tensors`` requires grad. On
    exit, whether the block returns or raises, it turns back on only the
    flags it turned off: a tensor frozen before the block stays frozen."""
    turned = [t for t in tensors if t.requires_grad]
    for t in turned:
        t.requires_grad = False
    try:
        yield
    finally:
        for t in turned:
            t.requires_grad = True


class Tensor:
    """A float32 array plus an optional gradient and tape node.

    ``grad`` is populated only on leaves (tensors the user created with
    ``requires_grad=True``); intermediate gradients are released as soon as
    backward consumes them. A leaf with a ``grad`` adds into it in place;
    a leaf a flat view holds always has one, a segment of the view's
    gradient buffer (see ``peft.ThetaTilde``). ``example_axis`` marks axis 0
    as the example axis (see the module docstring); ``replayed``, a tensor
    whose node backward has run and dropped.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "example_axis",
                 "replayed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _Node | None = None
        self.example_axis = False
        self.replayed = False

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


def _sum_to(grad: np.ndarray, t: Tensor) -> np.ndarray:
    """Undo numpy broadcasting: sum input ``t``'s share of a cotangent down
    to ``t.shape`` in float64.

    The boundary of a per-example backward: when an input without the
    example axis meets an output with it, ``grad``'s axis 0 is the example
    axis and is kept, so ``t`` gets ``[N, *t.shape]``. Such an input must
    have fewer axes than the output (numpy prepends the example axis); one
    that spans it raises ContractError.

    With nothing to reduce, a float32 ``grad`` is returned as is (the float64
    round trip would be exact), so a pullback that hands one cotangent to two
    inputs this way must copy one of them.
    """
    shape = t.shape
    keep = 0
    if _per_example and not t.example_axis:
        if len(shape) == grad.ndim:
            raise ContractError(f"an input of shape {shape} without the "
                                f"example axis spans it")
        keep = 1
        shape = grad.shape[:1] + shape
    if grad.shape == shape:
        return grad if grad.dtype == np.float32 else grad.astype(np.float32)
    grad64 = np.asarray(grad, dtype=np.float64)
    extra = grad64.ndim - len(shape)
    if extra > 0:
        grad64 = grad64.sum(axis=tuple(range(keep, keep + extra)))
    axes = tuple(i for i, n in enumerate(shape)
                 if i >= keep and n == 1 and grad64.shape[i] != 1)
    if axes:
        grad64 = grad64.sum(axis=axes, keepdims=True)
    return grad64.astype(np.float32).reshape(shape)


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
                elif inp.replayed:
                    raise GraphError(f"'{t.node.op}' input already replayed")
    return order


def backward(loss: Tensor, per_example: Sequence[Tensor] | None = None):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every requiring leaf.

    ``loss`` must be scalar. Each node is visited exactly once; cotangents of
    interior tensors are dropped once consumed. Grads add in place onto
    whatever array is already in ``.grad`` (a leaf without one takes its
    first cotangent), so callers zero leaves between backward passes.
    A graph is replayed once: the pass drops every node it reaches (``node``
    becomes None), so a tensor held afterwards, such as the loss, keeps none
    of the tape alive. It marks those tensors ``replayed``, and a later pass
    that reaches one raises GraphError.

    Per-example mode: when ``loss`` sums one term per example of a batch of
    N and ``per_example`` lists leaves without the example axis, the pass
    writes no ``.grad``. It returns one ``[N, *leaf.shape]`` float32 array
    per listed leaf, whose slice i is the gradient of example i's term, or
    None where the loss does not reach the leaf. Tensors that lead to no
    listed leaf count as frozen for the pass, so nothing else is computed.
    Where an input without the example axis meets an output with it, its
    cotangent keeps the axis instead of summing it away. A node whose output
    lacks the axis depends on parameters alone: its ordinary pullback runs
    once per example, on that example's slice of the cotangent, so the
    arithmetic per example is that of a batch-1 pass. Ops must not mix
    examples (slice i of an output depends on slice i of its inputs with the
    example axis only); an op that cannot keep the axis for an input raises
    ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.replayed:
        raise GraphError("backward has already replayed this loss")
    if per_example is not None:
        return _backward_per_example(loss, tuple(per_example))
    if loss.node is None:
        if loss.requires_grad:
            _accumulate(loss, np.ones(loss.shape, dtype=np.float32))
        return None
    _replay(loss, _topo_order(loss))
    return None


def _accumulate(leaf: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``leaf.grad`` in place, or make it the grad if none."""
    if leaf.grad is None:
        leaf.grad = g
    else:
        leaf.grad += g


def _replay(loss: Tensor, order: list[Tensor]) -> dict[int, np.ndarray]:
    """Run every pullback once, consumers before their inputs, and drop
    each node from the tape as it is reached.

    Leaf cotangents add onto ``.grad``, except in a per-example pass, where
    they stay in the returned dict (keyed by id) and each cotangent's shape
    is checked against its input's example axis. There a node without the
    example axis gets ``[N, *shape]`` and runs its pullback on each slice
    with the flag off, as in a batch-1 pass; the results are stacked.
    """
    global _per_example
    cotangents: dict[int, np.ndarray] = {
        id(loss): np.ones(loss.shape, dtype=np.float32)
    }
    per_example = _per_example
    for t in reversed(order):
        node, t.node, t.replayed = t.node, None, True
        g = cotangents.pop(id(t), None)
        if g is None:
            continue
        if per_example and not t.example_axis:
            _per_example = False
            try:
                each = [node.pullback(gk) for gk in g]
            finally:
                _per_example = True
            grads = [None if gs[0] is None else np.array(gs)
                     for gs in zip(*each)]
        else:
            grads = node.pullback(g)
        for inp, gi in zip(node.inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            if per_example:
                lead = 0 if inp.example_axis else 1
                if gi.ndim != inp.ndim + lead or gi.shape[lead:] != inp.shape:
                    raise ContractError(
                        f"'{node.op}' cannot keep the example axis in the "
                        f"cotangent of an input of shape {inp.shape}")
            elif inp.node is None:
                _accumulate(inp, gi)
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
    with frozen(t for k, t in tape.items() if k not in needed):
        _per_example = True
        try:
            cotangents = _replay(loss, order)
        finally:
            _per_example = False
    return [cotangents.get(id(t)) for t in leaves]


# ---------------------------------------------------------------------------
# primitives


def _product(a: Tensor, b: Tensor, a64: np.ndarray | None = None):
    """``a @ b`` in float64, rounded to float32, and its pullback
    ``pull(g64, need_a)``: from the float64 output cotangent, ``g bᵀ`` if
    ``need_a`` and ``aᵀ g`` if ``b`` requires grad when it runs, else None.

    Each operand is cast once (``a64`` is the caller's cast of ``a``, shared
    between products). A copy is held only for the cotangent that uses it,
    as the flags stand now; one not held is recast from ``.data``. The
    per-example boundary of a product: when ``a``'s rows are the examples
    (2-D, with the example axis) and ``b`` has none, ``b`` gets one outer
    product per example instead of their sum.
    """
    a64 = a.data.astype(np.float64) if a64 is None else a64
    b64 = b.data.astype(np.float64)
    out = np.matmul(a64, b64).astype(np.float32)
    held_a = a64 if b.requires_grad else None
    held_b = b64 if a.requires_grad else None

    def pull(g64: np.ndarray, need_a: bool) -> tuple:
        ga = gb = None
        if need_a:
            bt = held_b if held_b is not None else b.data.astype(np.float64)
            ga = _sum_to(np.matmul(g64, np.swapaxes(bt, -1, -2)), a)
        if b.requires_grad:
            at = held_a if held_a is not None else a.data.astype(np.float64)
            if _per_example and a.ndim == 2 and a.example_axis \
                    and not b.example_axis:
                gb = _sum_to(at[:, :, None] * g64[:, None, :], b)
            else:
                gb = _sum_to(np.matmul(np.swapaxes(at, -1, -2), g64), b)
        return ga, gb

    return out, pull


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting; float64 accumulation."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out, pull = _product(a, b)
    return _record("matmul", out, (a, b),
                   lambda g: pull(g.astype(np.float64), a.requires_grad))


def linear(x: Tensor, w: Tensor, b: Tensor, B: Tensor | None = None,
           A: Tensor | None = None, scale: float = 1.0) -> Tensor:
    """A projection ``x @ w + b``, plus ``scale * ((x @ B) @ A)`` when a
    low-rank pair is given, recorded as one node.

    Forward and backward do the arithmetic of the op chain
    ``add(add(matmul(x, w), b), scale(matmul(matmul(x, B), A), scale))``
    (no ``scale`` at 1.0): the same float64 products, rounded to float32 at
    the same points and added in the same order, so the result is bitwise
    that of the chain. Each product is a ``_product``, all on one float64
    cast of ``x``, and the pullback composes theirs.

    With the pair, the node's inputs are ``(x, w, b, x, B, A)``: ``x``
    takes the ``w`` product's cotangent in the first slot and the low-rank
    path's in the fourth, so backward adds them onto ``x``'s running sum
    one after the other, as it did for the chain's two products.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs x [..., d] @ w [d, f], got {x.shape} "
                         f"@ {w.shape}")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias {b.shape} does not match w {w.shape}")
    if (B is None) != (A is None):
        raise ContractError("linear takes both factors of a low-rank pair "
                            "or neither")
    low_rank = B is not None
    if low_rank:
        r = B.shape[-1]
        if B.shape != (w.shape[0], r) or A.shape != (r, w.shape[1]):
            raise ShapeError(f"linear low-rank pair {B.shape} @ {A.shape} "
                             f"does not fit w {w.shape}")
    x64 = x.data.astype(np.float64)
    out, pull_w = _product(x, w, x64)
    out += b.data
    if low_rank:
        s32 = np.float32(scale)
        xB, pull_B = _product(x, B, x64)
        # x @ B, off the tape: flagged as x or B is, so A's copy is held for it
        u = Tensor(xB, requires_grad=x.requires_grad or B.requires_grad)
        u.example_axis = x.example_axis
        v, pull_A = _product(u, A)
        if scale != 1.0:
            v *= s32
        out += v

    def pull(g: np.ndarray):
        g64 = g.astype(np.float64)
        gx, gw = pull_w(g64, x.requires_grad)
        gb = _sum_to(g, b) if b.requires_grad else None
        if not low_rank:
            return gx, gw, gb
        gxB = gB = gA = None
        need_u = x.requires_grad or B.requires_grad
        if need_u or A.requires_grad:
            gv64 = (g * s32).astype(np.float64) if scale != 1.0 else g64
            gu, gA = pull_A(gv64, need_u)
            if gu is not None:
                gxB, gB = pull_B(gu.astype(np.float64), x.requires_grad)
        return gx, gw, gb, gxB, gB, gA

    inputs = (x, w, b, x, B, A) if low_rank else (x, w, b)
    return _record("linear", out, inputs, pull)


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

    def pull(g: np.ndarray):
        return tuple(np.ascontiguousarray(piece) if t.requires_grad else None
                     for t, piece in zip(parts, np.split(g, splits, axis=axis)))

    return _record("concat", out, parts, pull)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])

    def pull(g: np.ndarray):
        full = np.zeros(a.shape, dtype=np.float32)
        full[idx] = g
        return (full,)

    return _record("slice_axis", out, (a,), pull)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def pull(g: np.ndarray):
        return (g.reshape(a.shape),)

    return _record("reshape", out, (a,), pull)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes; default swaps the last two."""
    if axes is None:
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def pull(g: np.ndarray):
        return (np.ascontiguousarray(g.transpose(inverse)),)

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
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).astype(np.float32),)

    return _record("sum_axis", out.astype(np.float32), (a,), pull)


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.shape[axis]
    out = a.data.astype(np.float64).sum(axis=axis, keepdims=keepdims) / n

    def pull(g: np.ndarray):
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((np.broadcast_to(gg, a.shape) / np.float32(n))
                .astype(np.float32),)

    return _record("mean_axis", out.astype(np.float32), (a,), pull)

