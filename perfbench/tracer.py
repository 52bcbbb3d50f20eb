"""Outside-in tracing of peftlab's layers.

A :class:`Tracer` owns one wrapper per traced public function. ``installed()``
swaps each wrapper in at every module attribute (and class attribute) bound
to the original, so names imported with ``from x import f`` are covered too,
and swaps the originals back on exit. Nothing in ``src/`` knows about it.

Each wrapper records a span: name, start, end, parent span and operation id.
Spans live in flat in-memory arrays (integer nanoseconds) and are analysed
or written out only after the measured loop ends. Tensor primitives also
wrap the pullback of the node they return, which gives per-op pullback
spans and the cotangent bytes each pullback computes versus the bytes
``backward`` consumes (cotangents for inputs that require a gradient).
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Every primitive the workloads reach. column_l2_norm (DoRA only) stays in
# the list so a workload that adds DoRA is covered.
TENSOR_OPS = (
    "matmul", "add", "subtract", "hadamard", "scale", "divide", "exp", "relu",
    "sigmoid", "softmax", "log_softmax_nll", "layer_norm", "column_l2_norm",
    "concat", "slice_axis", "reshape", "transpose", "embedding",
    "broadcast_to", "sum_axis", "mean_axis",
)


def _count_forward(counters, args, kwargs, result):
    counters["model.forward.examples"] += len(args[1])


def _count_flat_out(counters, args, kwargs, result):
    counters["peft.flatview.bytes"] += result.nbytes


def _count_flat_in(counters, args, kwargs, result):
    counters["peft.flatview.bytes"] += 4 * args[0].length


def _count_step(counters, args, kwargs, result):
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    if mask is not None:
        counters["optim.step.active"] += mask.k
        counters["optim.step.length"] += len(mask)


def _count_samples(counters, args, kwargs, result):
    counters["fisher.samples"] += result.num_samples


def _count_write(counters, args, kwargs, result):
    counters["checkpoint.write.bytes"] += len(args[1])


def _count_cell(counters, args, kwargs, result):
    shared = args[1] if len(args) > 1 else kwargs.get("shared_scores")
    if shared is not None:
        counters["experiment.cells_with_scores"] += 1


# (module, attribute, span name, counter) for every traced function that is
# not a tensor primitive.
_FUNCTIONS = (
    ("tensor", "backward", "tensor.backward", None),
    ("model", "forward", "model.forward", _count_forward),
    ("optim", "step", "optim.step", _count_step),
    ("optim", "evaluate", "optim.evaluate", None),
    ("optim", "train", "optim.train", None),
    ("fisher", "estimate_fisher", "fisher.estimate", _count_samples),
    ("fisher", "select", "fisher.select", None),
    ("fisher", "mask_gradients", "fisher.mask_gradients", None),
    ("tasks", "generate_task", "tasks.generate", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", None),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("checkpoint", "atomic_write_bytes", "checkpoint.write", _count_write),
    ("experiment", "run_experiment", "experiment.cell", _count_cell),
    ("config", "from_json", "config.load", None),
    ("cli", "cli", "cli", None),
)

_COUNTERS = ("model.forward.examples", "peft.flatview.bytes",
             "optim.step.active", "optim.step.length", "fisher.samples",
             "checkpoint.write.bytes", "experiment.cells_with_scores")

_METHODS = (
    ("to_vector", "peft.gather", _count_flat_out),
    ("grad_vector", "peft.gather", _count_flat_out),
    ("set_vector", "peft.scatter", _count_flat_in),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        import peftlab
        from peftlab import peft

        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = -1
        self.counters: dict[str, float] = dict.fromkeys(_COUNTERS, 0)
        # op -> [bytes computed, bytes consumed]
        self.cotangents: dict[str, list[int]] = {}

        modules = [m for n, m in sys.modules.items()
                   if n == "peftlab" or n.startswith("peftlab.")]
        self._bindings: list[tuple[object, str, object, object]] = []

        def bind_everywhere(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

        tensor = peftlab.tensor
        for op in TENSOR_OPS:
            original = getattr(tensor, op, None)
            if original is not None:
                bind_everywhere(original, self._primitive(op, original))
        for mod_name, attr, span, count in _FUNCTIONS:
            original = getattr(getattr(peftlab, mod_name), attr)
            bind_everywhere(original, self._wrap(span, original, count))
        for attr, span, count in _METHODS:
            original = vars(peft.ThetaTilde)[attr]
            self._bindings.append((peft.ThetaTilde, attr, original,
                                   self._wrap(span, original, count)))

    # -- recording ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, count=None):
        nid = self._intern(name)
        names, parents, ops = self.name_id, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        counters = self.counters
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer._op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _primitive(self, op, fn):
        fwd = self._wrap(f"tensor.fwd.{op}", fn)
        make_pull = self._pullback_factory(op)

        def wrapper(*args, **kwargs):
            out = fwd(*args, **kwargs)
            node = out.node
            if node is not None:
                node.pullback = make_pull(node.pullback, node.inputs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _pullback_factory(self, op):
        acc = self.cotangents.setdefault(op, [0, 0])
        span = self._wrap(f"tensor.pull.{op}", lambda pull, g: pull(g))

        def make(pull, inputs):
            def traced_pullback(g):
                grads = span(pull, g)
                for gi, inp in zip(grads, inputs):
                    if gi is not None:
                        acc[0] += gi.nbytes
                        if inp.requires_grad:
                            acc[1] += gi.nbytes
                return grads
            return traced_pullback

        return make

    @contextmanager
    def installed(self, op_id: int):
        """Trace every call made inside the block as part of operation op_id."""
        self._op = op_id
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._bindings):
                setattr(owner, attr, original)
            self._op = -1

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# analysis


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and their union is taken, so
    overlapping children are not subtracted twice. ``parent`` holds -1 for
    root spans. Integer inputs keep the arithmetic exact.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return dur.copy()
    p = parent[child]
    s = np.maximum(start[child], start[p])
    e = np.maximum(np.minimum(end[child], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    first = np.r_[True, p[1:] != p[:-1]]
    # Shift each parent's group onto its own stretch of the time line so one
    # running maximum serves all groups without crossing between them.
    width = int(end.max() - start.min()) + 1
    shift = (np.cumsum(first) - 1) * width - int(start.min())
    s, e = s + shift, e + shift
    reach = np.maximum.accumulate(e)
    prev = np.r_[np.iinfo(np.int64).min, reach[:-1]]
    prev[first] = np.iinfo(np.int64).min
    covered = np.maximum(0, e - np.maximum(s, prev))
    return dur - np.bincount(p, weights=covered, minlength=len(dur)).astype(np.int64)


def _inside(starts, kind_start, kind_end) -> np.ndarray:
    """Which spans start inside one of the (non-nested) spans of a kind."""
    if kind_start.size == 0:
        return np.zeros(starts.shape, dtype=bool)
    order = np.argsort(kind_start)
    ks, ke = kind_start[order], kind_end[order]
    idx = np.searchsorted(ks, starts, side="right") - 1
    ok = idx >= 0
    out = np.zeros(starts.shape, dtype=bool)
    out[ok] = starts[ok] < ke[idx[ok]]
    return out


def layer_metrics(tracer: Tracer, num_ops: int) -> dict[str, float]:
    """Per-layer metrics per traced operation (times in seconds)."""
    a = tracer.arrays()
    nid, start, end = a["name_id"], a["start_ns"], a["end_ns"]
    dur = end - start
    own = self_times(start, end, a["parent"])
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    k = len(names)
    total = np.bincount(nid, weights=dur, minlength=k) if nid.size else np.zeros(k)
    selft = np.bincount(nid, weights=own, minlength=k) if nid.size else np.zeros(k)
    calls = np.bincount(nid, minlength=k) if nid.size else np.zeros(k)
    ops = max(num_ops, 1)

    def secs(*span_names, which=total):
        return float(sum(which[ids[n]] for n in span_names if n in ids)) / 1e9 / ops

    def count(*span_names):
        return float(sum(calls[ids[n]] for n in span_names if n in ids)) / ops

    def mask_of(name):
        return nid == ids[name] if name in ids else np.zeros(nid.shape, bool)

    c = tracer.counters
    m: dict[str, float] = {}
    for op in TENSOR_OPS:
        m[f"tensor.fwd.{op}.s"] = secs(f"tensor.fwd.{op}")
        m[f"tensor.pull.{op}.s"] = secs(f"tensor.pull.{op}")
    m["tensor.fwd.calls"] = count(*(f"tensor.fwd.{op}" for op in TENSOR_OPS))
    m["tensor.pull.calls"] = count(*(f"tensor.pull.{op}" for op in TENSOR_OPS))
    m["tensor.backward.calls"] = count("tensor.backward")
    m["tensor.backward.s"] = secs("tensor.backward")
    m["tensor.backward.self_s"] = secs("tensor.backward", which=selft)
    computed = sum(v[0] for v in tracer.cotangents.values())
    used = sum(v[1] for v in tracer.cotangents.values())
    mm = tracer.cotangents.get("matmul", [0, 0])
    m["tensor.pull.cotangent_bytes"] = computed / ops
    m["tensor.pull.cotangent_bytes_used"] = used / ops
    m["tensor.pull.cotangent_yield"] = used / computed if computed else 0.0
    m["tensor.pull.matmul.cotangent_yield"] = mm[1] / mm[0] if mm[0] else 0.0

    m["model.forward.s"] = secs("model.forward")
    m["model.forward.calls"] = count("model.forward")
    m["model.forward.examples"] = c["model.forward.examples"] / ops

    est = mask_of("fisher.estimate")
    backward = mask_of("tensor.backward")
    in_estimate = _inside(start[backward], start[est], end[est])
    m["fisher.estimate.s"] = secs("fisher.estimate")
    m["fisher.samples"] = c["fisher.samples"] / ops
    m["fisher.backward.calls"] = float(in_estimate.sum()) / ops
    m["fisher.select.s"] = secs("fisher.select")
    m["fisher.mask_gradients.s"] = secs("fisher.mask_gradients")

    m["peft.gather.s"] = secs("peft.gather")
    m["peft.scatter.s"] = secs("peft.scatter")
    m["peft.flatview.bytes"] = c["peft.flatview.bytes"] / ops
    m["peft.flatview.calls"] = count("peft.gather", "peft.scatter")

    m["optim.train.s"] = secs("optim.train")
    m["optim.step.s"] = secs("optim.step")
    m["optim.step.calls"] = count("optim.step")
    length = c["optim.step.length"]
    m["optim.step.coord_yield"] = c["optim.step.active"] / length if length else 0.0
    m["optim.evaluate.s"] = secs("optim.evaluate")
    m["optim.evaluate.calls"] = count("optim.evaluate")

    m["tasks.generate.s"] = secs("tasks.generate")
    m["config.load.s"] = secs("config.load")
    m["cli.self_s"] = secs("cli", which=selft)

    m["checkpoint.save.s"] = secs("checkpoint.save")
    m["checkpoint.load.s"] = secs("checkpoint.load")
    m["checkpoint.write.s"] = secs("checkpoint.write")
    m["checkpoint.write.bytes"] = c["checkpoint.write.bytes"] / ops
    m["checkpoint.write.calls"] = count("checkpoint.write")

    m["experiment.cell.s"] = secs("experiment.cell")
    m["experiment.cells"] = count("experiment.cell")
    estimates = calls[ids["fisher.estimate"]] if "fisher.estimate" in ids else 0
    m["experiment.score_reuse"] = (c["experiment.cells_with_scores"] / estimates
                                   if estimates else 0.0)
    return m


def training_baseline(tracer: Tracer) -> dict[str, float]:
    """ROADMAP baseline quantities visible in a traced training run.

    A training step is a forward span inside ``optim.train`` but outside
    ``optim.evaluate``, paired with the next backward span; its forward plus
    backward time runs from the forward's start to that backward's end.
    """
    a = tracer.arrays()
    nid, start, end = a["name_id"], a["start_ns"], a["end_ns"]
    ids = {n: i for i, n in enumerate(tracer.names)}

    def spans(name):
        sel = nid == ids[name] if name in ids else np.zeros(nid.shape, bool)
        return start[sel], end[sel]

    t_s, t_e = spans("optim.train")
    if t_s.size == 0:
        return {}
    e_s, e_e = spans("optim.evaluate")
    f_s, f_e = spans("model.forward")
    b_s, b_e = spans("tensor.backward")
    p_s, p_e = spans("tensor.pull.matmul")
    step = _inside(f_s, t_s, t_e) & ~_inside(f_s, e_s, e_e)
    f_s, f_e = f_s[step], f_e[step]
    nxt = np.searchsorted(b_s, f_s)
    ok = nxt < b_s.size
    fwd_bwd = b_e[nxt[ok]] - f_s[ok]
    matmul_pull = (p_e - p_s)[_inside(p_s, t_s, t_e)].sum()
    return {
        "fwd_batch32_ms": float(np.median(f_e - f_s)) / 1e6 if f_s.size else 0.0,
        "fwd_bwd_batch32_ms": float(np.median(fwd_bwd)) / 1e6 if fwd_bwd.size else 0.0,
        "eval_pass_ms": float(np.median(e_e - e_s)) / 1e6 if e_s.size else 0.0,
        "matmul_pull_share": float(matmul_pull) / float((t_e - t_s).sum()),
    }
