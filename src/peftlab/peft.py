"""Parameter-efficient adapter modules and their flat parameter view.

Six methods share one contract: attach to a frozen base model, keep every
tensor they attach in one table keyed by (layer, group, part), expose the
trainable ones through :class:`ThetaTilde` (one float32 buffer that the
tensors are views into, in a deterministic order), and influence the
forward pass only via the model's three hook points: ``begin_layer``,
``project`` and ``prefix_kv``. The flat view is what scoring, masking, and
the optimizer operate on, so its ordering is part of the persistence
format: layer index ascending, then group name lexicographic, then the
method's part order (B before A before m; P_K before P_V), row-major within
a tensor.

UniPELT gates the lora, adapter and prefix modules it combines. The gating
lives in :class:`UniPeltModule` alone: its parts expose their ungated
contribution and know nothing of gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _schema as schema
from . import tensor as T
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .model import ForwardHooks, TransformerModel, _draw, _ones, _zeros
from .tensor import Tensor

METHODS = ("lora", "dora", "adapter", "prefix", "ia3", "unipelt")
TARGETABLE = ("W_Q", "W_K", "W_V", "W_O", "FFN")
UNIPELT_SUBMODULES = ("lora", "adapter", "prefix")

# prefix rows plus real positions must fit the attention position budget
POSITION_BUDGET = 4096


@dataclass(frozen=True)
class PeftConfig:
    """Which method to attach, where, and how to initialize it.

    ``target_layers`` counts from the top: 1 is the layer nearest the output.
    ``lora_alpha`` of None means alpha = 2 * rank; the resulting alpha/rank
    scaling applies to standard-init low-rank factors only (a spectral init
    must reproduce the base weight exactly, so it is left unscaled).
    ``init='pissa'`` (spectral residual init) is supported for lora.
    ``include_gates=False`` keeps UniPELT's gate weights out of the flat
    view, frozen at their initial draw.
    """

    method: str = schema.field("lora", among=METHODS)
    rank: int = schema.field(4, min=1)
    prefix_len: int = schema.field(30, min=1)
    target_weights: tuple[str, ...] = schema.field(("W_Q", "W_K", "W_V"),
                                                   among=TARGETABLE)
    target_layers: tuple[int, ...] = schema.field((1,), min=1)
    init: str = schema.field("standard", among=("standard", "pissa"))
    lora_alpha: float | None = schema.field(None, positive=True)
    unipelt_submodules: tuple[str, ...] = schema.field(
        UNIPELT_SUBMODULES, among=UNIPELT_SUBMODULES)
    include_gates: bool = True

    def __post_init__(self):
        schema.check(self)
        if self.init == "pissa" and self.method != "lora":
            raise ConfigError("init='pissa' is only supported with method='lora'")

    @property
    def alpha(self) -> float:
        return float(self.lora_alpha) if self.lora_alpha is not None \
            else 2.0 * self.rank


@dataclass(frozen=True)
class Segment:
    """Half-open slice [start, stop) of one tensor inside the flat view."""

    name: str
    start: int
    stop: int
    shape: tuple[int, ...]


class ThetaTilde:
    """Two contiguous float32 buffers, ``data`` and ``grad``, behind named
    trainable tensors.

    The constructor copies each tensor into its segment of ``data`` and
    rebinds the tensor's ``.data`` and ``.grad`` to views of its segments
    (``grad`` starts zeroed), so a write through a buffer and an in-place
    write to a tensor are the same write; ``backward`` adds into ``.grad``
    in place. Code in this package never rebinds ``.data`` or ``.grad`` on
    a tensor a view holds: that would cut the tensor loose from the buffer.
    ``to_vector`` returns a copy; ``set_vector(to_vector())`` is a bitwise
    no-op. ``grad_vector`` returns the live ``grad`` buffer.
    """

    def __init__(self, entries: list[tuple[str, Tensor]]):
        if not entries:
            raise ContractError("flat view over zero tensors")
        self.entries = list(entries)
        self.segments: list[Segment] = []
        offset = 0
        for name, t in self.entries:
            self.segments.append(Segment(name, offset, offset + t.size, t.shape))
            offset += t.size
        self.length = offset
        self.data = np.empty(offset, dtype=np.float32)
        self.grad = np.zeros(offset, dtype=np.float32)
        for seg, (_, t) in zip(self.segments, self.entries):
            view = self.data[seg.start:seg.stop]
            view[:] = t.data.ravel()
            t.data = view.reshape(seg.shape)
            t.grad = self.grad[seg.start:seg.stop].reshape(seg.shape)

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.entries]

    def to_vector(self) -> np.ndarray:
        return self.data.copy()

    def set_vector(self, vec: np.ndarray) -> None:
        v = np.asarray(vec, dtype=np.float32)
        if v.shape != (self.length,):
            raise ShapeError(f"vector of shape {v.shape} cannot fill a view "
                             f"of length {self.length}")
        self.data[:] = v

    def grad_vector(self) -> np.ndarray:
        return self.grad

    def zero_grads(self) -> None:
        self.grad.fill(0.0)


def pissa_init(w0: Tensor, rank: int) -> tuple[Tensor, Tensor, Tensor]:
    """Split a weight into a rank-r spectral pair plus residual.

    B = U_r sqrt(S_r), A = sqrt(S_r) V_r^T, W_res = W0 - B A, so
    W_res + B A reconstructs W0 (to float32 rounding) and B A carries the
    top-r spectrum of W0.
    """
    if w0.ndim != 2:
        raise ShapeError(f"pissa_init expects a matrix, got {w0.shape}")
    d, k = w0.shape
    if not 1 <= rank <= min(d, k):
        raise ConfigError(f"rank {rank} outside [1, {min(d, k)}] for "
                          f"shape {w0.shape}")
    w64 = w0.data.astype(np.float64)
    try:
        u, s, vt = np.linalg.svd(w64, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"SVD failed: {e}") from e
    root = np.sqrt(s[:rank])
    b64 = u[:, :rank] * root
    a64 = root[:, None] * vt[:rank]
    res64 = w64 - b64 @ a64
    return (Tensor(b64.astype(np.float32)), Tensor(a64.astype(np.float32)),
            Tensor(res64.astype(np.float32)))


# ---------------------------------------------------------------------------
# modules

_PART_ORDER = {"B": 0, "A": 1, "m": 2, "P_K": 0, "P_V": 1, "l": 0, "w": 0}


def _expand_targets(model: TransformerModel, cfg: PeftConfig) \
        -> list[tuple[int, str]]:
    """Resolve (top-counted layer, target name) pairs to absolute matrices."""
    layers = sorted(model.layer_from_top(t) for t in cfg.target_layers)
    pairs = []
    for li in layers:
        for w in cfg.target_weights:
            if w == "FFN":
                pairs.append((li, "FFN1"))
                pairs.append((li, "FFN2"))
            else:
                pairs.append((li, w))
    return pairs


class PeftModule(ForwardHooks):
    """Base class: one table of the tensors a module attaches.

    Subclasses pass one ``(layer, group, part, tensor)`` record per tensor
    they attach, trainable or frozen. ``params`` maps ``(layer, group,
    part)`` to each tensor in the canonical flat order (layer, group
    lexicographic, part order); the hooks look their tensors up there, and
    :func:`attach` gives the module a view of the ones that require grad,
    under segment names ``layer{n}/{group}/{part}``.

    Only the module that :func:`attach` hooks in gets a view. The parts a
    :class:`UniPeltModule` builds live in the composite's view, so
    ``theta_tilde()`` on a part raises ContractError.
    """

    method: str = "?"

    def __init__(self, cfg: PeftConfig,
                 records: list[tuple[int, str, str, Tensor]]):
        self.cfg = cfg
        self.params: dict[tuple[int, str, str], Tensor] = {
            (layer, group, part): t for layer, group, part, t in
            sorted(records, key=lambda r: (r[0], r[1], _PART_ORDER[r[2]]))}
        self._theta = None

    def theta_tilde(self) -> ThetaTilde:
        if self._theta is None:
            raise ContractError(f"this {self.method} module has no view of "
                                f"its own: only an attached module has one "
                                f"(a unipelt part lives in the unipelt "
                                f"module's view)")
        return self._theta

    def param_count(self) -> int:
        """Every adapter parameter attached, in the view or frozen."""
        return sum(t.size for t in self.params.values())

    def trainable_entries(self) -> list[tuple[str, Tensor]]:
        return list(self.theta_tilde().entries)


def _low_rank_records(model: TransformerModel, cfg: PeftConfig,
                      with_magnitude: bool):
    """Shared (B, A[, m]) construction for the low-rank methods.

    Returns the alpha/rank scale and the ``(layer, group, part, tensor)``
    records. A spectral init rewrites the targeted base weights to their
    residuals only once every target has been split, so a failed attach
    leaves the model as it was.
    """
    scale = cfg.alpha / cfg.rank if cfg.init == "standard" else 1.0
    rng = np.random.default_rng(model.cfg.seed + 1)
    records, residuals = [], []
    for li, name in _expand_targets(model, cfg):
        w0 = model.params[f"layer{li}/{name}"]
        if cfg.init == "pissa":
            b, a, res = pissa_init(w0, cfg.rank)
            b.requires_grad = True
            a.requires_grad = True
            residuals.append((w0, res))
        else:
            if cfg.rank > min(w0.shape):
                raise ConfigError(f"rank {cfg.rank} exceeds min dim of "
                                  f"{name} {w0.shape}")
            b = _zeros(w0.shape[0], cfg.rank)
            a = _draw(rng, cfg.rank, w0.shape[1])
        records += [(li, name, "B", b), (li, name, "A", a)]
        if with_magnitude:
            m = Tensor(T.column_l2_norm(Tensor(w0.data)).data,
                       requires_grad=True)
            records.append((li, name, "m", m))
    for w0, res in residuals:
        w0.data = res.data
    return scale, records


def _frozen_at_zero(b: Tensor) -> bool:
    """An up-projection that cannot move and holds only zeros: its branch
    adds exactly zero and every cotangent it passes back is zero, so it need
    not be computed. ``optim.train`` freezes a wholly masked ``B`` for the
    run."""
    return not b.requires_grad and not b.data.any()


class LoraModule(PeftModule):
    """Low-rank additive branch: base(x) + scale * (x B) A."""

    method = "lora"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        self.scale, records = _low_rank_records(model, cfg,
                                                with_magnitude=False)
        super().__init__(cfg, records)

    def _pair(self, layer, name):
        """(B, A) of the matrix ``name``, or None if untargeted or if B is
        frozen at zero."""
        b = self.params.get((layer, name, "B"))
        if b is None or _frozen_at_zero(b):
            return None
        return b, self.params[(layer, name, "A")]

    def delta(self, layer, name, x):
        """scale * (x B) A for the matrix ``name``, or None (see ``_pair``).
        UniPELT gates it; ``project`` fuses it into the projection."""
        pair = self._pair(layer, name)
        if pair is None:
            return None
        delta = T.matmul(T.matmul(x, pair[0]), pair[1])
        return T.scale(delta, self.scale) if self.scale != 1.0 else delta

    def project(self, layer, name, x, w, b):
        pair = self._pair(layer, name) or (None, None)
        return T.linear(x, w, b, *pair, scale=self.scale)


class DoraModule(PeftModule):
    """Magnitude/direction split: m * (W0 + scale B A) / column_norms."""

    method = "dora"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        self.scale, records = _low_rank_records(model, cfg,
                                                with_magnitude=True)
        super().__init__(cfg, records)

    def project(self, layer, name, x, w, b):
        m = self.params.get((layer, name, "m"))
        if m is None:
            return super().project(layer, name, x, w, b)
        delta = T.matmul(self.params[(layer, name, "B")],
                         self.params[(layer, name, "A")])
        if self.scale != 1.0:
            delta = T.scale(delta, self.scale)
        directed = T.add(w, delta)
        norms = T.column_l2_norm(directed)
        zero = norms.data[0] == 0.0
        if zero.any():
            raise NumericError(f"layer {layer} {name}: column "
                               f"{int(np.argmax(zero))} of the directed "
                               f"weight has zero norm")
        w_eff = T.hadamard(directed, T.divide(m, norms))
        return T.linear(x, w_eff, b)


# the projection each adapter block follows
_ADAPTER_POINTS = {"W_O": "adapter_attn", "FFN2": "adapter_ffn"}


class AdapterModule(PeftModule):
    """Bottleneck residual blocks on the output of the attention sublayer's
    W_O and the FFN's FFN2: ``project`` returns h + relu(h A^T) B^T, where
    h is the projection's output."""

    method = "adapter"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        rng = np.random.default_rng(model.cfg.seed + 2)
        d = model.cfg.hidden_dim
        raw = []
        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            for point in _ADAPTER_POINTS.values():
                raw.append((li, point, "B", _zeros(d, cfg.rank)))
                raw.append((li, point, "A", _draw(rng, cfg.rank, d)))
        super().__init__(cfg, raw)

    def delta(self, layer, name, h):
        """relu(h A^T) B^T on the output h of projection ``name``, or None
        if no block follows it or its B is frozen at zero."""
        point = _ADAPTER_POINTS.get(name)
        a = self.params.get((layer, point, "A"))
        if a is None:
            return None
        b = self.params[(layer, point, "B")]
        if _frozen_at_zero(b):
            return None
        return T.matmul(T.relu(T.matmul(h, T.transpose(a))), T.transpose(b))

    def project(self, layer, name, x, w, b):
        h = super().project(layer, name, x, w, b)
        delta = self.delta(layer, name, h)
        return h if delta is None else T.add(h, delta)


class PrefixModule(PeftModule):
    """Learned key/value rows prepended per head in targeted layers."""

    method = "prefix"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        if cfg.prefix_len + model.cfg.max_seq_len > POSITION_BUDGET:
            raise ConfigError(f"prefix_len {cfg.prefix_len} + max_seq_len "
                              f"{model.cfg.max_seq_len} exceeds position "
                              f"budget {POSITION_BUDGET}")
        rng = np.random.default_rng(model.cfg.seed + 3)
        h, dh = model.cfg.num_heads, model.cfg.head_dim
        raw = []
        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            for part in ("P_K", "P_V"):
                raw.append((li, "prefix", part,
                            _draw(rng, h, cfg.prefix_len, dh)))
        super().__init__(cfg, raw)

    def prefix_kv(self, layer):
        p_k = self.params.get((layer, "prefix", "P_K"))
        if p_k is None:
            return None
        return p_k, self.params[(layer, "prefix", "P_V")], None


class Ia3Module(PeftModule):
    """Learned rescaling of keys, values, and the FFN inner activation.

    The W_K and W_V groups scale those projections' outputs; the FFN group
    scales FFN2's input, which is the relu'd inner activation.
    """

    method = "ia3"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        d, f = model.cfg.hidden_dim, model.cfg.ffn_dim
        raw = []
        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            for group, n in (("W_K", d), ("W_V", d), ("FFN", f)):
                raw.append((li, group, "l", _ones(n)))
        super().__init__(cfg, raw)

    def project(self, layer, name, x, w, b):
        l_in = self.params.get((layer, "FFN", "l")) if name == "FFN2" else None
        if l_in is not None:
            x = T.hadamard(x, l_in)
        base = super().project(layer, name, x, w, b)
        # no projection is named FFN, so this finds only W_K's and W_V's
        l_out = self.params.get((layer, name, "l"))
        return base if l_out is None else T.hadamard(base, l_out)


class UniPeltModule(PeftModule):
    """Gated combination of the lora, adapter, and prefix submodules.

    Each targeted layer holds one scalar gate per submodule: the sigmoid of
    the mean-pooled layer input through a learned [d, 1] map, attached as
    part ``w`` of group ``gate_{submodule}``. ``begin_layer`` computes a
    layer's gates; ``project`` and ``prefix_kv`` scale each submodule's
    contribution by its gate (for the prefix, its un-normalized attention
    weight columns). The submodules hold no reference to this module.

    The composite's view is the only buffer behind the submodules' tensors:
    only the attached module gets a view (see :class:`PeftModule`). No code
    in this package may rebind ``.data`` on a tensor that a view holds.
    """

    method = "unipelt"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        rng = np.random.default_rng(model.cfg.seed + 4)
        d = model.cfg.hidden_dim
        self._gates: dict[tuple[int, str], Tensor] = {}
        self.submodules: dict[str, PeftModule] = {
            name: _MODULE_CLASSES[name](model, cfg)
            for name in UNIPELT_SUBMODULES if name in cfg.unipelt_submodules}
        raw = [(*key, t) for sub in self.submodules.values()
               for key, t in sub.params.items()]
        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            for name in sorted(self.submodules):
                wg = _draw(rng, d, 1)
                # gates left out of the view are never stepped, so they
                # take no gradient either
                wg.requires_grad = cfg.include_gates
                raw.append((li, f"gate_{name}", "w", wg))
        super().__init__(cfg, raw)

    def begin_layer(self, layer, x):
        for name in self.submodules:
            wg = self.params.get((layer, f"gate_{name}", "w"))
            if wg is None:
                continue
            self._gates[(layer, name)] = T.sigmoid(
                T.matmul(T.mean_axis(x, 1), wg))

    def _plus_gated(self, part, layer, name, x, h):
        """h + gate * (part's delta at projection ``name`` from input x)."""
        sub = self.submodules.get(part)
        delta = sub.delta(layer, name, x) if sub is not None else None
        if delta is None:
            return h
        gate = self._gates[(layer, part)]
        gate = T.reshape(gate, (gate.shape[0],) + (1,) * (delta.ndim - 1))
        return T.add(h, T.hadamard(delta, gate))

    def project(self, layer, name, x, w, b):
        base = super().project(layer, name, x, w, b)
        h = self._plus_gated("lora", layer, name, x, base)
        return self._plus_gated("adapter", layer, name, h, h)

    def prefix_kv(self, layer):
        sub = self.submodules.get("prefix")
        rows = sub.prefix_kv(layer) if sub is not None else None
        if rows is None:
            return None
        p_k, p_v, _ = rows
        return p_k, p_v, self._gates[(layer, "prefix")]


# ---------------------------------------------------------------------------
# attachment

_MODULE_CLASSES = {
    "lora": LoraModule,
    "dora": DoraModule,
    "adapter": AdapterModule,
    "prefix": PrefixModule,
    "ia3": Ia3Module,
    "unipelt": UniPeltModule,
}


def attach(model: TransformerModel, cfg: PeftConfig) -> PeftModule:
    """Build cfg.method's module and its flat view, freeze the base weights,
    and hook the module in."""
    if model.peft is not None:
        raise ContractError("model already has an adapter module attached")
    for t in cfg.target_layers:
        model.layer_from_top(t)  # bounds check against this model
    module = _MODULE_CLASSES[cfg.method](model, cfg)
    module._theta = ThetaTilde([(f"layer{layer}/{group}/{part}", t)
                                for (layer, group, part), t
                                in module.params.items() if t.requires_grad])
    model.freeze_base()
    model.peft = module
    return module
