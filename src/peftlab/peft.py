"""Parameter-efficient adapter modules and their flat parameter view.

Six methods share one contract: attach to a frozen base model, expose every
new trainable tensor through :class:`ThetaTilde` (one float32 buffer that
the tensors are views into, in a deterministic order), and influence the
forward pass only via the model's hook points. The flat view is what
scoring, masking, and the optimizer operate on, so its ordering is part of
the persistence format: layer index ascending, then group name
lexicographic, then the method's part order (B before A before m; P_K
before P_V), row-major within a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .model import INIT_STD, ForwardHooks, TransformerModel
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
    scaling applies to standard-init low-rank branches only (a spectral init
    must reproduce the base weight exactly, so it is left unscaled).
    ``init='pissa'`` (spectral residual init) is supported for lora.
    """

    method: str = "lora"
    rank: int = 4
    prefix_len: int = 30
    target_weights: tuple[str, ...] = ("W_Q", "W_K", "W_V")
    target_layers: tuple[int, ...] = (1,)
    init: str = "standard"
    lora_alpha: float | None = None
    unipelt_submodules: tuple[str, ...] = UNIPELT_SUBMODULES
    include_gates: bool = True

    def __post_init__(self):
        object.__setattr__(self, "target_weights", tuple(self.target_weights))
        object.__setattr__(self, "target_layers", tuple(self.target_layers))
        object.__setattr__(self, "unipelt_submodules",
                           tuple(self.unipelt_submodules))
        if self.method not in METHODS:
            raise ConfigError(f"unknown method '{self.method}'; "
                              f"expected one of {METHODS}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.prefix_len < 1:
            raise ConfigError(f"prefix_len must be >= 1, got {self.prefix_len}")
        if not self.target_weights:
            raise ConfigError("target_weights must not be empty")
        for w in self.target_weights:
            if w not in TARGETABLE:
                raise ConfigError(f"unknown target weight '{w}'; "
                                  f"expected a subset of {TARGETABLE}")
        if len(set(self.target_weights)) != len(self.target_weights):
            raise ConfigError("target_weights has duplicates")
        if not self.target_layers:
            raise ConfigError("target_layers must not be empty")
        if len(set(self.target_layers)) != len(self.target_layers):
            raise ConfigError("target_layers has duplicates")
        for t in self.target_layers:
            if t < 1:
                raise ConfigError(f"target layer indices are 1-based from the "
                                  f"top, got {t}")
        if self.init not in ("standard", "pissa"):
            raise ConfigError(f"unknown init '{self.init}'")
        if self.init == "pissa" and self.method != "lora":
            raise ConfigError("init='pissa' is only supported with method='lora'")
        if not self.unipelt_submodules:
            raise ConfigError("unipelt_submodules must not be empty")
        for s in self.unipelt_submodules:
            if s not in UNIPELT_SUBMODULES:
                raise ConfigError(f"unknown unipelt submodule '{s}'")
        if self.lora_alpha is not None and self.lora_alpha <= 0:
            raise ConfigError("lora_alpha must be positive")

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
    """One contiguous float32 buffer, ``data``, behind named trainable tensors.

    The constructor copies each tensor into its segment of ``data`` and
    rebinds the tensor's ``.data`` to a view of that segment, so a write
    through the buffer and an in-place write to a tensor are the same write.
    Code in this package never rebinds ``.data`` on a tensor a view holds:
    that would cut the tensor loose from the buffer. ``to_vector`` returns a
    copy; ``set_vector(to_vector())`` is a bitwise no-op.
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
        for seg, (_, t) in zip(self.segments, self.entries):
            view = self.data[seg.start:seg.stop]
            view[:] = t.data.ravel()
            t.data = view.reshape(seg.shape)

    def __len__(self) -> int:
        return self.length

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
        parts = []
        for _, t in self.entries:
            if t.grad is None:
                parts.append(np.zeros(t.size, dtype=np.float32))
            else:
                parts.append(t.grad.ravel())
        return np.concatenate(parts)

    def zero_grads(self) -> None:
        for _, t in self.entries:
            t.grad = None


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


def _draw(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.normal(0.0, INIT_STD, size=shape).astype(np.float32),
                  requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def _ones(*shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


class PeftModule(ForwardHooks):
    """Base class: owns trainable tensors and their flat view.

    Subclasses pass one ``(layer, group, part, tensor)`` record per
    trainable tensor. ``records`` keeps them in the canonical flat order
    (layer, group lexicographic, part order), and the view's segment names
    are ``layer{n}/{group}/{part}``.

    Only :class:`UniPeltModule` passes a ``gate_provider``. A module built
    with one is a UniPELT part: the composite's view holds its tensors, so it
    builds no view of its own and ``theta_tilde()`` raises ContractError.
    """

    method: str = "?"
    gate_provider = None

    def __init__(self, cfg: PeftConfig,
                 records: list[tuple[int, str, str, Tensor]]):
        self.cfg = cfg
        self.records = sorted(records,
                              key=lambda r: (r[0], r[1], _PART_ORDER[r[2]]))
        self._theta = None
        if self.gate_provider is None:
            self._theta = ThetaTilde([(f"layer{layer}/{group}/{part}", t)
                                      for layer, group, part, t in self.records])

    def theta_tilde(self) -> ThetaTilde:
        if self._theta is None:
            raise ContractError(f"the {self.method} part of a unipelt module "
                                f"has no view of its own; use the unipelt "
                                f"module's theta_tilde()")
        return self._theta

    def param_count(self) -> int:
        return self.theta_tilde().length

    def zero_grads(self) -> None:
        self.theta_tilde().zero_grads()

    def trainable_entries(self) -> list[tuple[str, Tensor]]:
        return list(self.theta_tilde().entries)


def _gate_to_delta_shape(gate: Tensor, delta: Tensor) -> Tensor:
    b = gate.shape[0]
    return T.reshape(gate, (b,) + (1,) * (delta.ndim - 1))


class _LowRankSet:
    """Shared (B, A[, m]) bookkeeping for the low-rank methods."""

    def __init__(self, model: TransformerModel, cfg: PeftConfig,
                 with_magnitude: bool, rng: np.random.Generator):
        self.scale = cfg.alpha / cfg.rank if cfg.init == "standard" else 1.0
        self.branches: dict[tuple[int, str], dict[str, Tensor]] = {}
        raw = []
        for li, name in _expand_targets(model, cfg):
            w0 = model.layers[li].weight(name)
            rows, cols = w0.shape
            if cfg.init == "pissa":
                b, a, res = pissa_init(w0, cfg.rank)
                b.requires_grad = True
                a.requires_grad = True
                w0.data = res.data
            else:
                if cfg.rank > min(rows, cols):
                    raise ConfigError(f"rank {cfg.rank} exceeds min dim of "
                                      f"{name} {w0.shape}")
                b = _zeros(rows, cfg.rank)
                a = _draw(rng, cfg.rank, cols)
            branch = {"B": b, "A": a}
            raw.append((li, name, "B", b))
            raw.append((li, name, "A", a))
            if with_magnitude:
                m = Tensor(T.column_l2_norm(Tensor(w0.data)).data,
                           requires_grad=True)
                branch["m"] = m
                raw.append((li, name, "m", m))
            self.branches[(li, name)] = branch
        self.raw = raw


class LoraModule(PeftModule):
    """Low-rank additive branch: base(x) + scale * (x B) A."""

    method = "lora"

    def __init__(self, model: TransformerModel, cfg: PeftConfig,
                 gate_provider=None):
        rng = np.random.default_rng(model.cfg.seed + 1)
        lr = _LowRankSet(model, cfg, with_magnitude=False, rng=rng)
        self.scale = lr.scale
        self.branches = lr.branches
        self.gate_provider = gate_provider
        super().__init__(cfg, lr.raw)

    def project(self, layer, name, x, w, b):
        base = super().project(layer, name, x, w, b)
        branch = self.branches.get((layer, name))
        if branch is None:
            return base
        delta = T.matmul(T.matmul(x, branch["B"]), branch["A"])
        if self.scale != 1.0:
            delta = T.scale(delta, self.scale)
        if self.gate_provider is not None:
            gate = self.gate_provider(layer)
            delta = T.hadamard(delta, _gate_to_delta_shape(gate, delta))
        return T.add(base, delta)


class DoraModule(PeftModule):
    """Magnitude/direction split: m * (W0 + scale B A) / column_norms."""

    method = "dora"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        rng = np.random.default_rng(model.cfg.seed + 1)
        lr = _LowRankSet(model, cfg, with_magnitude=True, rng=rng)
        self.scale = lr.scale
        self.branches = lr.branches
        super().__init__(cfg, lr.raw)

    def project(self, layer, name, x, w, b):
        branch = self.branches.get((layer, name))
        if branch is None:
            return super().project(layer, name, x, w, b)
        delta = T.matmul(branch["B"], branch["A"])
        if self.scale != 1.0:
            delta = T.scale(delta, self.scale)
        directed = T.add(w, delta)
        cols64 = directed.data.astype(np.float64)
        norms_now = np.sqrt((cols64 * cols64).sum(axis=0))
        if np.any(norms_now == 0.0):
            col = int(np.argmax(norms_now == 0.0))
            raise NumericError(f"layer {layer} {name}: column {col} of the "
                               f"directed weight has zero norm")
        norms = T.column_l2_norm(directed)
        w_eff = T.hadamard(directed, T.divide(branch["m"], norms))
        return T.add(T.matmul(x, w_eff), b)


class AdapterModule(PeftModule):
    """Bottleneck residual blocks after the attention and FFN projections."""

    method = "adapter"

    def __init__(self, model: TransformerModel, cfg: PeftConfig,
                 gate_provider=None):
        rng = np.random.default_rng(model.cfg.seed + 2)
        d = model.cfg.hidden_dim
        self.blocks: dict[tuple[int, str], dict[str, Tensor]] = {}
        self.gate_provider = gate_provider
        raw = []
        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            for point in ("adapter_attn", "adapter_ffn"):
                b = _zeros(d, cfg.rank)
                a = _draw(rng, cfg.rank, d)
                self.blocks[(li, point)] = {"B": b, "A": a}
                raw.append((li, point, "B", b))
                raw.append((li, point, "A", a))
        super().__init__(cfg, raw)

    def _apply(self, layer, point, h):
        block = self.blocks.get((layer, point))
        if block is None:
            return h
        delta = T.matmul(T.relu(T.matmul(h, T.transpose(block["A"]))),
                         T.transpose(block["B"]))
        if self.gate_provider is not None:
            gate = self.gate_provider(layer)
            delta = T.hadamard(delta, _gate_to_delta_shape(gate, delta))
        return T.add(h, delta)

    def after_attn_proj(self, layer, h):
        return self._apply(layer, "adapter_attn", h)

    def after_ffn_proj(self, layer, h):
        return self._apply(layer, "adapter_ffn", h)


class PrefixModule(PeftModule):
    """Learned key/value rows prepended per head in targeted layers."""

    method = "prefix"

    def __init__(self, model: TransformerModel, cfg: PeftConfig,
                 gate_provider=None):
        if cfg.prefix_len + model.cfg.max_seq_len > POSITION_BUDGET:
            raise ConfigError(f"prefix_len {cfg.prefix_len} + max_seq_len "
                              f"{model.cfg.max_seq_len} exceeds position "
                              f"budget {POSITION_BUDGET}")
        rng = np.random.default_rng(model.cfg.seed + 3)
        h, dh = model.cfg.num_heads, model.cfg.head_dim
        self.rows: dict[int, dict[str, Tensor]] = {}
        self.gate_provider = gate_provider
        raw = []
        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            p_k = _draw(rng, h, cfg.prefix_len, dh)
            p_v = _draw(rng, h, cfg.prefix_len, dh)
            self.rows[li] = {"P_K": p_k, "P_V": p_v}
            raw.append((li, "prefix", "P_K", p_k))
            raw.append((li, "prefix", "P_V", p_v))
        super().__init__(cfg, raw)

    def prefix_kv(self, layer):
        rows = self.rows.get(layer)
        if rows is None:
            return None
        gate = self.gate_provider(layer) if self.gate_provider else None
        return rows["P_K"], rows["P_V"], gate


class Ia3Module(PeftModule):
    """Learned rescaling of keys, values, and the FFN inner activation."""

    method = "ia3"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        d, f = model.cfg.hidden_dim, model.cfg.ffn_dim
        self.scales: dict[int, dict[str, Tensor]] = {}
        raw = []
        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            l_k, l_v, l_ff = _ones(d), _ones(d), _ones(f)
            self.scales[li] = {"W_K": l_k, "W_V": l_v, "FFN": l_ff}
            raw.append((li, "W_K", "l", l_k))
            raw.append((li, "W_V", "l", l_v))
            raw.append((li, "FFN", "l", l_ff))
        super().__init__(cfg, raw)

    def project(self, layer, name, x, w, b):
        base = super().project(layer, name, x, w, b)
        scales = self.scales.get(layer)
        if scales is None or name not in ("W_K", "W_V"):
            return base
        return T.hadamard(base, scales[name])

    def ffn_inner(self, layer, h):
        scales = self.scales.get(layer)
        if scales is None:
            return h
        return T.hadamard(h, scales["FFN"])


def _gate_lookup(gates: dict[tuple[int, str], Tensor], name: str):
    """A UniPELT part's gate provider: reads the composite's gate cache.

    It holds the cache, not the composite, so parts and composite form no
    reference cycle: a dropped model is freed at once, with the tape its
    cached gates still reach, instead of when the cycle collector runs.
    """
    def gate(layer: int) -> Tensor:
        g = gates.get((layer, name))
        if g is None:
            raise ContractError(f"gate for layer {layer}/{name} not computed; "
                                f"begin_layer did not run")
        return g
    return gate


class UniPeltModule(PeftModule):
    """Gated combination of the lora, adapter, and prefix submodules.

    Each targeted layer holds one scalar gate per submodule: the sigmoid of
    the mean-pooled layer input through a learned [d, 1] map. Gates multiply
    each submodule's contribution (for the prefix, its un-normalized
    attention weight columns). ``gate_override`` forces every gate to a
    constant, which tests use to recover the all-off and all-on limits.

    The composite's view is the only buffer behind the submodules' tensors:
    each submodule gets a gate provider, so it builds no view (see
    :class:`PeftModule`). No code in this package may rebind ``.data`` on a
    tensor that a view holds.
    """

    method = "unipelt"

    def __init__(self, model: TransformerModel, cfg: PeftConfig):
        rng = np.random.default_rng(model.cfg.seed + 4)
        d = model.cfg.hidden_dim
        self.gate_override: float | None = None
        self._gates: dict[tuple[int, str], Tensor] = {}
        self.gate_weights: dict[tuple[int, str], Tensor] = {}
        self.submodules: dict[str, PeftModule] = {}
        raw = []

        if "lora" in cfg.unipelt_submodules:
            sub = LoraModule(model, cfg,
                             gate_provider=_gate_lookup(self._gates, "lora"))
            self.submodules["lora"] = sub
        if "adapter" in cfg.unipelt_submodules:
            sub = AdapterModule(model, cfg,
                                gate_provider=_gate_lookup(self._gates, "adapter"))
            self.submodules["adapter"] = sub
        if "prefix" in cfg.unipelt_submodules:
            sub = PrefixModule(model, cfg,
                               gate_provider=_gate_lookup(self._gates, "prefix"))
            self.submodules["prefix"] = sub

        for sub in self.submodules.values():
            raw.extend(sub.records)

        for top in sorted(cfg.target_layers):
            li = model.layer_from_top(top)
            for name in sorted(self.submodules):
                wg = _draw(rng, d, 1)
                self.gate_weights[(li, name)] = wg
                if cfg.include_gates:
                    raw.append((li, f"gate_{name}", "w", wg))
        super().__init__(cfg, raw)

    def begin_layer(self, layer, x):
        b = x.shape[0]
        for name in self.submodules:
            wg = self.gate_weights.get((layer, name))
            if wg is None:
                continue
            if self.gate_override is not None:
                self._gates[(layer, name)] = Tensor(
                    np.full((b, 1), self.gate_override, dtype=np.float32))
            else:
                self._gates[(layer, name)] = T.sigmoid(
                    T.matmul(T.mean_axis(x, 1), wg))

    def project(self, layer, name, x, w, b):
        sub = self.submodules.get("lora")
        if sub is not None:
            return sub.project(layer, name, x, w, b)
        return super().project(layer, name, x, w, b)

    def after_attn_proj(self, layer, h):
        sub = self.submodules.get("adapter")
        return sub.after_attn_proj(layer, h) if sub is not None else h

    def after_ffn_proj(self, layer, h):
        sub = self.submodules.get("adapter")
        return sub.after_ffn_proj(layer, h) if sub is not None else h

    def prefix_kv(self, layer):
        sub = self.submodules.get("prefix")
        return sub.prefix_kv(layer) if sub is not None else None


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
    """Build cfg.method's module, freeze the base weights, and hook it in."""
    if model.peft is not None:
        raise ContractError("model already has an adapter module attached")
    for t in cfg.target_layers:
        model.layer_from_top(t)  # bounds check against this model
    module = _MODULE_CLASSES[cfg.method](model, cfg)
    model.freeze_base()
    model.peft = module
    return module
