"""A compact deterministic transformer classifier.

Small enough for finite-difference checks, structured like the real thing:
learned token + position embeddings, post-norm residual blocks with
multi-head attention and a relu FFN, mean-pool + linear head. Everything is
built from seeded draws so identical (config, seed) pairs give bitwise
identical weights. The model's tensors live in one table,
``TransformerModel.params``, keyed by their checkpoint names.

Adapter-style modules influence the forward pass only through the three
:class:`ForwardHooks` points (``begin_layer``, ``project``, ``prefix_kv``);
the base model never imports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _schema as schema
from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = schema.field(2, min=1)
    hidden_dim: int = schema.field(32, min=1)
    num_heads: int = schema.field(4, min=1)
    ffn_dim: int = schema.field(64, min=1)
    vocab_size: int = schema.field(16, min=1)
    max_seq_len: int = schema.field(8, min=1)
    num_classes: int = schema.field(2, min=1)
    seed: int = schema.field(42, min=0)

    def __post_init__(self):
        schema.check(self)
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(f"hidden_dim {self.hidden_dim} not divisible by "
                              f"num_heads {self.num_heads}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


@dataclass
class Batch:
    """Token rows and their integer class labels, checked once on
    construction: a whole task split, or a minibatch cut from one."""

    token_ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids)
        self.labels = np.asarray(self.labels)
        if self.token_ids.ndim != 2:
            raise ShapeError(f"token_ids must be [B, S], got {self.token_ids.shape}")
        if self.labels.shape != (self.token_ids.shape[0],):
            raise ShapeError(f"labels shape {self.labels.shape} does not match "
                             f"batch size {self.token_ids.shape[0]}")
        if not np.issubdtype(self.token_ids.dtype, np.integer):
            raise ContractError("token_ids must be integers")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ContractError("labels must be integers")
        if self.token_ids.size and self.token_ids.min() < 0:
            raise ContractError("token_ids must be non-negative")

    def __len__(self) -> int:
        return self.token_ids.shape[0]


class ForwardHooks:
    """Injection points for adapter modules; the defaults are the base model.

    ``project`` computes every projection ``x @ w + b`` (one
    ``tensor.linear`` node by default): ``name`` is one of
    W_Q, W_K, W_V, W_O, FFN1, FFN2, and FFN2's input ``x`` is the relu'd
    FFN inner activation, so a module that rescales that activation or adds
    a block after a sublayer's output projection does it here. ``layer`` is
    the absolute (bottom-up) layer index.
    """

    def begin_layer(self, layer: int, x: Tensor) -> None:
        pass

    def project(self, layer: int, name: str, x: Tensor, w: Tensor,
                b: Tensor) -> Tensor:
        return T.linear(x, w, b)

    def prefix_kv(self, layer: int):
        """Return (P_K, P_V, gate) with P_* shaped [H, l, head_dim], or None.

        The gate is None except under UniPELT, where it is a [B, 1] tensor
        that scales the prefix columns' un-normalized attention weights.
        """
        return None


_BASE_HOOKS = ForwardHooks()


def _bias(name: str) -> str:
    """The bias paired with projection ``name``: b_Q for W_Q, b_FFN1 for
    FFN1."""
    return "b_" + name.removeprefix("W_")


@dataclass
class TransformerModel:
    """``params`` holds every base and head tensor under its checkpoint
    name (``embedding``, ``layer0/W_Q``, ``layer0/b_Q``, ..., ``head/b``),
    in the order :func:`build_model` draws them; that is also the order of
    the checkpoint's tensors."""

    cfg: ModelConfig
    params: dict[str, Tensor]
    peft: object | None = field(default=None, repr=False)

    # -- parameter bookkeeping ------------------------------------------------

    @property
    def head_W(self) -> Tensor:
        return self.params["head/W"]

    @property
    def head_b(self) -> Tensor:
        return self.params["head/b"]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def head_parameters(self) -> list[tuple[str, Tensor]]:
        return [("head/W", self.head_W), ("head/b", self.head_b)]

    def param_count(self) -> int:
        """Total scalar count of the base model plus head (no adapters)."""
        return sum(t.size for t in self.params.values())

    def layer_from_top(self, top_index: int) -> int:
        """Map a 1-based from-the-top index to the absolute layer index."""
        if not 1 <= top_index <= self.cfg.num_layers:
            raise ConfigError(f"top layer index {top_index} outside "
                              f"[1, {self.cfg.num_layers}]")
        return self.cfg.num_layers - top_index

    def freeze_base(self) -> None:
        """Stop gradients to every tensor but the head's."""
        for name, t in self.params.items():
            if not name.startswith("head/"):
                t.requires_grad = False
                t.grad = None

    # -- objectives -----------------------------------------------------------

    def batch_nll(self, token_rows: np.ndarray, labels: np.ndarray) -> Tensor:
        """Summed loss of a batch of examples, one term per example: the
        objective the score estimate takes per-example gradients of."""
        batch = Batch(token_rows, labels)
        return T.log_softmax_nll(forward(self, batch), batch.labels, "sum")

    def fisher_parameters(self):
        if self.peft is None:
            raise ContractError("no adapter module attached; nothing to score")
        return self.peft.theta_tilde()


def _draw(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.normal(0.0, INIT_STD, size=shape).astype(np.float32),
                  requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def _ones(*shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


def build_model(cfg: ModelConfig) -> TransformerModel:
    """Seeded construction: weights ~ N(0, 0.02^2), biases zero, norms unit.
    The weights are drawn in ``params`` order from one generator."""
    rng = np.random.default_rng(cfg.seed)
    d, f = cfg.hidden_dim, cfg.ffn_dim
    shapes = {"W_Q": (d, d), "W_K": (d, d), "W_V": (d, d), "W_O": (d, d),
              "FFN1": (d, f), "FFN2": (f, d)}
    params = {"embedding": _draw(rng, cfg.vocab_size, d),
              "pos_embedding": _draw(rng, cfg.max_seq_len, d)}
    for li in range(cfg.num_layers):
        for name, shape in shapes.items():
            params[f"layer{li}/{name}"] = _draw(rng, *shape)
            params[f"layer{li}/{_bias(name)}"] = _zeros(shape[1])
        for norm in ("ln1", "ln2"):
            params[f"layer{li}/{norm}_g"] = _ones(d)
            params[f"layer{li}/{norm}_b"] = _zeros(d)
    params["head/W"] = _draw(rng, d, cfg.num_classes)
    params["head/b"] = _zeros(cfg.num_classes)
    return TransformerModel(cfg, params)


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    b, s, d = x.shape
    return T.transpose(T.reshape(x, (b, s, num_heads, d // num_heads)),
                       (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, s, hd = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, s, h * hd))


def _prefix_rows(p: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Prefix rows [H, l, head_dim] repeated for each example of the batch.

    numpy prepends the batch axis, and axis 0 of the result is marked as the
    example axis: this broadcast is where the parameters meet the examples,
    so a per-example backward keeps each example's share of the prefix
    gradient apart there instead of summing the copies.
    """
    rows = T.broadcast_to(p, shape)
    rows.example_axis = True
    return rows


def _gated_prefix_softmax(scores: Tensor, n_prefix: int, gate: Tensor) -> Tensor:
    """Softmax whose un-normalized prefix columns are scaled by the gate.

    Gate 0 renormalizes to the no-prefix distribution exactly; gate 1 is the
    plain softmax over all columns.
    """
    b = scores.shape[0]
    total = scores.shape[-1]
    shift = Tensor(scores.data.max(axis=-1, keepdims=True))  # grad-neutral
    e = T.exp(T.subtract(scores, shift))
    e_pref = T.slice_axis(e, -1, 0, n_prefix)
    e_seq = T.slice_axis(e, -1, n_prefix, total)
    gate4 = T.reshape(gate, (b, 1, 1, 1))
    merged = T.concat((T.hadamard(e_pref, gate4), e_seq), axis=-1)
    denom = T.sum_axis(merged, -1, keepdims=True)
    return T.divide(merged, denom)


def forward(model: TransformerModel, batch: Batch) -> Tensor:
    """Logits [B, num_classes] for a batch of token rows."""
    cfg = model.cfg
    ids = batch.token_ids
    b, s = ids.shape
    if not ids.size:
        raise ContractError(f"forward on an empty batch of shape {ids.shape}")
    if s > cfg.max_seq_len:
        raise ContractError(f"sequence length {s} exceeds max_seq_len "
                            f"{cfg.max_seq_len}")
    if ids.max() >= cfg.vocab_size:
        raise ContractError(f"token id {int(ids.max())} outside vocab "
                            f"size {cfg.vocab_size}")
    hooks: ForwardHooks = model.peft if model.peft is not None else _BASE_HOOKS
    p = model.params

    x = T.add(T.embedding(p["embedding"], ids),
              T.slice_axis(p["pos_embedding"], 0, 0, s))

    inv_sqrt = 1.0 / math.sqrt(cfg.head_dim)
    for li in range(cfg.num_layers):
        def project(name: str, inp: Tensor) -> Tensor:
            return hooks.project(li, name, inp, p[f"layer{li}/{name}"],
                                 p[f"layer{li}/{_bias(name)}"])

        hooks.begin_layer(li, x)
        q, k, v = project("W_Q", x), project("W_K", x), project("W_V", x)
        qh = _split_heads(q, cfg.num_heads)
        kh = _split_heads(k, cfg.num_heads)
        vh = _split_heads(v, cfg.num_heads)

        pref = hooks.prefix_kv(li)
        n_prefix = 0
        gate = None
        if pref is not None:
            p_k, p_v, gate = pref
            n_prefix = p_k.shape[1]
            shape = (b, cfg.num_heads, n_prefix, cfg.head_dim)
            kh = T.concat((_prefix_rows(p_k, shape), kh), axis=-2)
            vh = T.concat((_prefix_rows(p_v, shape), vh), axis=-2)

        scores = T.scale(T.matmul(qh, T.transpose(kh)), inv_sqrt)
        if gate is not None:
            weights = _gated_prefix_softmax(scores, n_prefix, gate)
        else:
            weights = T.softmax(scores)
        ctx = _merge_heads(T.matmul(weights, vh))

        x = T.layer_norm(T.add(x, project("W_O", ctx)),
                         p[f"layer{li}/ln1_g"], p[f"layer{li}/ln1_b"])

        # relu keeps its kink at the small activation scale the 0.02 init
        # produces; a smooth activation is near-linear there and starves
        # sign-dependent tasks (parity) of gradient signal.
        inner = T.relu(project("FFN1", x))
        x = T.layer_norm(T.add(x, project("FFN2", inner)),
                         p[f"layer{li}/ln2_g"], p[f"layer{li}/ln2_b"])

    pooled = T.mean_axis(x, 1)
    return T.linear(pooled, p["head/W"], p["head/b"])
