"""A compact deterministic transformer classifier.

Small enough for finite-difference checks, structured like the real thing:
learned token + position embeddings, post-norm residual blocks with
multi-head attention and a relu FFN, mean-pool + linear head. Everything is
built from seeded draws so identical (config, seed) pairs give bitwise
identical weights.

Adapter-style modules influence the forward pass only through the
:class:`ForwardHooks` interface; the base model never imports them.
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
    """Injection points for adapter modules; defaults are the base model.

    ``name`` is one of W_Q, W_K, W_V, W_O, FFN1, FFN2. ``layer`` is the
    absolute (bottom-up) layer index.
    """

    def begin_layer(self, layer: int, x: Tensor) -> None:
        pass

    def project(self, layer: int, name: str, x: Tensor, w: Tensor,
                b: Tensor) -> Tensor:
        return T.add(T.matmul(x, w), b)

    def prefix_kv(self, layer: int):
        """Return (P_K, P_V, gate) with P_* shaped [H, l, head_dim], or None.

        The gate is None except under UniPELT, where it is a [B, 1] tensor
        that scales the prefix columns' un-normalized attention weights.
        """
        return None

    def after_attn_proj(self, layer: int, h: Tensor) -> Tensor:
        return h

    def ffn_inner(self, layer: int, h: Tensor) -> Tensor:
        return h

    def after_ffn_proj(self, layer: int, h: Tensor) -> Tensor:
        return h


_BASE_HOOKS = ForwardHooks()

_LAYER_WEIGHT_SHAPES = ("W_Q", "W_K", "W_V", "W_O", "FFN1", "FFN2")


@dataclass
class LayerParams:
    W_Q: Tensor
    b_Q: Tensor
    W_K: Tensor
    b_K: Tensor
    W_V: Tensor
    b_V: Tensor
    W_O: Tensor
    b_O: Tensor
    FFN1: Tensor
    b_FFN1: Tensor
    FFN2: Tensor
    b_FFN2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor

    def weight(self, name: str) -> Tensor:
        return getattr(self, name)

    def bias(self, name: str) -> Tensor:
        return getattr(self, "b_" + name.removeprefix("W_"))


@dataclass
class TransformerModel:
    cfg: ModelConfig
    embedding: Tensor
    pos_embedding: Tensor
    layers: list[LayerParams]
    head_W: Tensor
    head_b: Tensor
    peft: object | None = field(default=None, repr=False)

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding), ("pos_embedding", self.pos_embedding)]
        for i, lp in enumerate(self.layers):
            for name in _LAYER_WEIGHT_SHAPES:
                out.append((f"layer{i}/{name}", lp.weight(name)))
                out.append((f"layer{i}/b_{name.removeprefix('W_')}", lp.bias(name)))
            out.append((f"layer{i}/ln1_g", lp.ln1_g))
            out.append((f"layer{i}/ln1_b", lp.ln1_b))
            out.append((f"layer{i}/ln2_g", lp.ln2_g))
            out.append((f"layer{i}/ln2_b", lp.ln2_b))
        out.append(("head/W", self.head_W))
        out.append(("head/b", self.head_b))
        return out

    def head_parameters(self) -> list[tuple[str, Tensor]]:
        return [("head/W", self.head_W), ("head/b", self.head_b)]

    def base_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_parameters()
                if not n.startswith("head/")]

    def param_count(self) -> int:
        """Total scalar count of the base model plus head (no adapters)."""
        return sum(t.size for _, t in self.named_parameters())

    def layer_from_top(self, top_index: int) -> int:
        """Map a 1-based from-the-top index to the absolute layer index."""
        if not 1 <= top_index <= self.cfg.num_layers:
            raise ConfigError(f"top layer index {top_index} outside "
                              f"[1, {self.cfg.num_layers}]")
        return self.cfg.num_layers - top_index

    def freeze_base(self) -> None:
        for _, t in self.base_parameters():
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
    """Seeded construction: weights ~ N(0, 0.02^2), biases zero, norms unit."""
    rng = np.random.default_rng(cfg.seed)
    d, f = cfg.hidden_dim, cfg.ffn_dim
    embedding = _draw(rng, cfg.vocab_size, d)
    pos_embedding = _draw(rng, cfg.max_seq_len, d)
    layers = []
    for _ in range(cfg.num_layers):
        layers.append(LayerParams(
            W_Q=_draw(rng, d, d), b_Q=_zeros(d),
            W_K=_draw(rng, d, d), b_K=_zeros(d),
            W_V=_draw(rng, d, d), b_V=_zeros(d),
            W_O=_draw(rng, d, d), b_O=_zeros(d),
            FFN1=_draw(rng, d, f), b_FFN1=_zeros(f),
            FFN2=_draw(rng, f, d), b_FFN2=_zeros(d),
            ln1_g=_ones(d), ln1_b=_zeros(d),
            ln2_g=_ones(d), ln2_b=_zeros(d),
        ))
    head_W = _draw(rng, d, cfg.num_classes)
    head_b = _zeros(cfg.num_classes)
    return TransformerModel(cfg, embedding, pos_embedding, layers, head_W, head_b)


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
    if s > cfg.max_seq_len:
        raise ContractError(f"sequence length {s} exceeds max_seq_len "
                            f"{cfg.max_seq_len}")
    if ids.max() >= cfg.vocab_size:
        raise ContractError(f"token id {int(ids.max())} outside vocab "
                            f"size {cfg.vocab_size}")
    hooks: ForwardHooks = model.peft if model.peft is not None else _BASE_HOOKS

    x = T.add(T.embedding(model.embedding, ids),
              T.slice_axis(model.pos_embedding, 0, 0, s))

    inv_sqrt = 1.0 / math.sqrt(cfg.head_dim)
    for li, lp in enumerate(model.layers):
        hooks.begin_layer(li, x)
        q = hooks.project(li, "W_Q", x, lp.W_Q, lp.b_Q)
        k = hooks.project(li, "W_K", x, lp.W_K, lp.b_K)
        v = hooks.project(li, "W_V", x, lp.W_V, lp.b_V)
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

        attn_out = hooks.project(li, "W_O", ctx, lp.W_O, lp.b_O)
        attn_out = hooks.after_attn_proj(li, attn_out)
        x = T.layer_norm(T.add(x, attn_out), lp.ln1_g, lp.ln1_b)

        # relu keeps its kink at the small activation scale the 0.02 init
        # produces; a smooth activation is near-linear there and starves
        # sign-dependent tasks (parity) of gradient signal.
        inner = T.relu(hooks.project(li, "FFN1", x, lp.FFN1, lp.b_FFN1))
        inner = hooks.ffn_inner(li, inner)
        ffn_out = hooks.project(li, "FFN2", inner, lp.FFN2, lp.b_FFN2)
        ffn_out = hooks.after_ffn_proj(li, ffn_out)
        x = T.layer_norm(T.add(x, ffn_out), lp.ln2_g, lp.ln2_b)

    pooled = T.mean_axis(x, 1)
    return T.add(T.matmul(pooled, model.head_W), model.head_b)
