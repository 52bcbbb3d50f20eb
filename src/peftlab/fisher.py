"""Gradient-information scores over the flat adapter view, and the masks
selected from them.

The score of coordinate j is the mean over N examples of the squared
per-example loss gradient: (1/N) sum_i g_ij^2, accumulated in float64 in a
canonical example order so the estimate does not depend on the order of
the split's rows. Scores are computed once, before any training step, from
true labels: the diagonal of the empirical Fisher.

The per-example gradients come from one per-example backward pass per chunk
of up to _CHUNK examples (``tensor.backward(loss, per_example=...)``), whose
slice i equals the gradient of a batch-1 pass over example i bit for bit.
Squares are added one example at a time in the canonical order, so neither
the chunk size nor the chunk boundaries change a bit of the estimate.

Selection strategies over a budget of k coordinates:
  fish     ones at the k largest scores
  reverse  ones at the k smallest scores
  random   seeded uniform k-subset, scores ignored
  dense    all ones
Ties break toward the smaller flat index (stable argsort).

Scores and masks are saved and loaded by :mod:`peftlab.checkpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _schema as schema
from . import tensor as T
from .errors import ConfigError, ContractError, NumericError

# Examples per per-example backward pass: the scoring tape stays no larger
# than a batch-32 training step's.
_CHUNK = 32

STRATEGIES = ("fish", "random", "reverse", "dense")


@dataclass(frozen=True)
class MaskConfig:
    strategy: str = schema.field("dense", among=STRATEGIES)
    budget: float = 1.0
    fisher_samples: int = schema.field(128, min=1)
    seed: int = schema.field(42, min=0)

    def __post_init__(self):
        schema.check(self)
        if not 0.0 < self.budget <= 1.0:
            raise ConfigError(f"budget must be in (0, 1], got {self.budget}")


def _integer(where: str, value, min=None) -> int:
    """``value`` by the config integer rule, a NumPy integer taken as int."""
    if isinstance(value, np.integer):
        value = int(value)
    schema.check_value(where, value, int, min=min)
    return value


@dataclass
class FisherEstimate:
    """Non-negative per-coordinate scores over a flat view of length n."""

    scores: np.ndarray
    num_samples: int

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float32)
        if self.scores.ndim != 1:
            raise ContractError(f"scores must be a vector, got shape "
                                f"{self.scores.shape}")
        if self.scores.size == 0:
            raise ContractError("scores must be non-empty")
        if not np.all(np.isfinite(self.scores)):
            raise NumericError("scores contain non-finite values")
        if self.scores.min() < 0:
            raise ContractError("scores must be non-negative")
        self.num_samples = _integer("num_samples", self.num_samples, min=1)

    def __len__(self) -> int:
        return self.scores.size


@dataclass
class SparsityMask:
    """0/1 bits over the flat view; k is the exact popcount."""

    bits: np.ndarray
    strategy: str
    seed: int | None = None

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.size == 0:
            raise ContractError(f"bits must be a non-empty vector, got shape "
                                f"{self.bits.shape}")
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise ContractError("mask bits must be 0 or 1")
        schema.check_value("strategy", self.strategy, str, among=STRATEGIES)
        if self.seed is not None:
            self.seed = _integer("seed", self.seed)

    @property
    def k(self) -> int:
        return int(self.bits.sum())

    def __len__(self) -> int:
        return self.bits.size

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


def estimate_fisher(model, dataset, num_samples: int = 128) -> FisherEstimate:
    """Mean squared per-example gradient over the model's flat adapter view.

    ``model`` needs two methods: ``fisher_parameters()`` returning the flat
    view, and ``batch_nll(token_rows, labels)`` returning the scalar sum of
    the per-example losses, built on inputs whose ``example_axis`` is set.
    ``dataset`` is a split carrying true labels: anything with ``token_ids``
    rows and ``labels``, such as a ``Batch``. Its examples are sorted
    canonically (by token bytes, then label) and the first ``num_samples``
    are scored, so any row order of the same example set yields the
    identical estimate. They are the first in that order, not a uniform
    sample of the split, when ``num_samples`` is smaller than it.

    The examples go through in chunks of up to _CHUNK, one forward and one
    per-example backward pass each, which yields every example's gradient
    over the flat view; only those leaves get gradients, and no ``.grad``
    is written.
    """
    num_samples = _integer("num_samples", num_samples, min=1)
    rows, labels = dataset.token_ids, dataset.labels
    if not len(labels):
        raise ContractError("score estimate over an empty dataset")
    if num_samples > len(labels):
        raise ConfigError(f"num_samples {num_samples} exceeds the "
                          f"{len(labels)} available examples")
    order = sorted(range(len(labels)),
                   key=lambda j: (rows[j].tobytes(), int(labels[j])))

    theta = model.fisher_parameters()
    leaves = theta.tensors()
    acc = np.zeros(theta.length, dtype=np.float64)
    for start in range(0, num_samples, _CHUNK):
        chunk = order[start:min(start + _CHUNK, num_samples)]
        # the tape is freed when backward returns: no name holds the loss
        per_leaf = T.backward(model.batch_nll(rows[chunk], labels[chunk]),
                              per_example=leaves)
        g = np.zeros((len(chunk), theta.length), dtype=np.float64)
        for seg, gl in zip(theta.segments, per_leaf):
            if gl is not None:
                g[:, seg.start:seg.stop] = gl.reshape(len(chunk), -1)
        bad = ~np.all(np.isfinite(g), axis=1)
        if bad.any():
            raise NumericError(f"non-finite gradient on sample "
                               f"{start + int(np.argmax(bad))}")
        g *= g
        for row in g:  # one example at a time, in the canonical order
            acc += row
        del per_leaf, g  # not held through the next chunk's forward pass
    scores = (acc / num_samples).astype(np.float32)
    return FisherEstimate(scores, num_samples)


def select(scores, k: int, strategy: str, seed: int | None = None) -> SparsityMask:
    """Build the 0/1 mask for a strategy at budget k.

    ``scores`` is a FisherEstimate or raw vector; for 'random' and 'dense' it
    only fixes the length. 'dense' ignores k and keeps everything.
    """
    vec = scores.scores if isinstance(scores, FisherEstimate) \
        else np.asarray(scores, dtype=np.float32)
    if vec.ndim != 1 or vec.size == 0:
        raise ContractError(f"scores must be a non-empty vector, got shape "
                            f"{vec.shape}")
    n = vec.size
    schema.check_value("strategy", strategy, str, among=STRATEGIES)
    if strategy == "dense":
        return SparsityMask(np.ones(n, dtype=np.uint8), "dense", seed)
    k = _integer("k", k)
    if not 1 <= k <= n:
        raise ConfigError(f"budget k={k} outside [1, {n}]")
    bits = np.zeros(n, dtype=np.uint8)
    if strategy == "fish":
        # stable sort on -scores: equal scores keep ascending index order
        order = np.argsort(-vec, kind="stable")
        bits[order[:k]] = 1
    elif strategy == "reverse":
        order = np.argsort(vec, kind="stable")
        bits[order[:k]] = 1
    else:  # random
        if seed is None:
            raise ConfigError("strategy 'random' needs a seed")
        rng = np.random.default_rng(seed)
        bits[rng.permutation(n)[:k]] = 1
    return SparsityMask(bits, strategy, seed)


def mask_gradients(grads: np.ndarray, mask: SparsityMask) -> np.ndarray:
    """Zero the gradient outside the mask; kept entries are bitwise intact."""
    g = np.asarray(grads)
    if g.shape != mask.bits.shape:
        raise ContractError(f"gradient shape {g.shape} does not match mask "
                            f"length {mask.bits.size}")
    out = g.copy()
    out[mask.bits == 0] = 0.0
    return out


def budget_to_k(n: int, budget: float) -> int:
    """Round budget * n to the nearest count (half up), clamped to [1, n].
    ``budget`` is checked as a ``MaskConfig`` budget."""
    if n < 1:
        raise ContractError("flat view must be non-empty")
    MaskConfig(budget=budget)
    k = int(np.floor(budget * n + 0.5))
    return min(max(k, 1), n)
