"""Gradient-information scores over the flat adapter view, and the masks
selected from them.

The score of coordinate j is the mean over N examples of the squared
per-example loss gradient: (1/N) sum_i g_ij^2, accumulated in float64 in a
canonical example order so the estimate does not depend on how the caller
batched the data. Scores are computed once, before any training step, from
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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError, ContractError, NumericError
from . import tensor as T
from .tasks import flatten

STRATEGIES = ("fish", "random", "reverse", "dense")

_MAGIC = b"PFL1"
_KIND_SCORES = 1
_KIND_MASK = 2
_FORMAT_VERSION = 1

# Examples per per-example backward pass: the scoring tape stays no larger
# than a batch-32 training step's.
_CHUNK = 32


@dataclass
class FisherEstimate:
    """Non-negative per-coordinate scores over a flat view of length n."""

    scores: np.ndarray
    num_samples: int
    config_hash: str = ""

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
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy '{self.strategy}'; expected "
                              f"one of {STRATEGIES}")

    @property
    def k(self) -> int:
        return int(self.bits.sum())

    def __len__(self) -> int:
        return self.bits.size

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


def estimate_fisher(model, dataset, num_samples: int = 128,
                    config_hash: str = "") -> FisherEstimate:
    """Mean squared per-example gradient over the model's flat adapter view.

    ``model`` needs two methods: ``fisher_parameters()`` returning the flat
    view, and ``batch_nll(token_rows, labels)`` returning the scalar sum of
    the per-example losses, built on inputs whose ``example_axis`` is set.
    ``dataset`` is a list of batches carrying true labels; examples are
    re-sorted canonically (by token bytes, then label) and the first
    ``num_samples`` are scored, so any batching of the same example set
    yields the identical estimate. They are the first in that order, not a
    uniform sample of the split, when ``num_samples`` is smaller than it.

    The examples go through in chunks of up to _CHUNK, one forward and one
    per-example backward pass each, which yields every example's gradient
    over the flat view; only those leaves get gradients, and no ``.grad``
    is written.
    """
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
    if not dataset:
        raise ContractError("score estimate over an empty dataset")
    rows, labels = flatten(dataset)
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
    return FisherEstimate(scores, num_samples, config_hash)


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
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy '{strategy}'; expected one of "
                          f"{STRATEGIES}")
    if strategy == "dense":
        return SparsityMask(np.ones(n, dtype=np.uint8), "dense", seed)
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


def budget_to_k(n: int, ratio2: float) -> int:
    """Round ratio2 * n to the nearest count (half up), clamped to [1, n]."""
    if n < 1:
        raise ContractError("flat view must be non-empty")
    if not 0.0 < ratio2 <= 1.0:
        raise ConfigError(f"ratio2 must be in (0, 1], got {ratio2}")
    k = int(np.floor(ratio2 * n + 0.5))
    return min(max(k, 1), n)


# ---------------------------------------------------------------------------
# persistence: one container for score and mask payloads

_HEADER = struct.Struct("<4sIBB12sQQq")  # magic, version, kind, pad, strategy,
                                         # length, k, seed


def _pack_header(kind: int, strategy: str, length: int, k: int,
                 seed: int | None) -> bytes:
    return _HEADER.pack(_MAGIC, _FORMAT_VERSION, kind, 0,
                        strategy.encode("ascii").ljust(12, b"\0"),
                        length, k, -1 if seed is None else seed)


def _read_header(blob: bytes, path: str):
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, version, kind, _, strategy, length, k, seed = \
        _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported "
                              f"(expected {_FORMAT_VERSION})")
    try:
        name = strategy.rstrip(b"\0").decode("ascii")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: strategy field is not ASCII") from None
    return kind, name, length, k, seed


def save_scores(path, estimate: FisherEstimate) -> None:
    from .checkpoint import atomic_write_bytes
    payload = _pack_header(_KIND_SCORES, "", len(estimate),
                           estimate.num_samples, None)
    atomic_write_bytes(path, payload + estimate.scores.astype("<f4").tobytes())


def load_scores(path) -> FisherEstimate:
    with open(path, "rb") as fh:
        blob = fh.read()
    kind, _, length, num_samples, _ = _read_header(blob, str(path))
    if kind != _KIND_SCORES:
        raise CheckpointError(f"{path}: not a score file")
    payload = blob[_HEADER.size:]
    if len(payload) != 4 * length:
        raise CheckpointError(f"{path}: score payload holds "
                              f"{len(payload) // 4} values, header says {length}")
    scores = np.frombuffer(payload, dtype="<f4").copy()
    return FisherEstimate(scores, int(num_samples))


def save_mask(path, mask: SparsityMask) -> None:
    from .checkpoint import atomic_write_bytes
    payload = _pack_header(_KIND_MASK, mask.strategy, len(mask), mask.k,
                           mask.seed)
    atomic_write_bytes(path, payload + mask.bits.tobytes())


def load_mask(path) -> SparsityMask:
    with open(path, "rb") as fh:
        blob = fh.read()
    kind, strategy, length, k, seed = _read_header(blob, str(path))
    if kind != _KIND_MASK:
        raise CheckpointError(f"{path}: not a mask file")
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(f"{path}: mask payload holds {len(payload)} "
                              f"bits, header says {length}")
    mask = SparsityMask(np.frombuffer(payload, dtype=np.uint8).copy(),
                        strategy, None if seed == -1 else int(seed))
    if mask.k != k:
        raise CheckpointError(f"{path}: popcount {mask.k} does not match "
                              f"header k={k}")
    return mask
