"""Synthetic sequence-classification tasks with disjoint train/eval splits.

Label rules:
  parity      XOR of the low bits of the tokens at positions 0 and S//2
  majority    most frequent token residue mod num_classes (ties: smaller id)
  copy-class  residue of the first token

Sequences are drawn uniformly, deduplicated in draw order, and the unique
pool is split train-first, so the two splits never share a row and the whole
dataset is a pure function of (kind, size, seed, dims). A split is one
``Batch``; the code that consumes it cuts its own minibatches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _schema as schema
from .errors import ConfigError
from .model import Batch

TASK_KINDS = ("parity", "majority", "copy-class")


@dataclass(frozen=True)
class TaskConfig:
    kind: str = schema.field("parity", among=TASK_KINDS)
    size: int = schema.field(256, min=16)
    seed: int = schema.field(42, min=0)
    eval_size: int | None = schema.field(None, min=1)

    def __post_init__(self):
        schema.check(self)


def _labels_for(kind: str, rows: np.ndarray, num_classes: int) -> np.ndarray:
    if kind == "parity":
        positions = (0, rows.shape[1] // 2)
        bits = rows[:, positions] & 1
        return np.bitwise_xor.reduce(bits, axis=1).astype(np.int64)
    if kind == "majority":
        residues = rows % num_classes
        counts = np.stack([(residues == c).sum(axis=1)
                           for c in range(num_classes)], axis=1)
        return counts.argmax(axis=1).astype(np.int64)
    return (rows[:, 0] % num_classes).astype(np.int64)  # copy-class


def generate_task(kind: str, size: int, seed: int, *,
                  vocab_size: int = 16, seq_len: int = 8, num_classes: int = 2,
                  eval_size: int | None = None,
                  batch_size: int = 32) -> tuple[Batch, Batch]:
    """Return the (train, eval) splits of one of TASK_KINDS, a ``Batch``
    each. ``batch_size`` has no effect: only the benchmark harness passes
    it, and ROADMAP item 1 deletes it along with that caller. The other
    arguments are checked as config fields (``vocab_size``, ``seq_len`` and
    ``num_classes`` at least 2), so a bad one raises ConfigError naming it;
    an integer must be an ``int``, not a bool, float or NumPy integer."""
    TaskConfig(kind, size, seed, eval_size)
    for name, value in (("vocab_size", vocab_size), ("seq_len", seq_len),
                        ("num_classes", num_classes)):
        schema.check_value(name, value, int, min=2)
    if eval_size is None:
        eval_size = max(size // 4, 8)
    needed = size + eval_size
    capacity = float(vocab_size) ** seq_len
    if capacity < needed * 2:
        raise ConfigError(f"vocab_size^seq_len = {capacity:.0f} too small for "
                          f"{needed} unique sequences")

    rng = np.random.default_rng(seed)
    seen: set[bytes] = set()
    rows: list[np.ndarray] = []
    while len(rows) < needed:
        block = rng.integers(0, vocab_size, size=(2 * needed, seq_len),
                             dtype=np.int64)
        for row in block:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
                if len(rows) == needed:
                    break
    pool = np.stack(rows)
    labels = _labels_for(kind, pool, num_classes)
    return Batch(pool[:size], labels[:size]), Batch(pool[size:], labels[size:])
