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

import numbers

import numpy as np

from .errors import ConfigError
from .model import Batch

TASK_KINDS = ("parity", "majority", "copy-class")


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
    if kind == "copy-class":
        return (rows[:, 0] % num_classes).astype(np.int64)
    raise ConfigError(f"unknown task kind '{kind}'; expected one of {TASK_KINDS}")


def generate_task(kind: str, size: int, seed: int, *,
                  vocab_size: int = 16, seq_len: int = 8, num_classes: int = 2,
                  eval_size: int | None = None,
                  batch_size: int = 32) -> tuple[Batch, Batch]:
    """Return the (train, eval) splits of one of TASK_KINDS, a ``Batch``
    each. ``batch_size`` has no effect: only the benchmark harness passes
    it, and ROADMAP item 1 deletes it along with that caller. A mistyped or
    out-of-range argument raises ConfigError."""
    if kind not in TASK_KINDS:
        raise ConfigError(f"unknown task kind '{kind}'; expected one of {TASK_KINDS}")
    integers = {"size": size, "seed": seed, "vocab_size": vocab_size,
                "seq_len": seq_len, "num_classes": num_classes,
                "eval_size": eval_size}
    for name, value in integers.items():
        if value is None and name == "eval_size":
            continue
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if size < 16:
        raise ConfigError(f"task size must be >= 16, got {size}")
    if vocab_size < 2 or seq_len < 2:
        raise ConfigError("tasks need vocab_size >= 2 and seq_len >= 2")
    if num_classes < 2:
        raise ConfigError("tasks need num_classes >= 2")
    if eval_size is None:
        eval_size = max(size // 4, 8)
    if eval_size < 1:
        raise ConfigError(f"eval_size must be >= 1, got {eval_size}")
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
