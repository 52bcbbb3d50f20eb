"""Task generation: determinism, split disjointness, label rules."""

from collections import Counter

import numpy as np
import pytest

from peftlab.errors import ConfigError
from peftlab.model import Batch
from peftlab.tasks import generate_task


def split(data):
    return data.token_ids, data.labels


def test_regeneration_is_bitwise_identical():
    a = split(generate_task("parity", 64, 5)[0])
    b = split(generate_task("parity", 64, 5, batch_size=7)[0])  # no effect
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()


def test_seeds_differ():
    a = split(generate_task("parity", 64, 5)[0])
    b = split(generate_task("parity", 64, 6)[0])
    assert a[0].tobytes() != b[0].tobytes()


def test_train_eval_disjoint_and_sized():
    train, evals = generate_task("majority", 96, 2)
    assert isinstance(train, Batch) and isinstance(evals, Batch)
    rows_t, labels_t = split(train)
    rows_e, labels_e = split(evals)
    assert len(labels_t) == 96
    assert len(labels_e) == 24
    assert not {r.tobytes() for r in rows_t} & {r.tobytes() for r in rows_e}
    assert len({r.tobytes() for r in rows_t}) == 96  # no duplicates either


def test_parity_balance_frozen():
    rows, labels = split(generate_task("parity", 1024, 0)[0])
    assert int(labels.sum()) == 492  # 48.05% positive, inside the 45-55% band
    positions = (0, rows.shape[1] // 2)
    recomputed = (rows[:, positions[0]] & 1) ^ (rows[:, positions[1]] & 1)
    assert np.array_equal(labels, recomputed)

    # the documented reference draw stays balanced too
    _, labels42 = split(generate_task("parity", 1024, 42)[0])
    assert int(labels42.sum()) == 501
    assert 0.45 <= labels42.mean() <= 0.55


def test_majority_rule_with_tie_break():
    rows, labels = split(generate_task("majority", 64, 3, num_classes=3)[0])
    for row, label in zip(rows, labels):
        counts = Counter(int(t) % 3 for t in row)
        best = max(counts.values())
        want = min(c for c, n in counts.items() if n == best)
        assert label == want


def test_copy_class_rule():
    rows, labels = split(generate_task("copy-class", 64, 4, num_classes=4)[0])
    assert np.array_equal(labels, rows[:, 0] % 4)


def test_tokens_within_vocab():
    rows, _ = split(generate_task("parity", 64, 7, vocab_size=5)[0])
    assert rows.min() >= 0 and rows.max() < 5


def test_validation_errors():
    with pytest.raises(ConfigError):
        generate_task("nonsense", 64, 0)
    with pytest.raises(ConfigError):
        generate_task("parity", 8, 0)
    with pytest.raises(ConfigError):
        generate_task("parity", 64, 0, vocab_size=2, seq_len=2)
    with pytest.raises(ConfigError, match="eval_size"):
        generate_task("parity", 16, 0, seq_len=4, eval_size=-5)
    with pytest.raises(ConfigError, match="eval_size"):
        generate_task("parity", 16, 0, seq_len=4, eval_size=0)


@pytest.mark.parametrize("name, value", [
    ("size", 64.5), ("seed", 0.5), ("seed", "0"), ("vocab_size", 8.0),
    ("seq_len", None), ("num_classes", True), ("eval_size", 12.0),
])
def test_mistyped_argument_is_config_error_naming_it(name, value):
    args = {"kind": "parity", "size": 64, "seed": 0, name: value}
    with pytest.raises(ConfigError, match=f"^{name}: expected int"):
        generate_task(**args)


def test_negative_seed_or_vocab_is_config_error():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        generate_task("parity", 64, -1)
    with pytest.raises(ConfigError, match="vocab_size must be >= 2"):
        generate_task("parity", 64, 0, vocab_size=-4)
