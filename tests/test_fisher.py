"""Score estimation, mask selection, gradient masking, persistence."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import example_nll
from peftlab import tensor as T
from peftlab.checkpoint import load_mask, load_scores, save_mask, save_scores
from peftlab.errors import (CheckpointError, ConfigError, ContractError,
                            NumericError)
from peftlab.fisher import (FisherEstimate, SparsityMask, budget_to_k,
                            estimate_fisher, mask_gradients, select)
from peftlab.model import Batch, ModelConfig, build_model
from peftlab.peft import METHODS, PeftConfig, ThetaTilde, attach
from peftlab.tasks import generate_task

SMALL = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                    vocab_size=8, max_seq_len=6, num_classes=2, seed=5)


class TinyLogistic:
    """Two-class model with logits [0, w.x]; p(y=1) = sigmoid(w.x)."""

    def __init__(self, w):
        self.w = T.Tensor(np.asarray(w, dtype=np.float32), requires_grad=True)
        self._theta = ThetaTilde([("w", self.w)])

    def fisher_parameters(self):
        return self._theta

    def batch_nll(self, rows, labels):
        x = T.Tensor(rows)
        x.example_axis = True
        z = T.matmul(x, T.reshape(self.w, (-1, 1)))
        logits = T.concat((T.Tensor(np.zeros((len(x.data), 1),
                                             dtype=np.float32)), z), axis=1)
        return T.log_softmax_nll(logits, np.asarray(labels), "sum")


def logistic_dataset(n=32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2)).astype(np.float32)
    y = (rng.uniform(size=n) < 0.5).astype(np.int64)
    return x, y


def test_fisher_matches_logistic_closed_form():
    x, y = logistic_dataset()
    w = np.array([0.7, -1.2], dtype=np.float32)
    model = TinyLogistic(w)
    data = SimpleNamespace(token_ids=x, labels=y)
    est = estimate_fisher(model, data, num_samples=len(y))

    # closed form: grad_j of the per-example NLL is (p - y) * x_j
    p = 1.0 / (1.0 + np.exp(-(x.astype(np.float64) @ w.astype(np.float64))))
    g = (p - y)[:, None] * x.astype(np.float64)
    want = (g * g).mean(axis=0)
    np.testing.assert_allclose(est.scores, want, rtol=1e-3)


def lora_fixture():
    model = build_model(SMALL)
    module = attach(model, PeftConfig(method="lora", rank=2,
                                      target_layers=(1,)))
    task = generate_task("parity", 32, 3, vocab_size=8, seq_len=6)
    return model, module, task[0]


def batch1_scores(model, data, num_samples):
    """The sequential oracle: one batch-1 backward pass per example, in the
    canonical order, squares summed in float64."""
    examples = [(row, int(label))
                for row, label in zip(data.token_ids, data.labels)]
    examples.sort(key=lambda e: (e[0].tobytes(), e[1]))
    theta = model.fisher_parameters()
    acc = np.zeros(theta.length, dtype=np.float64)
    for row, label in examples[:num_samples]:
        theta.zero_grads()
        T.backward(example_nll(model, row, label))
        g = theta.grad_vector().astype(np.float64)
        acc += g * g
    return (acc / num_samples).astype(np.float32)


def test_fisher_matches_brute_force_loop():
    model, module, data = lora_fixture()
    est = estimate_fisher(model, data, num_samples=16)
    np.testing.assert_array_equal(est.scores, batch1_scores(model, data, 16))


@pytest.mark.parametrize("method", METHODS)
def test_batched_scores_equal_batch1_oracle(method):
    """Chunked per-example passes give the sequential estimate bitwise.

    SMALL is 8 wide, so a chunk of 8 examples has as many rows as the model
    has features; 40 samples span a chunk boundary (32 + 8) and 1 sample is
    a chunk of one. An example axis guessed from shapes fails one of them.
    UniPELT runs with its gates in the flat view (the default).
    """
    model = build_model(SMALL)
    module = attach(model, PeftConfig(method=method, rank=2, prefix_len=3,
                                      target_weights=("W_Q", "W_K", "W_V",
                                                      "W_O", "FFN"),
                                      target_layers=(1,)))
    rng = np.random.default_rng(11)
    for _, t in module.theta_tilde().entries + model.head_parameters():
        t.data[:] = t.data + rng.normal(0.0, 0.3, size=t.shape)
    data = generate_task("parity", 48, 3, vocab_size=8, seq_len=6)[0]
    leaves = [t for _, t in module.theta_tilde().entries
              + model.head_parameters()]

    def grads():
        return [None if t.grad is None else t.grad.tobytes() for t in leaves]

    for n in (40, 8, 1):
        before = grads()
        est = estimate_fisher(model, data, num_samples=n)
        assert grads() == before  # scoring writes no gradient
        np.testing.assert_array_equal(est.scores,
                                      batch1_scores(model, data, n))


def test_scoring_leaves_no_tape_behind_the_gate_cache():
    """UniPELT caches each layer's gates; scoring's backward drops the tape
    nodes it replays, so the cache keeps no tape of the last chunk alive."""
    model = build_model(SMALL)
    module = attach(model, PeftConfig(method="unipelt", rank=2, prefix_len=3))
    data = generate_task("parity", 16, 3, vocab_size=8, seq_len=6)[0]
    estimate_fisher(model, data, num_samples=16)
    assert module._gates
    assert all(g.node is None for g in module._gates.values())


def test_fisher_batching_invariance():
    model, module, data = lora_fixture()
    a = estimate_fisher(model, data, num_samples=24)
    perm = np.random.default_rng(9).permutation(len(data))
    shuffled = Batch(data.token_ids[perm], data.labels[perm])
    b = estimate_fisher(model, shuffled, num_samples=24)
    assert a.scores.tobytes() == b.scores.tobytes()


def test_fisher_uses_true_labels():
    model, module, data = lora_fixture()
    a = estimate_fisher(model, data, num_samples=16)
    flipped = Batch(data.token_ids, 1 - data.labels)
    b = estimate_fisher(model, flipped, num_samples=16)
    assert a.scores.tobytes() != b.scores.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_names_its_sample():
    x, y = logistic_dataset(n=40)
    x[35] = np.inf  # the 36th example in the order below, in chunk 2
    model = TinyLogistic([0.7, -1.2])
    data = SimpleNamespace(token_ids=x, labels=y)
    order = sorted(range(40), key=lambda j: (x[j].tobytes(), y[j]))
    with pytest.raises(NumericError,
                       match=f"sample {order.index(35)}$"):
        estimate_fisher(model, data, num_samples=40)


def test_fisher_properties_and_validation():
    model, module, data = lora_fixture()
    est = estimate_fisher(model, data, num_samples=8)
    assert len(est) == module.theta_tilde().length
    assert est.scores.dtype == np.float32
    assert est.scores.min() >= 0.0
    with pytest.raises(ConfigError):
        estimate_fisher(model, data, num_samples=0)
    with pytest.raises(ConfigError):
        estimate_fisher(model, data, num_samples=10_000)
    with pytest.raises(ContractError):
        estimate_fisher(model, Batch(np.zeros((0, 6), dtype=np.int64),
                                     np.zeros(0, dtype=np.int64)),
                        num_samples=1)
    with pytest.raises(ContractError):
        FisherEstimate(np.array([[1.0]]), 1)
    with pytest.raises(ContractError):
        FisherEstimate(np.array([-1.0]), 1)


# -- selection -------------------------------------------------------------------


def test_select_fish_reverse_frozen_ties():
    scores = np.array([1.0, 3.0, 3.0, 0.0], dtype=np.float32)
    assert list(select(scores, 1, "fish").bits) == [0, 1, 0, 0]
    assert list(select(scores, 2, "fish").bits) == [0, 1, 1, 0]
    assert list(select(scores, 1, "reverse").bits) == [0, 0, 0, 1]
    assert list(select(np.array([2.0, 0.0, 0.0, 5.0], dtype=np.float32),
                       1, "reverse").bits) == [0, 1, 0, 0]


def test_select_dense_and_full_budget_degeneracy():
    scores = np.random.default_rng(0).uniform(size=17).astype(np.float32)
    dense = select(scores, 3, "dense")
    assert dense.k == 17
    for strategy in ("fish", "reverse"):
        assert select(scores, 17, strategy).bits.tolist() == [1] * 17
    assert select(scores, 17, "random", seed=1).bits.tolist() == [1] * 17


def test_select_random_seeded():
    scores = np.zeros(40, dtype=np.float32)
    a = select(scores, 10, "random", seed=7)
    b = select(scores, 10, "random", seed=7)
    c = select(scores, 10, "random", seed=8)
    assert a.bits.tobytes() == b.bits.tobytes()
    assert a.bits.tobytes() != c.bits.tobytes()
    with pytest.raises(ConfigError):
        select(scores, 10, "random")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False,
                          width=32),
                min_size=1, max_size=64),
       st.data())
def test_select_topk_property(scores_list, data):
    scores = np.array(scores_list, dtype=np.float32)
    k = data.draw(st.integers(min_value=1, max_value=len(scores)))
    for strategy, keep_high in (("fish", True), ("reverse", False)):
        mask = select(scores, k, strategy)
        assert mask.k == k
        picked = scores[mask.bits == 1]
        left = scores[mask.bits == 0]
        if len(left):
            if keep_high:
                assert picked.min() >= left.max()
            else:
                assert picked.max() <= left.min()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
def test_budget_to_k_bounds_property(n, ratio):
    k = budget_to_k(n, ratio)
    assert 1 <= k <= n
    assert abs(k - ratio * n) <= 0.5 + 1e-9 or k in (1, n)


def test_budget_to_k_frozen_values():
    assert budget_to_k(192, 1.0) == 192
    assert budget_to_k(192, 0.5) == 96
    assert budget_to_k(192, 0.25) == 48
    assert budget_to_k(192, 0.01) == 2      # round(1.92) = 2
    assert budget_to_k(192, 0.001) == 1     # clamped up
    assert budget_to_k(3, 0.5) == 2         # 1.5 rounds half up
    with pytest.raises(ConfigError):
        budget_to_k(192, 0.0)
    with pytest.raises(ConfigError):
        budget_to_k(192, 1.5)


@pytest.mark.parametrize("budget", [True, "0.5"])
def test_budget_to_k_checks_the_budget_type(budget):
    # True would train everything, and a str died with a bare TypeError
    with pytest.raises(ConfigError, match="budget: expected a finite float"):
        budget_to_k(8, budget)


def test_select_validation():
    scores = np.ones(5, dtype=np.float32)
    with pytest.raises(ConfigError):
        select(scores, 0, "fish")
    with pytest.raises(ConfigError):
        select(scores, 6, "fish")
    with pytest.raises(ConfigError):
        select(scores, 1, "mystery")


# -- gradient masking --------------------------------------------------------------


def test_mask_gradients_exact_semantics():
    rng = np.random.default_rng(3)
    g = rng.normal(size=64).astype(np.float32)
    g[7] = -0.0  # sign of zero must survive on kept coordinates
    mask = select(rng.uniform(size=64).astype(np.float32), 20, "fish")
    out = mask_gradients(g, mask)
    kept = mask.bits == 1
    assert out[kept].tobytes() == g[kept].tobytes()
    dropped = out[~kept]
    assert np.all(dropped == 0.0)
    assert np.all(np.signbit(dropped) == False)  # noqa: E712  exact +0.0
    with pytest.raises(ContractError):
        mask_gradients(g[:10], mask)


def test_sparsity_mask_validation():
    with pytest.raises(ContractError):
        SparsityMask(np.array([0, 2], dtype=np.uint8), "fish")
    with pytest.raises(ConfigError):
        SparsityMask(np.array([0, 1], dtype=np.uint8), "mystery")


# -- persistence --------------------------------------------------------------------


def test_score_and_mask_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    est = FisherEstimate(rng.uniform(size=33).astype(np.float32), 16)
    spath = tmp_path / "scores.bin"
    save_scores(spath, est)
    back = load_scores(spath)
    assert back.scores.tobytes() == est.scores.tobytes()
    assert back.num_samples == 16

    mask = select(est, 9, "fish")
    mpath = tmp_path / "mask.bin"
    save_mask(mpath, mask)
    mback = load_mask(mpath)
    assert mback.bits.tobytes() == mask.bits.tobytes()
    assert (mback.strategy, mback.k, mback.seed) == ("fish", 9, None)

    rmask = select(est, 4, "random", seed=11)
    save_mask(mpath, rmask)
    assert load_mask(mpath).seed == 11

    # any integer seed comes back as itself, not as a sentinel or an overflow
    for seed in (-1, 0, 2**63, np.int64(7)):
        save_mask(mpath, select(est, 3, "fish", seed=seed))
        assert load_mask(mpath).seed == seed

    save_scores(spath, FisherEstimate(est.scores, np.int64(16)))
    assert load_scores(spath).num_samples == 16
    # a seed the manifest could not read back is refused where the mask is made
    with pytest.raises(ConfigError, match="seed: expected int"):
        select(est, 3, "fish", seed=3.5)


@pytest.mark.parametrize("num_samples", [-3, 0, True, 2.0, "16"])
def test_estimate_num_samples_must_be_a_positive_integer(num_samples):
    # a bad count is refused where it arrives, not saved into a file that
    # load_scores then refuses, nor stored as 1 for True
    with pytest.raises(ConfigError, match="num_samples"):
        FisherEstimate(np.ones(4, dtype=np.float32), num_samples)
    model, _, data = lora_fixture()
    with pytest.raises(ConfigError, match="num_samples"):
        estimate_fisher(model, data, num_samples=num_samples)


@pytest.mark.parametrize("k", [2.0, True, "2"])
def test_select_budget_must_be_an_integer(k):
    with pytest.raises(ConfigError, match="k: expected int"):
        select(np.ones(5, dtype=np.float32), k, "fish")


def test_container_corruption_detected(tmp_path):
    est = FisherEstimate(np.ones(8, dtype=np.float32), 2)
    path = tmp_path / "scores.bin"
    save_scores(path, est)
    blob = path.read_bytes()

    (tmp_path / "bad_magic.bin").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_scores(tmp_path / "bad_magic.bin")

    (tmp_path / "bad_version.bin").write_bytes(blob[:4] + b"\x63\0\0\0"
                                               + blob[8:])
    with pytest.raises(CheckpointError, match="version"):
        load_scores(tmp_path / "bad_version.bin")

    (tmp_path / "short.bin").write_bytes(blob[:-5])
    with pytest.raises(CheckpointError, match="payload"):
        load_scores(tmp_path / "short.bin")

    ragged = blob.replace(b'"nbytes": 32', b'"nbytes": 31')
    assert ragged != blob
    (tmp_path / "ragged.bin").write_bytes(ragged)
    with pytest.raises(CheckpointError, match="not whole float32 values"):
        load_scores(tmp_path / "ragged.bin")

    nan = np.array([np.nan], dtype="<f4").tobytes()
    (tmp_path / "nan.bin").write_bytes(blob[:-4] + nan)
    with pytest.raises(CheckpointError, match="non-finite"):
        load_scores(tmp_path / "nan.bin")

    mask = select(est, 3, "fish")
    save_mask(tmp_path / "mask.bin", mask)
    with pytest.raises(CheckpointError, match="score file|not a"):
        load_scores(tmp_path / "mask.bin")


def test_corrupt_mask_record_is_checkpoint_error(tmp_path):
    path = tmp_path / "mask.bin"
    save_mask(path, select(np.ones(8, dtype=np.float32), 3, "fish"))
    blob = path.read_bytes()
    # same length, so the manifest's declared size still holds
    hacked = blob.replace(b'"strategy": "fish"', b'"strategy": "fysh"')
    assert hacked != blob
    path.write_bytes(hacked)
    with pytest.raises(CheckpointError, match="strategy: expected one of"):
        load_mask(path)

    path.write_bytes(blob[:-1] + b"\x02")  # the last bit is 0 or 1
    with pytest.raises(CheckpointError, match="bits must be 0 or 1"):
        load_mask(path)
