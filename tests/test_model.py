"""Model construction, determinism, forward contracts, gradient spot checks."""

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.errors import ConfigError, ContractError, ShapeError
from peftlab.model import Batch, ModelConfig, build_model, forward
from peftlab.tasks import flatten, generate_task

from helpers import grad_close

SMALL = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                    vocab_size=8, max_seq_len=6, num_classes=2, seed=3)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(hidden_dim=30, num_heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(num_layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0)


def test_build_is_bitwise_deterministic():
    a = build_model(ModelConfig())
    b = build_model(ModelConfig())
    for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes(), na
    c = build_model(ModelConfig(seed=43))
    assert c.embedding.data.tobytes() != a.embedding.data.tobytes()


def test_param_count_matches_closed_form():
    cfg = ModelConfig()
    m = build_model(cfg)
    d, f, L = cfg.hidden_dim, cfg.ffn_dim, cfg.num_layers
    want = (cfg.vocab_size * d + cfg.max_seq_len * d
            + L * (4 * (d * d + d) + d * f + f + f * d + d + 4 * d)
            + d * cfg.num_classes + cfg.num_classes)
    assert m.param_count() == want == 17922


def test_forward_shape_and_dtype():
    m = build_model(SMALL)
    rng = np.random.default_rng(0)
    batch = Batch(rng.integers(0, 8, size=(5, 6)), rng.integers(0, 2, size=5))
    logits = forward(m, batch)
    assert logits.shape == (5, 2)
    assert logits.data.dtype == np.float32


def test_forward_rejects_bad_batches():
    m = build_model(SMALL)
    with pytest.raises(ContractError, match="max_seq_len"):
        forward(m, Batch(np.zeros((2, 7), dtype=np.int64),
                         np.zeros(2, dtype=np.int64)))
    with pytest.raises(ContractError, match="vocab"):
        forward(m, Batch(np.full((2, 4), 8, dtype=np.int64),
                         np.zeros(2, dtype=np.int64)))


def test_batch_validation():
    with pytest.raises(ShapeError):
        Batch(np.zeros((2, 3), dtype=np.int64), np.zeros(3, dtype=np.int64))
    with pytest.raises(ContractError):
        Batch(np.zeros((2, 3), dtype=np.float32), np.zeros(2, dtype=np.int64))
    with pytest.raises(ContractError):
        Batch(-np.ones((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64))


def test_zero_embeddings_and_zero_head_give_flat_logits():
    m = build_model(SMALL)
    m.embedding.data[:] = 0.0
    m.head_W.data[:] = 0.0
    m.head_b.data[:] = 0.0
    batch = Batch(np.arange(8).reshape(2, 4) % 8, np.zeros(2, dtype=np.int64))
    logits = forward(m, batch).data
    assert np.all(logits == logits[:, :1])


def test_init_loss_near_log_num_classes():
    m = build_model(SMALL)
    rows, labels = flatten(generate_task("parity", 256, 0,
                                         vocab_size=8, seq_len=6)[0])
    with T.no_grad():
        ce = T.log_softmax_nll(forward(m, Batch(rows, labels)), labels).item()
    assert abs(ce - np.log(2)) < 0.2


@pytest.mark.parametrize("pick", ["layer0/W_Q", "layer0/W_V", "layer0/FFN1",
                                  "layer0/ln2_g", "embedding", "pos_embedding",
                                  "head/W", "layer0/b_O"])
def test_model_gradients_match_finite_differences(pick):
    m = build_model(SMALL)
    rng = np.random.default_rng(1)
    batch = Batch(rng.integers(0, 8, size=(4, 6)), rng.integers(0, 2, size=4))
    loss = T.log_softmax_nll(forward(m, batch), batch.labels)
    T.backward(loss)
    tensor = dict(m.named_parameters())[pick]

    def objective(t):
        saved = tensor.data
        tensor.data = t.data
        try:
            with T.no_grad():
                return T.log_softmax_nll(forward(m, batch), batch.labels).item()
        finally:
            tensor.data = saved

    fd = T.finite_diff_grad(objective, T.Tensor(tensor.data.copy()))
    assert grad_close(tensor.grad, fd.data)


def test_every_parameter_receives_grad():
    m = build_model(SMALL)
    batch = Batch(np.arange(12).reshape(2, 6) % 8, np.array([0, 1]))
    T.backward(T.log_softmax_nll(forward(m, batch), batch.labels))
    for name, t in m.named_parameters():
        assert t.grad is not None, name
        assert t.grad.shape == t.data.shape, name


def test_layer_from_top():
    m = build_model(ModelConfig(num_layers=4))
    assert m.layer_from_top(1) == 3
    assert m.layer_from_top(4) == 0
    with pytest.raises(ConfigError):
        m.layer_from_top(0)
    with pytest.raises(ConfigError):
        m.layer_from_top(5)


def test_parameter_partition_and_freeze():
    m = build_model(SMALL)
    base = dict(m.base_parameters())
    head = dict(m.head_parameters())
    assert set(base) | set(head) == {n for n, _ in m.named_parameters()}
    assert not set(base) & set(head)
    m.freeze_base()
    assert all(not t.requires_grad for t in base.values())
    assert all(t.requires_grad for t in head.values())


def test_forward_bitwise_deterministic():
    batch = Batch(np.arange(12).reshape(2, 6) % 8, np.array([0, 1]))

    def run():
        with T.no_grad():
            return forward(build_model(SMALL), batch).data

    assert run().tobytes() == run().tobytes()
