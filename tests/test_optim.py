"""Optimizers: reference oracles, mask immutability, training loop contracts."""

from fractions import Fraction

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.errors import ConfigError, ContractError, NumericError
from peftlab.fisher import select
from peftlab.model import ModelConfig, build_model, forward
from peftlab.optim import (OptimizerState, TrainConfig, compute_ratios,
                           evaluate, step, train)
from peftlab.peft import PeftConfig, ThetaTilde, attach
from peftlab.tasks import generate_task
from peftlab.tensor import Tensor

SMALL = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                    vocab_size=8, max_seq_len=6, num_classes=2, seed=5)


def view_of(values) -> ThetaTilde:
    return ThetaTilde([("p", Tensor(np.asarray(values, dtype=np.float32),
                                    requires_grad=True))])


def test_sgd_oracle():
    view = view_of([1.0, -2.0, 0.5])
    g = np.array([0.5, 0.25, -1.0], dtype=np.float32)
    state = OptimizerState.create("sgd", 0.1, 3)
    step(view, g, None, state)
    want = np.array([1.0, -2.0, 0.5], dtype=np.float32) \
        - np.float32(0.1) * g
    assert view.to_vector().tobytes() == want.tobytes()


def adamw_reference(params, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    """Textbook AdamW in float64, decoupled decay."""
    p = params.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads_seq, start=1):
        g = g.astype(np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps) - lr * wd * p
    return p


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adamw_matches_reference(wd):
    rng = np.random.default_rng(2)
    init = rng.normal(size=12).astype(np.float32)
    grads = [rng.normal(size=12).astype(np.float32) for _ in range(7)]
    view = view_of(init)
    state = OptimizerState.create("adamw", 0.05, 12, weight_decay=wd)
    for g in grads:
        step(view, g, None, state)
    want = adamw_reference(init, grads, 0.05, wd=wd)
    np.testing.assert_allclose(view.to_vector(), want, atol=1e-6)


def test_masked_coordinates_bitwise_frozen_and_moments_zero():
    rng = np.random.default_rng(4)
    init = rng.normal(size=40).astype(np.float32)
    view = view_of(init)
    mask = select(rng.uniform(size=40).astype(np.float32), 13, "fish")
    state = OptimizerState.create("adamw", 0.01, 40, weight_decay=0.1)
    for _ in range(50):
        step(view, rng.normal(size=40).astype(np.float32), mask, state)
    out = view.to_vector()
    frozen = mask.bits == 0
    assert out[frozen].tobytes() == init[frozen].tobytes()
    assert not np.array_equal(out[~frozen], init[~frozen])
    assert np.all(state.exp_avg[frozen] == 0.0)
    assert np.all(state.exp_avg_sq[frozen] == 0.0)


def test_dense_mask_bitwise_equals_no_mask():
    rng = np.random.default_rng(6)
    init = rng.normal(size=24).astype(np.float32)
    grads = [rng.normal(size=24).astype(np.float32) for _ in range(20)]
    runs = []
    for mask in (None, select(np.zeros(24, dtype=np.float32), 1, "dense")):
        view = view_of(init)
        state = OptimizerState.create("adamw", 0.02, 24, weight_decay=0.05)
        for g in grads:
            step(view, g, mask, state)
        runs.append(view.to_vector())
    assert runs[0].tobytes() == runs[1].tobytes()


def test_step_validation_and_nonfinite():
    view = view_of(np.zeros(5))
    state = OptimizerState.create("sgd", 0.1, 5)
    with pytest.raises(ContractError):
        step(view, np.zeros(4, dtype=np.float32), None, state)
    mask = select(np.arange(4, dtype=np.float32), 2, "fish")
    with pytest.raises(ContractError):
        step(view, np.zeros(5, dtype=np.float32), mask, state)
    bad = np.zeros(5, dtype=np.float32)
    bad[3] = np.inf
    with pytest.raises(NumericError, match="coordinate 3"):
        step(view, bad, None, state)


def test_optimizer_state_validation():
    with pytest.raises(ConfigError):
        OptimizerState.create("mystery", 0.1, 3)
    with pytest.raises(ConfigError):
        OptimizerState.create("sgd", 0.0, 3)
    with pytest.raises(ConfigError):
        OptimizerState.create("adamw", 0.1, 3, beta1=1.0)
    with pytest.raises(ConfigError):
        OptimizerState.create("adamw", 0.1, 3, weight_decay=-0.1)


# -- evaluate / ratios --------------------------------------------------------


def test_evaluate_matches_manual_computation():
    model = build_model(SMALL)
    task = generate_task("parity", 32, 1, vocab_size=8, seq_len=6,
                         batch_size=8)
    loss, acc = evaluate(model, task[1])
    total, hits, n = 0.0, 0, 0
    for batch in task[1]:
        with T.no_grad():
            logits = forward(model, batch).data.astype(np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        total += -logp[np.arange(len(batch)), batch.labels].sum()
        hits += int((logits.argmax(axis=1) == batch.labels).sum())
        n += len(batch)
    assert abs(loss - total / n) < 1e-5
    assert acc == hits / n


def test_compute_ratios_identity_within_one_ulp():
    model = build_model(SMALL)
    module = attach(model, PeftConfig(method="lora", rank=2,
                                      target_layers=(1,)))
    length = module.theta_tilde().length
    total = model.param_count() + module.param_count()
    scores = np.arange(length, dtype=np.float32)
    for k in (1, 2, length // 4, length // 2, length - 1, length):
        mask = select(scores, k, "fish")
        r1, r2 = compute_ratios(model, module, mask)
        assert r1 == k / total and r2 == k / length
        lhs = Fraction(r1) / Fraction(r2)
        rhs = Fraction(length, total)
        assert abs(lhs - rhs) / rhs <= Fraction(1, 2 ** 52)


def test_halving_budget_halves_ratio1_exactly():
    model = build_model(SMALL)
    module = attach(model, PeftConfig(method="lora", rank=2,
                                      target_layers=(1,)))
    length = module.theta_tilde().length
    scores = np.arange(length, dtype=np.float32)
    full = compute_ratios(model, module, select(scores, length, "fish"))
    half = compute_ratios(model, module, select(scores, length // 2, "fish"))
    assert half[0] == full[0] / 2.0
    assert half[1] == 0.5


# -- the training loop ----------------------------------------------------------


def training_setup(seed=5, method="lora", epochs=2):
    model = build_model(ModelConfig(num_layers=1, hidden_dim=8, num_heads=2,
                                    ffn_dim=16, vocab_size=8, max_seq_len=6,
                                    num_classes=2, seed=seed))
    module = attach(model, PeftConfig(method=method, rank=2,
                                      target_layers=(1,)))
    task = generate_task("parity", 48, seed, vocab_size=8, seq_len=6,
                         batch_size=16)
    tcfg = TrainConfig(lr=0.01, epochs=epochs, batch_size=16, seed=seed)
    return model, module, task, tcfg


def test_train_report_structure_and_determinism():
    reports = []
    for _ in range(2):
        model, module, task, tcfg = training_setup()
        mask = select(np.arange(module.theta_tilde().length,
                                dtype=np.float32), 10, "fish")
        reports.append(train(model, module, mask, task, tcfg, "deadbeef"))
    a, b = reports
    assert [r.epoch for r in a.records] == [0, 1, 2]
    assert a.records[0].train_loss is None
    assert all(r.train_loss is not None for r in a.records[1:])
    assert a.config_hash == "deadbeef"
    assert a.strategy == "fish" and a.seed == 5
    for ra, rb in zip(a.records, b.records):
        assert (ra.train_loss, ra.eval_loss, ra.eval_accuracy) \
            == (rb.train_loss, rb.eval_loss, rb.eval_accuracy)


def test_train_zero_epochs_gives_init_eval_only():
    model, module, task, _ = training_setup()
    tcfg = TrainConfig(lr=0.01, epochs=0, seed=5)
    report = train(model, module, None, task, tcfg)
    assert len(report.records) == 1
    assert report.records[0].epoch == 0
    assert report.records[0].train_loss is None
    assert report.ratio2 == 1.0


def test_train_keeps_base_bitwise_frozen():
    model, module, task, tcfg = training_setup()
    before = {n: t.data.tobytes() for n, t in model.base_parameters()}
    train(model, module, None, task, tcfg)
    after = {n: t.data.tobytes() for n, t in model.base_parameters()}
    assert before == after
    # head must have moved: it is trainable alongside the adapters
    assert not np.array_equal(model.head_W.grad, None) or True
    assert model.head_W.data.tobytes() != build_model(
        ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                    vocab_size=8, max_seq_len=6, num_classes=2,
                    seed=5)).head_W.data.tobytes()


def test_train_respects_mask_end_to_end():
    model, module, task, tcfg = training_setup()
    theta = module.theta_tilde()
    init = theta.to_vector()
    mask = select(np.random.default_rng(0).uniform(
        size=theta.length).astype(np.float32), 7, "fish")
    train(model, module, mask, task, tcfg)
    out = theta.to_vector()
    frozen = mask.bits == 0
    assert out[frozen].tobytes() == init[frozen].tobytes()
    assert not np.array_equal(out[~frozen], init[~frozen])


def test_early_stopping_on_flat_loss():
    model, module, task, _ = training_setup()
    tcfg = TrainConfig(lr=1e-20, epochs=30, batch_size=16, early_stop=True,
                       patience=2, seed=5)
    report = train(model, module, None, task, tcfg)
    assert report.stopped_early_at == 2
    assert len(report.records) == 3  # epoch 0 plus two flat epochs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reported_not_raised():
    model, module, task, _ = training_setup()
    tcfg = TrainConfig(lr=1e18, optimizer="sgd", epochs=5, batch_size=16,
                       seed=5)
    report = train(model, module, None, task, tcfg)
    assert report.diverged
    assert len(report.records) >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_update_reported_not_raised():
    """An update that overflows while the loss is still finite ends the run
    the same way a non-finite loss does."""
    model, module, task, _ = training_setup()
    tcfg = TrainConfig(lr=1e39, optimizer="sgd", epochs=5, batch_size=16,
                       seed=5)
    report = train(model, module, None, task, tcfg)
    assert report.diverged
    assert [r.epoch for r in report.records] == [0]


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="mystery")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)


def test_dense_adapter_baseline_solves_parity():
    """Regression fixture: the desk-scale baseline run must stay learnable.

    A dense-masked low-rank adapter (rank 4 on Q/V/FFN of both layers) plus
    the head reaches >0.9 eval accuracy on length-4 parity within 30 epochs.
    """
    model = build_model(ModelConfig(max_seq_len=4, seed=42))
    task = generate_task("parity", 512, 42, seq_len=4)
    module = attach(model, PeftConfig(method="lora", rank=4,
                                      target_weights=("W_Q", "W_V", "FFN"),
                                      target_layers=(1, 2)))
    n = module.theta_tilde().length
    mask = select(np.zeros(n, dtype=np.float32), n, "dense")
    report = train(model, module, mask, task,
                   TrainConfig(lr=0.01, epochs=30, seed=42))
    assert not report.diverged
    assert report.final_eval_accuracy > 0.9
