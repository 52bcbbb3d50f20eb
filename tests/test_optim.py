"""Optimizers: reference oracles, mask immutability, training loop contracts."""

import contextlib
import ctypes
from fractions import Fraction

import numpy as np
import pytest

from peftlab import optim
from peftlab import tensor as T
from peftlab.errors import ConfigError, ContractError, NumericError
from peftlab.fisher import budget_to_k, estimate_fisher, select
from peftlab.model import Batch, ModelConfig, build_model, forward
from peftlab.optim import (OptimizerState, TrainConfig, compute_ratios,
                           evaluate, step, train)
from peftlab.peft import METHODS, PeftConfig, ThetaTilde, attach
from peftlab.tasks import generate_task
from peftlab.tensor import Tensor

from helpers import base_tensors, linear_chain, run_fresh

SMALL = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                    vocab_size=8, max_seq_len=6, num_classes=2, seed=5)


def view_of(values) -> ThetaTilde:
    return ThetaTilde([("p", Tensor(np.asarray(values, dtype=np.float32),
                                    requires_grad=True))])


def test_sgd_oracle():
    view = view_of([1.0, -2.0, 0.5])
    g = np.array([0.5, 0.25, -1.0], dtype=np.float32)
    state = OptimizerState(TrainConfig(optimizer="sgd", lr=0.1), 3)
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
    state = OptimizerState(TrainConfig(optimizer="adamw", lr=0.05,
                                       weight_decay=wd), 12)
    for g in grads:
        step(view, g, None, state)
    want = adamw_reference(init, grads, 0.05, wd=wd)
    np.testing.assert_allclose(view.to_vector(), want, atol=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_masked_coordinates_bitwise_frozen_and_moments_zero():
    """The step never reads a masked coordinate: under adamw with and
    without weight decay and under sgd with it, a nan or inf gradient there
    raises nothing, and masked values and moments keep their bits."""
    for optimizer, wd in (("adamw", 0.1), ("adamw", 0.0), ("sgd", 0.1)):
        rng = np.random.default_rng(4)
        init = rng.normal(size=40).astype(np.float32)
        view = view_of(init)
        mask = select(rng.uniform(size=40).astype(np.float32), 13, "fish")
        frozen = mask.bits == 0
        state = OptimizerState(TrainConfig(optimizer=optimizer, lr=0.01,
                                           weight_decay=wd), 40)
        for i in range(50):
            g = rng.normal(size=40).astype(np.float32)
            g[frozen] = (np.nan, np.inf, -np.inf)[i % 3]
            step(view, g, mask, state)
        out = view.to_vector()
        assert out[frozen].tobytes() == init[frozen].tobytes(), optimizer
        assert not np.array_equal(out[~frozen], init[~frozen]), optimizer
        if optimizer == "adamw":
            zeros = np.zeros(int(frozen.sum()), dtype=np.float32).tobytes()
            assert state.exp_avg[frozen].tobytes() == zeros
            assert state.exp_avg_sq[frozen].tobytes() == zeros


def test_dense_mask_bitwise_equals_no_mask():
    rng = np.random.default_rng(6)
    init = rng.normal(size=24).astype(np.float32)
    grads = [rng.normal(size=24).astype(np.float32) for _ in range(20)]
    runs = []
    for mask in (None, select(np.zeros(24, dtype=np.float32), 1, "dense")):
        view = view_of(init)
        state = OptimizerState(TrainConfig(optimizer="adamw", lr=0.02,
                                           weight_decay=0.05), 24)
        for g in grads:
            step(view, g, mask, state)
        runs.append(view.to_vector())
    assert runs[0].tobytes() == runs[1].tobytes()


def test_step_validation_and_nonfinite():
    view = view_of(np.zeros(5))
    state = OptimizerState(TrainConfig(optimizer="sgd", lr=0.1), 5)
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
        TrainConfig(optimizer="mystery", lr=0.1)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="sgd", lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="adamw", lr=0.1, beta1=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="adamw", lr=0.1, weight_decay=-0.1)
    # a mistyped value is refused as a config error, not stored or crashed on
    with pytest.raises(ConfigError, match="lr: expected a finite float"):
        TrainConfig(optimizer="sgd", lr=True)
    with pytest.raises(ConfigError, match="lr: expected a finite float"):
        TrainConfig(optimizer="sgd", lr="0.1")


def test_optimizer_state_keeps_its_train_config():
    state = OptimizerState(TrainConfig(optimizer="adamw", lr=0.02, beta1=0.8,
                                       weight_decay=0.05), 6)
    assert state.cfg == TrainConfig(optimizer="adamw", lr=0.02, beta1=0.8,
                                    weight_decay=0.05)
    assert (state.length, state.lr, state.step_count) == (6, 0.02, 0)
    assert state.exp_avg.shape == state.exp_avg_sq.shape == (6,)
    sgd = OptimizerState(TrainConfig(optimizer="sgd", lr=0.1), 6)
    assert sgd.exp_avg is None


# -- evaluate / ratios --------------------------------------------------------


def test_evaluate_matches_manual_computation():
    """A 70-row split runs as one forward pass and one mean NLL."""
    model = build_model(SMALL)
    data = generate_task("parity", 32, 1, vocab_size=8, seq_len=6,
                         eval_size=70)[1]
    loss, acc = evaluate(model, data)
    with T.no_grad():
        out = forward(model, data)
        want = T.log_softmax_nll(out, data.labels).item()
    logits = out.data.astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    reference = -logp[np.arange(70), data.labels].mean()
    assert loss == want  # bitwise: the same pass and the same reduction
    assert abs(loss - reference) < 1e-5
    assert acc == int((logits.argmax(axis=1) == data.labels).sum()) / 70


def test_evaluate_rejects_empty_data():
    data = Batch(np.zeros((0, 6), dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(ContractError, match="non-empty split"):
        evaluate(build_model(SMALL), data)


@pytest.mark.parametrize("batch_size", [7, 16, 32])
def test_final_eval_loss_does_not_depend_on_batch_size(batch_size):
    """The last eval loss train records is what evaluate gives the trained
    model, whatever minibatch size it trained at."""
    model = build_model(SMALL)
    module = attach(model, PeftConfig(method="unipelt", rank=2, prefix_len=2,
                                      target_layers=(1,)))
    task = generate_task("parity", 64, 3, vocab_size=8, seq_len=6,
                         eval_size=40)
    report = train(model, module, None, task,
                   TrainConfig(lr=0.05, epochs=1, batch_size=batch_size,
                               seed=3))
    assert report.final_eval_loss == evaluate(model, task[1])[0]


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


def test_ratio1_counts_unipelt_gates_left_out_of_the_view():
    """Frozen gates are attached and used in every forward pass, so they
    count toward the model total, though not toward the view."""
    model = build_model(ModelConfig())
    module = attach(model, PeftConfig(method="unipelt", rank=2, prefix_len=3,
                                      include_gates=False))
    gates = sum(t.size for (_, group, _), t in module.params.items()
                if group.startswith("gate_"))
    length = module.theta_tilde().length
    assert (model.param_count(), length, gates) == (17922, 832, 96)
    assert module.param_count() == length + gates
    assert compute_ratios(model, module, None) == (832 / 18850, 1.0)


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
    task = generate_task("parity", 48, seed, vocab_size=8, seq_len=6)
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
    before = {n: t.data.tobytes() for n, t in base_tensors(model).items()}
    train(model, module, None, task, tcfg)
    after = {n: t.data.tobytes() for n, t in base_tensors(model).items()}
    assert before == after
    assert all(t.grad is None for t in base_tensors(model).values())
    # head must have moved: it is trainable alongside the adapters
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


def test_early_stopping_counts_patience_from_the_best_loss(monkeypatch):
    # epoch 2 improves on epoch 0: the count restarts there, so the run
    # stops at epoch 4, not 3, and only once epochs 3 and 4 miss 0.5
    losses = iter([1.0, 1.1, 0.5, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9])
    monkeypatch.setattr("peftlab.optim.evaluate",
                        lambda model, split: (next(losses), 0.0))
    model, module, task, _ = training_setup()
    tcfg = TrainConfig(epochs=8, batch_size=16, early_stop=True, patience=2,
                       seed=5)
    report = train(model, module, None, task, tcfg)
    assert report.stopped_early_at == 4
    assert [r.eval_loss for r in report.records] == [1.0, 1.1, 0.5, 0.9, 0.9]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_reported_not_raised():
    model, module, task, _ = training_setup()
    tcfg = TrainConfig(lr=1e18, optimizer="sgd", epochs=5, batch_size=16,
                       seed=5)
    report = train(model, module, None, task, tcfg)
    assert report.diverged
    assert len(report.records) >= 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_update_reported_not_raised():
    """An update that overflows while the loss is still finite ends the run
    the same way a non-finite loss does."""
    model, module, task, _ = training_setup()
    tcfg = TrainConfig(lr=1e39, optimizer="sgd", epochs=5, batch_size=16,
                       seed=5)
    report = train(model, module, None, task, tcfg)
    assert report.diverged
    assert [r.epoch for r in report.records] == [0]


def view_flags(module):
    return [t.requires_grad for t in module.theta_tilde().tensors()]


@pytest.mark.parametrize("ending", ["return", "diverged", "raise"])
def test_train_restores_requires_grad(monkeypatch, ending):
    """Tensors the mask leaves wholly inactive are frozen while train runs
    and get their flags back however it ends."""
    model, module, task, tcfg = training_setup()
    if ending == "diverged":
        tcfg = TrainConfig(lr=1e18, optimizer="sgd", epochs=5, batch_size=16,
                           seed=5)
    theta = module.theta_tilde()
    # the first half of the view is masked out, whole tensors of it
    mask = select(np.arange(theta.length, dtype=np.float32),
                  theta.length // 2, "fish")
    before = view_flags(module)
    during = []
    real_step = optim.step

    def spy(view, grads, view_mask, state):
        during.append(view_flags(module))
        if ending == "raise":
            raise RuntimeError("step failed")
        real_step(view, grads, view_mask, state)

    monkeypatch.setattr(optim, "step", spy)
    if ending == "raise":
        with pytest.raises(RuntimeError, match="step failed"):
            train(model, module, mask, task, tcfg)
    else:
        report = train(model, module, mask, task, tcfg)
        assert report.diverged == (ending == "diverged")
    assert all(before)
    assert during and not all(during[0])
    assert view_flags(module) == before


EQUIVALENCE_MODEL = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2,
                                ffn_dim=32, vocab_size=8, max_seq_len=4,
                                num_classes=2, seed=11)


def trained_bits(method, strategy, budget, init="standard"):
    """Records, final view bytes and head bytes of a short run of
    ``method`` under ``strategy`` at ``budget``, whether the mask leaves
    some view tensor wholly inactive, and the bytes of the scores taken
    before training (the mask uses them under fish and reverse)."""
    model = build_model(EQUIVALENCE_MODEL)
    module = attach(model, PeftConfig(
        method=method, rank=2, prefix_len=2, init=init,
        target_weights=("W_Q", "W_K", "W_V", "W_O", "FFN"),
        target_layers=(1, 2)))
    task = generate_task("parity", 64, 11, vocab_size=8, seq_len=4,
                         eval_size=32)
    theta = module.theta_tilde()
    est = estimate_fisher(model, task[0], num_samples=32)
    scores = est if strategy in ("fish", "reverse") \
        else np.zeros(theta.length, dtype=np.float32)
    mask = select(scores, budget_to_k(theta.length, budget), strategy,
                  seed=11)
    report = train(model, module, mask, task,
                   TrainConfig(lr=0.05, epochs=3, batch_size=16, seed=11))
    dead = any(not mask.bits[seg.start:seg.stop].any()
               for seg in theta.segments)
    head = b"".join(t.data.tobytes() for _, t in model.head_parameters())
    return (report.records, theta.to_vector().tobytes(), head, dead,
            est.scores.tobytes())


@pytest.mark.parametrize("strategy, budget", [
    ("fish", 0.01), ("random", 0.01), ("reverse", 0.01), ("dense", 0.01),
    ("fish", 0.25)])
@pytest.mark.parametrize("method", METHODS)
def test_freezing_wholly_masked_tensors_changes_no_bit(monkeypatch, method,
                                                       strategy, budget):
    """Freezing the wholly masked view tensors for the run, and so skipping
    the branches whose B is frozen at zero, leaves the records, the view and
    the head bitwise as they are without it, although tape nodes drop out
    (their cotangents are summed in another order) and a skipped ``h + 0``
    keeps the sign of a zero. The null ``frozen`` also leaves the score
    pass's tensors that lead to no view leaf unhidden; the scores keep
    their bits too."""
    with_skip = trained_bits(method, strategy, budget)
    monkeypatch.setattr(T, "frozen", lambda tensors: contextlib.nullcontext())
    without = trained_bits(method, strategy, budget)
    assert with_skip[:3] == without[:3]
    assert with_skip[4] == without[4]
    assert with_skip[3] == (strategy != "dense")


@pytest.mark.parametrize("method, init, strategy", [
    *(("lora", init, strategy) for init in ("standard", "pissa")
      for strategy in ("fish", "random", "reverse", "dense")),
    *((method, "standard", "dense") for method in METHODS if method != "lora")])
def test_fused_projection_changes_no_bit(monkeypatch, method, init, strategy):
    """Every projection, the head's included, is one ``tensor.linear`` node,
    which LoRA's branch joins unless its B is frozen at zero. Run as the op
    chain it fuses instead, scoring and training give the same scores,
    records, view and head, bit for bit."""
    fused = trained_bits(method, strategy, 0.01, init)
    monkeypatch.setattr(T, "linear", linear_chain)
    chain = trained_bits(method, strategy, 0.01, init)
    assert fused == chain


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


_STEPS_SCRIPT = """
import resource
import numpy as np
from peftlab import tensor as T
from peftlab.model import Batch, ModelConfig, build_model, forward
from peftlab.optim import OptimizerState, TrainConfig, step
from peftlab.peft import PeftConfig, attach

model = build_model(ModelConfig(num_layers=2, hidden_dim=64, num_heads=4,
                                ffn_dim=256, vocab_size=16, max_seq_len=4,
                                num_classes=2, seed=0))
theta = attach(model, PeftConfig(
    method="lora", rank=4, target_weights=("W_Q", "W_K", "W_V", "W_O", "FFN"),
    target_layers=(1, 2))).theta_tilde()
opt = OptimizerState(TrainConfig(optimizer="adamw", lr=0.01), theta.length)
rng = np.random.default_rng(0)
batch = Batch(rng.integers(0, 16, size=(32, 4)), rng.integers(0, 2, size=32))

def run(steps):
    for _ in range(steps):
        theta.zero_grads()
        T.backward(T.log_softmax_nll(forward(model, batch), batch.labels))
        step(theta, theta.grad_vector(), None, opt)

run(2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(16)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_training_steps_do_not_page_fault():
    """Once warm, a training step reuses the memory the previous step freed.

    Under glibc's default heap policy each batch-32 step of this 64-wide
    LoRA model faults its tape in again (about 400 minor faults a step).
    The run needs a fresh interpreter: an earlier large free in this
    process, as any scoring test makes, raises glibc's thresholds by itself
    and would hide the churn.
    """
    pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pytest.skip("the C library has no mallopt")
    done = run_fresh(_STEPS_SCRIPT)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout)
    assert faults < 16 * 10, f"{faults} minor faults in 16 training steps"
