"""Acceptance gate: nine criteria, one pass/fail line each.

Each criterion is a single test function; the pytest -v line for that
function is the criterion's pass/fail line. Every function also prints a
verdict line with the measured numbers and appends it to
artifacts/acceptance_summary.txt, and the convergence criterion stores its
eval-loss curves in artifacts/convergence_curves.json.
"""

import dataclasses
import json
import os
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import base_tensors, check_grads, example_nll, random_inputs
from peftlab import tensor as T
from peftlab.checkpoint import (atomic_write_text, load_checkpoint, load_mask,
                                load_scores, save_checkpoint, save_mask,
                                save_scores)
from peftlab.config import ExperimentConfig, MaskConfig, TaskConfig
from peftlab.experiment import run_experiment
from peftlab.fisher import FisherEstimate, budget_to_k, estimate_fisher, select
from peftlab.model import Batch, ModelConfig, build_model, forward
from peftlab.optim import OptimizerState, TrainConfig, compute_ratios, step
from peftlab.peft import PeftConfig, ThetaTilde, attach
from peftlab.tasks import generate_task

ARTIFACTS = os.path.join(os.path.dirname(__file__), os.pardir, "artifacts")
SUMMARY = os.path.join(ARTIFACTS, "acceptance_summary.txt")

METHODS = ("lora", "dora", "adapter", "prefix", "ia3", "unipelt")

TINY = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                   vocab_size=8, max_seq_len=6, num_classes=2, seed=5)
MID = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=32,
                  vocab_size=8, max_seq_len=4, num_classes=2, seed=7)

# Strategy-comparison fixture: a width where a 1% budget leaves enough live
# coordinates (k = 92 of 9216) for ranked selection to matter on parity.
ORDERING_CFG = ExperimentConfig(
    model=ModelConfig(num_layers=2, hidden_dim=64, num_heads=4, ffn_dim=256,
                      vocab_size=16, max_seq_len=4, num_classes=2, seed=42),
    task=TaskConfig(kind="parity", size=512, seed=42),
    peft=PeftConfig(method="lora", rank=4,
                    target_weights=("W_Q", "W_K", "W_V", "W_O", "FFN"),
                    target_layers=(1, 2)),
    mask=MaskConfig(strategy="fish", budget=0.01, fisher_samples=512, seed=42),
    train=TrainConfig(optimizer="adamw", lr=0.1, epochs=250, batch_size=32,
                      seed=42))
ORDERING_SEEDS = (42, 43, 44)


@pytest.fixture(scope="session", autouse=True)
def summary_file():
    os.makedirs(ARTIFACTS, exist_ok=True)
    with open(SUMMARY, "w", encoding="utf-8") as fh:
        fh.write("")
    yield SUMMARY


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    with open(SUMMARY, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def _primitive_cases(seed):
    r = np.random.default_rng
    return [
        ("matmul", [(3, 4), (4, 2)], lambda a, b: T.matmul(a, b), False),
        ("linear", [(2, 2, 3), (3, 4), (4,)],
         lambda x, w, b: T.linear(x, w, b), False),
        ("linear_low_rank", [(2, 2, 3), (3, 4), (4,), (3, 2), (2, 4)],
         lambda x, w, b, bb, aa: T.linear(x, w, b, bb, aa, scale=0.75),
         False),
        ("add", [(3, 4), (4,)], lambda a, b: T.add(a, b), False),
        ("subtract", [(3, 4), (3, 1)], lambda a, b: T.subtract(a, b), False),
        ("hadamard", [(2, 5), (2, 5)], lambda a, b: T.hadamard(a, b), False),
        ("divide", [(2, 4), (2, 4)],
         lambda a, b: T.divide(a, T.add(T.hadamard(b, b),
                                        T.Tensor(np.float32(1.0)))), False),
        ("scale", [(3, 3)], lambda a: T.scale(a, 0.37), False),
        ("exp", [(2, 4)], lambda a: T.exp(T.scale(a, 0.5)), False),
        ("relu", [(3, 5)], lambda a: T.relu(a), True),
        ("sigmoid", [(3, 5)], lambda a: T.sigmoid(a), False),
        ("softmax", [(3, 6)], lambda a: T.softmax(a), False),
        ("layer_norm", [(4, 6), (6,), (6,)],
         lambda a, g, b: T.layer_norm(a, g, b), False),
        ("column_l2_norm", [(4, 3)], lambda a: T.column_l2_norm(
            T.add(a, T.Tensor(np.float32(2.0)))), False),
        ("concat", [(2, 3), (2, 4)], lambda a, b: T.concat((a, b), axis=1),
         False),
        ("concat_prefix", [(2, 3, 4), (2, 2, 4)],
         lambda a, b: T.concat((a, b), axis=-2), False),
        ("slice_axis", [(3, 6)], lambda a: T.slice_axis(a, 1, 1, 4), False),
        ("reshape", [(3, 4)], lambda a: T.reshape(a, (2, 6)), False),
        ("transpose", [(3, 4)], lambda a: T.transpose(a), False),
        ("broadcast_to", [(1, 4)],
         lambda a: T.broadcast_to(a, (3, 4)), False),
        ("sum_axis", [(3, 4)], lambda a: T.sum_axis(a, 0), False),
        ("mean_axis", [(2, 3, 4)], lambda a: T.mean_axis(a, 1), False),
        ("embedding", [(5, 4)],
         lambda w: T.embedding(w, r(seed).integers(0, 5, size=(2, 3))),
         False),
    ]


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    n_checks = 0
    for seed in range(20):
        for name, shapes, build, avoid in _primitive_cases(seed):
            arrays = random_inputs(shapes, seed * 100 + n_checks,
                                   avoid_kinks=avoid)
            check_grads(build, arrays, seed)
            n_checks += 1

    # end-to-end: 1-layer d=8 transformer, backward vs central differences
    model = build_model(TINY)
    rng = np.random.default_rng(0)
    row = rng.integers(0, TINY.vocab_size, size=TINY.max_seq_len)
    label = 1

    loss = example_nll(model, row, label)
    T.backward(loss)
    checked = 0
    for pname, tensor in model.named_parameters():
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        idx = np.linspace(0, flat.size - 1, num=min(6, flat.size), dtype=int)
        for i in idx:
            h = np.float32(1e-3) * max(1.0, abs(float(flat[i])))
            keep = flat[i]
            with T.no_grad():
                flat[i] = keep + h
                up = example_nll(model, row, label).item()
                flat[i] = keep - h
                down = example_nll(model, row, label).item()
            flat[i] = keep
            fd = (up - down) / (2.0 * float(h))
            got = float(grad[i])
            assert abs(got - fd) <= 1e-3 * max(1.0, abs(got), abs(fd)), \
                f"{pname}[{i}]: backward {got} vs finite difference {fd}"
            checked += 1

    elapsed = time.perf_counter() - started
    verdict(1, "gradient-correctness", elapsed < 60.0,
            f"{n_checks} primitive configs + {checked} transformer coords, "
            f"rel tol 1e-3, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 2: score-estimate oracle equivalence


class _Logistic:
    """Two-class model with logits [0, w.x]."""

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


def _fd_score_oracle(model, examples, h=3e-3):
    """Per-sample central-difference gradients, squared and averaged."""
    theta = model.fisher_parameters()
    base = theta.to_vector().astype(np.float64)
    acc = np.zeros(theta.length, dtype=np.float64)
    for row, label in examples:
        rows, labels = np.asarray(row)[None, :], np.array([label])
        g = np.zeros(theta.length, dtype=np.float64)
        for i in range(theta.length):
            stepv = base.copy()
            stepv[i] = base[i] + h
            theta.set_vector(stepv.astype(np.float32))
            with T.no_grad():
                up = model.batch_nll(rows, labels).item()
            stepv[i] = base[i] - h
            theta.set_vector(stepv.astype(np.float32))
            with T.no_grad():
                down = model.batch_nll(rows, labels).item()
            g[i] = (up - down) / (2.0 * h)
        acc += g * g
    theta.set_vector(base.astype(np.float32))
    return acc / len(examples)


def _scores_close(got, want, rtol=1e-3):
    floor = rtol * max(float(np.max(want)), 1e-12)
    return np.all(np.abs(got - want) <= np.maximum(rtol * np.abs(want),
                                                   floor))


def test_criterion_2_score_oracle_equivalence():
    started = time.perf_counter()

    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 2)).astype(np.float32)
    y = (rng.uniform(size=32) < 0.5).astype(np.int64)
    w = np.array([0.7, -1.2], dtype=np.float32)
    logistic = _Logistic(w)
    est_log = estimate_fisher(logistic, SimpleNamespace(token_ids=x,
                                                        labels=y),
                              num_samples=32)
    p = 1.0 / (1.0 + np.exp(-(x.astype(np.float64) @ w.astype(np.float64))))
    g = (p - y)[:, None] * x.astype(np.float64)
    closed = (g * g).mean(axis=0)
    np.testing.assert_allclose(est_log.scores, closed, rtol=1e-3)
    fd_log = _fd_score_oracle(logistic,
                              [(x[i], int(y[i])) for i in range(8)])
    est_log8 = estimate_fisher(logistic,
                               SimpleNamespace(token_ids=x[:8],
                                               labels=y[:8]),
                               num_samples=8)
    assert _scores_close(est_log8.scores.astype(np.float64), fd_log)

    model = build_model(TINY)
    module = attach(model, PeftConfig(method="lora", rank=2,
                                      target_layers=(1,)))
    data = generate_task("parity", 32, 3, vocab_size=8, seq_len=6)[0]
    theta = module.theta_tilde()

    # at the zero-product init, half the flat view has exactly zero scores
    est0 = estimate_fisher(model, data, num_samples=8)
    zero_cols = [seg for seg in theta.segments if seg.name.endswith("/A")]
    assert zero_cols
    for seg in zero_cols:
        assert np.all(est0.scores[seg.start:seg.stop] == 0.0)

    # move adapters and head off the init so the top gradients reach the
    # 1e-2 scale the float32 finite-difference oracle can resolve
    rng = np.random.default_rng(9)
    theta.set_vector(rng.normal(0.0, 0.5,
                                size=theta.length).astype(np.float32))
    model.head_W.data = rng.normal(
        0.0, 1.0, size=model.head_W.shape).astype(np.float32)
    model.head_b.data = rng.normal(
        0.0, 0.2, size=model.head_b.shape).astype(np.float32)
    est = estimate_fisher(model, data, num_samples=8)
    examples = [(row, int(label))
                for row, label in zip(data.token_ids, data.labels)]
    examples.sort(key=lambda e: (e[0].tobytes(), e[1]))
    fd = _fd_score_oracle(model, examples[:8])
    assert _scores_close(est.scores.astype(np.float64), fd)
    assert theta.length == len(est)

    elapsed = time.perf_counter() - started
    verdict(2, "score-oracle-equivalence", elapsed < 60.0,
            f"logistic closed form + finite-difference oracles at rel tol "
            f"1e-3, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 3: identity at attach time


def _logits(model, rows):
    batch = Batch(rows, np.zeros(len(rows), dtype=np.int64))
    with T.no_grad():
        return forward(model, batch).data.astype(np.float64)


def test_criterion_3_identity_at_init():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, MID.vocab_size, size=(8, MID.max_seq_len))
    base = _logits(build_model(MID), rows)

    worst = {}
    for method in ("lora", "adapter", "ia3", "dora"):
        model = build_model(MID)
        attach(model, PeftConfig(method=method, rank=2, target_layers=(1, 2)))
        worst[method] = float(np.max(np.abs(_logits(model, rows) - base)))
        assert worst[method] <= 1e-6, (method, worst[method])

    model = build_model(MID)
    attach(model, PeftConfig(method="lora", rank=2, init="pissa",
                             target_layers=(1, 2)))
    worst["pissa"] = float(np.max(np.abs(_logits(model, rows) - base)))
    assert worst["pissa"] <= 1e-4

    detail = ", ".join(f"{m}={v:.2e}" for m, v in worst.items())
    verdict(3, "identity-at-init", True,
            f"max |logit delta| {detail}; bounds 1e-6 (1e-4 for pissa)")


# ---------------------------------------------------------------------------
# criteria 4 and 5 share a small manual AdamW loop


def _peft_for(method: str) -> PeftConfig:
    return PeftConfig(method=method, rank=2, prefix_len=3,
                      target_layers=(1,))


def _manual_steps(model, module, mask, data, n_steps, lr=0.01,
                  snapshot_each=False):
    """``n_steps`` AdamW steps, cycling through ``data`` in 16-row batches."""
    batches = [Batch(data.token_ids[i:i + 16], data.labels[i:i + 16])
               for i in range(0, len(data), 16)]
    theta = module.theta_tilde()
    opt = OptimizerState(TrainConfig(optimizer="adamw", lr=lr), theta.length)
    history = []
    for s in range(n_steps):
        batch = batches[s % len(batches)]
        theta.zero_grads()
        loss = T.log_softmax_nll(forward(model, batch), batch.labels)
        T.backward(loss)
        step(theta, theta.grad_vector(), mask, opt)
        if snapshot_each:
            history.append(theta.to_vector().tobytes())
    return history


def test_criterion_4_masked_immutability():
    started = time.perf_counter()
    combos = 0
    for method in METHODS:
        model = build_model(MID)
        module = attach(model, _peft_for(method))
        task = generate_task("majority", 64, 7, vocab_size=8, seq_len=4)
        n = module.theta_tilde().length
        est = estimate_fisher(model, task[0], num_samples=16)
        init_vec = module.theta_tilde().to_vector()
        base_bytes = {name: t.data.tobytes()
                      for name, t in base_tensors(model).items()}

        for strategy in ("fish", "random", "reverse"):
            for budget in (0.01, 0.25, 0.5):
                module.theta_tilde().set_vector(init_vec)
                k = budget_to_k(n, budget)
                source = est if strategy in ("fish", "reverse") \
                    else np.zeros(n, dtype=np.float32)
                mask = select(source, k, strategy, seed=11)
                _manual_steps(model, module, mask, task[0], 50)

                after = module.theta_tilde().to_vector()
                frozen = mask.bits == 0
                assert after[frozen].tobytes() == init_vec[frozen].tobytes(), \
                    (method, strategy, budget)
                for name, t in base_tensors(model).items():
                    assert t.data.tobytes() == base_bytes[name], \
                        (method, strategy, budget, name)
                combos += 1

    elapsed = time.perf_counter() - started
    verdict(4, "masked-immutability",
            combos == len(METHODS) * 9 and elapsed < 300.0,
            f"{combos} method x strategy x budget combos, 50 AdamW steps, "
            f"bitwise, {elapsed:.1f}s < 300s")


def test_criterion_5_dense_equivalence():
    def trajectory(use_dense_mask: bool):
        model = build_model(MID)
        module = attach(model, _peft_for("lora"))
        task = generate_task("majority", 64, 7, vocab_size=8, seq_len=4)
        n = module.theta_tilde().length
        mask = select(np.zeros(n, dtype=np.float32), n, "dense") \
            if use_dense_mask else None
        return _manual_steps(model, module, mask, task[0], 20,
                             snapshot_each=True)

    masked = trajectory(True)
    plain = trajectory(False)
    assert masked == plain
    verdict(5, "dense-equivalence", True,
            "20-step trajectories bitwise identical with and without the "
            "dense mask")


# ---------------------------------------------------------------------------
# criterion 6: ratio accounting


def test_criterion_6_ratio_accounting():
    checked = 0
    for method in ("lora", "prefix", "ia3"):
        model = build_model(MID)
        module = attach(model, _peft_for(method))
        n = module.theta_tilde().length
        total = model.param_count() + module.param_count()
        for k in sorted({1, 2, n // 7 or 1, n // 2, n}):
            bits = np.zeros(n, dtype=np.uint8)
            bits[:k] = 1
            mask = select(bits.astype(np.float32), k, "fish")
            r1, r2 = compute_ratios(model, module, mask)
            lhs = Fraction(r1) / Fraction(r2)
            rhs = Fraction(n, total)
            err = abs(lhs - rhs) / rhs
            assert err <= Fraction(1, 2**52), (method, k, float(err))
            checked += 1

        # halving k halves ratio1 exactly in binary floating point
        k = n // 2 if (n // 2) % 2 == 0 else n // 2 - 1
        for kk, half in ((k, k // 2),):
            b1 = np.zeros(n, dtype=np.uint8)
            b1[:kk] = 1
            b2 = np.zeros(n, dtype=np.uint8)
            b2[:half] = 1
            r1_full, _ = compute_ratios(model, module,
                                        select(b1.astype(np.float32), kk,
                                               "fish"))
            r1_half, _ = compute_ratios(model, module,
                                        select(b2.astype(np.float32), half,
                                               "fish"))
            assert r1_half == r1_full / 2.0, (method, kk)

    verdict(6, "ratio-accounting", True,
            f"{checked} (method, k) pairs: ratio identity within 1 ulp and "
            f"exact halving")


# ---------------------------------------------------------------------------
# criteria 7 and 8: strategy ordering and convergence proxy


def _rebound(cfg, seed, strategy, budget):
    return dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, seed=seed),
        task=dataclasses.replace(cfg.task, seed=seed),
        mask=dataclasses.replace(cfg.mask, strategy=strategy, budget=budget,
                                 seed=seed),
        train=dataclasses.replace(cfg.train, seed=seed))


@pytest.fixture(scope="session")
def ordering_runs():
    started = time.perf_counter()
    shared = {}
    for seed in ORDERING_SEEDS:
        probe = _rebound(ORDERING_CFG, seed, "fish", 0.01)
        model = build_model(probe.model)
        attach(model, probe.peft)
        data = generate_task(probe.task.kind, probe.task.size, seed,
                             vocab_size=probe.model.vocab_size,
                             seq_len=probe.model.max_seq_len)[0]
        shared[seed] = estimate_fisher(model, data,
                                       num_samples=probe.mask.fisher_samples)

    reports = {}
    for strategy in ("fish", "random", "reverse"):
        for seed in ORDERING_SEEDS:
            cfg = _rebound(ORDERING_CFG, seed, strategy, 0.01)
            scores = shared[seed] if strategy in ("fish", "reverse") else None
            reports[(strategy, seed)] = run_experiment(cfg, scores)

    # budget 100%: identical masks, hence identical short trainings
    degenerate = {}
    for strategy in ("fish", "random", "reverse"):
        cfg = _rebound(ORDERING_CFG, 42, strategy, 1.0)
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, epochs=10))
        degenerate[strategy] = run_experiment(cfg, shared[42])

    return reports, degenerate, time.perf_counter() - started


def test_criterion_7_strategy_ordering(ordering_runs):
    reports, degenerate, elapsed = ordering_runs
    means = {s: float(np.mean([reports[(s, seed)].final_eval_accuracy
                               for seed in ORDERING_SEEDS]))
             for s in ("fish", "random", "reverse")}
    gap = (means["fish"] - means["reverse"]) * 100.0

    ordered = means["fish"] >= means["random"] >= means["reverse"]
    deg_records = [[(r.epoch, r.eval_loss, r.eval_accuracy)
                    for r in degenerate[s].records]
                   for s in ("fish", "random", "reverse")]
    degenerate_ok = deg_records[0] == deg_records[1] == deg_records[2]

    verdict(7, "strategy-ordering",
            ordered and gap >= 5.0 and degenerate_ok and elapsed < 900.0,
            f"mean acc fish {means['fish']:.3f} >= random "
            f"{means['random']:.3f} >= reverse {means['reverse']:.3f}; "
            f"fish-reverse gap {gap:.1f} >= 5.0 points; budget-100% runs "
            f"identical; {elapsed:.0f}s < 900s")


def test_criterion_8_convergence_speed_proxy(ordering_runs):
    reports, _, _ = ordering_runs
    passes = 0
    details = []
    curves = {}
    for seed in ORDERING_SEEDS:
        random_final = reports[("random", seed)].records[-1].eval_loss
        fish_curve = [(r.epoch, r.eval_loss)
                      for r in reports[("fish", seed)].records]
        last_epoch = fish_curve[-1][0]
        hit = next((e for e, l in fish_curve if l <= random_final), None)
        ok = hit is not None and hit <= last_epoch / 2
        passes += ok
        details.append(f"seed {seed}: random final {random_final:.4f}, "
                       f"fish reaches it at epoch {hit} "
                       f"({'<=' if ok else '>'} {last_epoch // 2})")
        curves[str(seed)] = {
            s: [{"epoch": r.epoch, "eval_loss": r.eval_loss,
                 "eval_accuracy": r.eval_accuracy}
                for r in reports[(s, seed)].records]
            for s in ("fish", "random", "reverse")}

    os.makedirs(ARTIFACTS, exist_ok=True)
    atomic_write_text(os.path.join(ARTIFACTS, "convergence_curves.json"),
                      json.dumps(curves, indent=2, sort_keys=True) + "\n")

    verdict(8, "convergence-speed-proxy", passes >= 2,
            f"{passes}/3 seeds; " + "; ".join(details)
            + "; curves in artifacts/convergence_curves.json")


# ---------------------------------------------------------------------------
# criterion 9: persistence round trips preserving criteria 4-5


def test_criterion_9_round_trip_persistence(tmp_path):
    cfg = ExperimentConfig(
        model=MID,
        task=TaskConfig(kind="majority", size=64, seed=7),
        peft=_peft_for("lora"),
        mask=MaskConfig(strategy="fish", budget=0.25, fisher_samples=16,
                        seed=11),
        train=TrainConfig(lr=0.01, epochs=2, batch_size=16, seed=7))

    model = build_model(cfg.model)
    module = attach(model, cfg.peft)
    task = generate_task(cfg.task.kind, cfg.task.size, cfg.task.seed,
                         vocab_size=cfg.model.vocab_size,
                         seq_len=cfg.model.max_seq_len)
    n = module.theta_tilde().length
    est = estimate_fisher(model, task[0], num_samples=16)
    mask = select(est, budget_to_k(n, cfg.mask.budget), "fish",
                  seed=cfg.mask.seed)
    init_vec = module.theta_tilde().to_vector()

    _manual_steps(model, module, mask, task[0], 25)

    # files survive save -> load -> save bitwise
    ck = tmp_path / "state.bin"
    save_checkpoint(ck, cfg, model, module, mask)
    blob = ck.read_bytes()
    state = load_checkpoint(ck)
    save_checkpoint(tmp_path / "again.bin", state.cfg, state.model,
                    state.module, state.mask)
    files_ok = (tmp_path / "again.bin").read_bytes() == blob

    mk, sc = tmp_path / "mask.bin", tmp_path / "scores.bin"
    save_mask(mk, mask)
    save_scores(sc, est)
    save_mask(tmp_path / "mask2.bin", load_mask(mk))
    save_scores(tmp_path / "scores2.bin", load_scores(sc))
    files_ok = files_ok and \
        (tmp_path / "mask2.bin").read_bytes() == mk.read_bytes() and \
        (tmp_path / "scores2.bin").read_bytes() == sc.read_bytes()

    # resumed training preserves masked-immutability (criterion 4)
    _manual_steps(state.model, state.module, state.mask, task[0], 25)
    frozen = state.mask.bits == 0
    resumed = state.module.theta_tilde().to_vector()
    immut_ok = resumed[frozen].tobytes() == init_vec[frozen].tobytes()

    # resumed dense run still matches the unmasked path (criterion 5)
    def resumed_trajectory(dense_mask: bool):
        m2 = build_model(cfg.model)
        mod2 = attach(m2, cfg.peft)
        msk = select(np.zeros(n, dtype=np.float32), n, "dense") \
            if dense_mask else None
        _manual_steps(m2, mod2, msk, task[0], 10)
        p = tmp_path / f"dense-{dense_mask}.bin"
        save_checkpoint(p, cfg, m2, mod2, msk)
        st = load_checkpoint(p)
        return _manual_steps(st.model, st.module, st.mask, task[0], 10,
                             snapshot_each=True)

    dense_ok = resumed_trajectory(True) == resumed_trajectory(False)

    verdict(9, "round-trip-persistence",
            files_ok and immut_ok and dense_ok,
            f"files bitwise: {files_ok}; resumed immutability: {immut_ok}; "
            f"resumed dense-equivalence: {dense_ok}")
