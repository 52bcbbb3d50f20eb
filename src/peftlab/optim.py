"""Mask-aware optimizers and the training loop.

The contract that everything downstream leans on: gradients are masked
*before* they reach the moment buffers, updates are applied only at active
coordinates, and decoupled weight decay sees active coordinates only. A
masked coordinate therefore keeps its initial bits forever and its Adam
moments stay exactly zero, while a dense mask is bit-for-bit the same as
running with no mask at all.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NumericError
from .fisher import SparsityMask, mask_gradients
from .model import Batch, TransformerModel, forward
from .peft import PeftModule, ThetaTilde
from .tasks import flatten

OPTIMIZERS = ("sgd", "adamw")


def _check_hyperparameters(kind: str, lr: float, beta1: float, beta2: float,
                           weight_decay: float) -> None:
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer '{kind}'; expected one of "
                          f"{OPTIMIZERS}")
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ConfigError(f"betas must lie in [0, 1), got ({beta1}, {beta2})")
    if weight_decay < 0:
        raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")


@dataclass
class OptimizerState:
    """Per-flat-view optimizer buffers; create via :meth:`create`."""

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None

    @classmethod
    def create(cls, kind: str, lr: float, length: int,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
               weight_decay: float = 0.0) -> "OptimizerState":
        _check_hyperparameters(kind, lr, beta1, beta2, weight_decay)
        state = cls(kind, lr, beta1, beta2, eps, weight_decay)
        if kind == "adamw":
            state.exp_avg = np.zeros(length, dtype=np.float32)
            state.exp_avg_sq = np.zeros(length, dtype=np.float32)
        return state


def step(params: ThetaTilde, grads: np.ndarray, mask: SparsityMask | None,
         state: OptimizerState) -> None:
    """One update of the flat view at the currently scheduled state.lr.

    The update is written in place into the view's buffer. Masked
    coordinates are bitwise untouched: their gradient is zeroed before the
    moments update, and the write indexes active coordinates only.
    """
    g = np.asarray(grads, dtype=np.float32)
    if g.shape != (params.length,):
        raise ContractError(f"gradient shape {g.shape} does not match view "
                            f"length {params.length}")
    if mask is not None:
        if len(mask) != params.length:
            raise ContractError(f"mask length {len(mask)} does not match view "
                                f"length {params.length}")
        g = mask_gradients(g, mask)
        active = mask.active_indices()
    else:
        active = slice(None)

    if state.kind == "sgd":
        update = state.lr * g
    else:
        state.step_count += 1
        m, v = state.exp_avg, state.exp_avg_sq
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        corr1 = 1.0 - state.beta1 ** state.step_count
        corr2 = 1.0 - state.beta2 ** state.step_count
        update = state.lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)

    vec = params.data
    delta = update[active]
    if state.weight_decay:
        delta = delta + (state.lr * state.weight_decay) * vec[active]
    if not np.all(np.isfinite(delta)):
        flat = np.flatnonzero(~np.isfinite(delta))[0]
        coord = flat if isinstance(active, slice) else int(active[flat])
        raise NumericError(f"non-finite update at coordinate {coord}")
    vec[active] -= delta


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    optimizer: str = "adamw"
    lr: float = 5e-5
    epochs: int = 30
    batch_size: int = 32
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    early_stop: bool = False
    patience: int = 10
    seed: int = 42

    def __post_init__(self):
        _check_hyperparameters(self.optimizer, self.lr, self.beta1,
                               self.beta2, self.weight_decay)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float | None
    eval_loss: float
    eval_accuracy: float


@dataclass
class TrainReport:
    records: list[EpochRecord]
    ratio1: float
    ratio2: float
    strategy: str
    seed: int
    config_hash: str
    wall_time_seconds: float
    diverged: bool = False
    stopped_early_at: int | None = None

    @property
    def final_eval_loss(self) -> float:
        return self.records[-1].eval_loss

    @property
    def final_eval_accuracy(self) -> float:
        return self.records[-1].eval_accuracy


def evaluate(model: TransformerModel, batches: list[Batch]) -> tuple[float, float]:
    """Mean cross entropy and argmax accuracy over all examples."""
    if not batches:
        raise ContractError("evaluate on an empty dataset")
    loss_sum = 0.0
    hits = 0
    count = 0
    with T.no_grad():
        for batch in batches:
            logits = forward(model, batch)
            n = len(batch)
            loss_sum += T.log_softmax_nll(logits, batch.labels, "sum").item()
            hits += int((logits.data.argmax(axis=1) == batch.labels).sum())
            count += n
    return loss_sum / count, hits / count


def compute_ratios(model: TransformerModel, module: PeftModule,
                   mask: SparsityMask | None) -> tuple[float, float]:
    """(trainable / all model params, trainable / flat-view length).

    The head stays out of both numerators and out of the flat-view
    denominator, but counts toward the total model size; adapter tensors
    count toward the total once attached.
    """
    length = module.theta_tilde().length
    k = mask.k if mask is not None else length
    if mask is not None and len(mask) != length:
        raise ContractError(f"mask length {len(mask)} does not match view "
                            f"length {length}")
    total = model.param_count() + module.param_count()
    return k / total, k / length


def _rebatch(rows: np.ndarray, labels: np.ndarray, order: np.ndarray,
             batch_size: int):
    for i in range(0, len(order), batch_size):
        idx = order[i:i + batch_size]
        yield Batch(rows[idx], labels[idx])


def train(model: TransformerModel, module: PeftModule,
          mask: SparsityMask | None, task, tcfg: TrainConfig,
          config_hash: str = "") -> TrainReport:
    """Mask-respecting training of the flat adapter view plus the head.

    ``task`` is the (train_batches, eval_batches) pair. Examples are pooled
    and reshuffled each epoch with a generator seeded once from tcfg.seed, so
    identical inputs give identical reports. Evaluation runs before training
    (epoch 0 record) and after every epoch; early stopping watches eval loss.
    A non-finite loss or update ends the run with ``diverged=True`` and the
    records so far.
    """
    started = time.perf_counter()
    train_batches, eval_batches = task
    if not train_batches:
        raise ContractError("train on an empty dataset")
    rows, labels = flatten(train_batches)

    theta = module.theta_tilde()
    head = ThetaTilde(model.head_parameters())
    opt_theta = OptimizerState.create(tcfg.optimizer, tcfg.lr, theta.length,
                                      tcfg.beta1, tcfg.beta2, tcfg.eps,
                                      tcfg.weight_decay)
    opt_head = OptimizerState.create(tcfg.optimizer, tcfg.lr, head.length,
                                     tcfg.beta1, tcfg.beta2, tcfg.eps,
                                     tcfg.weight_decay)
    ratio1, ratio2 = compute_ratios(model, module, mask)
    strategy = mask.strategy if mask is not None else "dense"
    seed = tcfg.seed

    records: list[EpochRecord] = []
    eval_loss, eval_acc = evaluate(model, eval_batches)
    records.append(EpochRecord(0, None, eval_loss, eval_acc))

    def report(diverged=False, stopped=None):
        return TrainReport(records, ratio1, ratio2, strategy, seed,
                           config_hash, time.perf_counter() - started,
                           diverged=diverged, stopped_early_at=stopped)

    steps_per_epoch = math.ceil(len(labels) / tcfg.batch_size)
    total_steps = max(tcfg.epochs * steps_per_epoch, 1)
    rng = np.random.default_rng(tcfg.seed)
    best_loss = eval_loss
    since_best = 0
    step_idx = 0
    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(len(labels))
        loss_sum = 0.0
        seen = 0
        for batch in _rebatch(rows, labels, order, tcfg.batch_size):
            model.zero_grads()
            loss = T.log_softmax_nll(forward(model, batch), batch.labels)
            value = loss.item()
            if not np.isfinite(value):
                return report(diverged=True)
            T.backward(loss)
            lr_now = tcfg.lr * max(0.0, 1.0 - step_idx / total_steps)
            opt_theta.lr = lr_now
            opt_head.lr = lr_now
            try:
                step(theta, theta.grad_vector(), mask, opt_theta)
                step(head, head.grad_vector(), None, opt_head)
            except NumericError:
                return report(diverged=True)
            loss_sum += value * len(batch)
            seen += len(batch)
            step_idx += 1
        eval_loss, eval_acc = evaluate(model, eval_batches)
        records.append(EpochRecord(epoch, loss_sum / seen, eval_loss, eval_acc))
        if tcfg.early_stop:
            if eval_loss < best_loss:
                best_loss = eval_loss
                since_best = 0
            else:
                since_best += 1
                if since_best >= tcfg.patience:
                    return report(stopped=epoch)
    return report()
