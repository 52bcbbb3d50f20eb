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
from dataclasses import dataclass, field

import numpy as np

from . import _schema as schema
from . import tensor as T
from .errors import ConfigError, ContractError, NumericError
from .fisher import SparsityMask, mask_gradients
from .model import Batch, TransformerModel, forward
from .peft import PeftModule, ThetaTilde

OPTIMIZERS = ("sgd", "adamw")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = schema.field("adamw", among=OPTIMIZERS)
    lr: float = schema.field(5e-5, positive=True)
    epochs: int = schema.field(30, min=0)
    batch_size: int = schema.field(32, min=1)
    weight_decay: float = schema.field(0.0, min=0)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = schema.field(1e-8, positive=True)
    early_stop: bool = False
    patience: int = schema.field(10, min=1)
    seed: int = schema.field(42, min=0)

    def __post_init__(self):
        schema.check(self)
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got ({self.beta1}, "
                              f"{self.beta2})")


@dataclass
class OptimizerState:
    """Optimizer buffers of one flat view of ``length`` coordinates, stepped
    under ``cfg``'s optimizer, betas, eps and weight decay. ``lr`` is the
    rate of the next step: cfg.lr at first, then as ``train`` decays it."""

    cfg: TrainConfig
    length: int
    lr: float = field(init=False)
    step_count: int = field(default=0, init=False)
    exp_avg: np.ndarray | None = field(default=None, init=False)
    exp_avg_sq: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        self.lr = self.cfg.lr
        if self.cfg.optimizer == "adamw":
            self.exp_avg = np.zeros(self.length, dtype=np.float32)
            self.exp_avg_sq = np.zeros(self.length, dtype=np.float32)


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

    cfg = state.cfg
    if cfg.optimizer == "sgd":
        update = state.lr * g
    else:
        state.step_count += 1
        m, v = state.exp_avg, state.exp_avg_sq
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        corr1 = 1.0 - cfg.beta1 ** state.step_count
        corr2 = 1.0 - cfg.beta2 ** state.step_count
        update = state.lr * (m / corr1) / (np.sqrt(v / corr2) + cfg.eps)

    vec = params.data
    delta = update[active]
    if cfg.weight_decay:
        delta = delta + (state.lr * cfg.weight_decay) * vec[active]
    if not np.all(np.isfinite(delta)):
        flat = np.flatnonzero(~np.isfinite(delta))[0]
        coord = flat if isinstance(active, slice) else int(active[flat])
        raise NumericError(f"non-finite update at coordinate {coord}")
    vec[active] -= delta


# ---------------------------------------------------------------------------
# training


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


def evaluate(model: TransformerModel, data: Batch) -> tuple[float, float]:
    """Mean cross entropy and argmax accuracy over the rows of ``data``, from
    one forward pass over the whole split."""
    if not len(data):
        raise ContractError("evaluate needs a non-empty split")
    with T.no_grad():
        logits = forward(model, data)
        loss = T.log_softmax_nll(logits, data.labels).item()
    hits = int((logits.data.argmax(axis=1) == data.labels).sum())
    return loss, hits / len(data)


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


def train(model: TransformerModel, module: PeftModule,
          mask: SparsityMask | None, task, tcfg: TrainConfig,
          config_hash: str = "") -> TrainReport:
    """Mask-respecting training of the flat adapter view plus the head.

    ``task`` is the (train, eval) pair of splits. Each epoch cuts the train
    rows into tcfg.batch_size minibatches in an order drawn from a generator
    seeded once from tcfg.seed, so identical inputs give identical reports.
    Evaluation runs before training (epoch 0 record) and after every epoch;
    early stopping watches eval loss.
    A non-finite loss or update ends the run with ``diverged=True`` and the
    records so far.
    """
    started = time.perf_counter()
    train_split, eval_split = task
    if not len(train_split):
        raise ContractError("train on an empty dataset")

    # (view, mask, state): the masked adapter view, then the dense head
    trained = [(view, view_mask, OptimizerState(tcfg, view.length))
               for view, view_mask in ((module.theta_tilde(), mask),
                                       (ThetaTilde(model.head_parameters()),
                                        None))]
    ratio1, ratio2 = compute_ratios(model, module, mask)
    strategy = mask.strategy if mask is not None else "dense"
    seed = tcfg.seed

    records: list[EpochRecord] = []
    eval_loss, eval_acc = evaluate(model, eval_split)
    records.append(EpochRecord(0, None, eval_loss, eval_acc))

    def report(diverged=False, stopped=None):
        return TrainReport(records, ratio1, ratio2, strategy, seed,
                           config_hash, time.perf_counter() - started,
                           diverged=diverged, stopped_early_at=stopped)

    steps_per_epoch = math.ceil(len(train_split) / tcfg.batch_size)
    total_steps = max(tcfg.epochs * steps_per_epoch, 1)
    rng = np.random.default_rng(tcfg.seed)
    best_loss = eval_loss
    since_best = 0
    step_idx = 0
    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(len(train_split))
        loss_sum = 0.0
        seen = 0
        for i in range(0, len(order), tcfg.batch_size):
            idx = order[i:i + tcfg.batch_size]
            batch = Batch(train_split.token_ids[idx], train_split.labels[idx])
            for view, _, _ in trained:
                view.zero_grads()
            loss = T.log_softmax_nll(forward(model, batch), batch.labels)
            value = loss.item()
            if not np.isfinite(value):
                return report(diverged=True)
            T.backward(loss)
            lr_now = tcfg.lr * max(0.0, 1.0 - step_idx / total_steps)
            try:
                for view, view_mask, state in trained:
                    state.lr = lr_now
                    step(view, view.grad_vector(), view_mask, state)
            except NumericError:
                return report(diverged=True)
            loss_sum += value * len(batch)
            seen += len(batch)
            step_idx += 1
        eval_loss, eval_acc = evaluate(model, eval_split)
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
