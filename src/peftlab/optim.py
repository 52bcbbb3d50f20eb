"""Mask-aware optimizers and the training loop.

The contract that everything downstream leans on: a step reads, updates and
writes the active coordinates only, of the gradient, both Adam moments, the
decoupled weight decay and the value. A masked coordinate therefore keeps
its initial bits forever and its Adam moments stay exactly zero, whatever
its gradient holds, while a dense mask is bit-for-bit the same as running
with no mask at all. While ``train`` runs, view tensors the mask leaves
wholly inactive are held under ``tensor.frozen``, so backward computes no
gradient for them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _schema as schema
from . import tensor as T
from .errors import ConfigError, ContractError, NumericError
from .fisher import SparsityMask
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

    The update is written in place into the view's buffer. Under a mask,
    the step gathers the active coordinates of the gradient, the moments
    and the value, updates them and scatters them back; masked coordinates
    are never read or written.
    """
    g = np.asarray(grads, dtype=np.float32)
    if g.shape != (params.length,):
        raise ContractError(f"gradient shape {g.shape} does not match view "
                            f"length {params.length}")
    if mask is not None:
        if len(mask) != params.length:
            raise ContractError(f"mask length {len(mask)} does not match view "
                                f"length {params.length}")
        active = mask.active_indices()
    else:
        active = slice(None)
    g = g[active]

    cfg = state.cfg
    if cfg.optimizer == "sgd":
        delta = state.lr * g
    else:
        state.step_count += 1
        m, v = state.exp_avg[active], state.exp_avg_sq[active]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        state.exp_avg[active], state.exp_avg_sq[active] = m, v
        corr1 = 1.0 - cfg.beta1 ** state.step_count
        corr2 = 1.0 - cfg.beta2 ** state.step_count
        delta = state.lr * (m / corr1) / (np.sqrt(v / corr2) + cfg.eps)

    vec = params.data
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
    records so far; NumPy's overflow and invalid-value warnings stay quiet
    while it runs.
    While it runs, view tensors that ``mask`` leaves wholly inactive do not
    require grad (``tensor.frozen``); their flags are back when ``train``
    returns or raises. Frozen, such a tensor takes no weight gradient, the
    tape records no node that only frozen tensors feed, and a LoRA or
    Adapter branch whose up-projection ``B`` is frozen at zero is not
    computed at all (see ``peft``). Each cotangent that remains comes from
    the same ops; tests compare whole runs with and without the freeze bit
    for bit.
    """
    started = time.perf_counter()
    train_split, eval_split = task
    if not len(train_split):
        raise ContractError("train on an empty dataset")

    theta = module.theta_tilde()
    # (view, mask, state): the masked adapter view, then the dense head
    trained = [(view, view_mask, OptimizerState(tcfg, view.length))
               for view, view_mask in ((theta, mask),
                                       (ThetaTilde(model.head_parameters()),
                                        None))]
    ratio1, ratio2 = compute_ratios(model, module, mask)
    strategy = mask.strategy if mask is not None else "dense"
    seed = tcfg.seed
    inactive = [] if mask is None else [
        t for seg, t in zip(theta.segments, theta.tensors())
        if not mask.bits[seg.start:seg.stop].any()]

    # overflow and NaN end the run as diverged=True, not as warnings
    with T.frozen(inactive), np.errstate(over="ignore", invalid="ignore"):
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
                batch = Batch(train_split.token_ids[idx],
                              train_split.labels[idx])
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
            records.append(EpochRecord(epoch, loss_sum / seen, eval_loss,
                                       eval_acc))
            if tcfg.early_stop:
                if eval_loss < best_loss:
                    best_loss = eval_loss
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= tcfg.patience:
                        return report(stopped=epoch)
        return report()
