"""Experiment drivers: the single-run pipeline and the strategy sweep.

``run_experiment`` executes build model -> generate task -> attach adapters ->
estimate scores (skipped when the strategy ignores them) -> select mask ->
train -> persist. Every stage failure is re-raised as
:class:`~peftlab.errors.ExperimentError` carrying the stage name.

``compare_strategies`` runs the cartesian strategy x budget x seed sweep with
one shared score estimate per seed, the way a comparison table is meant to be
produced: every strategy at a given seed sees the identical estimate.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import config as config_mod
from .checkpoint import atomic_write_text, save_checkpoint
from .config import ExperimentConfig
from .errors import ContractError, ExperimentError, PeftLabError
from .fisher import (FisherEstimate, SparsityMask, budget_to_k,
                     estimate_fisher, save_mask, save_scores, select)
from .model import build_model
from .optim import TrainReport, train
from .peft import attach
from .tasks import generate_task

# strategies whose mask reads the score estimate
_SCORED = ("fish", "reverse")


@contextmanager
def _stage(name: str):
    """Re-raise any stage failure with the stage name attached."""
    try:
        yield
    except ExperimentError:
        raise
    except PeftLabError as e:
        raise ExperimentError(name, str(e)) from e
    except Exception as e:
        raise ExperimentError(name, f"{type(e).__name__}: {e}") from e


def _make_task(cfg: ExperimentConfig):
    """Task dimensions follow the model: vocab, length, and class count."""
    return generate_task(cfg.task.kind, cfg.task.size, cfg.task.seed,
                         vocab_size=cfg.model.vocab_size,
                         seq_len=cfg.model.max_seq_len,
                         num_classes=cfg.model.num_classes,
                         eval_size=cfg.task.eval_size,
                         batch_size=cfg.train.batch_size)


def report_to_dict(report: TrainReport, k: int, theta_len: int) -> dict:
    return {
        "config_hash": report.config_hash,
        "strategy": report.strategy,
        "seed": report.seed,
        "ratio1": report.ratio1,
        "ratio2": report.ratio2,
        "k": k,
        "theta_len": theta_len,
        "diverged": report.diverged,
        "stopped_early_at": report.stopped_early_at,
        "final_eval_loss": report.final_eval_loss,
        "final_eval_accuracy": report.final_eval_accuracy,
        "wall_time_seconds": report.wall_time_seconds,
        "records": [{"epoch": r.epoch, "train_loss": r.train_loss,
                     "eval_loss": r.eval_loss,
                     "eval_accuracy": r.eval_accuracy}
                    for r in report.records],
    }


def metrics_lines(report: TrainReport) -> str:
    """One JSON object per line; train lines carry no accuracy."""
    lines = []
    for r in report.records:
        if r.train_loss is not None:
            lines.append(json.dumps({
                "epoch": r.epoch, "split": "train", "loss": r.train_loss,
                "accuracy": None, "ratio1": report.ratio1,
                "ratio2": report.ratio2, "strategy": report.strategy,
                "seed": report.seed}))
        lines.append(json.dumps({
            "epoch": r.epoch, "split": "eval", "loss": r.eval_loss,
            "accuracy": r.eval_accuracy, "ratio1": report.ratio1,
            "ratio2": report.ratio2, "strategy": report.strategy,
            "seed": report.seed}))
    return "\n".join(lines) + "\n"


def _setup(cfg: ExperimentConfig, score: bool):
    """Config to (model, task, module, estimate): build the model, draw the
    task, attach adapters and, when ``score`` is set, estimate scores on the
    train split. ``estimate`` is None when not scored."""
    with _stage("build-model"):
        model = build_model(cfg.model)
    with _stage("generate-task"):
        task = _make_task(cfg)
    with _stage("attach"):
        module = attach(model, cfg.peft)
    estimate = None
    if score:
        with _stage("estimate-scores"):
            estimate = estimate_fisher(model, task[0],
                                       num_samples=cfg.mask.fisher_samples,
                                       config_hash=config_mod.config_hash(cfg))
    return model, task, module, estimate


def _select_mask(cfg: ExperimentConfig, theta_len: int,
                 estimate: FisherEstimate | None) -> SparsityMask:
    """Scores to mask: cfg's strategy at its budget over the flat view."""
    with _stage("select-mask"):
        k = budget_to_k(theta_len, cfg.mask.budget)
        source = estimate if estimate is not None \
            else np.zeros(theta_len, dtype=np.float32)
        return select(source, k, cfg.mask.strategy, seed=cfg.mask.seed)


def run_experiment(cfg: ExperimentConfig,
                   shared_scores: FisherEstimate | None = None) -> TrainReport:
    """Run the full pipeline for one configuration.

    When ``cfg.out_dir`` is set, the run leaves behind config.json,
    report.json, metrics.jsonl, mask.bin, checkpoint.bin, and (when scores
    were estimated) scores.bin. ``shared_scores`` substitutes a precomputed
    estimate so sweeps can reuse one estimate across strategies.
    """
    chash = config_mod.config_hash(cfg)
    scored = cfg.mask.strategy in _SCORED
    model, task, module, estimate = _setup(
        cfg, scored and shared_scores is None)
    theta_len = module.theta_tilde().length
    if scored and shared_scores is not None:
        with _stage("estimate-scores"):
            if len(shared_scores) != theta_len:
                raise ContractError(
                    f"shared scores have length {len(shared_scores)}, "
                    f"flat view has {theta_len}")
        estimate = shared_scores

    mask = _select_mask(cfg, theta_len, estimate)

    with _stage("train"):
        report = train(model, module, mask, task, cfg.train,
                       config_hash=chash)

    if cfg.out_dir is not None:
        with _stage("persist"):
            out = cfg.out_dir
            os.makedirs(out, exist_ok=True)
            atomic_write_text(os.path.join(out, "config.json"),
                              config_mod.to_json(cfg) + "\n")
            doc = report_to_dict(report, mask.k, theta_len)
            atomic_write_text(os.path.join(out, "report.json"),
                              json.dumps(doc, indent=2, sort_keys=True) + "\n")
            atomic_write_text(os.path.join(out, "metrics.jsonl"),
                              metrics_lines(report))
            save_mask(os.path.join(out, "mask.bin"), mask)
            if estimate is not None:
                save_scores(os.path.join(out, "scores.bin"), estimate)
            save_checkpoint(os.path.join(out, "checkpoint.bin"), cfg, model,
                            module, mask)

    return report


# ---------------------------------------------------------------------------
# strategy x budget sweep


@dataclass
class CellResult:
    strategy: str
    budget: float
    seeds: tuple[int, ...]
    accuracies: list[float]
    mean_accuracy: float | None
    error: str | None = None


@dataclass
class ComparisonTable:
    strategies: tuple[str, ...]
    budgets: tuple[float, ...]
    seeds: tuple[int, ...]
    cells: list[CellResult]

    def cell(self, strategy: str, budget: float) -> CellResult:
        for c in self.cells:
            if c.strategy == strategy and c.budget == budget:
                return c
        raise ContractError(f"no cell for ({strategy}, {budget})")

    def to_tsv(self) -> str:
        header = "strategy\t" + "\t".join(f"budget={b:g}" for b in self.budgets)
        rows = [header]
        for s in self.strategies:
            vals = []
            for b in self.budgets:
                c = self.cell(s, b)
                vals.append("ERROR" if c.error is not None
                            else f"{c.mean_accuracy:.4f}")
            rows.append(s + "\t" + "\t".join(vals))
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        doc = {
            "strategies": list(self.strategies),
            "budgets": list(self.budgets),
            "seeds": list(self.seeds),
            "cells": [dataclasses.asdict(c) for c in self.cells],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _rebind_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """One sweep seed drives model init, task draw, mask draw, and training."""
    return dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, seed=seed),
        task=dataclasses.replace(cfg.task, seed=seed),
        mask=dataclasses.replace(cfg.mask, seed=seed),
        train=dataclasses.replace(cfg.train, seed=seed))


def compare_strategies(cfg: ExperimentConfig, strategies, budgets,
                       seeds) -> ComparisonTable:
    """Cartesian sweep with one shared score estimate per seed.

    Every cell's config is built before the first cell runs, so a bad
    strategy, budget or seed raises ConfigError up front. A cell that fails
    while running records its error and the sweep continues. When
    ``cfg.out_dir`` is set, each cell writes its artifacts under
    ``cells/<strategy>-<budget>-<seed>`` and the finished table lands in
    comparison.tsv / comparison.json.
    """
    strategies = tuple(strategies)
    budgets = tuple(budgets)
    seeds = tuple(seeds)
    if not strategies or not budgets or not seeds:
        raise ContractError("strategies, budgets, and seeds must be non-empty")

    runs = {(strategy, budget, seed): dataclasses.replace(
                _rebind_seed(cfg, seed),
                mask=dataclasses.replace(cfg.mask, strategy=strategy,
                                         budget=budget, seed=seed),
                out_dir=(os.path.join(cfg.out_dir, "cells",
                                      f"{strategy}-{budget:g}-{seed}")
                         if cfg.out_dir is not None else None))
            for strategy in strategies for budget in budgets
            for seed in seeds}
    score_cache: dict[int, FisherEstimate] = {}

    def scores_for(seed: int) -> FisherEstimate:
        if seed not in score_cache:
            score_cache[seed] = _setup(_rebind_seed(cfg, seed), True)[3]
        return score_cache[seed]

    cells = []
    for strategy in strategies:
        for budget in budgets:
            accs: list[float] = []
            error = None
            for seed in seeds:
                try:
                    shared = scores_for(seed) \
                        if strategy in _SCORED else None
                    report = run_experiment(runs[strategy, budget, seed],
                                            shared)
                    accs.append(report.final_eval_accuracy)
                except PeftLabError as e:
                    error = f"seed {seed}: {e}"
                    break
            mean = float(np.mean(accs)) if error is None else None
            cells.append(CellResult(strategy, budget, seeds, accs, mean,
                                    error))

    table = ComparisonTable(strategies, budgets, seeds, cells)
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        atomic_write_text(os.path.join(cfg.out_dir, "comparison.tsv"),
                          table.to_tsv())
        atomic_write_text(os.path.join(cfg.out_dir, "comparison.json"),
                          table.to_json())
    return table
