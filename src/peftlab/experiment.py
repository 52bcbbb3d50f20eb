"""Experiment drivers: the single-run pipeline and the strategy sweep.

``run_experiment`` executes build model -> generate task -> attach adapters ->
estimate scores (skipped when the strategy ignores them) -> select mask ->
train -> persist. Every stage failure is re-raised as
:class:`~peftlab.errors.ExperimentError` carrying the stage name.

``compare_strategies`` runs the cartesian strategy x budget x seed sweep with
one shared score estimate per seed, the way a comparison table is meant to be
produced: every strategy at a given seed sees the identical estimate. It
returns the runs themselves, one report or error per (strategy, budget,
seed), and ``comparison_tsv`` and ``comparison_json`` render the table from
them.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager

import numpy as np

from . import config as config_mod
from .checkpoint import (atomic_write_text, save_checkpoint, save_mask,
                         save_scores)
from .config import ExperimentConfig
from .errors import ConfigError, ContractError, ExperimentError, PeftLabError
from .fisher import (FisherEstimate, SparsityMask, budget_to_k,
                     estimate_fisher, select)
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
                         eval_size=cfg.task.eval_size)


def _strict(doc):
    """``doc`` with each NaN or infinity (a diverged run's loss) made None:
    strict JSON has neither."""
    return json.loads(json.dumps(doc), parse_constant=lambda name: None)


def report_to_dict(report: TrainReport, k: int, theta_len: int) -> dict:
    """report.json: the report's fields, the mask's popcount, the flat-view
    length and the final eval numbers; a non-finite float is None."""
    return _strict({**dataclasses.asdict(report), "k": k,
                    "theta_len": theta_len,
                    "final_eval_loss": report.final_eval_loss,
                    "final_eval_accuracy": report.final_eval_accuracy})


def metrics_lines(report: TrainReport) -> str:
    """One JSON object per line; train lines carry no accuracy, and a
    non-finite float is null."""
    run = {"ratio1": report.ratio1, "ratio2": report.ratio2,
           "strategy": report.strategy, "seed": report.seed}
    lines = []
    for r in report.records:
        if r.train_loss is not None:
            lines.append({"epoch": r.epoch, "split": "train",
                          "loss": r.train_loss, "accuracy": None, **run})
        lines.append({"epoch": r.epoch, "split": "eval", "loss": r.eval_loss,
                      "accuracy": r.eval_accuracy, **run})
    return "\n".join(json.dumps(line) for line in _strict(lines)) + "\n"


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
                                       num_samples=cfg.mask.fisher_samples)
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
# strategy x budget x seed sweep


def _run_config(cfg: ExperimentConfig, strategy: str, budget: float,
                seed: int | None) -> ExperimentConfig:
    """The config of one sweep point: ``cfg`` at this strategy and budget.
    One seed drives model init, task draw, mask draw, and training; None
    leaves the config's four seeds as they are."""
    seeded = {} if seed is None else {"seed": seed}
    return dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, **seeded),
        task=dataclasses.replace(cfg.task, **seeded),
        mask=dataclasses.replace(cfg.mask, strategy=strategy, budget=budget,
                                 **seeded),
        train=dataclasses.replace(cfg.train, **seeded))


def _attempt(fn):
    """fn's result, or the PeftLabError it raised."""
    try:
        return fn()
    except PeftLabError as e:
        return e


def compare_strategies(cfg: ExperimentConfig, strategies, budgets, seeds
                       ) -> dict[tuple, TrainReport | PeftLabError]:
    """Cartesian sweep with one shared score estimate per seed.

    Returns one entry per run, keyed ``(strategy, budget, seed)`` in
    strategy, budget, seed order: the run's TrainReport, or the
    PeftLabError that stopped it. Every run is attempted, and a seed whose
    score estimate fails fails its scored runs without a second try.
    Every run's config is built before the first run starts, so a bad or
    repeated strategy, budget (by its ``:g`` cell name) or seed raises
    ConfigError up front. When ``cfg.out_dir`` is set, each run writes its
    artifacts under ``cells/<strategy>-<budget>-<seed>`` and the sweep
    writes comparison.tsv and comparison.json.
    """
    strategies = tuple(strategies)
    budgets = tuple(budgets)
    seeds = tuple(seeds)
    if not strategies or not budgets or not seeds:
        raise ContractError("strategies, budgets, and seeds must be non-empty")
    if None in seeds:  # would leave the config's own seeds in place
        raise ConfigError("seed: expected int, got None")
    # configs come before :g names: a bad type is a ConfigError, not a
    # format error
    runs = {(strategy, budget, seed): dataclasses.replace(
                _run_config(cfg, strategy, budget, seed),
                out_dir=(os.path.join(cfg.out_dir, "cells",
                                      f"{strategy}-{budget:g}-{seed}")
                         if cfg.out_dir is not None else None))
            for strategy in strategies for budget in budgets
            for seed in seeds}
    for what, keys in (("strategy", strategies), ("seed", seeds),
                       ("budget", [f"{b:g}" for b in budgets])):
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ConfigError(f"repeated {what} {key} in the sweep")

    scores: dict[int, FisherEstimate | PeftLabError] = {}
    results = {}
    for (strategy, budget, seed), run_cfg in runs.items():
        if strategy in _SCORED and seed not in scores:
            scores[seed] = _attempt(lambda: _setup(run_cfg, True)[3])
        shared = scores[seed] if strategy in _SCORED else None
        results[strategy, budget, seed] = (
            shared if isinstance(shared, PeftLabError)
            else _attempt(lambda: run_experiment(run_cfg, shared)))

    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        atomic_write_text(os.path.join(cfg.out_dir, "comparison.tsv"),
                          comparison_tsv(results))
        atomic_write_text(os.path.join(cfg.out_dir, "comparison.json"),
                          comparison_json(results))
    return results


def _axes(runs: dict) -> list[list]:
    """The sweep's strategies, budgets and seeds, in sweep order."""
    return [list(dict.fromkeys(key[i] for key in runs)) for i in range(3)]


def _cells(runs: dict) -> dict[tuple, dict]:
    """Per (strategy, budget): the finished seeds' final accuracies, their
    mean when no seed failed, and one ``seed S: msg`` per failed seed."""
    strategies, budgets, seeds = _axes(runs)
    cells = {}
    for s in strategies:
        for b in budgets:
            done = [runs[s, b, seed] for seed in seeds]
            accs = [r.final_eval_accuracy for r in done
                    if isinstance(r, TrainReport)]
            errors = [f"seed {seed}: {r}" for seed, r in zip(seeds, done)
                      if isinstance(r, PeftLabError)]
            cells[s, b] = {
                "strategy": s, "budget": b, "seeds": seeds,
                "accuracies": accs, "error": "; ".join(errors) or None,
                "mean_accuracy": None if errors else float(np.mean(accs))}
    return cells


def comparison_tsv(runs: dict) -> str:
    """comparison.tsv: a strategy per row, a budget per column, and in each
    cell the mean final accuracy over seeds, or ERROR."""
    strategies, budgets, _ = _axes(runs)
    cells = _cells(runs)
    rows = ["strategy\t" + "\t".join(f"budget={b:g}" for b in budgets)]
    for s in strategies:
        means = [cells[s, b]["mean_accuracy"] for b in budgets]
        rows.append("\t".join([s] + ["ERROR" if m is None else f"{m:.4f}"
                                     for m in means]))
    return "\n".join(rows) + "\n"


def comparison_json(runs: dict) -> str:
    """comparison.json: the sweep's axes and every cell's summary."""
    strategies, budgets, seeds = _axes(runs)
    doc = {"strategies": strategies, "budgets": budgets, "seeds": seeds,
           "cells": list(_cells(runs).values())}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
