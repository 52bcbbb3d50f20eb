"""Experiment drivers: pipeline artifacts, determinism, sweep semantics."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from peftlab.config import (ExperimentConfig, MaskConfig, TaskConfig,
                            config_hash, from_json)
from peftlab.errors import ConfigError, ContractError, ExperimentError
from peftlab import experiment
from peftlab.experiment import (compare_strategies, comparison_json,
                                comparison_tsv, run_experiment)
from peftlab.checkpoint import load_checkpoint, load_mask, load_scores
from peftlab.model import ModelConfig
from peftlab.optim import TrainConfig, TrainReport
from peftlab.peft import PeftConfig


def quick_config(out_dir=None, strategy="fish", budget=0.25) -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                          vocab_size=8, max_seq_len=4, seed=3),
        task=TaskConfig(size=48, seed=3),
        peft=PeftConfig(method="lora", rank=2, target_layers=(1,)),
        mask=MaskConfig(strategy=strategy, budget=budget, fisher_samples=16,
                        seed=3),
        train=TrainConfig(lr=0.01, epochs=2, seed=3),
        out_dir=out_dir)


def test_pipeline_persists_all_artifacts(tmp_path):
    out = str(tmp_path / "run")
    cfg = quick_config(out)
    report = run_experiment(cfg)
    assert sorted(os.listdir(out)) == ["checkpoint.bin", "config.json",
                                       "mask.bin", "metrics.jsonl",
                                       "report.json", "scores.bin"]
    doc = json.loads((tmp_path / "run" / "report.json").read_text())
    assert doc["strategy"] == "fish"
    assert doc["config_hash"] == config_hash(cfg)
    assert doc["final_eval_accuracy"] == report.final_eval_accuracy
    assert len(doc["records"]) == cfg.train.epochs + 1  # epoch 0 included

    saved_cfg = from_json((tmp_path / "run" / "config.json").read_text())
    assert saved_cfg == cfg
    mask = load_mask(tmp_path / "run" / "mask.bin")
    assert mask.strategy == "fish"
    scores = load_scores(tmp_path / "run" / "scores.bin")
    assert len(scores) == len(mask)
    state = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    assert state.cfg == cfg


def test_metrics_lines_shape(tmp_path):
    out = str(tmp_path / "run")
    run_experiment(quick_config(out))
    lines = [json.loads(l) for l in
             (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    # epoch 0 has eval only; later epochs emit train + eval
    assert [l["split"] for l in lines] == ["eval", "train", "eval",
                                           "train", "eval"]
    for line in lines:
        assert set(line) == {"epoch", "split", "loss", "accuracy", "ratio1",
                             "ratio2", "strategy", "seed"}
        if line["split"] == "train":
            assert line["accuracy"] is None
        else:
            assert 0.0 <= line["accuracy"] <= 1.0


def test_dense_and_random_skip_score_estimation(tmp_path):
    for strategy in ("dense", "random"):
        out = str(tmp_path / strategy)
        run_experiment(quick_config(out, strategy=strategy, budget=0.5))
        assert not os.path.exists(os.path.join(out, "scores.bin"))


def test_reports_byte_identical_modulo_wall_time(tmp_path):
    def normalized(run_dir):
        text = (tmp_path / run_dir / "report.json").read_text()
        return re.sub(r'"wall_time_seconds": [0-9.e+-]+', '"wall_time_seconds": 0',
                      text)

    run_experiment(quick_config(str(tmp_path / "a")))
    run_experiment(quick_config(str(tmp_path / "b")))
    assert normalized("a") == normalized("b")
    metrics_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    metrics_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert metrics_a == metrics_b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_update_writes_diverged_report(tmp_path):
    out = str(tmp_path / "run")
    cfg = dataclasses.replace(
        quick_config(out_dir=out, strategy="dense", budget=1.0),
        train=TrainConfig(optimizer="sgd", lr=1e39, epochs=2, seed=3))
    report = run_experiment(cfg)
    assert report.diverged
    doc = json.loads((tmp_path / "run" / "report.json").read_text())
    assert doc["diverged"] is True
    assert len(doc["records"]) == 1


def test_no_out_dir_persists_nothing(tmp_path):
    before = set(os.listdir(tmp_path))
    report = run_experiment(quick_config(None))
    assert len(report.records) == 3
    assert set(os.listdir(tmp_path)) == before


def test_stage_error_carries_stage_name():
    cfg = quick_config()
    # more score samples than training examples: estimation must fail
    cfg = dataclasses.replace(cfg, mask=dataclasses.replace(cfg.mask,
                                                            fisher_samples=10_000))
    with pytest.raises(ExperimentError, match="estimate-scores") as info:
        run_experiment(cfg)
    assert info.value.stage == "estimate-scores"


def test_shared_scores_must_match_length():
    cfg = quick_config()
    from peftlab.fisher import FisherEstimate
    bogus = FisherEstimate(np.ones(7, dtype=np.float32), num_samples=1)
    with pytest.raises(ExperimentError, match="estimate-scores"):
        run_experiment(cfg, shared_scores=bogus)


def test_compare_rejects_empty_lists():
    cfg = quick_config()
    with pytest.raises(ContractError):
        compare_strategies(cfg, [], [0.5], [1])
    with pytest.raises(ContractError):
        compare_strategies(cfg, ["fish"], [], [1])
    with pytest.raises(ContractError):
        compare_strategies(cfg, ["fish"], [0.5], [])


@pytest.mark.parametrize("budgets, seeds, message", [
    ([0.5], [1.5], "seed: expected int, got 1.5"),
    (["0.5"], [3], "budget: expected a finite float, got '0.5'"),
])
def test_compare_rejects_a_mistyped_value_before_any_cell_runs(
        tmp_path, budgets, seeds, message):
    cfg = dataclasses.replace(quick_config(), out_dir=str(tmp_path / "sw"))
    with pytest.raises(ConfigError, match=message):
        compare_strategies(cfg, ["random"], budgets, seeds)
    assert not (tmp_path / "sw").exists()


def test_compare_single_cell_equals_single_run(tmp_path):
    cfg = quick_config()
    runs = compare_strategies(cfg, ["dense"], [1.0], [3])
    report = run_experiment(quick_config(None, strategy="dense", budget=1.0))
    assert list(runs) == [("dense", 1.0, 3)]
    assert runs["dense", 1.0, 3].records == report.records
    cell, = json.loads(comparison_json(runs))["cells"]
    assert cell["error"] is None
    assert cell["accuracies"] == [report.final_eval_accuracy]
    assert cell["mean_accuracy"] == report.final_eval_accuracy


def test_compare_full_budget_degeneracy(tmp_path):
    """At budget 1.0 every strategy trains the same coordinates."""
    cfg = quick_config()
    strategies = ("fish", "random", "reverse", "dense")
    runs = compare_strategies(cfg, strategies, [1.0], [3, 4])
    assert list(runs) == [(s, 1.0, seed) for s in strategies
                          for seed in (3, 4)]
    for s in strategies:
        for seed in (3, 4):
            assert isinstance(runs[s, 1.0, seed], TrainReport)
            assert (runs[s, 1.0, seed].final_eval_accuracy ==
                    runs["fish", 1.0, seed].final_eval_accuracy)


def test_compare_records_cell_failures_and_continues(tmp_path):
    # more score samples than the 48-example split: only scored cells fail
    cfg = quick_config()
    cfg = dataclasses.replace(
        cfg, mask=dataclasses.replace(cfg.mask, fisher_samples=1000))
    runs = compare_strategies(cfg, ["fish", "random"], [0.5], [3])
    bad = runs["fish", 0.5, 3]
    assert isinstance(bad, ExperimentError) and "exceeds" in str(bad)
    assert isinstance(runs["random", 0.5, 3], TrainReport)
    cells = json.loads(comparison_json(runs))["cells"]
    assert cells[0]["error"] == f"seed 3: {bad}"
    assert cells[0]["mean_accuracy"] is None
    assert cells[1]["error"] is None


def test_compare_table_render(tmp_path):
    out = str(tmp_path / "sweep")
    cfg = quick_config(out)
    runs = compare_strategies(cfg, ["fish", "random"], [0.25, 1.0], [3])
    tsv = comparison_tsv(runs)
    lines = tsv.strip().split("\n")
    assert lines[0] == "strategy\tbudget=0.25\tbudget=1"
    assert lines[1].startswith("fish\t")
    assert (tmp_path / "sweep" / "comparison.tsv").read_text() == tsv
    text = (tmp_path / "sweep" / "comparison.json").read_text()
    assert text == comparison_json(runs)
    doc = json.loads(text)
    assert doc["strategies"] == ["fish", "random"]
    assert len(doc["cells"]) == 4
    # per-cell artifacts land under cells/
    assert (tmp_path / "sweep" / "cells" / "fish-0.25-3" / "report.json").exists()


def _direct_run(cfg, strategy, budget, seed, out_dir=None):
    """The single run a sweep makes for (strategy, budget, seed)."""
    return run_experiment(dataclasses.replace(
        quick_config(out_dir, strategy=strategy, budget=budget),
        model=dataclasses.replace(cfg.model, seed=seed),
        task=dataclasses.replace(cfg.task, seed=seed),
        mask=dataclasses.replace(cfg.mask, strategy=strategy, budget=budget,
                                 seed=seed),
        train=dataclasses.replace(cfg.train, seed=seed)))


def test_compare_seed_rebinds_whole_experiment(tmp_path):
    """Sweep seeds change model, task, mask, and training together."""
    cfg = quick_config()
    runs = compare_strategies(cfg, ["random"], [0.5], [3, 4])
    direct = _direct_run(cfg, "random", 0.5, 4, str(tmp_path / "a"))
    assert runs["random", 0.5, 4].final_eval_accuracy == \
        direct.final_eval_accuracy
    assert runs["random", 0.5, 4].records == direct.records


def test_compare_failing_seed_does_not_hide_the_next(monkeypatch):
    real = experiment.run_experiment

    def fail_at_seed_3(cfg, shared_scores=None):
        if cfg.train.seed == 3:
            raise ExperimentError("train", "injected failure")
        return real(cfg, shared_scores)

    monkeypatch.setattr(experiment, "run_experiment", fail_at_seed_3)
    cfg = quick_config()
    runs = compare_strategies(cfg, ["random"], [0.5], [3, 4])
    assert list(runs) == [("random", 0.5, 3), ("random", 0.5, 4)]
    assert isinstance(runs["random", 0.5, 3], ExperimentError)
    assert "injected failure" in str(runs["random", 0.5, 3])
    direct = _direct_run(cfg, "random", 0.5, 4)
    assert dataclasses.replace(runs["random", 0.5, 4],
                               wall_time_seconds=0.0) == \
        dataclasses.replace(direct, wall_time_seconds=0.0)
    cell, = json.loads(comparison_json(runs))["cells"]
    assert cell["accuracies"] == [direct.final_eval_accuracy]
    assert cell["mean_accuracy"] is None
    assert cell["error"].startswith("seed 3: ")


def test_compare_tries_a_failing_score_estimate_once_per_seed(monkeypatch):
    # more score samples than the 48-example split: every estimate fails
    real = experiment._setup
    scored = []

    def counting_setup(cfg, score):
        if score:
            scored.append(cfg.model.seed)
        return real(cfg, score)

    monkeypatch.setattr(experiment, "_setup", counting_setup)
    cfg = quick_config()
    cfg = dataclasses.replace(
        cfg, mask=dataclasses.replace(cfg.mask, fisher_samples=1000))
    runs = compare_strategies(cfg, ["fish", "reverse"], [0.25, 0.5], [3, 4])
    assert scored == [3, 4]
    assert len(runs) == 8
    for (_, _, seed), r in runs.items():
        assert isinstance(r, ExperimentError) and "exceeds" in str(r)
        assert r is runs["fish", 0.25, seed]
