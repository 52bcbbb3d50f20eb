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
from peftlab.experiment import compare_strategies, run_experiment
from peftlab.checkpoint import load_checkpoint, load_mask, load_scores
from peftlab.model import ModelConfig
from peftlab.optim import TrainConfig
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
    table = compare_strategies(cfg, ["dense"], [1.0], [3])
    report = run_experiment(quick_config(None, strategy="dense", budget=1.0))
    cell = table.cell("dense", 1.0)
    assert cell.error is None
    assert cell.accuracies == [report.final_eval_accuracy]
    assert cell.mean_accuracy == report.final_eval_accuracy


def test_compare_full_budget_degeneracy(tmp_path):
    """At budget 1.0 every strategy trains the same coordinates."""
    cfg = quick_config()
    table = compare_strategies(cfg, ["fish", "random", "reverse", "dense"],
                               [1.0], [3, 4])
    cells = [table.cell(s, 1.0) for s in ("fish", "random", "reverse",
                                          "dense")]
    for c in cells:
        assert c.error is None
        assert c.accuracies == cells[0].accuracies


def test_compare_records_cell_failures_and_continues(tmp_path):
    # more score samples than the 48-example split: only scored cells fail
    cfg = quick_config()
    cfg = dataclasses.replace(
        cfg, mask=dataclasses.replace(cfg.mask, fisher_samples=1000))
    table = compare_strategies(cfg, ["fish", "random"], [0.5], [3])
    bad = table.cell("fish", 0.5)
    assert bad.error is not None and "exceeds" in bad.error
    assert bad.mean_accuracy is None
    good = table.cell("random", 0.5)
    assert good.error is None


def test_compare_table_render(tmp_path):
    out = str(tmp_path / "sweep")
    cfg = quick_config(out)
    table = compare_strategies(cfg, ["fish", "random"], [0.25, 1.0], [3])
    tsv = table.to_tsv()
    lines = tsv.strip().split("\n")
    assert lines[0] == "strategy\tbudget=0.25\tbudget=1"
    assert lines[1].startswith("fish\t")
    assert (tmp_path / "sweep" / "comparison.tsv").read_text() == tsv
    doc = json.loads((tmp_path / "sweep" / "comparison.json").read_text())
    assert doc["strategies"] == ["fish", "random"]
    assert len(doc["cells"]) == 4
    # per-cell artifacts land under cells/
    assert (tmp_path / "sweep" / "cells" / "fish-0.25-3" / "report.json").exists()


def test_compare_seed_rebinds_whole_experiment(tmp_path):
    """Sweep seeds change model, task, mask, and training together."""
    cfg = quick_config()
    table = compare_strategies(cfg, ["random"], [0.5], [3, 4])
    cell = table.cell("random", 0.5)
    out_a = str(tmp_path / "a")
    direct = run_experiment(dataclasses.replace(
        quick_config(out_a, strategy="random", budget=0.5),
        model=dataclasses.replace(cfg.model, seed=4),
        task=dataclasses.replace(cfg.task, seed=4),
        mask=dataclasses.replace(cfg.mask, strategy="random", budget=0.5,
                                 seed=4),
        train=dataclasses.replace(cfg.train, seed=4)))
    assert cell.accuracies[1] == direct.final_eval_accuracy
