"""Command-line behavior: subcommands, overrides, and exit codes."""

import json
import os

import pytest

from peftlab.checkpoint import load_checkpoint, load_mask
from peftlab.cli import cli
from peftlab.config import ExperimentConfig, MaskConfig, TaskConfig, to_json
from peftlab.model import ModelConfig
from peftlab.optim import TrainConfig
from peftlab.peft import PeftConfig


@pytest.fixture
def cfg_path(tmp_path):
    cfg = ExperimentConfig(
        model=ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                          vocab_size=8, max_seq_len=4, seed=3),
        task=TaskConfig(size=48, seed=3),
        peft=PeftConfig(method="lora", rank=2, target_layers=(1,)),
        mask=MaskConfig(strategy="fish", budget=0.25, fisher_samples=16,
                        seed=3),
        train=TrainConfig(lr=0.01, epochs=2, seed=3))
    path = tmp_path / "cfg.json"
    path.write_text(to_json(cfg) + "\n")
    return str(path)


def test_no_command_prints_usage(capsys):
    assert cli([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_1(capsys):
    assert cli(["conjure"]) == 1


def test_unknown_flag_exits_1(capsys):
    assert cli(["train", "--telepathy", "on"]) == 1


def test_help_exits_0(capsys):
    assert cli(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_gen_data_writes_jsonl(tmp_path, cfg_path, capsys):
    out = str(tmp_path / "data")
    assert cli(["gen-data", "--config", cfg_path, "--out", out]) == 0
    lines = [json.loads(l) for l in
             (tmp_path / "data" / "dataset.jsonl").read_text().splitlines()]
    assert len(lines) == 48 + 12  # train plus eval quarter
    assert {l["split"] for l in lines} == {"train", "eval"}
    assert all(set(l) == {"tokens", "label", "split"} for l in lines)


def test_fisher_then_mask_artifacts(tmp_path, cfg_path):
    out = tmp_path / "art"
    assert cli(["fisher", "--config", cfg_path, "--out", str(out)]) == 0
    scores = (out / "scores.bin").read_bytes()
    assert cli(["mask", "--config", cfg_path, "--out", str(out)]) == 0
    # the mask command re-estimates the same scores before selecting
    assert (out / "scores.bin").read_bytes() == scores

    run = tmp_path / "run"
    assert cli(["train", "--config", cfg_path, "--out", str(run)]) == 0
    for name in ("scores.bin", "mask.bin"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name


def test_mask_budget_zero_is_validation_error(tmp_path, cfg_path, capsys):
    code = cli(["mask", "--config", cfg_path, "--budget", "0",
                "--out", str(tmp_path / "m")])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    code = cli(["train", "--config", str(tmp_path / "nope.json")])
    assert code == 1


def test_malformed_config_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"train": {"warp_speed": 9}}')
    assert cli(["train", "--config", str(path)]) == 1
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"model": {"hidden_dim": 32.0}}', "model.hidden_dim: expected int"),
    ('{"train": {"lr": NaN}}', "train.lr: expected a finite float"),
    ('{"train": {"eps": 0.0}}', "eps must be finite and positive"),
])
def test_mistyped_config_value_is_validation_error(tmp_path, capsys, text,
                                                   message):
    path = tmp_path / "typed.json"
    path.write_text(text)
    assert cli(["train", "--config", str(path), "--epochs", "0"]) == 1
    assert message in capsys.readouterr().err


def test_out_of_range_beta_is_validation_error(tmp_path, cfg_path, capsys):
    with open(cfg_path) as fh:
        doc = json.load(fh)
    doc["train"]["beta1"] = 1.5
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(doc))
    assert cli(["train", "--config", str(path)]) == 1
    assert "betas must lie in [0, 1)" in capsys.readouterr().err


def test_negative_seed_flag_is_validation_error(tmp_path, cfg_path, capsys):
    code = cli(["train", "--config", cfg_path, "--seed", "-1",
                "--out", str(tmp_path / "run")])
    assert code == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "3,-1", "seed must be >= 0"),
    ("--strategy", "fish,lottery", "lottery"),
    ("--budget", "0.5,0", "budget"),
    ("--seed", "3,3", "repeated seed 3"),
    ("--strategy", "fish,fish", "repeated strategy fish"),
    ("--budget", "0.1,0.10000001", "repeated budget 0.1"),
    ("--strategy", "", "strategy"),
    ("--budget", "", "--budget"),
    ("--seed", "", "--seed"),
])
def test_compare_bad_list_is_validation_error(tmp_path, cfg_path, capsys,
                                              flag, value, message):
    argv = ["compare", "--config", cfg_path, "--strategy", "fish",
            "--budget", "0.5", "--seed", "3", "--out", str(tmp_path / "sw")]
    argv[argv.index(flag) + 1] = value
    assert cli(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_single_run_refuses_a_list(tmp_path, cfg_path, capsys):
    assert cli(["train", "--config", cfg_path, "--strategy", "fish,random",
                "--out", str(tmp_path / "run")]) == 1
    assert "--strategy: exactly one value expected, got 2" in \
        capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_seed_in_config_is_validation_error(tmp_path, cfg_path,
                                                     capsys):
    with open(cfg_path) as fh:
        doc = json.load(fh)
    doc["mask"]["seed"] = -1
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc))
    assert cli(["train", "--config", str(path)]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


def test_train_and_eval_round_trip(tmp_path, cfg_path, capsys):
    out = str(tmp_path / "run")
    assert cli(["train", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "run" / "report.json").read_text())

    assert cli(["eval", os.path.join(out, "checkpoint.bin")]) == 0
    doc = json.loads(capsys.readouterr().out)
    # restored weights reproduce the recorded final evaluation exactly
    assert doc["eval_loss"] == report["final_eval_loss"]
    assert doc["eval_accuracy"] == report["final_eval_accuracy"]


def test_random_run_with_a_seed_past_int64_writes_every_artifact(tmp_path,
                                                                 cfg_path):
    out = tmp_path / "run"
    assert cli(["train", "--config", cfg_path, "--strategy", "random",
                "--budget", "0.5", "--epochs", "1", "--seed", str(2**63),
                "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["checkpoint.bin", "config.json",
                                       "mask.bin", "metrics.jsonl",
                                       "report.json"]
    assert load_mask(out / "mask.bin").seed == 2**63
    assert load_checkpoint(out / "checkpoint.bin").mask.seed == 2**63


@pytest.mark.parametrize("flag, value, message", [
    ("--rank", "100",
     "stage 'attach': rank 100 exceeds min dim of W_Q (32, 32)"),
    ("--layers", "5", "stage 'attach': top layer index 5 outside"),
])
def test_value_checked_against_the_model_fails_in_its_stage(capsys, flag,
                                                            value, message):
    # each field rule accepts the value; only the built model refuses it
    assert cli(["train", flag, value]) == 2
    assert message in capsys.readouterr().err


def test_eval_missing_checkpoint_is_runtime_error(tmp_path):
    assert cli(["eval", str(tmp_path / "ghost.bin")]) == 2


def test_full_budget_matches_dense(tmp_path, cfg_path, capsys):
    out_a = str(tmp_path / "dense")
    out_b = str(tmp_path / "fish_full")
    assert cli(["train", "--config", cfg_path, "--strategy", "dense",
                "--out", out_a]) == 0
    acc_a = capsys.readouterr().out.split("final_eval_accuracy=")[1].split()[0]
    assert cli(["train", "--config", cfg_path, "--strategy", "fish",
                "--budget", "1.0", "--out", out_b]) == 0
    acc_b = capsys.readouterr().out.split("final_eval_accuracy=")[1].split()[0]
    assert acc_a == acc_b


def test_flag_overrides_beat_config(tmp_path, cfg_path):
    out = str(tmp_path / "run")
    assert cli(["train", "--config", cfg_path, "--strategy", "random",
                "--budget", "0.5", "--epochs", "1", "--seed", "9",
                "--lr", "0.25", "--out", out]) == 0
    doc = json.loads((tmp_path / "run" / "report.json").read_text())
    assert doc["strategy"] == "random"
    assert doc["seed"] == 9
    assert len(doc["records"]) == 2  # epoch 0 plus one epoch
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert saved["mask"]["budget"] == 0.5
    assert saved["model"]["seed"] == 9  # one seed drives the whole run
    assert saved["train"]["lr"] == 0.25


def test_method_layer_overrides(tmp_path, cfg_path):
    out = str(tmp_path / "run")
    assert cli(["train", "--config", cfg_path, "--method", "ia3",
                "--layers", "1,2", "--out", out]) == 0
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert saved["peft"]["method"] == "ia3"
    assert saved["peft"]["target_layers"] == [1, 2]
    assert cli(["train", "--config", cfg_path, "--method", "prefix",
                "--prefix-len", "3", "--out", out]) == 0
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert saved["peft"]["method"] == "prefix"
    assert saved["peft"]["prefix_len"] == 3


def test_compare_writes_table(tmp_path, cfg_path, capsys):
    out = str(tmp_path / "sweep")
    assert cli(["compare", "--config", cfg_path,
                "--strategy", "fish,random,reverse",
                "--budget", "0.25,1.0", "--seed", "3,4",
                "--out", out]) == 0
    tsv = capsys.readouterr().out
    assert tsv.splitlines()[0] == "strategy\tbudget=0.25\tbudget=1"
    assert (tmp_path / "sweep" / "comparison.tsv").read_text() == tsv


def test_compare_cell_failure_exits_2(tmp_path, cfg_path, capsys):
    # more score samples than the 48-example split: the fish cell fails
    with open(cfg_path) as fh:
        doc = json.load(fh)
    doc["mask"]["fisher_samples"] = 1000
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(doc))
    assert cli(["compare", "--config", str(path),
                "--strategy", "fish,random", "--budget", "0.5",
                "--seed", "3,4"]) == 2
    out, err = capsys.readouterr()
    fish, random_ = out.splitlines()[1:]
    assert fish == "fish\tERROR"
    assert random_.startswith("random\t") and "ERROR" not in random_
    lines = err.splitlines()
    assert [l.split(" failed: ")[0] for l in lines] == [
        "run (fish, 0.5, seed 3)", "run (fish, 0.5, seed 4)"]
    assert all("exceeds" in l for l in lines)


def test_compare_without_seed_refuses_a_config_of_mixed_seeds(
        tmp_path, cfg_path, capsys):
    with open(cfg_path) as fh:
        doc = json.load(fh)
    doc["train"]["seed"] = 42
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sw"
    assert cli(["compare", "--config", str(path), "--strategy", "random",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "(3, 3, 3, 42)" in err
    assert not out.exists()
    # one seed everywhere: the config's own seed is the sweep's
    assert cli(["compare", "--config", cfg_path, "--strategy", "random",
                "--out", str(out)]) == 0
    assert (out / "cells" / "random-0.25-3").is_dir()


def test_report_renders_stored_runs(tmp_path, cfg_path, capsys):
    out = str(tmp_path / "run")
    assert cli(["train", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    assert cli(["report", out]) == 0
    rendered = capsys.readouterr().out
    assert rendered.splitlines()[0].startswith("strategy\tseed\tk")
    assert "fish" in rendered


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_renders_a_diverged_run(tmp_path, capsys):
    # the first step overflows: epoch 1's eval loss is stored as NaN
    path = tmp_path / "huge_lr.json"
    path.write_text(json.dumps({"task": {"size": 32},
                                "mask": {"strategy": "dense"},
                                "train": {"epochs": 3, "lr": 1e37}}))
    out = str(tmp_path / "run")
    assert cli(["train", "--config", str(path), "--out", out]) == 0
    assert "diverged=True" in capsys.readouterr().out
    assert cli(["report", out]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert row[4] == "nan"
    assert row[-1] == " !"  # epoch 0 at the bottom, then the NaN


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diverged_run_writes_strict_json(tmp_path, capsys):
    path = tmp_path / "huge_lr.json"
    path.write_text(json.dumps({"task": {"size": 32},
                                "mask": {"strategy": "dense"},
                                "train": {"epochs": 3, "lr": 1e37}}))
    run = tmp_path / "run"
    assert cli(["train", "--config", str(path), "--out", str(run)]) == 0
    assert "diverged=True" in capsys.readouterr().out
    doc = json.loads((run / "report.json").read_text(),
                     parse_constant=_reject_constant)
    assert doc["final_eval_loss"] is None
    assert doc["records"][-1]["eval_loss"] is None
    lines = [json.loads(line, parse_constant=_reject_constant)
             for line in (run / "metrics.jsonl").read_text().splitlines()]
    assert lines[-1]["loss"] is None


def test_report_missing_path_is_validation_error(tmp_path):
    assert cli(["report", str(tmp_path / "none")]) == 1


def test_report_of_a_non_report_file_is_validation_error(tmp_path, cfg_path,
                                                         capsys):
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    for path in (cfg_path, str(listing)):
        assert cli(["report", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not a run report" in err
