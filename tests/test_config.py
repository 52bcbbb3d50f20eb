"""Config document: strict parsing, lossless round trips, stable hashing."""

import dataclasses
import json

import pytest

from peftlab.config import (CONFIG_VERSION, ExperimentConfig, MaskConfig,
                            TaskConfig, config_hash, from_dict, from_json,
                            to_dict, to_json)
from peftlab.errors import ConfigError
from peftlab.model import ModelConfig
from peftlab.optim import TrainConfig
from peftlab.peft import PeftConfig


def sample_config() -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ffn_dim=16,
                          vocab_size=8, max_seq_len=4, seed=7),
        task=TaskConfig(kind="majority", size=64, seed=3, eval_size=16),
        peft=PeftConfig(method="ia3", target_layers=(1,)),
        mask=MaskConfig(strategy="fish", budget=0.25, fisher_samples=16,
                        seed=9),
        train=TrainConfig(lr=0.01, epochs=3, seed=11),
        out_dir="/tmp/somewhere")


def test_round_trip_identity():
    cfg = sample_config()
    assert from_dict(to_dict(cfg)) == cfg
    assert from_json(to_json(cfg)) == cfg
    # dict -> config -> dict is the identity on accepted documents
    doc = to_dict(cfg)
    assert to_dict(from_dict(doc)) == doc


def test_defaults_round_trip():
    cfg = ExperimentConfig()
    assert from_json(to_json(cfg)) == cfg
    assert cfg.version == CONFIG_VERSION


def test_unknown_keys_rejected_at_any_depth():
    doc = to_dict(sample_config())
    doc["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        from_dict(doc)
    doc = to_dict(sample_config())
    doc["train"]["warmup"] = 5
    with pytest.raises(ConfigError, match="warmup"):
        from_dict(doc)


def test_nested_validation_propagates():
    doc = to_dict(sample_config())
    doc["mask"]["budget"] = 0.0
    with pytest.raises(ConfigError, match="budget"):
        from_dict(doc)
    doc = to_dict(sample_config())
    doc["peft"]["method"] = "banana"
    with pytest.raises(ConfigError, match="banana"):
        from_dict(doc)


def test_version_gate():
    doc = to_dict(sample_config())
    doc["version"] = CONFIG_VERSION + 1
    with pytest.raises(ConfigError, match="version"):
        from_dict(doc)


def test_bad_json_and_bad_shape():
    with pytest.raises(ConfigError, match="JSON"):
        from_json("{not json")
    with pytest.raises(ConfigError, match="object"):
        from_dict({"model": 3})


def test_task_config_validation():
    with pytest.raises(ConfigError):
        TaskConfig(kind="sudoku")
    with pytest.raises(ConfigError):
        TaskConfig(size=4)
    with pytest.raises(ConfigError):
        TaskConfig(eval_size=0)
    with pytest.raises(ConfigError):
        MaskConfig(strategy="psychic")
    with pytest.raises(ConfigError):
        MaskConfig(fisher_samples=0)


@pytest.mark.parametrize("cls", [ModelConfig, TaskConfig, MaskConfig,
                                 TrainConfig])
def test_negative_seed_rejected(cls):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        cls(seed=-1)
    assert cls(seed=0).seed == 0


def test_hash_ignores_out_dir_only():
    cfg = sample_config()
    moved = dataclasses.replace(cfg, out_dir="/tmp/elsewhere")
    assert config_hash(cfg) == config_hash(moved)
    changed = dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, lr=0.02))
    assert config_hash(cfg) != config_hash(changed)
    # stable across processes: pure function of the document
    doc = json.dumps(to_dict(cfg), sort_keys=True)
    assert config_hash(from_json(to_json(cfg))) == config_hash(cfg)
    assert doc == json.dumps(to_dict(from_json(to_json(cfg))), sort_keys=True)


def test_tuple_fields_accept_lists():
    doc = to_dict(sample_config())
    doc["peft"]["target_layers"] = [1]
    doc["peft"]["target_weights"] = ["W_Q", "W_V"]
    cfg = from_dict(doc)
    assert cfg.peft.target_layers == (1,)
    assert cfg.peft.target_weights == ("W_Q", "W_V")
