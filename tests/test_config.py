"""Config document: strict parsing, lossless round trips, stable hashing."""

import dataclasses
import json
import math

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


def test_each_section_is_its_modules_config():
    from peftlab import fisher, tasks
    assert TaskConfig is tasks.TaskConfig
    assert MaskConfig is fisher.MaskConfig


def test_round_trip_identity():
    cfg = sample_config()
    assert from_dict(to_dict(cfg)) == cfg
    assert from_json(to_json(cfg)) == cfg
    # dict -> config -> dict is the identity on complete documents
    doc = to_dict(cfg)
    assert to_dict(from_dict(doc)) == doc
    # a partial document comes back whole, its missing keys at their defaults
    partial = {"model": {"max_seq_len": 4}}
    expected = to_dict(ExperimentConfig(model=ModelConfig(max_seq_len=4)))
    assert to_dict(from_dict(partial)) == expected != partial


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


def test_every_config_section_is_frozen_and_hashable():
    cfg = ExperimentConfig()
    for f in dataclasses.fields(cfg):
        section = getattr(cfg, f.name)
        if dataclasses.is_dataclass(section):
            first = dataclasses.fields(section)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(section, first, getattr(section, first))
    assert hash(cfg) == hash(ExperimentConfig())


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
    peft = PeftConfig(target_layers=[1, 2])
    assert peft.target_layers == (1, 2)
    assert hash(peft) == hash(PeftConfig(target_layers=(1, 2)))


@pytest.mark.parametrize("section, key, value, message", [
    ("model", "hidden_dim", 32.0, "model.hidden_dim: expected int"),
    ("task", "size", 64.0, "task.size: expected int"),
    ("task", "eval_size", True, "task.eval_size: expected int"),
    ("peft", "rank", 2.0, "peft.rank: expected int"),
    ("peft", "target_layers", [1.0], r"target_layers\[0\]: expected int"),
    ("peft", "target_weights", ["W_Q", 3], r"weights\[1\]: expected str"),
    ("peft", "lora_alpha", math.nan, "lora_alpha: expected a finite float"),
    ("peft", "include_gates", 1, "include_gates: expected bool"),
    ("train", "batch_size", 8.5, "train.batch_size: expected int"),
    ("train", "epochs", True, "train.epochs: expected int"),
    ("train", "lr", math.nan, "train.lr: expected a finite float"),
    ("train", "weight_decay", math.inf, "weight_decay: expected a finite"),
    ("mask", "budget", "0.5", "mask.budget: expected a finite float"),
    ("train", "epochs", 1.5, "train.epochs: expected int"),
    ("train", "batch_size", None, "train.batch_size: expected int"),
    ("train", "early_stop", "no", "train.early_stop: expected bool"),
    ("peft", "rank", True, "peft.rank: expected int"),
    ("peft", "target_layers", (1.0,), r"target_layers\[0\]: expected int"),
    ("mask", "seed", None, "mask.seed: expected int"),
    (None, "out_dir", 5, "out_dir: expected str"),
    (None, "model", {}, "model: expected ModelConfig"),
])
def test_field_types_checked(section, key, value, message):
    """A JSON document and a direct constructor call are checked by the same
    rule and fail with the same wording, the document path aside."""
    cls = ExperimentConfig if section is None else \
        type(getattr(ExperimentConfig(), section))
    with pytest.raises(ConfigError, match=message.removeprefix(f"{section}.")
                       ) as built:
        cls(**{key: value})
    if isinstance(value, dict):
        return  # a JSON object in a section's place is read as that section
    doc = to_dict(sample_config())
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ConfigError, match=message) as loaded:
        from_dict(doc)
    where = "config" if section is None else f"config.{section}"
    assert str(loaded.value) == f"{where}.{built.value}"


def test_float_fields_take_ints_and_optional_fields_take_null():
    doc = to_dict(sample_config())
    doc["train"]["lr"] = 1
    doc["peft"]["lora_alpha"] = 8
    doc["task"]["eval_size"] = None
    cfg = from_dict(doc)
    assert (cfg.train.lr, cfg.peft.lora_alpha, cfg.task.eval_size) == \
        (1, 8, None)
    assert to_dict(cfg) == doc


@pytest.mark.parametrize("kwargs, message", [
    ({"lr": math.nan}, "lr must be finite"),
    ({"lr": math.inf}, "lr must be finite"),
    ({"eps": 0.0}, "eps must be finite and positive"),
    ({"eps": math.nan}, "eps must be finite and positive"),
    ({"weight_decay": math.nan}, "weight_decay must be finite"),
])
def test_nonfinite_hyperparameters_rejected(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**kwargs)
