"""Experiment configuration: a versioned, strictly-typed JSON document.

``from_dict`` rejects unknown keys anywhere in the tree and
``to_dict(from_dict(d)) == d`` for any document it accepts, so configs are
lossless round-trippers. ``config_hash`` fingerprints everything except the
output directory (two runs writing to different places are the same
experiment).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig
from .optim import TrainConfig
from .peft import PeftConfig
from .fisher import STRATEGIES
from .tasks import TASK_KINDS

CONFIG_VERSION = 1


@dataclass(frozen=True)
class TaskConfig:
    kind: str = "parity"
    size: int = 256
    seed: int = 42
    eval_size: int | None = None

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind '{self.kind}'")
        if self.size < 16:
            raise ConfigError(f"task size must be >= 16, got {self.size}")
        if self.eval_size is not None and self.eval_size < 1:
            raise ConfigError("eval_size must be >= 1 when given")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class MaskConfig:
    strategy: str = "dense"
    budget: float = 1.0
    fisher_samples: int = 128
    seed: int = 42

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy '{self.strategy}'; expected "
                              f"one of {STRATEGIES}")
        if not 0.0 < self.budget <= 1.0:
            raise ConfigError(f"budget must be in (0, 1], got {self.budget}")
        if self.fisher_samples < 1:
            raise ConfigError(f"fisher_samples must be >= 1, "
                              f"got {self.fisher_samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    version: int = CONFIG_VERSION
    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    task: TaskConfig = dataclasses.field(default_factory=TaskConfig)
    peft: PeftConfig = dataclasses.field(default_factory=PeftConfig)
    mask: MaskConfig = dataclasses.field(default_factory=MaskConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    out_dir: str | None = None

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"config version {self.version} unsupported "
                              f"(expected {CONFIG_VERSION})")


def _to_plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


def to_dict(cfg: ExperimentConfig) -> dict:
    return _to_plain(cfg)


def _check_scalar(tp: type, value, where: str) -> None:
    """An int field takes an int but not a bool; a float field takes an int
    or a finite float; any other field takes an instance of its type."""
    if tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif tp is float:
        ok = (isinstance(value, int) and not isinstance(value, bool)) or \
            (isinstance(value, float) and math.isfinite(value))
    else:
        ok = isinstance(value, tp)
    if not ok:
        want = "a finite float" if tp is float else tp.__name__
        raise ConfigError(f"{where}: expected {want}, got {value!r}")


def _build(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got "
                          f"{type(data).__name__}")
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(field_map))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        tp = hints[name]
        options = typing.get_args(tp)
        if type(None) in options:
            if value is None:
                kwargs[name] = None
                continue
            tp = next(o for o in options if o is not type(None))
        if dataclasses.is_dataclass(tp):
            kwargs[name] = _build(tp, value, f"{where}.{name}")
        elif typing.get_origin(tp) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where}.{name}: expected a list")
            for i, item in enumerate(value):
                _check_scalar(typing.get_args(tp)[0], item,
                              f"{where}.{name}[{i}]")
            kwargs[name] = tuple(value)
        else:
            _check_scalar(tp, value, f"{where}.{name}")
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{where}: {e}") from e


def from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data, "config")


def to_json(cfg: ExperimentConfig, indent: int | None = 2) -> str:
    return json.dumps(to_dict(cfg), indent=indent, sort_keys=True)


def from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return from_dict(data)


def config_hash(cfg: ExperimentConfig) -> str:
    doc = to_dict(cfg)
    doc.pop("out_dir", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
