"""Experiment configuration: a versioned, strictly-typed JSON document.

``from_dict`` rejects unknown keys anywhere in the tree and fills a missing
key with its default. ``from_dict(to_dict(c)) == c`` for every config, and
``to_dict(from_dict(d)) == d`` for a complete document (one that names every
key); a partial document comes back with its defaults filled in.
``config_hash`` fingerprints everything except the output directory (two
runs writing to different places are the same experiment).

Each section is the config dataclass of the module it configures. A config
is checked the same way whether it comes from JSON or from Python
(:mod:`peftlab._schema`), and a bad value raises ``ConfigError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass

from . import _schema as schema
from .errors import ConfigError
from .fisher import MaskConfig
from .model import ModelConfig
from .optim import TrainConfig
from .peft import PeftConfig
from .tasks import TaskConfig

CONFIG_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    version: int = schema.field(CONFIG_VERSION, among=(CONFIG_VERSION,))
    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    task: TaskConfig = dataclasses.field(default_factory=TaskConfig)
    peft: PeftConfig = dataclasses.field(default_factory=PeftConfig)
    mask: MaskConfig = dataclasses.field(default_factory=MaskConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    out_dir: str | None = None

    def __post_init__(self):
        schema.check(self)


def _to_plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


def to_dict(cfg: ExperimentConfig) -> dict:
    return _to_plain(cfg)


def _build(cls, data, where: str):
    """Build ``cls`` from a JSON object: reject a non-object or an unknown
    key, recurse into nested sections, and prefix the dataclass's own
    ConfigError with the document path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got "
                          f"{type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {name: _build(hints[name], value, f"{where}.{name}")
              if dataclasses.is_dataclass(hints[name]) else value
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{where}.{e}") from e


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
