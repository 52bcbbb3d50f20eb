"""Binary checkpoints: a JSON manifest plus raw little-endian float32 blocks.

Layout:  magic 'PLCK' | u32 format version | u64 manifest length | manifest
JSON (utf-8) | tensor payloads at the offsets the manifest declares | mask
bits (u8), if any. The manifest carries the full experiment config, so a
checkpoint alone is enough to rebuild the model, re-attach the adapters, and
restore every tensor bit for bit. All writes go through a temp file that
is fsynced, then an atomic rename, then an fsync of the directory.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import config as config_mod
from .errors import CheckpointError, ConfigError
from .fisher import STRATEGIES, SparsityMask
from .model import TransformerModel, build_model
from .peft import PeftModule, attach
from .tensor import Tensor

_MAGIC = b"PLCK"
FORMAT_VERSION = 1
_PREAMBLE = struct.Struct("<4sIQ")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


# field -> (check, what a valid value is), per manifest record
_COUNT = (_is_count, "a non-negative integer")
_TEXT = (lambda v: isinstance(v, str), "a string")
_MANIFEST_FIELDS = {"config": (lambda v: isinstance(v, dict), "an object"),
                    "config_hash": _TEXT,
                    "tensors": (lambda v: isinstance(v, list), "a list")}
_TENSOR_FIELDS = {
    "name": _TEXT,
    "shape": (lambda v: isinstance(v, list) and all(map(_is_count, v)),
              "a list of non-negative integers"),
    "offset": _COUNT,
    "nbytes": _COUNT,
}
_MASK_FIELDS = {
    "strategy": (lambda v: v in STRATEGIES, f"one of {list(STRATEGIES)}"),
    "k": _COUNT,
    "seed": (lambda v: v is None or _is_int(v), "an integer or null"),
    "offset": _COUNT,
    "nbytes": _COUNT,
}


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file. The file is fsynced before the rename and its directory
    after it, so a completed write survives a crash."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _named_tensors(model: TransformerModel,
                   module: PeftModule) -> list[tuple[str, Tensor]]:
    """Every tensor a checkpoint holds, under its checkpoint name."""
    named = model.named_parameters()
    named.extend((f"peft/{name}", t) for name, t in module.trainable_entries())
    return named


@dataclass
class CheckpointState:
    """Everything a checkpoint restores."""

    cfg: config_mod.ExperimentConfig
    config_hash: str
    model: TransformerModel
    module: PeftModule
    mask: SparsityMask | None


def save_checkpoint(path, cfg: config_mod.ExperimentConfig,
                    model: TransformerModel, module: PeftModule,
                    mask: SparsityMask | None = None) -> None:
    table = []
    offset = 0
    blocks = []
    for name, t in _named_tensors(model, module):
        block = t.data.astype("<f4", copy=False).tobytes()
        table.append({"name": name, "shape": list(t.shape),
                      "offset": offset, "nbytes": len(block)})
        blocks.append(block)
        offset += len(block)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_mod.to_dict(cfg),
        "config_hash": config_mod.config_hash(cfg),
        "tensors": table,
        "mask": None,
    }
    if mask is not None:
        manifest["mask"] = {"strategy": mask.strategy, "k": mask.k,
                            "seed": mask.seed, "offset": offset,
                            "nbytes": len(mask.bits)}
        blocks.append(mask.bits.tobytes())
    body = json.dumps(manifest, sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, _PREAMBLE.pack(_MAGIC, FORMAT_VERSION, len(body))
                       + body + b"".join(blocks))


def _require(record, fields: dict, what: str, path) -> None:
    """Check that ``record`` is an object holding every field of ``fields``,
    each of the type and range its rule demands."""
    if not isinstance(record, dict):
        raise CheckpointError(f"{path}: {what} is not a JSON object")
    for name, (valid, expected) in fields.items():
        if name not in record:
            raise CheckpointError(f"{path}: {what} lacks field '{name}'")
        if not valid(record[name]):
            raise CheckpointError(f"{path}: {what} field '{name}' must be "
                                  f"{expected}, got {record[name]!r}")


def load_checkpoint(path) -> CheckpointState:
    """Rebuild the experiment state a checkpoint describes.

    The model is reconstructed from the embedded config, adapters re-attached,
    and every tensor restored bitwise; a truncated payload raises with the
    name of the first tensor that could not be read.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PREAMBLE.size:
        raise CheckpointError(f"{path}: file shorter than the preamble")
    magic, version, manifest_len = _PREAMBLE.unpack_from(blob)
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported "
                              f"(expected {FORMAT_VERSION})")
    header_end = _PREAMBLE.size + manifest_len
    if len(blob) < header_end:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[_PREAMBLE.size:header_end])
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: manifest is not valid JSON: {e}") from e
    _require(manifest, _MANIFEST_FIELDS, "manifest", path)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: manifest version mismatch")

    try:
        cfg = config_mod.from_dict(manifest["config"])
        model = build_model(cfg.model)
        module = attach(model, cfg.peft)
    except ConfigError as e:
        raise CheckpointError(f"{path}: manifest config: {e}") from e
    payload = blob[header_end:]

    restored: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        _require(entry, _TENSOR_FIELDS, "tensor entry", path)
        name = entry["name"]
        if name in restored:
            raise CheckpointError(f"{path}: manifest names tensor '{name}' "
                                  f"twice")
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload for tensor '{name}' is "
                                  f"missing or truncated")
        shape = tuple(entry["shape"])
        if int(np.prod(shape, dtype=np.int64)) * 4 != nbytes:
            raise CheckpointError(f"{path}: tensor '{name}' declares shape "
                                  f"{shape} but {nbytes} payload bytes")
        arr = np.frombuffer(payload[start:start + nbytes], dtype="<f4")
        restored[name] = arr.reshape(shape)

    live = dict(_named_tensors(model, module))
    missing = sorted(set(live) - set(restored))
    if missing:
        raise CheckpointError(f"{path}: manifest lacks tensor '{missing[0]}'")
    extra = sorted(set(restored) - set(live))
    if extra:
        raise CheckpointError(f"{path}: manifest names unknown tensor "
                              f"'{extra[0]}'")
    for name, tensor in live.items():
        if tuple(restored[name].shape) != tensor.shape:
            raise CheckpointError(f"{path}: tensor '{name}' has shape "
                                  f"{restored[name].shape}, expected "
                                  f"{tensor.shape}")
        tensor.data[...] = restored[name]

    mask = None
    info = manifest.get("mask")
    if info is not None:
        _require(info, _MASK_FIELDS, "mask record", path)
        start, nbytes = info["offset"], info["nbytes"]
        if start + nbytes > len(payload):
            raise CheckpointError(f"{path}: mask bits missing or truncated")
        view_length = module.theta_tilde().length
        if nbytes != view_length:
            raise CheckpointError(f"{path}: mask holds {nbytes} bits but the "
                                  f"flat view has {view_length} coordinates")
        bits = np.frombuffer(payload[start:start + nbytes], dtype=np.uint8)
        mask = SparsityMask(bits.copy(), info["strategy"], info["seed"])
        if mask.k != info["k"]:
            raise CheckpointError(f"{path}: mask popcount {mask.k} does not "
                                  f"match manifest k={info['k']}")

    return CheckpointState(cfg, manifest["config_hash"], model, module, mask)
