"""Binary containers: one format for checkpoints, masks and scores.

Layout:  magic 'PLCK' | u32 format version | u64 manifest length | manifest
JSON (utf-8, sorted keys, with its own ``format_version``) | raw blocks at
the offsets the manifest declares. What a file holds is what its manifest
names:

  checkpoint.bin  ``config``, ``config_hash``, a ``tensors`` table of
                  little-endian float32 blocks, and a ``mask`` record or null
  mask.bin        a ``mask`` record: strategy, k, seed, and the offset and
                  nbytes of its u8 bits
  scores.bin      a ``scores`` record: num_samples, and the offset and
                  nbytes of its little-endian float32 scores

A checkpoint alone is enough to rebuild the model, re-attach the adapters,
and restore every tensor bit for bit. All writes go through a temp file that
is fsynced, then an atomic rename, then an fsync of the directory.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import _schema as schema
from . import config as config_mod
from .errors import CheckpointError, ConfigError, ContractError, NumericError
from .fisher import FisherEstimate, SparsityMask
from .model import TransformerModel, build_model
from .peft import PeftModule, attach
from .tensor import Tensor

_MAGIC = b"PLCK"
FORMAT_VERSION = 1
_PREAMBLE = struct.Struct("<4sIQ")


# field -> its JSON type, per manifest record. An int is a count (>= 0);
# an ``object`` field only has to be present, since the object it loads
# into checks its value.
_MANIFEST_FIELDS = {"config": dict, "config_hash": str, "tensors": list}
_TENSOR_FIELDS = {"name": str, "shape": list, "offset": int, "nbytes": int}
_SCORE_FIELDS = {"num_samples": object, "offset": int, "nbytes": int}
_MASK_FIELDS = {"strategy": object, "k": int, "seed": object, "offset": int,
                "nbytes": int}
_JSON_NAMES = {dict: "an object", str: "a string", list: "a list",
               int: "a non-negative integer"}


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


def _write(path, manifest: dict, blocks: list[bytes]) -> None:
    """Write one container: the preamble, ``manifest`` plus its
    ``format_version``, then ``blocks`` in order."""
    body = json.dumps({"format_version": FORMAT_VERSION, **manifest},
                      sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, _PREAMBLE.pack(_MAGIC, FORMAT_VERSION, len(body))
                       + body + b"".join(blocks))


def _mask_record(mask: SparsityMask, offset: int) -> dict:
    return {"strategy": mask.strategy, "k": mask.k, "seed": mask.seed,
            "offset": offset, "nbytes": len(mask.bits)}


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
        "config": config_mod.to_dict(cfg),
        "config_hash": config_mod.config_hash(cfg),
        "tensors": table,
        "mask": None,
    }
    if mask is not None:
        manifest["mask"] = _mask_record(mask, offset)
        blocks.append(mask.bits.tobytes())
    _write(path, manifest, blocks)


def save_mask(path, mask: SparsityMask) -> None:
    _write(path, {"mask": _mask_record(mask, 0)}, [mask.bits.tobytes()])


def save_scores(path, estimate: FisherEstimate) -> None:
    block = estimate.scores.astype("<f4").tobytes()
    record = {"num_samples": estimate.num_samples, "offset": 0,
              "nbytes": len(block)}
    _write(path, {"scores": record}, [block])


def _require(record, fields: dict, what: str, path) -> None:
    """Check that ``record`` is an object holding every field of ``fields``,
    each of its JSON type."""
    if not isinstance(record, dict):
        raise CheckpointError(f"{path}: {what} is not a JSON object")
    for name, tp in fields.items():
        if name not in record:
            raise CheckpointError(f"{path}: {what} lacks field '{name}'")
        try:
            schema.check_value(name, record[name], tp,
                               min=0 if tp is int else None)
        except ConfigError as e:
            raise CheckpointError(f"{path}: {what} field '{name}' must be "
                                  f"{_JSON_NAMES[tp]}, got {record[name]!r}"
                                  ) from e


def _read(path) -> tuple[dict, bytes]:
    """The manifest and the payload after it, once the preamble, the
    manifest's JSON and its ``format_version`` check out."""
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
    _require(manifest, {}, "manifest", path)  # each reader checks its fields
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: manifest version mismatch")
    return manifest, blob[header_end:]


def _block(payload: bytes, record: dict, what: str, path) -> bytes:
    """The payload bytes a record's ``offset`` and ``nbytes`` declare."""
    start, nbytes = record["offset"], record["nbytes"]
    if start + nbytes > len(payload):
        raise CheckpointError(f"{path}: payload for {what} is missing or "
                              f"truncated")
    return payload[start:start + nbytes]


def _read_mask(info, payload: bytes, path) -> SparsityMask:
    """The mask a ``mask`` record describes, in a mask file or a
    checkpoint."""
    _require(info, _MASK_FIELDS, "mask record", path)
    bits = np.frombuffer(_block(payload, info, "the mask", path),
                         dtype=np.uint8)
    try:
        mask = SparsityMask(bits.copy(), info["strategy"], info["seed"])
    except (ConfigError, ContractError) as e:
        raise CheckpointError(f"{path}: mask record: {e}") from e
    if mask.k != info["k"]:
        raise CheckpointError(f"{path}: mask popcount {mask.k} does not "
                              f"match manifest k={info['k']}")
    return mask


def load_mask(path) -> SparsityMask:
    manifest, payload = _read(path)
    if manifest.get("mask") is None:
        raise CheckpointError(f"{path}: not a mask file")
    return _read_mask(manifest["mask"], payload, path)


def load_scores(path) -> FisherEstimate:
    manifest, payload = _read(path)
    info = manifest.get("scores")
    if info is None:
        raise CheckpointError(f"{path}: not a score file")
    _require(info, _SCORE_FIELDS, "scores record", path)
    if info["nbytes"] % 4:
        raise CheckpointError(f"{path}: score payload of {info['nbytes']} "
                              f"bytes is not whole float32 values")
    scores = np.frombuffer(_block(payload, info, "the scores", path),
                           dtype="<f4")
    try:
        return FisherEstimate(scores.copy(), info["num_samples"])
    except (ConfigError, ContractError, NumericError) as e:
        raise CheckpointError(f"{path}: scores record: {e}") from e


def load_checkpoint(path) -> CheckpointState:
    """Rebuild the experiment state a checkpoint describes.

    The embedded config must hash to the stored ``config_hash`` before
    anything is built from it. The model is then reconstructed from it,
    adapters re-attached, and every tensor restored bitwise; a truncated
    payload raises with the name of the first tensor that could not be
    read.
    """
    manifest, payload = _read(path)
    _require(manifest, _MANIFEST_FIELDS, "manifest", path)

    try:
        cfg = config_mod.from_dict(manifest["config"])
        chash = config_mod.config_hash(cfg)
        if chash != manifest["config_hash"]:
            raise CheckpointError(f"{path}: manifest config hashes to "
                                  f"{chash}, not the stored "
                                  f"{manifest['config_hash']}")
        model = build_model(cfg.model)
        module = attach(model, cfg.peft)
    except ConfigError as e:
        raise CheckpointError(f"{path}: manifest config: {e}") from e

    live = dict(_named_tensors(model, module))
    unread = set(live)
    for entry in manifest["tensors"]:
        _require(entry, _TENSOR_FIELDS, "tensor entry", path)
        name = entry["name"]
        if name not in live:
            raise CheckpointError(f"{path}: manifest names unknown tensor "
                                  f"'{name}'")
        if name not in unread:
            raise CheckpointError(f"{path}: manifest names tensor '{name}' "
                                  f"twice")
        unread.remove(name)
        tensor = live[name]
        if tuple(entry["shape"]) != tensor.shape:
            raise CheckpointError(f"{path}: tensor '{name}' has shape "
                                  f"{tuple(entry['shape'])}, expected "
                                  f"{tensor.shape}")
        block = _block(payload, entry, f"tensor '{name}'", path)
        if len(block) != tensor.data.nbytes:
            raise CheckpointError(f"{path}: tensor '{name}' has "
                                  f"{len(block)} payload bytes, expected "
                                  f"{tensor.data.nbytes}")
        tensor.data[...] = np.frombuffer(block, dtype="<f4").reshape(
            tensor.shape)
    if unread:
        raise CheckpointError(f"{path}: manifest lacks tensor "
                              f"'{min(unread)}'")

    mask = None
    if manifest.get("mask") is not None:
        mask = _read_mask(manifest["mask"], payload, path)
        view_length = module.theta_tilde().length
        if len(mask) != view_length:
            raise CheckpointError(f"{path}: mask holds {len(mask)} bits but "
                                  f"the flat view has {view_length} "
                                  f"coordinates")

    return CheckpointState(cfg, chash, model, module, mask)
