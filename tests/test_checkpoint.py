"""Checkpoint container: bitwise round trips and corruption handling."""

import dataclasses
import json
import os
import stat
import struct

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.checkpoint import (FORMAT_VERSION, atomic_write_bytes,
                                load_checkpoint, save_checkpoint)
from peftlab.cli import cli
from peftlab.config import ExperimentConfig, MaskConfig, TaskConfig
from peftlab.errors import CheckpointError
from peftlab.fisher import select
from peftlab.model import Batch, ModelConfig, build_model, forward
from peftlab.optim import TrainConfig, train
from peftlab.peft import PeftConfig, attach
from peftlab.tasks import generate_task


def small_config(method="lora") -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                          vocab_size=8, max_seq_len=4, seed=3),
        task=TaskConfig(size=32, seed=3),
        peft=PeftConfig(method=method, rank=2, prefix_len=3,
                        target_layers=(1,)),
        mask=MaskConfig(strategy="random", budget=0.5, seed=3),
        train=TrainConfig(lr=0.01, epochs=2, seed=3))


def build_state(cfg):
    model = build_model(cfg.model)
    module = attach(model, cfg.peft)
    n = module.theta_tilde().length
    mask = select(np.zeros(n, dtype=np.float32), max(n // 2, 1), "random",
                  seed=cfg.mask.seed)
    return model, module, mask


def eval_rows(model, cfg):
    rng = np.random.default_rng(0)
    rows = rng.integers(0, cfg.model.vocab_size, size=(5, cfg.model.max_seq_len))
    batch = Batch(rows, np.zeros(5, dtype=np.int64))
    with T.no_grad():
        return forward(model, batch).data


@pytest.mark.parametrize("method", ["lora", "adapter", "prefix", "unipelt"])
def test_round_trip_bitwise(tmp_path, method):
    cfg = small_config(method)
    model, module, mask = build_state(cfg)
    # move some state so the file holds non-init values
    vec = module.theta_tilde().to_vector()
    vec[::3] += 0.25
    module.theta_tilde().set_vector(vec)
    before = eval_rows(model, cfg)

    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, model, module, mask)
    state = load_checkpoint(path)

    assert state.config_hash
    assert state.cfg == cfg
    assert state.mask is not None
    assert state.mask.bits.tobytes() == mask.bits.tobytes()
    assert state.mask.strategy == mask.strategy
    for (na, ta), (nb, tb) in zip(model.named_parameters(),
                                  state.model.named_parameters()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes(), na
    for (na, ta), (nb, tb) in zip(module.trainable_entries(),
                                  state.module.trainable_entries()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes(), na
    after = eval_rows(state.model, cfg)
    assert before.tobytes() == after.tobytes()


def test_round_trip_without_mask(tmp_path):
    cfg = small_config()
    model, module, _ = build_state(cfg)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, model, module, mask=None)
    state = load_checkpoint(path)
    assert state.mask is None


def test_truncated_payload_names_tensor(tmp_path):
    cfg = small_config()
    model, module, mask = build_state(cfg)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, model, module, mask)
    blob = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[:-64])
    with pytest.raises(CheckpointError, match="truncated|missing"):
        load_checkpoint(tmp_path / "cut.bin")


def test_bad_magic_and_version(tmp_path):
    cfg = small_config()
    model, module, mask = build_state(cfg)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, model, module, mask)
    blob = bytearray(path.read_bytes())

    wrong = tmp_path / "magic.bin"
    wrong.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(wrong)

    bumped = bytearray(blob)
    struct.pack_into("<I", bumped, 4, FORMAT_VERSION + 1)
    wrongv = tmp_path / "version.bin"
    wrongv.write_bytes(bytes(bumped))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(wrongv)

    with pytest.raises(CheckpointError, match="preamble"):
        short = tmp_path / "short.bin"
        short.write_bytes(b"PL")
        load_checkpoint(short)


def rewrite_manifest(tmp_path, name, edit):
    """Save a checkpoint, apply ``edit`` to its manifest dict, and write the
    result (payload offsets unchanged) to tmp_path / name."""
    cfg = small_config()
    model, module, mask = build_state(cfg)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, cfg, model, module, mask)
    blob = path.read_bytes()
    pre = struct.Struct("<4sIQ")
    magic, version, mlen = pre.unpack_from(blob)
    manifest = json.loads(blob[pre.size:pre.size + mlen])
    edit(manifest)
    body = json.dumps(manifest, sort_keys=True).encode()
    hacked = tmp_path / name
    hacked.write_bytes(pre.pack(magic, version, len(body)) + body
                       + blob[pre.size + mlen:])
    return hacked


def test_manifest_shape_mismatch_rejected(tmp_path):
    def grow_first_shape(manifest):
        manifest["tensors"][0]["shape"][0] += 1

    # offsets unchanged: the reshape must fail or the shape check must fire
    hacked = rewrite_manifest(tmp_path, "shape.bin", grow_first_shape)
    with pytest.raises(CheckpointError):
        load_checkpoint(hacked)


_DROP = object()
_MISSING = [(None, "config"), (None, "config_hash"), (None, "tensors"),
            ("tensor", "name"), ("tensor", "shape"), ("tensor", "offset"),
            ("tensor", "nbytes"), ("mask", "strategy"), ("mask", "k"),
            ("mask", "seed"), ("mask", "offset"), ("mask", "nbytes")]
_MISTYPED = [(None, "tensors", 5, "int"),
             ("tensor", "offset", "0", "str"),
             ("tensor", "offset", -4, "negative"),
             ("tensor", "shape", "ab", "str"),
             ("mask", "strategy", "bogus", "unknown"),
             ("mask", "k", "3", "str")]


@pytest.mark.parametrize("record,field,value", [
    *(pytest.param(r, f, _DROP, id=f"{r}-{f}") for r, f in _MISSING),
    *(pytest.param(r, f, v, id=f"{r}-{f}-{kind}")
      for r, f, v, kind in _MISTYPED),
])
def test_manifest_missing_field_is_checkpoint_error(tmp_path, record, field,
                                                    value):
    def edit(manifest):
        target = {None: manifest, "tensor": manifest["tensors"][0],
                  "mask": manifest["mask"]}[record]
        if value is _DROP:
            del target[field]
        else:
            target[field] = value

    hacked = rewrite_manifest(tmp_path, "hole.bin", edit)
    expected = (f"lacks field '{field}'" if value is _DROP
                else f"field '{field}' must be")
    with pytest.raises(CheckpointError, match=expected):
        load_checkpoint(hacked)


def test_eval_of_manifest_without_config_exits_2(tmp_path, capsys):
    hacked = rewrite_manifest(tmp_path, "noconfig.bin",
                              lambda manifest: manifest.pop("config"))
    assert cli(["eval", str(hacked)]) == 2
    assert "lacks field 'config'" in capsys.readouterr().err


def test_loaded_view_matches_trained_view(tmp_path):
    """The loaded module's flat view holds the restored values, not the
    values it was attached with."""
    cfg = small_config()
    task = generate_task(cfg.task.kind, cfg.task.size, cfg.task.seed,
                         vocab_size=cfg.model.vocab_size,
                         seq_len=cfg.model.max_seq_len,
                         batch_size=cfg.train.batch_size)
    model, module, mask = build_state(cfg)
    at_attach = module.theta_tilde().to_vector()
    train(model, module, mask, task, dataclasses.replace(cfg.train, epochs=1))
    trained = module.theta_tilde().to_vector()
    active = mask.bits == 1
    assert np.any(trained[active] != at_attach[active])

    path = tmp_path / "trained.bin"
    save_checkpoint(path, cfg, model, module, mask)
    state = load_checkpoint(path)
    assert state.module.theta_tilde().to_vector().tobytes() \
        == trained.tobytes()


def test_resume_keeps_masked_coordinates_bitwise(tmp_path):
    """Checkpoint after 2 epochs, resume for 2 more: the run does not diverge
    and masked coordinates keep their initial bits.

    This is not exact resume. Checkpoints omit the AdamW moments, step count,
    schedule position and shuffle state, so a resumed run differs from a
    straight-through one; exact resume waits for checkpoint format v2
    (ROADMAP item 5).
    """
    cfg = small_config()
    task = generate_task(cfg.task.kind, cfg.task.size, cfg.task.seed,
                         vocab_size=cfg.model.vocab_size,
                         seq_len=cfg.model.max_seq_len,
                         batch_size=cfg.train.batch_size)

    model, module, mask = build_state(cfg)
    frozen_at_init = module.theta_tilde().to_vector()[mask.bits == 0]
    train(model, module, mask, task,
          dataclasses.replace(cfg.train, epochs=2))
    path = tmp_path / "mid.bin"
    save_checkpoint(path, cfg, model, module, mask)

    state = load_checkpoint(path)
    report = train(state.model, state.module, state.mask, task,
                   dataclasses.replace(cfg.train, epochs=2))
    assert not report.diverged
    resumed_frozen = state.module.theta_tilde().to_vector()[mask.bits == 0]
    assert resumed_frozen.tobytes() == frozen_at_init.tobytes()


def test_atomic_write_replaces_not_appends(tmp_path):
    p = tmp_path / "blob.bin"
    atomic_write_bytes(p, b"first")
    atomic_write_bytes(p, b"second")
    assert p.read_bytes() == b"second"
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def test_atomic_write_fsyncs_file_then_directory(tmp_path, monkeypatch):
    events = []
    real_replace = os.replace

    def fake_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(f"fsync-{kind}")

    def spy_replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fake_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    atomic_write_bytes(tmp_path / "blob.bin", b"payload")
    assert events == ["fsync-file", "replace", "fsync-dir"]
    assert (tmp_path / "blob.bin").read_bytes() == b"payload"
