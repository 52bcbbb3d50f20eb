"""Checkpoint container: bitwise round trips and corruption handling."""

import dataclasses
import json
import os
import stat
import struct

import numpy as np
import pytest

from peftlab import checkpoint
from peftlab import tensor as T
from peftlab.checkpoint import (FORMAT_VERSION, atomic_write_bytes,
                                load_checkpoint, load_mask, load_scores,
                                save_checkpoint, save_scores)
from peftlab.cli import cli
from peftlab.config import (ExperimentConfig, MaskConfig, TaskConfig,
                            config_hash, from_dict)
from peftlab.errors import CheckpointError
from peftlab.fisher import FisherEstimate, select
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


def rewrite_body(tmp_path, name, rewrite, save=None):
    """Save a checkpoint (or call ``save(path)``), pass its manifest bytes
    through ``rewrite``, and write the result (payload offsets unchanged) to
    tmp_path / name."""
    path = tmp_path / "ckpt.bin"
    if save is None:
        cfg = small_config()
        model, module, mask = build_state(cfg)
        save_checkpoint(path, cfg, model, module, mask)
    else:
        save(path)
    blob = path.read_bytes()
    pre = struct.Struct("<4sIQ")
    magic, version, mlen = pre.unpack_from(blob)
    body = rewrite(blob[pre.size:pre.size + mlen])
    hacked = tmp_path / name
    hacked.write_bytes(pre.pack(magic, version, len(body)) + body
                       + blob[pre.size + mlen:])
    return hacked


def rewrite_manifest(tmp_path, name, edit, save=None):
    """:func:`rewrite_body` that applies ``edit`` to the manifest dict."""
    def rewrite(body):
        manifest = json.loads(body)
        edit(manifest)
        return json.dumps(manifest, sort_keys=True).encode()
    return rewrite_body(tmp_path, name, rewrite, save)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda m: m["config"]["train"].update(lr=0.5), id="config"),
    pytest.param(lambda m: m.update(config_hash="0" * 64), id="hash"),
])
def test_config_that_does_not_match_its_hash_is_rejected(tmp_path, edit):
    hacked = rewrite_manifest(tmp_path, "rehashed.bin", edit)
    with pytest.raises(CheckpointError, match="manifest config hashes to"):
        load_checkpoint(hacked)


def test_tampered_config_is_refused_before_it_is_built(tmp_path,
                                                      monkeypatch):
    def grow(manifest):
        manifest["config"]["model"].update(hidden_dim=512, ffn_dim=2048)

    hacked = rewrite_manifest(tmp_path, "grown.bin", grow)

    def no_build(cfg):
        raise AssertionError("built a model from an unchecked config")

    monkeypatch.setattr(checkpoint, "build_model", no_build)
    with pytest.raises(CheckpointError, match="manifest config hashes to"):
        load_checkpoint(hacked)


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
# (record, field, value, id, the message when not "field '<field>' must be")
_MISTYPED = [(None, "tensors", 5, "int", None),
             ("tensor", "offset", "0", "str", None),
             ("tensor", "offset", -4, "negative", None),
             ("tensor", "shape", "ab", "str", None),
             ("mask", "strategy", "bogus", "unknown",
              "strategy: expected one of"),
             ("mask", "k", "3", "str", None),
             # SparsityMask, not the manifest reader, checks these values
             ("mask", "seed", "3", "str", "seed: expected int"),
             ("mask", "seed", 1.5, "float", "seed: expected int")]


@pytest.mark.parametrize("record,field,value,pattern", [
    *(pytest.param(r, f, _DROP, None, id=f"{r}-{f}") for r, f in _MISSING),
    *(pytest.param(r, f, v, pattern, id=f"{r}-{f}-{kind}")
      for r, f, v, kind, pattern in _MISTYPED),
])
def test_manifest_missing_field_is_checkpoint_error(tmp_path, record, field,
                                                    value, pattern):
    def edit(manifest):
        target = {None: manifest, "tensor": manifest["tensors"][0],
                  "mask": manifest["mask"]}[record]
        if value is _DROP:
            del target[field]
        else:
            target[field] = value

    hacked = rewrite_manifest(tmp_path, "hole.bin", edit)
    expected = (f"lacks field '{field}'" if value is _DROP
                else pattern or f"field '{field}' must be")
    with pytest.raises(CheckpointError, match=expected):
        load_checkpoint(hacked)


def save_small_scores(path):
    save_scores(path, FisherEstimate(np.ones(4, dtype=np.float32), 2))


@pytest.mark.parametrize("value, message", [
    (0, "num_samples must be >= 1"),
    (True, "num_samples: expected int"),
])
def test_score_record_num_samples_is_the_estimates_to_check(tmp_path, value,
                                                            message):
    hacked = rewrite_manifest(
        tmp_path, "samples.bin",
        lambda manifest: manifest["scores"].update(num_samples=value),
        save=save_small_scores)
    with pytest.raises(CheckpointError, match=message):
        load_scores(hacked)


@pytest.mark.parametrize("rewrite, message", [
    pytest.param(lambda body: b"[]", "manifest is not a JSON object",
                 id="list"),
    pytest.param(lambda body: b"{not json", "manifest is not valid JSON",
                 id="not-json"),
])
def test_unreadable_manifest_is_checkpoint_error(tmp_path, rewrite, message):
    hacked = rewrite_body(tmp_path, "manifest.bin", rewrite)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(hacked)


def test_truncated_manifest_is_checkpoint_error(tmp_path):
    cfg = small_config()
    save_checkpoint(tmp_path / "ckpt.bin", cfg, *build_state(cfg))
    blob = bytearray((tmp_path / "ckpt.bin").read_bytes())
    struct.pack_into("<Q", blob, 8, len(blob))  # runs past the end
    (tmp_path / "cut.bin").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="truncated manifest"):
        load_checkpoint(tmp_path / "cut.bin")


def _tensor(manifest, name):
    return next(e for e in manifest["tensors"] if e["name"] == name)


# each edit leaves the rest of the file valid, so only its refusal can fire
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda m: m.update(format_version=FORMAT_VERSION + 1),
                 "manifest version mismatch", id="format-version"),
    pytest.param(lambda m: m.update(mask=5),
                 "mask record is not a JSON object", id="mask-not-object"),
    pytest.param(lambda m: m["mask"].update(k=m["mask"]["k"] + 1),
                 r"mask popcount \d+ does not match manifest k=",
                 id="popcount"),
    pytest.param(lambda m: m["tensors"].remove(_tensor(m, "pos_embedding")),
                 "manifest lacks tensor 'pos_embedding'", id="lacks-tensor"),
    pytest.param(lambda m: m["tensors"].append({**m["tensors"][0],
                                                "name": "ghost"}),
                 "manifest names unknown tensor 'ghost'", id="unknown-tensor"),
    # the same element count, so only the shape comparison can fire
    pytest.param(lambda m: _tensor(m, "layer0/FFN1")["shape"].reverse(),
                 r"tensor 'layer0/FFN1' has shape \(16, 8\), expected "
                 r"\(8, 16\)", id="transposed"),
    pytest.param(lambda m: _tensor(m, "embedding").update(nbytes=252),
                 "tensor 'embedding' .*252 payload bytes", id="block-size"),
])
def test_manifest_edit_is_refused(tmp_path, edit, message):
    hacked = rewrite_manifest(tmp_path, "edited.bin", edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(hacked)


def test_load_mask_of_a_score_file_is_rejected(tmp_path):
    save_small_scores(tmp_path / "scores.bin")
    with pytest.raises(CheckpointError, match="not a mask file"):
        load_mask(tmp_path / "scores.bin")


def test_mask_length_must_match_the_flat_view(tmp_path):
    _, module, mask = build_state(small_config())
    n = module.theta_tilde().length

    def shrink_mask(manifest):
        manifest["mask"]["nbytes"] = 5
        manifest["mask"]["k"] = int(mask.bits[:5].sum())

    # k matches the 5 bits kept, so only the length check can fire
    hacked = rewrite_manifest(tmp_path, "short-mask.bin", shrink_mask)
    with pytest.raises(CheckpointError,
                       match=f"mask holds 5 bits but the flat view has {n} "
                             f"coordinates"):
        load_checkpoint(hacked)


def test_manifest_naming_a_tensor_twice_is_rejected(tmp_path, capsys):
    def repeat_first(manifest):
        manifest["tensors"].append(dict(manifest["tensors"][0]))

    # the copy points at the same bytes, so only the repeat can fire
    hacked = rewrite_manifest(tmp_path, "twice.bin", repeat_first)
    with pytest.raises(CheckpointError,
                       match="manifest names tensor 'embedding' twice"):
        load_checkpoint(hacked)
    assert cli(["eval", str(hacked)]) == 2
    assert "names tensor 'embedding' twice" in capsys.readouterr().err


def test_eval_of_manifest_without_config_exits_2(tmp_path, capsys):
    hacked = rewrite_manifest(tmp_path, "noconfig.bin",
                              lambda manifest: manifest.pop("config"))
    assert cli(["eval", str(hacked)]) == 2
    assert "lacks field 'config'" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("model", "hidden_dim", 9, "hidden_dim 9 not divisible by num_heads 2"),
    ("peft", "target_layers", [3], "top layer index 3 outside"),
])
def test_eval_of_manifest_with_a_bad_config_exits_2(tmp_path, capsys, section,
                                                   key, value, message):
    """A config that does not parse, and one that parses and hashes to its
    stored hash but does not build, each report their own error."""
    def edit(manifest):
        manifest["config"][section][key] = value
        if section == "peft":  # parses: make its stored hash consistent
            manifest["config_hash"] = config_hash(
                from_dict(manifest["config"]))

    hacked = rewrite_manifest(tmp_path, "badconfig.bin", edit)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(hacked)
    assert str(info.value).startswith(f"{hacked}: manifest config: ")
    assert cli(["eval", str(hacked)]) == 2
    err = capsys.readouterr().err
    assert str(hacked) in err and message in err


def test_loaded_view_matches_trained_view(tmp_path):
    """The loaded module's flat view holds the restored values, not the
    values it was attached with."""
    cfg = small_config()
    task = generate_task(cfg.task.kind, cfg.task.size, cfg.task.seed,
                         vocab_size=cfg.model.vocab_size,
                         seq_len=cfg.model.max_seq_len)
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
                         seq_len=cfg.model.max_seq_len)

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
