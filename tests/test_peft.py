"""Adapter modules: flat-view ordering, init identities, hook gradients."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.errors import ConfigError, ContractError, NumericError
from peftlab.model import Batch, ModelConfig, build_model, forward
from peftlab.optim import TrainConfig, train
from peftlab.peft import METHODS, PeftConfig, PeftModule, attach, pissa_init
from peftlab.tasks import generate_task

from helpers import base_tensors, finite_diff_grad, grad_close

CFG32 = ModelConfig(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                    vocab_size=16, max_seq_len=8, num_classes=2, seed=42)
SMALL = ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                    vocab_size=8, max_seq_len=6, num_classes=2, seed=7)


def small_batch(seed=0, b=4, s=6, vocab=8):
    rng = np.random.default_rng(seed)
    return Batch(rng.integers(0, vocab, size=(b, s)),
                 rng.integers(0, 2, size=b))


def logits_of(model, batch):
    with T.no_grad():
        return forward(model, batch).data


# -- flat view sizes and ordering ---------------------------------------------


def test_lora_theta_length_frozen():
    m = build_model(CFG32)
    mod = attach(m, PeftConfig(method="lora", rank=1,
                               target_weights=("W_Q", "W_K", "W_V"),
                               target_layers=(1,)))
    assert mod.param_count() == 192  # 3 targets x (32*1 + 1*32)


def test_dora_theta_length_frozen():
    m = build_model(CFG32)
    mod = attach(m, PeftConfig(method="dora", rank=1,
                               target_weights=("W_Q",),
                               target_layers=(1,)))
    assert mod.param_count() == 96  # 32 + 32 + 32 magnitudes


def test_adapter_prefix_ia3_theta_lengths():
    d, f, r, l = 32, 64, 4, 5
    m = build_model(CFG32)
    mod = attach(m, PeftConfig(method="adapter", rank=r,
                               target_layers=(1, 2)))
    assert mod.param_count() == 2 * 2 * (d * r + r * d)

    m = build_model(CFG32)
    mod = attach(m, PeftConfig(method="prefix", prefix_len=l,
                               target_layers=(1,)))
    assert mod.param_count() == 2 * l * d  # H * 2 * l * head_dim

    m = build_model(CFG32)
    mod = attach(m, PeftConfig(method="ia3", target_layers=(1, 2)))
    assert mod.param_count() == 2 * (d + d + f)


def test_theta_order_layer_then_name_then_part():
    m = build_model(CFG32)
    mod = attach(m, PeftConfig(method="lora", rank=2,
                               target_weights=("W_V", "W_Q"),
                               target_layers=(1, 2)))
    names = [s.name for s in mod.theta_tilde().segments]
    assert names == [
        "layer0/W_Q/B", "layer0/W_Q/A", "layer0/W_V/B", "layer0/W_V/A",
        "layer1/W_Q/B", "layer1/W_Q/A", "layer1/W_V/B", "layer1/W_V/A",
    ]


def test_unipelt_theta_contains_all_groups_in_order():
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method="unipelt", rank=2, prefix_len=3,
                               target_weights=("W_Q",),
                               target_layers=(1,)))
    names = [s.name for s in mod.theta_tilde().segments]
    assert names == [
        "layer1/W_Q/B", "layer1/W_Q/A",
        "layer1/adapter_attn/B", "layer1/adapter_attn/A",
        "layer1/adapter_ffn/B", "layer1/adapter_ffn/A",
        "layer1/gate_adapter/w", "layer1/gate_lora/w", "layer1/gate_prefix/w",
        "layer1/prefix/P_K", "layer1/prefix/P_V",
    ]
    no_gates = build_model(SMALL)
    mod2 = attach(no_gates, PeftConfig(method="unipelt", rank=2,
                                       prefix_len=3,
                                       target_weights=("W_Q",),
                                       target_layers=(1,),
                                       include_gates=False))
    assert all("gate" not in s.name for s in mod2.theta_tilde().segments)


PINNED_CFG = dict(rank=2, prefix_len=3, target_weights=("W_V", "W_Q"),
                  target_layers=(1, 2))


@pytest.mark.parametrize("method, per_layer", [
    ("dora", ["W_Q/B", "W_Q/A", "W_Q/m", "W_V/B", "W_V/A", "W_V/m"]),
    ("adapter", ["adapter_attn/B", "adapter_attn/A",
                 "adapter_ffn/B", "adapter_ffn/A"]),
    ("prefix", ["prefix/P_K", "prefix/P_V"]),
    ("ia3", ["FFN/l", "W_K/l", "W_V/l"]),
])
def test_theta_names_of_each_method(method, per_layer):
    mod = attach(build_model(CFG32), PeftConfig(method=method, **PINNED_CFG))
    names = [s.name for s in mod.theta_tilde().segments]
    assert names == [f"layer{li}/{name}" for li in (0, 1)
                     for name in per_layer]


def attached_tensors(obj, seen):
    """Every tensor reachable from a module's attributes, its parts' too."""
    if isinstance(obj, T.Tensor):
        seen.setdefault(id(obj), obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            attached_tensors(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            attached_tensors(v, seen)
    elif isinstance(obj, PeftModule):
        for name, v in vars(obj).items():
            if name != "_theta":
                attached_tensors(v, seen)
    return seen


@pytest.mark.parametrize("cfg", [
    *(PeftConfig(method=method, **PINNED_CFG) for method in METHODS),
    PeftConfig(method="unipelt", include_gates=False, **PINNED_CFG),
], ids=[*METHODS, "unipelt-no-gates"])
def test_param_count_sums_every_attached_tensor(cfg):
    mod = attach(build_model(CFG32), cfg)
    tensors = attached_tensors(mod, {}).values()
    assert mod.param_count() == sum(t.size for t in tensors)
    in_view = {id(t) for t in mod.theta_tilde().tensors()}
    assert {id(t) for t in tensors if t.requires_grad} == in_view


def test_unipelt_composite_view_is_the_only_buffer():
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method="unipelt", rank=2, prefix_len=3))
    theta = mod.theta_tilde()
    vec = np.arange(theta.length, dtype=np.float32)
    theta.set_vector(vec)
    segment_of = {id(t): seg for seg, (_, t) in zip(theta.segments, theta.entries)}
    for name, sub in mod.submodules.items():
        with pytest.raises(ContractError, match=name):
            sub.theta_tilde()
        for (layer, group, part), t in sub.params.items():
            seg = segment_of[id(t)]
            assert np.shares_memory(t.data, theta.data), (name, group, part)
            assert t.data.tobytes() == vec[seg.start:seg.stop].tobytes()


def test_dropped_unipelt_model_is_freed_without_the_cycle_collector():
    """Its cached gates reach the last forward pass's tape, so a model kept
    alive by a reference cycle would hold that tape until gc runs."""
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method="unipelt", rank=2, prefix_len=3))
    T.backward(T.log_softmax_nll(forward(m, small_batch()),
                                 small_batch().labels))
    refs = [weakref.ref(m), weakref.ref(mod)]
    gc.disable()
    try:
        del m, mod
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_gate_weights_left_out_of_the_view_take_no_gradient():
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method="unipelt", rank=2, prefix_len=3,
                               include_gates=False))
    task = generate_task("parity", 32, 1, vocab_size=8, seq_len=6)
    train(m, mod, None, task, TrainConfig(lr=0.01, epochs=2, batch_size=16))
    gates = [t for (_, group, _), t in mod.params.items()
             if group.startswith("gate_")]
    assert gates and all(not wg.requires_grad for wg in gates)
    assert all(wg.grad is None for wg in gates)


def test_target_layers_count_from_top():
    m = build_model(ModelConfig(num_layers=3, seed=1))
    mod = attach(m, PeftConfig(method="lora", target_layers=(1,)))
    assert all(s.name.startswith("layer2/") for s in mod.theta_tilde().segments)


@pytest.mark.parametrize("method", METHODS)
def test_theta_round_trip_and_write_through(method):
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method=method, rank=2, prefix_len=3))
    theta = mod.theta_tilde()
    vec = theta.to_vector()
    assert vec.dtype == np.float32 and vec.shape == (theta.length,)
    theta.set_vector(vec)
    assert theta.to_vector().tobytes() == vec.tobytes()

    vec2 = vec.copy()
    vec2[3] += 1.0
    theta.set_vector(vec2)
    seg = theta.segments[0]
    changed = theta.entries[0][1].data.ravel()[3]
    assert seg.start <= 3 < seg.stop
    assert changed == vec2[3]

    # set_vector reaches every entry tensor
    vec3 = np.arange(theta.length, dtype=np.float32)
    theta.set_vector(vec3)
    for seg, (name, t) in zip(theta.segments, theta.entries):
        assert t.data.tobytes() == vec3[seg.start:seg.stop].tobytes(), name

    # an in-place write to a tensor shows in the next to_vector
    for seg, (name, t) in zip(theta.segments, theta.entries):
        t.data.ravel()[-1] = -7.0
        assert theta.to_vector()[seg.stop - 1] == -7.0, name

    # to_vector is a copy: changing it leaves the view alone
    snapshot = theta.to_vector()
    out = theta.to_vector()
    out += 1.0
    assert theta.to_vector().tobytes() == snapshot.tobytes()


def test_grad_vector_zero_fills_missing():
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method="lora", rank=2))
    g = mod.theta_tilde().grad_vector()
    assert g.shape == (mod.theta_tilde().length,)
    assert np.all(g == 0.0)


def check_grads_bound(theta):
    """Every view tensor's ``.grad`` is its segment of ``grad_vector()``,
    and ``zero_grads()`` zeroes that buffer without rebinding any of them."""
    buf = theta.grad_vector()
    for name, t in theta.entries:
        assert np.shares_memory(t.grad, buf), name
    whole = np.concatenate([t.grad.ravel() for t in theta.tensors()])
    assert buf.tobytes() == whole.tobytes()
    theta.zero_grads()
    assert theta.grad_vector() is buf and not buf.any()
    for name, t in theta.entries:
        assert np.shares_memory(t.grad, buf) and not t.grad.any(), name


@pytest.mark.parametrize("method", METHODS)
def test_view_gradients_live_in_the_view_buffer(method):
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method=method, rank=2, prefix_len=3))
    theta = mod.theta_tilde()
    check_grads_bound(theta)
    task = generate_task("parity", 32, 1, vocab_size=8, seq_len=6)
    train(m, mod, None, task, TrainConfig(lr=0.01, epochs=1, batch_size=16))
    assert theta.grad_vector().any()  # the last step's gradient
    check_grads_bound(theta)


@pytest.mark.parametrize("method", METHODS)
def test_backward_accumulates_into_the_view_buffer(method):
    """Two passes without zeroing leave the sum of their gradients in the
    buffer the view held before them."""
    m = build_model(SMALL)
    theta = attach(m, PeftConfig(method=method, rank=2,
                                 prefix_len=3)).theta_tilde()
    batches = [small_batch(seed) for seed in (1, 2)]
    singles = []
    for batch in batches:
        theta.zero_grads()
        T.backward(T.log_softmax_nll(forward(m, batch), batch.labels))
        singles.append(theta.grad_vector().copy())
    buf = theta.grad_vector()
    theta.zero_grads()
    for batch in batches:
        T.backward(T.log_softmax_nll(forward(m, batch), batch.labels))
    assert buf.tobytes() == (singles[0] + singles[1]).tobytes()


# -- identity at init ----------------------------------------------------------


@pytest.mark.parametrize("method", ["lora", "adapter", "ia3"])
def test_identity_at_init_bitwise(method):
    batch = small_batch()
    base = logits_of(build_model(SMALL), batch)
    m = build_model(SMALL)
    attach(m, PeftConfig(method=method, rank=3, target_layers=(1, 2)))
    assert logits_of(m, batch).tobytes() == base.tobytes()


def test_identity_at_init_dora():
    batch = small_batch()
    base = logits_of(build_model(SMALL), batch)
    m = build_model(SMALL)
    attach(m, PeftConfig(method="dora", rank=2, target_layers=(1, 2)))
    assert np.max(np.abs(logits_of(m, batch) - base)) < 1e-6


def test_prefix_changes_output_at_init():
    batch = small_batch()
    base = logits_of(build_model(SMALL), batch)
    m = build_model(SMALL)
    attach(m, PeftConfig(method="prefix", prefix_len=4,
                         target_layers=(1, 2)))
    assert np.max(np.abs(logits_of(m, batch) - base)) > 1e-6


def test_prefix_suppressed_limit_matches_base():
    batch = small_batch()
    base_model = build_model(SMALL)
    for li in range(SMALL.num_layers):
        # make every query entry positive
        base_model.params[f"layer{li}/b_Q"].data[:] = 1.0
    base = logits_of(base_model, batch)

    m = build_model(SMALL)
    for li in range(SMALL.num_layers):
        m.params[f"layer{li}/b_Q"].data[:] = 1.0
    mod = attach(m, PeftConfig(method="prefix", prefix_len=4,
                               target_layers=(1, 2)))
    for (_, _, part), t in mod.params.items():
        if part == "P_K":
            t.data[:] = -1e6
    assert np.max(np.abs(logits_of(m, batch) - base)) < 1e-4


def test_unipelt_gate_limits():
    batch = small_batch()
    base = logits_of(build_model(SMALL), batch)

    cfg = PeftConfig(method="unipelt", rank=2, prefix_len=3,
                     target_layers=(1, 2))
    m = build_model(SMALL)
    mod = attach(m, cfg)

    def constant_gates(value):
        """A begin_layer that installs one constant [b, 1] gate per part."""
        def begin_layer(layer, x):
            for name in mod.submodules:
                mod._gates[(layer, name)] = T.Tensor(
                    np.full((x.shape[0], 1), value, dtype=np.float32))
        return begin_layer

    mod.begin_layer = constant_gates(0.0)
    assert np.max(np.abs(logits_of(m, batch) - base)) < 1e-6

    plain = build_model(SMALL)
    attach(plain, PeftConfig(method="prefix", prefix_len=3,
                             target_layers=(1, 2)))
    mod.begin_layer = constant_gates(1.0)
    # lora/adapter deltas are still zero at init; gate 1 leaves only the prefix
    assert np.max(np.abs(logits_of(m, batch) - logits_of(plain, batch))) < 1e-6

    del mod.begin_layer  # back to the learned gates
    mid = logits_of(m, batch)
    assert np.max(np.abs(mid - base)) > 1e-7  # learned gates sit near 0.5

    # gate 1 with the same perturbed weights on both sides: a lone lora or
    # adapter part is its plain method, bit for bit (constant_gates installs
    # into whichever module ``mod`` names when it is called)
    rng = np.random.default_rng(5)
    for part in ("lora", "adapter"):
        plain = build_model(SMALL)
        plain_view = attach(plain, PeftConfig(method=part, rank=2,
                                              target_layers=(1, 2))) \
            .theta_tilde()
        plain_view.set_vector(rng.normal(0, 0.3, plain_view.length))
        plain_tensors = dict(plain_view.entries)
        m = build_model(SMALL)
        mod = attach(m, dataclasses.replace(cfg, unipelt_submodules=(part,)))
        for name, t in mod.theta_tilde().entries:
            if "gate" not in name:
                t.data[...] = plain_tensors[name].data
        mod.begin_layer = constant_gates(1.0)
        assert np.array_equal(logits_of(m, batch), logits_of(plain, batch))


def test_dora_refuses_a_directed_column_of_zero_norm():
    m = build_model(SMALL)
    m.params["layer1/W_Q"].data[:, 3] = 0.0
    attach(m, PeftConfig(method="dora", rank=2, target_layers=(1,)))
    with pytest.raises(NumericError, match="layer 1 W_Q: column 3"):
        forward(m, small_batch())


# -- hook placement -------------------------------------------------------------


def _mm(a, b):
    """T.matmul's arithmetic: float64 products rounded to float32."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


def _relu(a):
    return np.maximum(a, np.float32(0))


def _perturbed(cfg, seed, mean=0.0):
    """Attach ``cfg`` to a SMALL model and fill its view at random, so every
    low-rank B is nonzero. Returns the module, a lookup of its layer-1
    arrays by (group, part), and a function that draws random (x, w, b)
    operands for a layer-1 projection from the same generator."""
    m = build_model(SMALL)
    mod = attach(m, cfg)
    rng = np.random.default_rng(seed)
    view = mod.theta_tilde()
    view.set_vector(rng.normal(mean, 0.5, view.length))

    def operands(name):
        shape = m.params[f"layer1/{name}"].shape
        return tuple(T.Tensor(rng.normal(0.0, s, size).astype(np.float32))
                     for s, size in ((1.0, (4, 6, shape[0])), (0.3, shape),
                                     (0.1, shape[1:])))

    return mod, (lambda group, part: mod.params[(1, group, part)].data), \
        operands


@pytest.mark.parametrize("name, point", [("W_O", "adapter_attn"),
                                         ("FFN2", "adapter_ffn")])
def test_adapter_block_follows_its_projection(name, point):
    mod, p, operands = _perturbed(
        PeftConfig(method="adapter", rank=3, target_layers=(1,)), 2)
    x, w, b = operands(name)
    h = _mm(x.data, w.data) + b.data
    want = h + _mm(_relu(_mm(h, p(point, "A").T)), p(point, "B").T)
    assert mod.project(1, name, x, w, b).data.tobytes() == want.tobytes()
    x, w, b = operands("W_V")  # no block follows W_V
    assert mod.project(1, "W_V", x, w, b).data.tobytes() == \
        (_mm(x.data, w.data) + b.data).tobytes()


def test_ia3_scales_ffn2_input_and_key_value_outputs():
    mod, p, operands = _perturbed(PeftConfig(method="ia3",
                                             target_layers=(1,)), 3, mean=1.0)
    x, w, b = operands("FFN2")
    want = _mm(x.data * p("FFN", "l"), w.data) + b.data
    assert mod.project(1, "FFN2", x, w, b).data.tobytes() == want.tobytes()
    x, w, b = operands("W_K")
    want = (_mm(x.data, w.data) + b.data) * p("W_K", "l")
    assert mod.project(1, "W_K", x, w, b).data.tobytes() == want.tobytes()


def test_unipelt_gates_lora_then_adapter_on_w_o():
    """W_O's output is h = x w + b + g_lora * lora(x), then
    h + g_adapter * adapter(h)."""
    mod, p, operands = _perturbed(
        PeftConfig(method="unipelt", rank=2, prefix_len=3,
                   target_weights=("W_O",), target_layers=(1,)), 4)
    x, w, b = operands("W_O")
    mod.begin_layer(1, x)
    gate = {part: mod._gates[(1, part)].data.reshape(4, 1, 1)
            for part in ("lora", "adapter")}
    lora = _mm(_mm(x.data, p("W_O", "B")), p("W_O", "A")) \
        * np.float32(mod.submodules["lora"].scale)
    h = _mm(x.data, w.data) + b.data + lora * gate["lora"]
    adapter = _mm(_relu(_mm(h, p("adapter_attn", "A").T)),
                  p("adapter_attn", "B").T)
    want = h + adapter * gate["adapter"]
    assert mod.project(1, "W_O", x, w, b).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg, group, name", [
    (PeftConfig(method="lora", rank=2, target_layers=(1,)), "W_Q", "W_Q"),
    (PeftConfig(method="lora", rank=2, init="pissa", target_layers=(1,)),
     "W_Q", "W_Q"),
    (PeftConfig(method="adapter", rank=2, target_layers=(1,)),
     "adapter_attn", "W_O")])
def test_only_a_frozen_all_zero_b_drops_its_branch(cfg, group, name):
    """A trainable zero B still computes its branch, and so does a frozen
    nonzero B (the spectral init); a frozen zero B adds nothing and is
    skipped."""
    mod = attach(build_model(SMALL), cfg)
    b = mod.params[(1, group, "B")]
    zero = not b.data.any()
    assert zero == (cfg.init == "standard")
    x = T.Tensor(np.random.default_rng(0).normal(
        size=(4, 6, 8)).astype(np.float32))
    assert mod.delta(1, name, x) is not None
    b.requires_grad = False
    assert (mod.delta(1, name, x) is None) == zero


def test_a_lora_forward_records_one_node_per_projection():
    """Each projection, the head's included, is one ``linear`` node, and a
    LoRA branch joins its projection's node unless its B is frozen at zero;
    only attention's two products stay ``matmul`` nodes."""
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(
        method="lora", rank=2, target_layers=(1, 2),
        target_weights=("W_Q", "W_K", "W_V", "W_O", "FFN")))

    def projection_inputs():
        batch = small_batch()
        loss = T.log_softmax_nll(forward(m, batch), batch.labels)
        nodes = [t.node for t in T._topo_order(loss)]
        return (sorted(len(n.inputs) for n in nodes if n.op == "linear"),
                sum(n.op == "matmul" for n in nodes))

    assert projection_inputs() == ([3] + [6] * 12, 4)
    mod.params[(1, "W_Q", "B")].requires_grad = False
    assert projection_inputs() == ([3] * 2 + [6] * 11, 4)


# -- pissa ----------------------------------------------------------------------


def test_pissa_worked_example():
    w0 = T.Tensor(np.diag([3.0, 1.0]).astype(np.float32))
    b, a, res = pissa_init(w0, 1)
    np.testing.assert_allclose(b.data @ a.data, np.diag([3.0, 0.0]), atol=1e-6)
    np.testing.assert_allclose(res.data, np.diag([0.0, 1.0]), atol=1e-6)


def test_pissa_reconstruction_random():
    rng = np.random.default_rng(9)
    w0 = T.Tensor(rng.normal(size=(10, 6)).astype(np.float32))
    for r in (1, 3, 6):
        b, a, res = pissa_init(w0, r)
        recon = res.data.astype(np.float64) + b.data.astype(np.float64) @ a.data
        np.testing.assert_allclose(recon, w0.data, atol=1e-4)


def test_pissa_rank_validation():
    w0 = T.Tensor(np.eye(4, dtype=np.float32))
    with pytest.raises(ConfigError):
        pissa_init(w0, 0)
    with pytest.raises(ConfigError):
        pissa_init(w0, 5)


def test_pissa_attach_reproduces_base_and_mutates_weight():
    batch = small_batch()
    base_model = build_model(SMALL)
    base = logits_of(base_model, batch)
    w_before = base_model.params["layer1/W_Q"].data.copy()

    m = build_model(SMALL)
    attach(m, PeftConfig(method="lora", rank=2, init="pissa",
                         target_weights=("W_Q",), target_layers=(1,)))
    assert m.params["layer1/W_Q"].data.tobytes() != w_before.tobytes()
    assert np.max(np.abs(logits_of(m, batch) - base)) < 1e-4


def test_failed_pissa_attach_leaves_the_base_weights_alone():
    """W_Q splits at rank 20, then FFN1 (32 x 16) cannot: no base weight
    may have been rewritten to its residual by then."""
    mc = ModelConfig(hidden_dim=32, ffn_dim=16)
    cfg = PeftConfig(method="lora", init="pissa", rank=20,
                     target_weights=("W_Q", "FFN"), target_layers=(1,))
    m = build_model(mc)
    with pytest.raises(ConfigError, match="rank 20 outside"):
        attach(m, cfg)
    assert m.peft is None
    fresh = build_model(mc).named_parameters()
    for (name, t), (_, want) in zip(m.named_parameters(), fresh):
        assert t.data.tobytes() == want.data.tobytes(), name

    retry = dataclasses.replace(cfg, rank=8)
    view = attach(m, retry).theta_tilde().to_vector()
    want = attach(build_model(mc), retry).theta_tilde().to_vector()
    assert view.tobytes() == want.tobytes()


# -- attachment contracts --------------------------------------------------------


def test_attach_freezes_base_keeps_head():
    m = build_model(SMALL)
    attach(m, PeftConfig(method="lora"))
    assert all(not t.requires_grad for t in base_tensors(m).values())
    assert all(t.requires_grad for _, t in m.head_parameters())
    assert all(t.requires_grad for t in m.peft.theta_tilde().tensors())


def test_double_attach_rejected():
    m = build_model(SMALL)
    attach(m, PeftConfig(method="lora"))
    with pytest.raises(ContractError):
        attach(m, PeftConfig(method="ia3"))


def test_attach_dispatches_on_method():
    m = build_model(SMALL)
    mod = attach(m, PeftConfig(method="ia3"))
    assert mod.method == "ia3"


def test_config_validation():
    with pytest.raises(ConfigError):
        PeftConfig(method="mystery")
    with pytest.raises(ConfigError):
        PeftConfig(method="lora", rank=0)
    with pytest.raises(ConfigError):
        PeftConfig(method="lora", target_weights=())
    with pytest.raises(ConfigError):
        PeftConfig(method="lora", target_weights=("W_X",))
    with pytest.raises(ConfigError):
        PeftConfig(method="lora", target_layers=(1, 1))
    with pytest.raises(ConfigError):
        PeftConfig(method="dora", init="pissa")
    with pytest.raises(ConfigError):
        PeftConfig(method="unipelt", unipelt_submodules=("mystery",))
    with pytest.raises(ConfigError):
        PeftConfig(method="prefix", prefix_len=0)
    with pytest.raises(ConfigError, match="lora_alpha must be finite"):
        PeftConfig(method="lora", lora_alpha=float("nan"))


def test_target_layer_out_of_range_for_model():
    m = build_model(SMALL)  # 2 layers
    with pytest.raises(ConfigError):
        attach(m, PeftConfig(method="lora", target_layers=(3,)))


def test_rank_exceeding_min_dim_rejected():
    m = build_model(SMALL)
    with pytest.raises(ConfigError):
        attach(m, PeftConfig(method="lora", rank=9,
                             target_weights=("W_Q",)))


def test_prefix_position_budget():
    m = build_model(SMALL)
    with pytest.raises(ConfigError):
        attach(m, PeftConfig(method="prefix", prefix_len=4096))


# -- gradients through every hook -------------------------------------------------

PEFT_GRAD_CASES = [
    ("lora", PeftConfig(method="lora", rank=2, target_weights=("W_Q", "FFN"),
                        target_layers=(1, 2))),
    ("dora", PeftConfig(method="dora", rank=2, target_weights=("W_V",),
                        target_layers=(1,))),
    ("adapter", PeftConfig(method="adapter", rank=2, target_layers=(1, 2))),
    ("prefix", PeftConfig(method="prefix", prefix_len=3, target_layers=(1, 2))),
    ("ia3", PeftConfig(method="ia3", target_layers=(1, 2))),
    ("unipelt", PeftConfig(method="unipelt", rank=2, prefix_len=3,
                           target_weights=("W_Q",), target_layers=(1,))),
]


@pytest.mark.parametrize("method,cfg", PEFT_GRAD_CASES,
                         ids=[c[0] for c in PEFT_GRAD_CASES])
def test_theta_gradients_match_finite_differences(method, cfg):
    m = build_model(SMALL)
    mod = attach(m, cfg)
    theta = mod.theta_tilde()
    batch = small_batch(seed=3)

    # nudge adapter params off their init zeros so gradients are generic
    rng = np.random.default_rng(11)
    theta.set_vector(theta.to_vector()
                     + rng.normal(0, 0.05, theta.length).astype(np.float32))

    loss = T.log_softmax_nll(forward(m, batch), batch.labels)
    T.backward(loss)

    for name, t in theta.entries:
        def objective(tt, t=t):
            saved = t.data
            t.data = tt.data
            try:
                with T.no_grad():
                    return T.log_softmax_nll(forward(m, batch),
                                             batch.labels).item()
            finally:
                t.data = saved

        fd = finite_diff_grad(objective, T.Tensor(t.data.copy()))
        assert t.grad is not None, name
        assert grad_close(t.grad, fd.data), name


@pytest.mark.parametrize("method", ["lora", "unipelt"])
def test_backward_computes_no_cotangent_for_frozen_inputs(method):
    m = build_model(SMALL)
    attach(m, PeftConfig(method=method, rank=2, prefix_len=3))
    batch = small_batch()
    loss = T.log_softmax_nll(forward(m, batch), batch.labels)
    counts = {"used": 0, "frozen_inputs": 0}
    wasted = []
    for t in T._topo_order(loss):
        node = t.node

        def counted(g, node=node, pull=node.pullback):
            grads = pull(g)
            assert len(grads) == len(node.inputs), node.op
            for inp, gi in zip(node.inputs, grads):
                if not inp.requires_grad:
                    counts["frozen_inputs"] += 1
                    if gi is not None:
                        wasted.append(node.op)
                elif gi is not None:
                    counts["used"] += 1
            return grads

        node.pullback = counted
    T.backward(loss)
    assert wasted == []
    assert counts["frozen_inputs"] > 0 and counts["used"] > 0


def test_base_gets_no_grads_after_attach():
    m = build_model(SMALL)
    attach(m, PeftConfig(method="lora", rank=2))
    batch = small_batch()
    T.backward(T.log_softmax_nll(forward(m, batch), batch.labels))
    assert all(t.grad is None for t in base_tensors(m).values())
    assert all(t.grad is not None for _, t in m.head_parameters())
