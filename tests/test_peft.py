"""Adapter modules: flat-view ordering, init identities, hook gradients."""

import gc
import weakref

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.errors import ConfigError, ContractError
from peftlab.model import Batch, ModelConfig, build_model, forward
from peftlab.peft import METHODS, PeftConfig, attach, pissa_init

from helpers import grad_close

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
        for layer, group, part, t in sub.records:
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
    for lp in base_model.layers:
        lp.b_Q.data[:] = 1.0  # make every query entry positive
    base = logits_of(base_model, batch)

    m = build_model(SMALL)
    for lp in m.layers:
        lp.b_Q.data[:] = 1.0
    mod = attach(m, PeftConfig(method="prefix", prefix_len=4,
                               target_layers=(1, 2)))
    for rows in mod.rows.values():
        rows["P_K"].data[:] = -1e6
    assert np.max(np.abs(logits_of(m, batch) - base)) < 1e-4


def test_unipelt_gate_limits():
    batch = small_batch()
    base = logits_of(build_model(SMALL), batch)

    cfg = PeftConfig(method="unipelt", rank=2, prefix_len=3,
                     target_layers=(1, 2))
    m = build_model(SMALL)
    mod = attach(m, cfg)
    mod.gate_override = 0.0
    assert np.max(np.abs(logits_of(m, batch) - base)) < 1e-6

    plain = build_model(SMALL)
    attach(plain, PeftConfig(method="prefix", prefix_len=3,
                             target_layers=(1, 2)))
    mod.gate_override = 1.0
    # lora/adapter deltas are still zero at init; gate 1 leaves only the prefix
    assert np.max(np.abs(logits_of(m, batch) - logits_of(plain, batch))) < 1e-6

    mod.gate_override = None
    mid = logits_of(m, batch)
    assert np.max(np.abs(mid - base)) > 1e-7  # learned gates sit near 0.5


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
    w_before = base_model.layers[1].W_Q.data.copy()

    m = build_model(SMALL)
    attach(m, PeftConfig(method="lora", rank=2, init="pissa",
                         target_weights=("W_Q",), target_layers=(1,)))
    assert m.layers[1].W_Q.data.tobytes() != w_before.tobytes()
    assert np.max(np.abs(logits_of(m, batch) - base)) < 1e-4


# -- attachment contracts --------------------------------------------------------


def test_attach_freezes_base_keeps_head():
    m = build_model(SMALL)
    attach(m, PeftConfig(method="lora"))
    assert all(not t.requires_grad for _, t in m.base_parameters())
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

        fd = T.finite_diff_grad(objective, T.Tensor(t.data.copy()))
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
    assert all(t.grad is None for _, t in m.base_parameters())
    assert all(t.grad is not None for _, t in m.head_parameters())
