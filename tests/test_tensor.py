"""Autodiff engine: forward oracles, gradient checks, graph mechanics."""

import contextlib
import weakref

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.errors import ContractError, GraphError, NumericError, ShapeError

from helpers import (check_grads, finite_diff_grad, grad_close, held_arrays,
                     linear_chain, random_inputs, scalar_sum)

N_SEEDS = 20


def test_storage_is_float32():
    t = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.data.dtype == np.float32
    out = T.matmul(t, t)
    assert out.data.dtype == np.float32


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 5)).astype(np.float32)
    want = np.zeros((3, 5), dtype=np.float64)
    for i in range(3):
        for j in range(5):
            acc = 0.0
            for k in range(4):
                acc += float(a[i, k]) * float(b[k, j])
            want[i, j] = acc
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    np.testing.assert_allclose(got, want.astype(np.float32), rtol=1e-6)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
    b = rng.normal(size=(5, 6)).astype(np.float32)
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    np.testing.assert_allclose(got, (a.astype(np.float64) @ b).astype(np.float32),
                               rtol=1e-6)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_matmul(seed):
    a, b = random_inputs([(3, 4), (4, 2)], seed)
    check_grads(lambda x, y: T.matmul(x, y), [a, b], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_matmul_batched(seed):
    a, b = random_inputs([(2, 3, 4), (4, 2)], seed)
    check_grads(lambda x, y: T.matmul(x, y), [a, b], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_add_subtract_broadcast(seed):
    a, b = random_inputs([(3, 5), (5,)], seed)
    check_grads(lambda x, y: T.add(x, y), [a, b], seed)
    check_grads(lambda x, y: T.subtract(x, y), [a, b], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_hadamard_divide(seed):
    a, b = random_inputs([(4, 3), (4, 3)], seed)
    b = np.where(np.abs(b) < 0.3, b + np.sign(b + 0.01), b).astype(np.float32)
    check_grads(lambda x, y: T.hadamard(x, y), [a, b], seed)
    check_grads(lambda x, y: T.divide(x, y), [a, b], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_scale_exp(seed):
    (a,) = random_inputs([(3, 4)], seed)
    check_grads(lambda x: T.scale(x, -0.7), [a], seed)
    check_grads(lambda x: T.exp(x), [a], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_activations(seed):
    (a,) = random_inputs([(4, 6)], seed, avoid_kinks=True)
    check_grads(lambda x: T.relu(x), [a], seed)
    check_grads(lambda x: T.sigmoid(x), [a], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_softmax(seed):
    (a,) = random_inputs([(3, 2, 5)], seed)
    check_grads(lambda x: T.softmax(x), [a], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_layer_norm(seed):
    x, g, b = random_inputs([(2, 3, 6), (6,), (6,)], seed)
    check_grads(lambda *ts: T.layer_norm(*ts), [x, g, b], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_column_l2_norm(seed):
    (w,) = random_inputs([(5, 4)], seed)
    w = w + np.sign(w + 0.01).astype(np.float32)  # keep columns off zero
    check_grads(lambda x: T.column_l2_norm(x), [w], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_concat_slice_reshape_transpose(seed):
    a, b = random_inputs([(2, 3, 4), (2, 2, 4)], seed)
    check_grads(lambda x, y: T.concat((x, y), axis=-2), [a, b], seed)
    check_grads(lambda x: T.slice_axis(x, 1, 1, 3), [a], seed)
    check_grads(lambda x: T.reshape(x, (6, 4)), [a], seed)
    check_grads(lambda x: T.transpose(x), [a], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_reductions_broadcast(seed):
    (a,) = random_inputs([(3, 4, 2)], seed)
    check_grads(lambda x: T.sum_axis(x, 1, keepdims=True), [a], seed)
    check_grads(lambda x: T.mean_axis(x, 0), [a], seed)
    (b,) = random_inputs([(1, 4)], seed)
    check_grads(lambda x: T.broadcast_to(x, (3, 4)), [b], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_embedding(seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(7, 4)).astype(np.float32)
    ids = rng.integers(0, 7, size=(2, 5))
    check_grads(lambda t: T.embedding(t, ids), [table], seed)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_grad_log_softmax_nll(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(6, 3)).astype(np.float32)
    labels = rng.integers(0, 3, size=6)
    for reduction in ("mean", "sum"):
        leaf = T.Tensor(logits, requires_grad=True)
        loss = T.log_softmax_nll(leaf, labels, reduction)
        T.backward(loss)
        fd = finite_diff_grad(
            lambda t: T.log_softmax_nll(t, labels, reduction).item(),
            T.Tensor(logits))
        assert grad_close(leaf.grad, fd.data)


def test_log_softmax_nll_matches_manual_value():
    logits = T.Tensor([[2.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    got = T.log_softmax_nll(logits, labels, "mean").item()
    want = float(np.mean([np.log(1 + np.exp(-2.0)), np.log(1 + np.exp(-1.0))]))
    assert abs(got - want) < 1e-6


# Every multi-input primitive, with input shapes that include batching and
# broadcasting; each input is frozen in turn.
MIXED_CASES = {
    "matmul": (T.matmul, [(3, 4), (4, 2)]),
    "matmul_batched": (T.matmul, [(2, 3, 4), (4, 2)]),
    "add": (T.add, [(3, 5), (3, 5)]),
    "add_broadcast": (T.add, [(3, 5), (5,)]),
    "subtract": (T.subtract, [(3, 5), (3, 5)]),
    "subtract_broadcast": (T.subtract, [(3, 5), (1, 5)]),
    "hadamard": (T.hadamard, [(4, 3), (4, 3)]),
    "divide": (T.divide, [(4, 3), (1, 3)]),
    "layer_norm": (T.layer_norm, [(2, 3, 6), (6,), (6,)]),
    "concat": (lambda *ts: T.concat(ts, axis=1), [(2, 3, 4), (2, 2, 4), (2, 1, 4)]),
    "linear": (T.linear, [(2, 3, 4), (4, 5), (5,)]),
    "linear_low_rank": (lambda *ts: T.linear(*ts, scale=0.5),
                        [(2, 3, 4), (4, 5), (5,), (4, 2), (2, 5)]),
}


@pytest.mark.parametrize("case", sorted(MIXED_CASES))
def test_frozen_input_gets_no_cotangent_and_the_rest_keep_their_bits(case):
    build, shapes = MIXED_CASES[case]
    arrays = random_inputs(shapes, seed=3, lo=0.5, hi=2.0)

    def run(frozen):
        leaves = [T.Tensor(a, requires_grad=i != frozen)
                  for i, a in enumerate(arrays)]
        out = build(*leaves)
        g = np.random.default_rng(9).uniform(-1, 1, out.shape).astype(np.float32)
        raw = out.node.pullback(g)
        # the leaf behind each input slot (linear takes x in two slots)
        ids = [id(leaf) for leaf in leaves]
        slots = [ids.index(id(t)) for t in out.node.inputs]
        T.backward(scalar_sum(T.hadamard(out, T.Tensor(g))))
        return leaves, slots, raw

    full, _, full_raw = run(frozen=None)
    for frozen in range(len(arrays)):
        leaves, slots, raw = run(frozen)
        for slot, (i, got) in enumerate(zip(slots, raw)):
            if i == frozen:
                assert got is None, (frozen, slot)
            else:
                assert got.dtype == np.float32
                assert got.tobytes() == full_raw[slot].tobytes(), (frozen, slot)
        for i, leaf in enumerate(leaves):
            if i == frozen:
                assert leaf.grad is None
            else:
                assert leaf.grad.tobytes() == full[i].grad.tobytes(), (frozen, i)


def test_matmul_holds_no_copy_of_an_operand_no_cotangent_uses():
    rng = np.random.default_rng(4)
    a = T.Tensor(rng.normal(size=(32, 4, 16)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(16, 8)))  # frozen, as W0 is
    out = T.matmul(a, b)
    assert not any(v.dtype == np.float64 and v.size == a.size
                   for v in held_arrays(out.node.pullback))

    g = rng.uniform(-1, 1, out.shape).astype(np.float32)
    ga, gb = out.node.pullback(g)
    assert gb is None
    both = T.matmul(T.Tensor(a.data, requires_grad=True),
                    T.Tensor(b.data, requires_grad=True))
    want_a, want_b = both.node.pullback(g)
    assert ga.tobytes() == want_a.tobytes()
    # b starts requiring grad after the forward: a is recast from .data
    b.requires_grad = True
    ga, gb = out.node.pullback(g)
    assert ga.tobytes() == want_a.tobytes()
    assert gb.tobytes() == want_b.tobytes()


LINEAR_SHAPES = [(3, 4, 6), (6, 6), (6,), (6, 2), (2, 6)]  # x, w, b, B, A


def _projection_graph(project, x0, w, b, pair, scale, w2, b2):
    """x feeds a low-rank projection, a second projection and a residual
    add, so its cotangent is a running sum the slots must join in order."""
    x = T.hadamard(x0, x0)
    q = project(x, w, b, *pair, scale=scale)
    k = project(x, w2, b2)
    return T.add(x, T.hadamard(q, k))


@pytest.mark.parametrize("scale", [0.5, 1.0])
@pytest.mark.parametrize("low_rank", [True, False])
@pytest.mark.parametrize("interior", [True, False])
def test_linear_matches_the_op_chain_bit_for_bit(interior, low_rank, scale):
    arrays = random_inputs(LINEAR_SHAPES + [(6, 6), (6,)], seed=12)
    g = np.random.default_rng(13).uniform(
        -1, 1, LINEAR_SHAPES[0]).astype(np.float32)

    def run(project):
        x, w, b, B, A, w2, b2 = (T.Tensor(a, requires_grad=True)
                                 for a in arrays)
        pair = (B, A) if low_rank else ()
        used = (x, w, b) + pair
        if interior:
            out = _projection_graph(project, x, w, b, pair, scale, w2, b2)
            used += (w2, b2)
        else:
            out = project(x, w, b, *pair, scale=scale)
        T.backward(scalar_sum(T.hadamard(out, T.Tensor(g))))
        return [out.data] + [t.grad for t in used]

    fused, chain = run(T.linear), run(linear_chain)
    assert len(fused) == len(chain)
    for i, (got, want) in enumerate(zip(fused, chain)):
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes(), i


def test_linear_records_one_node_with_x_in_two_slots():
    x, w, b, B, A = (T.Tensor(a, requires_grad=True)
                     for a in random_inputs(LINEAR_SHAPES, seed=1))
    out = T.linear(x, w, b, B, A, scale=2.0)
    assert out.node.op == "linear"
    assert [id(t) for t in out.node.inputs] == [id(t) for t in (x, w, b, x, B, A)]
    with pytest.raises(ContractError, match="both factors"):
        T.linear(x, w, b, B)
    with pytest.raises(ShapeError, match="low-rank pair"):
        T.linear(x, w, b, A, B)
    with pytest.raises(ShapeError, match="bias"):
        T.linear(x, w, B)


def test_linear_holds_no_copy_of_an_operand_no_cotangent_uses():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.normal(size=(32, 4, 16)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(16, 8)))  # frozen, as W0 is
    b = T.Tensor(rng.normal(size=8))
    B = T.Tensor(rng.normal(size=(16, 2)))  # frozen, live factors
    A = T.Tensor(rng.normal(size=(2, 8)))
    for pair in ((), (B, A)):
        out = T.linear(x, w, b, *pair, scale=0.5)
        # neither x nor x @ B: only the frozen factors' cotangents use them
        xB_size = x.size // x.shape[-1] * B.shape[-1]
        assert not any(v.dtype == np.float64 and v.size in (x.size, xB_size)
                       for v in held_arrays(out.node.pullback))

        g = rng.uniform(-1, 1, out.shape).astype(np.float32)
        leaves = [T.Tensor(t.data, requires_grad=True) for t in (x, w, b) + pair]
        want = T.linear(*leaves, scale=0.5).node.pullback(g)
        # each factor starts requiring grad after the forward: the operand
        # its cotangent uses (x, or x @ B for A) is recast from .data
        for late in (None, w) + pair:
            if late is not None:
                late.requires_grad = True
            got = out.node.pullback(g)
            for i, t in enumerate(out.node.inputs):
                if t.requires_grad:
                    assert got[i].tobytes() == want[i].tobytes(), (late, i)
                else:
                    assert got[i] is None, (late, i)
            if late is not None:
                late.requires_grad = False


def _marked(rows):
    t = T.Tensor(rows)
    t.example_axis = True
    return t


def _param_chain_loss(w, v, rows, labels):
    """A loss whose parameters reach the examples only through nodes that
    depend on parameters alone, one of each op that keeps the example axis
    for them, and through a 2-D product with the examples' rows."""
    x = _marked(rows)                                          # [N, 2, 4]
    c = T.concat((w, T.slice_axis(w, 0, 0, 1)), axis=0)        # [4, 4]
    d = T.reshape(T.transpose(T.reshape(c, (2, 8))), (4, 4))
    m = T.sigmoid(T.mean_axis(d, 0, keepdims=True))           # [1, 4]
    u = T.add(T.hadamard(d, m), T.column_l2_norm(T.exp(T.scale(d, 0.1))))
    weight = T.subtract(T.divide(u, T.add(T.relu(d), T.Tensor(1.0))),
                        T.softmax(d))
    h = T.add(T.matmul(x, weight),
              T.broadcast_to(T.reshape(v, (1, 4)), (2, 4)))    # [N, 2, 4]
    z = T.matmul(T.mean_axis(h, 1), T.reshape(T.sum_axis(d, 1), (4, 1)))
    logits = T.concat((T.Tensor(np.zeros((len(rows), 1))), z), axis=1)
    return T.log_softmax_nll(logits, labels, "sum")


def test_per_example_backward_equals_batch1_passes():
    rng = np.random.default_rng(5)
    w = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    v = T.Tensor(rng.normal(size=4), requires_grad=True)
    other = T.Tensor(rng.normal(size=4), requires_grad=True)
    rows = rng.normal(size=(5, 2, 4)).astype(np.float32)
    labels = rng.integers(0, 2, size=5)

    def loss_of(r, y):
        return T.add(_param_chain_loss(w, v, r, y),
                     T.hadamard(T.sum_axis(other, 0), T.Tensor(0.0)))

    gw, gv = T.backward(loss_of(rows, labels), per_example=[w, v])
    assert (gw.shape, gv.shape) == ((5, 3, 4), (5, 4))
    assert w.grad is None and v.grad is None and other.grad is None
    for i in range(5):
        T.backward(loss_of(rows[i:i + 1], labels[i:i + 1]))
        assert gw[i].tobytes() == w.grad.tobytes()
        assert gv[i].tobytes() == v.grad.tobytes()
        w.grad = v.grad = other.grad = None


def test_per_example_linear_equals_batch1_passes():
    """Both per-example boundaries a projection has: a 3-D input's weight
    cotangents keep the example axis, and a 2-D one's are outer products."""
    rng = np.random.default_rng(8)
    w, b, B, A = (T.Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(4, 4), (4,), (4, 2), (2, 4)])
    head_w, head_b = (T.Tensor(rng.normal(size=s), requires_grad=True)
                      for s in [(4, 3), (3,)])
    w.requires_grad = False  # frozen, as W0 is
    rows = rng.normal(size=(5, 2, 4)).astype(np.float32)
    labels = rng.integers(0, 3, size=5)
    leaves = [b, B, A, head_w, head_b]

    def loss_of(r, y):
        h = T.linear(_marked(r), w, b, B, A, scale=0.5)
        logits = T.linear(T.mean_axis(h, 1), head_w, head_b)
        return T.log_softmax_nll(logits, y, "sum")

    per = T.backward(loss_of(rows, labels), per_example=leaves)
    assert [g.shape[0] for g in per] == [5] * len(leaves)
    for i in range(5):
        T.backward(loss_of(rows[i:i + 1], labels[i:i + 1]))
        for got, leaf in zip(per, leaves):
            assert got[i].tobytes() == leaf.grad.tobytes()
            leaf.grad = None


def test_per_example_backward_runs_batch1_pullbacks_on_parameter_only_nodes():
    """A primitive written with no per-example code: its pullback only
    reshapes, and it sits on a path that depends on the parameter alone."""
    rng = np.random.default_rng(6)
    w = T.Tensor(rng.normal(size=12), requires_grad=True)
    rows = rng.normal(size=(5, 3)).astype(np.float32)
    labels = rng.integers(0, 4, size=5)

    def loss_of(r, y):
        weight = T._record("view", w.data.reshape(3, 4), (w,),
                           lambda g: (g.reshape(w.shape),))
        return T.log_softmax_nll(T.matmul(_marked(r), weight), y, "sum")

    (gw,) = T.backward(loss_of(rows, labels), per_example=[w])
    assert gw.shape == (5, 12)
    for i in range(5):
        T.backward(loss_of(rows[i:i + 1], labels[i:i + 1]))
        assert gw[i].tobytes() == w.grad.tobytes()
        w.grad = None


def test_backward_drops_the_tape_it_replays():
    """The loss outlives backward (a training loop holds it through the
    next forward pass), but the tape behind it must not."""
    w = T.Tensor(np.ones((4, 3)), requires_grad=True)

    def build():
        hidden = T.relu(T.matmul(T.Tensor(np.ones((2, 4))), w))
        return scalar_sum(hidden), weakref.ref(hidden.data)

    loss, hidden_data = build()
    assert hidden_data() is not None
    T.backward(loss)
    assert loss.node is None
    assert hidden_data() is None
    assert w.grad is not None


def test_a_second_backward_through_a_replayed_graph_raises():
    w = T.Tensor(np.ones(3), requires_grad=True)
    loss = T.sum_axis(T.scale(w, 2.0), 0)
    T.backward(loss)
    with pytest.raises(GraphError, match="already replayed"):
        T.backward(loss)
    assert w.grad.tolist() == [2.0, 2.0, 2.0] and loss.grad is None
    h = T.scale(w, 2.0)
    T.backward(T.sum_axis(h, 0))
    with pytest.raises(GraphError, match="already replayed"):
        T.backward(T.sum_axis(T.scale(h, 3.0), 0))

    x = _marked(np.ones((4, 3)))
    loss = scalar_sum(T.hadamard(x, w))
    T.backward(loss, per_example=[w])
    with pytest.raises(GraphError, match="already replayed"):
        T.backward(loss, per_example=[w])
    h = T.hadamard(x, w)
    T.backward(scalar_sum(h), per_example=[w])
    with pytest.raises(GraphError, match="already replayed"):
        T.backward(scalar_sum(T.scale(h, 3.0)), per_example=[w])


def test_per_example_backward_rejects_what_it_cannot_split():
    w = T.Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ContractError, match="example axis"):
        T.backward(scalar_sum(w), per_example=[w])
    x = _marked(np.ones((4, 3)))
    with pytest.raises(ContractError, match="leaves"):
        T.backward(scalar_sum(x), per_example=[x])
    gamma = T.Tensor(np.ones(3), requires_grad=True)
    loss = scalar_sum(T.layer_norm(x, gamma, T.Tensor(np.zeros(3))))
    with pytest.raises(ContractError, match="layer_norm"):
        T.backward(loss, per_example=[gamma])
    assert gamma.requires_grad
    row = T.Tensor(np.ones((1, 3)), requires_grad=True)  # spans the examples
    with pytest.raises(ContractError, match="spans"):
        T.backward(scalar_sum(T.add(x, row)), per_example=[row])


@pytest.mark.parametrize("second", ["leaf", "reshaped_leaf"])
def test_pass_through_cotangents_do_not_alias(second):
    a = T.Tensor(np.ones((2, 3)), requires_grad=True)
    b = T.Tensor(np.ones((2, 3) if second == "leaf" else 6), requires_grad=True)
    other = b if second == "leaf" else T.reshape(b, (2, 3))
    T.backward(scalar_sum(T.add(a, other)))
    assert not np.shares_memory(a.grad, b.grad)
    b_before = b.grad.copy()
    a.grad += 1.0
    assert b.grad.tobytes() == b_before.tobytes()


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    y = T.scale(x, 2.0)
    with pytest.raises(ContractError):
        T.backward(y)


def test_backward_accumulates_until_zeroed():
    x = T.Tensor([3.0], requires_grad=True)
    for _ in range(2):
        T.backward(scalar_sum(T.hadamard(x, x)))
    np.testing.assert_allclose(x.grad, [12.0])  # 6 + 6
    x.grad = None
    T.backward(scalar_sum(T.hadamard(x, x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_each_node_visited_once():
    calls = {"n": 0}
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.hadamard(x, x)
    orig = y.node.pullback

    def counting(g):
        calls["n"] += 1
        return orig(g)

    y.node.pullback = counting
    z = T.add(y, y)  # y consumed twice; its pullback must still run once
    T.backward(scalar_sum(z))
    assert calls["n"] == 1
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def test_interior_grads_released_leaf_grads_kept():
    x = T.Tensor(np.ones(3), requires_grad=True)
    h = T.scale(x, 2.0)
    out = scalar_sum(h)
    T.backward(out)
    assert x.grad is not None
    assert h.grad is None


def test_no_grad_suspends_recording():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.scale(x, 2.0)
    assert y.node is None and not y.requires_grad


@pytest.mark.parametrize("ending", ["return", "raise"])
def test_frozen_restores_only_the_flags_it_turned_off(ending):
    """Inside the block no listed tensor requires grad; afterwards each
    one it froze requires grad again, on return and on raise, and one that
    was frozen already stays frozen."""
    live = [T.Tensor(np.ones(3), requires_grad=True) for _ in range(2)]
    already = T.Tensor(np.ones(3))
    listed = [live[0], already, live[1]]
    with pytest.raises(RuntimeError) if ending == "raise" \
            else contextlib.nullcontext():
        with T.frozen(listed):
            inside = [t.requires_grad for t in listed]
            assert T.scale(live[0], 2.0).node is None
            if ending == "raise":
                raise RuntimeError("block failed")
    assert inside == [False, False, False]
    assert [t.requires_grad for t in listed] == [True, False, True]


def test_constant_inputs_stay_off_tape():
    x = T.Tensor(np.ones(3))
    y = T.scale(x, 2.0)
    assert y.node is None


def test_backward_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(123)
        x = T.Tensor(rng.normal(size=(4, 4)).astype(np.float32),
                     requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 4)).astype(np.float32),
                     requires_grad=True)
        h = T.sigmoid(T.matmul(x, w))
        loss = T.mean_axis(T.reshape(T.softmax(h), (-1,)), 0)
        T.backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert gx1.tobytes() == gx2.tobytes()
    assert gw1.tobytes() == gw2.tobytes()


def test_hadamard_mask_semantics():
    rng = np.random.default_rng(5)
    for trial in range(50):
        x = rng.normal(size=37).astype(np.float32)
        bits = (rng.uniform(size=37) < 0.5).astype(np.float32)
        out = T.hadamard(T.Tensor(x), T.Tensor(bits)).data
        kept = bits == 1.0
        assert out[kept].tobytes() == x[kept].tobytes()
        assert np.all(out[~kept] == 0.0)


def test_column_l2_norm_zero_column_raises_on_backward():
    w = T.Tensor(np.array([[0.0, 1.0], [0.0, 2.0]], dtype=np.float32),
                 requires_grad=True)
    y = T.column_l2_norm(w)
    with pytest.raises(NumericError, match="column 0"):
        T.backward(scalar_sum(y))


def test_finite_diff_on_quadratic():
    w = T.Tensor([1.0, -2.0, 0.5])
    fd = finite_diff_grad(lambda t: scalar_sum(T.hadamard(t, t)).item(), w)
    np.testing.assert_allclose(fd.data, 2 * w.data, rtol=1e-3)


def test_finite_diff_nonfinite_raises():
    def bad(t):
        return float("nan")

    with pytest.raises(NumericError):
        finite_diff_grad(bad, T.Tensor([1.0]))
