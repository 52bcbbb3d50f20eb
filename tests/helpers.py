"""Shared test utilities: gradient checking against central differences,
and the batch-1 loss that sequential oracles are built from."""

from __future__ import annotations

import numpy as np

from peftlab import tensor as T
from peftlab.model import Batch, forward


def random_inputs(shapes, seed, lo=-1.5, hi=1.5, avoid_kinks=False):
    """Seeded float32 inputs; optionally pushed away from |x| < 0.1 so that
    piecewise ops (relu) see no kink within the finite-difference step."""
    rng = np.random.default_rng(seed)
    out = []
    for shape in shapes:
        x = rng.uniform(lo, hi, size=shape).astype(np.float32)
        if avoid_kinks:
            x = np.where(np.abs(x) < 0.1, x + np.sign(x + 0.05) * 0.25, x)
        out.append(x.astype(np.float32))
    return out


def scalar_sum(x):
    """Sum of every entry of ``x`` as a 0-d Tensor, built from tape
    primitives so ``backward`` can start from it."""
    return T.sum_axis(T.reshape(x, (-1,)), 0)


def grad_close(got, want, rtol=1e-3):
    """|got - want| <= rtol * max(1, |got|, |want|), elementwise."""
    g = np.asarray(got, dtype=np.float64)
    x = np.asarray(want, dtype=np.float64)
    tol = rtol * np.maximum(1.0, np.maximum(np.abs(g), np.abs(x)))
    return bool(np.all(np.abs(g - x) <= tol))


def check_grads(build, arrays, seed, rtol=1e-3, step=1e-3):
    """Compare backward against finite_diff_grad for every input.

    ``build`` maps a tuple of Tensors to an output Tensor; the scalar
    objective is sum(output * R) for a fixed random projection R, which makes
    every output coordinate matter.
    """
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    rng = np.random.default_rng(seed + 1_000_003)
    proj = T.Tensor(rng.uniform(-1, 1, size=out.shape).astype(np.float32))
    loss = scalar_sum(T.hadamard(out, proj))
    T.backward(loss)

    for i, leaf in enumerate(leaves):
        def objective(t, i=i):
            subs = [T.Tensor(a) for a in arrays]
            subs[i] = t
            return scalar_sum(T.hadamard(build(*subs), proj)).item()

        fd = T.finite_diff_grad(objective, T.Tensor(arrays[i]), step=step)
        assert leaf.grad is not None, f"input {i} got no grad"
        assert grad_close(leaf.grad, fd.data, rtol=rtol), (
            f"input {i}: backward disagrees with finite differences\n"
            f"backward={leaf.grad}\nfinite_diff={fd.data}")


def example_nll(model, row, label):
    """Loss of one example through a batch-1 forward pass."""
    batch = Batch(np.asarray(row)[None, :], np.asarray([label]))
    return T.log_softmax_nll(forward(model, batch), batch.labels, "sum")
