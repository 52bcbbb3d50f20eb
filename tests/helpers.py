"""Shared test utilities: central-difference gradients and gradient checking,
the op chain ``tensor.linear`` fuses, the batch-1 loss that sequential
oracles are built from, the arrays a pullback holds, and a fresh interpreter
for checks that this process's state would spoil."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

from peftlab import tensor as T
from peftlab.errors import NumericError
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


def finite_diff_grad(f, w, step=1e-3):
    """Central-difference gradient of scalar ``f`` at Tensor ``w``.

    ``f`` receives a fresh non-grad Tensor per evaluation and must be
    deterministic. The result is float32, matching ``backward`` outputs.
    """
    base = w.data.ravel()
    grad = np.empty(base.size, dtype=np.float64)
    for i in range(base.size):
        plus = base.copy()
        plus[i] = np.float32(plus[i] + step)
        minus = base.copy()
        minus[i] = np.float32(minus[i] - step)
        f_plus = float(f(T.Tensor(plus.reshape(w.shape))))
        f_minus = float(f(T.Tensor(minus.reshape(w.shape))))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"finite_diff_grad: non-finite objective at "
                               f"coordinate {i}")
        h = float(plus[i]) - float(minus[i])
        grad[i] = (f_plus - f_minus) / h
    return T.Tensor(grad.reshape(w.shape))


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

        fd = finite_diff_grad(objective, T.Tensor(arrays[i]), step=step)
        assert leaf.grad is not None, f"input {i} got no grad"
        assert grad_close(leaf.grad, fd.data, rtol=rtol), (
            f"input {i}: backward disagrees with finite differences\n"
            f"backward={leaf.grad}\nfinite_diff={fd.data}")


def linear_chain(x, w, b, B=None, A=None, scale=1.0):
    """``tensor.linear`` as the chain of primitives it fuses: the reference
    its bits are pinned against."""
    out = T.add(T.matmul(x, w), b)
    if B is None:
        return out
    delta = T.matmul(T.matmul(x, B), A)
    return T.add(out, T.scale(delta, scale) if scale != 1.0 else delta)


def held_arrays(fn) -> list[np.ndarray]:
    """Every array ``fn``'s closure holds, and the closures of the functions
    it holds in turn: what a tape node's pullback keeps alive."""
    found, todo, seen = [], [fn], set()
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in f.__closure__ or ():
            try:
                v = cell.cell_contents
            except ValueError:  # a variable the enclosing call never bound
                continue
            if isinstance(v, np.ndarray):
                found.append(v)
            elif isinstance(v, types.FunctionType):
                todo.append(v)
    return found


def example_nll(model, row, label):
    """Loss of one example through a batch-1 forward pass."""
    batch = Batch(np.asarray(row)[None, :], np.asarray([label]))
    return T.log_softmax_nll(forward(model, batch), batch.labels, "sum")


def base_tensors(model) -> dict:
    """The model's tensors other than the head's, by name: the ones
    attaching an adapter freezes."""
    return {n: t for n, t in model.params.items() if not n.startswith("head/")}


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this peftlab."""
    src = str(Path(T.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
