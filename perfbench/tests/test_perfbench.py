"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import numpy as np
import pytest

import run
import tracer as tracing
import workloads
from peftlab import tensor as T


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(40, 0, -1)]
    assert run.tail_percentile(values) == {
        "percentile": 75, "value": 30.0, "samples": 40, "beyond": 10}


@pytest.mark.parametrize("n", [11, 12, 19, 20, 25, 37, 99, 100, 1001])
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    values = [float(v) for v in range(n)]
    tail = run.tail_percentile(values)
    assert tail["samples"] == n
    assert tail["beyond"] == sum(v > tail["value"] for v in values)
    assert tail["beyond"] >= 10
    next_rank = -(-(tail["percentile"] + 1) * n // 100)
    assert n - next_rank < 10


def test_tail_percentile_with_ten_samples_or_fewer_reports_the_maximum():
    tail = run.tail_percentile([3.0, 1.0, 2.0] * 3 + [9.0])
    assert tail == {"percentile": 100, "value": 9.0, "samples": 10,
                    "beyond": 0}


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_nested_spans():
    start, end, parent = [0, 2, 3], [10, 5, 4], [-1, 0, 1]
    assert tracing.self_times(start, end, parent).tolist() == [7, 2, 1]


def test_self_time_counts_overlapping_children_once():
    # root [0, 10] has children [1, 4] and [3, 6] (union [1, 6]) and [8, 12],
    # which is clipped to [8, 10]; a second root [20, 30] has one child.
    start = [0, 1, 3, 8, 20, 21]
    end = [10, 4, 6, 12, 30, 22]
    parent = [-1, 0, 0, 0, -1, 4]
    assert tracing.self_times(start, end, parent).tolist() == \
        [3, 3, 3, 4, 9, 1]


# ---------------------------------------------------------------------------
# cotangent yield


def test_cotangent_yield_of_a_frozen_weight_is_exact():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(5, 7)))
    labels = np.array([0, 6, 2])
    tr = tracing.Tracer()
    with tr.installed(0):
        T.backward(T.log_softmax_nll(T.matmul(x, w), labels))
    # matmul computes d/dx (3x5) and d/dW (5x7) but only d/dx is consumed;
    # the loss pullback's 3x7 cotangent reaches the recorded matmul output.
    assert tr.cotangents["matmul"] == [4 * (15 + 35), 4 * 15]
    m = tracing.layer_metrics(tr, 1)
    assert m["tensor.pull.matmul.cotangent_yield"] == 15 / 50
    assert m["tensor.pull.cotangent_bytes"] == 4 * (21 + 50)
    assert m["tensor.pull.cotangent_bytes_used"] == 4 * (21 + 15)
    assert m["tensor.pull.cotangent_yield"] == 36 / 71
    assert m["tensor.fwd.calls"] == 2 and m["tensor.pull.calls"] == 2
    assert m["tensor.backward.calls"] == 1
    assert not hasattr(T.matmul, "__wrapped__")


def test_tracer_restores_every_binding():
    tr = tracing.Tracer()
    with tr.installed(0):
        assert all(getattr(owner, attr) is wrapper
                   for owner, attr, _, wrapper in tr._bindings)
    assert all(getattr(owner, attr) is original
               for owner, attr, original, _ in tr._bindings)
    sites = {(getattr(o, "__name__", o), a) for o, a, _, _ in tr._bindings}
    assert ("peftlab.optim", "forward") in sites
    assert ("peftlab.experiment", "estimate_fisher") in sites


# ---------------------------------------------------------------------------
# traced runs change no output; failures are counted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operation_is_bitwise_identical(name, work_dir):
    wl = workloads.WORKLOADS[name](7, work_dir)
    tr = tracing.Tracer()
    plain = run.run_op(wl, 0, digest=True)
    traced = run.run_op(wl, 0, tr, digest=True)
    assert plain.problems == [] and traced.problems == []
    assert plain.digest is not None and plain.digest == traced.digest
    assert len(tr.start) > 0


class _Flaky:
    """Raises on op 0, fails its check on op 1, succeeds on op 2."""

    name = "flaky"

    def operation(self, i, timer):
        return timer.call("op", self._op, i)

    @staticmethod
    def _op(i):
        if i == 0:
            raise RuntimeError("boom")
        return i

    def check(self, out):
        return ["wrong output"] if out == 1 else []

    def work(self, out, timer):
        return 1.0 / timer.seconds

    def digest(self, out):
        return str(out)


def test_failed_operations_are_counted_and_keep_their_time():
    ops = [run.run_op(_Flaky(), i) for i in range(3)]
    assert ["boom" in "".join(op.problems) for op in ops] == \
        [True, False, False]
    assert [bool(op.problems) for op in ops] == [True, True, False]
    assert all("op" in op.parts and op.seconds >= 0 for op in ops)
    assert [op.rate is None for op in ops] == [True, True, False]
