"""Public surface: ``peftlab.__all__`` and the README's library example."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import peftlab

from helpers import run_fresh

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in peftlab.__all__
               if not hasattr(peftlab, name)]
    assert missing == []
    assert len(set(peftlab.__all__)) == len(peftlab.__all__)


def test_readme_library_example_imports_only_public_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imported = {alias.name
                for block in blocks
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "peftlab"
                for alias in node.names}
    assert "build_model" in imported
    assert imported - set(peftlab.__all__) == set()


def test_core_runs_without_scipy():
    """NumPy is the only runtime dependency: with SciPy unimportable, the
    package and its CLI import and a model runs a forward pass."""
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import peftlab, peftlab.cli\n"
        "from peftlab import Batch, ModelConfig, build_model, forward\n"
        "model = build_model(ModelConfig(num_layers=1, hidden_dim=8,"
        " num_heads=2, ffn_dim=16, vocab_size=8, max_seq_len=4))\n"
        "out = forward(model, Batch(np.zeros((2, 4), dtype=np.int64),"
        " np.zeros(2, dtype=np.int64)))\n"
        "assert out.shape == (2, 2), out.shape\n"
    )
    done = run_fresh(script)
    assert done.returncode == 0, done.stderr


def test_benchmark_harness_binds_to_the_package(monkeypatch):
    """perfbench/ looks peftlab names up by string and calls its task,
    scoring, training and evaluation API as below; a change there would fail
    every benchmark run, so it fails here first."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    import workloads
    from workloads import fisher, model, optim, peft

    tracer.Tracer()  # looks up every traced name, ThetaTilde.set_vector too
    cfg = workloads.rebind(workloads.ORDERING, 42)
    train, held_out = workloads.make_task(cfg)
    m = model.build_model(cfg.model)
    module = peft.attach(m, cfg.peft)
    est = fisher.estimate_fisher(m, train, num_samples=8)
    mask = fisher.select(est, workloads.BUDGET_K, "fish")
    report = optim.train(m, module, mask, (train, held_out),
                         dataclasses.replace(cfg.train, epochs=1))
    # the check SweepUnipelt._check_cell makes on every reloaded cell
    assert report.final_eval_loss == optim.evaluate(m, held_out)[0]


@pytest.mark.parametrize("name", ["TrainLoraSparse", "SweepUnipelt"])
def test_benchmark_workload_passes_its_own_check(monkeypatch, tmp_path, name):
    """One operation of each benchmarked workload, checked as a benchmark
    run checks it: the training curve against its recorded reference, every
    sweep cell's artifacts reloaded, and, as under ``--trace 1``, the same
    index run traced must give the same output digest."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    import workloads

    wl = getattr(workloads, name)(0, tmp_path)
    out = wl.operation(0, workloads.Timer())
    assert wl.check(out) == []
    plain = wl.digest(out)
    with tracer.Tracer().installed(0):
        traced = wl.digest(wl.operation(0, workloads.Timer()))
    assert traced == plain
