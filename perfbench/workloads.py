"""The benchmark's workloads: inputs made from a seed, one unit operation
each, and the checks its output must pass.

An operation calls peftlab's public functions through their module
attributes at call time, so a tracer installed around it sees every call.
``Timer.call`` times each of those calls; the operation's wall time is the
sum, so harness work between calls (copies for the checks) is not counted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

import numpy as np

from peftlab import checkpoint, cli, config, fisher, model, optim, peft, tasks
from peftlab.config import ExperimentConfig, MaskConfig, TaskConfig

import tracer as tracing

REFERENCE = Path(__file__).resolve().parent / "reference"

# The acceptance suite's ORDERING_CFG: 64-wide, LoRA rank 4 on W_Q, W_K, W_V,
# W_O and FFN of both layers (n = 9216), parity with 512 train and 128 eval
# examples, batch 32.
ORDERING = ExperimentConfig(
    model=model.ModelConfig(num_layers=2, hidden_dim=64, num_heads=4,
                            ffn_dim=256, vocab_size=16, max_seq_len=4,
                            num_classes=2, seed=42),
    task=TaskConfig(kind="parity", size=512, seed=42),
    peft=peft.PeftConfig(method="lora", rank=4,
                         target_weights=("W_Q", "W_K", "W_V", "W_O", "FFN"),
                         target_layers=(1, 2)),
    mask=MaskConfig(strategy="random", budget=0.01, fisher_samples=512,
                    seed=42),
    train=optim.TrainConfig(optimizer="adamw", lr=0.1, epochs=2,
                            batch_size=32, seed=42))

# Experiment seeds whose outputs are recorded in reference/. A run's seed
# fixes the order in which its operations visit them.
POOL = (42, 43, 44, 45)
BUDGET_K = 92                  # budget_to_k(9216, 0.01)

# Tolerances against the recorded references. The eval-loss curve is
# bitwise equal on the recording machine; 1e-4 admits BLAS kernels that sum
# in another order. Scores admit a batched per-example estimator that rounds
# differently: 1e-3 relative, plus 1e-6 of the largest score absolute.
CURVE_RTOL = 1e-4
SCORE_RTOL = 1e-3
SCORE_ATOL_SHARE = 1e-6

SWEEP_STRATEGIES = "fish,random,reverse,dense"
SWEEP_BUDGETS = "0.01,0.1"
SWEEP_EPOCHS = 1
SWEEP_TASK_SIZE = 64


def rebind(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """One seed drives model init, task draw, mask draw and training."""
    return dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, seed=seed),
        task=dataclasses.replace(cfg.task, seed=seed),
        mask=dataclasses.replace(cfg.mask, seed=seed),
        train=dataclasses.replace(cfg.train, seed=seed))


def make_task(cfg: ExperimentConfig):
    """The task a run of ``cfg`` trains on (dimensions follow the model)."""
    return tasks.generate_task(cfg.task.kind, cfg.task.size, cfg.task.seed,
                               vocab_size=cfg.model.vocab_size,
                               seq_len=cfg.model.max_seq_len,
                               num_classes=cfg.model.num_classes,
                               eval_size=cfg.task.eval_size,
                               batch_size=cfg.train.batch_size)


def flat(theta) -> np.ndarray:
    """The flat view's values, read without calling into peftlab."""
    return np.concatenate([t.data.ravel() for t in theta.tensors()])


class Timer:
    """Accumulates the wall time of each timed call by part name."""

    def __init__(self):
        self.parts: dict[str, float] = {}

    def call(self, part: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.parts[part] = self.parts.get(part, 0.0) + \
                time.perf_counter() - t0

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _records(report) -> list[list]:
    return [[r.epoch, r.train_loss, r.eval_loss, r.eval_accuracy]
            for r in report.records]


class _Pooled:
    """Operations cycle through POOL in an order drawn from the run seed."""

    def __init__(self, seed: int):
        order = np.random.default_rng(seed).permutation(len(POOL))
        self.order = [POOL[j] for j in order]
        self.cfgs = {s: rebind(ORDERING, s) for s in POOL}
        self.tasks = {s: make_task(self.cfgs[s]) for s in POOL}

    def seed_for(self, i: int) -> int:
        return self.order[i % len(self.order)]


class TrainLoraSparse(_Pooled):
    """A fresh build_model -> attach -> select(random) -> train()."""

    name = "train-lora-sparse"
    throughput_name = "train_examples_per_s"
    throughput_scale = 1.0

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed)
        self.hashes = {s: config.config_hash(c) for s, c in self.cfgs.items()}

    @cached_property
    def reference(self) -> dict[int, np.ndarray]:
        doc = json.loads((REFERENCE / "train.json").read_text())
        return {int(s): np.asarray(curve, dtype=np.float64)
                for s, curve in doc["eval_loss"].items()}

    def operation(self, i: int, timer: Timer):
        seed = self.seed_for(i)
        cfg = self.cfgs[seed]
        m = timer.call("build", model.build_model, cfg.model)
        module = timer.call("attach", peft.attach, m, cfg.peft)
        theta = module.theta_tilde()
        initial = flat(theta)
        n = theta.length
        k = timer.call("budget", fisher.budget_to_k, n, cfg.mask.budget)
        mask = timer.call("select", fisher.select, np.zeros(n, np.float32), k,
                          "random", seed=cfg.mask.seed)
        report = timer.call("train", optim.train, m, module, mask,
                            self.tasks[seed], cfg.train,
                            config_hash=self.hashes[seed])
        return {"seed": seed, "report": report, "mask": mask,
                "initial": initial, "final": flat(theta),
                "head": np.concatenate([m.head_W.data.ravel(),
                                        m.head_b.data.ravel()])}

    def check(self, out) -> list[str]:
        report, mask = out["report"], out["mask"]
        problems = []
        if report.diverged:
            problems.append("training diverged")
        if mask.k != BUDGET_K:
            problems.append(f"mask.k {mask.k} != {BUDGET_K}")
        frozen = mask.bits == 0
        if not np.array_equal(out["final"].view(np.uint32)[frozen],
                              out["initial"].view(np.uint32)[frozen]):
            problems.append("a masked coordinate moved")
        curve = np.array([r.eval_loss for r in report.records])
        ref = self.reference[out["seed"]]
        if curve.shape != ref.shape or not np.allclose(curve, ref,
                                                       rtol=CURVE_RTOL, atol=0):
            problems.append(f"eval-loss curve {curve.tolist()} differs from "
                            f"reference {ref.tolist()}")
        return problems

    def digest(self, out) -> str:
        return _digest(json.dumps(_records(out["report"])).encode(),
                       out["mask"].bits.tobytes(), out["final"].tobytes(),
                       out["head"].tobytes())

    def work(self, out, timer: Timer) -> float:
        """Training examples per second of train()."""
        cfg = self.cfgs[out["seed"]]
        return cfg.train.epochs * cfg.task.size / timer.parts["train"]

    def baseline(self, parts: list[dict], tracer) -> dict:
        """ROADMAP baseline: ms per epoch from untraced train() calls, the
        rest from the traced spans."""
        train_s = statistics.median(p["train"] for p in parts)
        return {"epoch_ms": 1000.0 * train_s / ORDERING.train.epochs,
                **tracing.training_baseline(tracer)}


class ScoreLora(_Pooled):
    """estimate_fisher over all 512 training examples, then a fish mask."""

    name = "score-lora"
    throughput_name = "score_examples_per_s"
    throughput_scale = 1.0

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed)
        self.models = {}
        for s in POOL:
            m = model.build_model(self.cfgs[s].model)
            peft.attach(m, self.cfgs[s].peft)
            self.models[s] = m
        self.overlaps: list[float] = []

    @cached_property
    def reference(self) -> dict[int, np.ndarray]:
        return dict(zip(POOL, np.load(REFERENCE / "scores.npy")))

    @cached_property
    def reference_masks(self) -> dict[int, np.ndarray]:
        return {s: fisher.select(ref, BUDGET_K, "fish").bits
                for s, ref in self.reference.items()}

    def operation(self, i: int, timer: Timer):
        seed = self.seed_for(i)
        samples = self.cfgs[seed].mask.fisher_samples
        estimate = timer.call("estimate", fisher.estimate_fisher,
                              self.models[seed], self.tasks[seed][0],
                              num_samples=samples)
        mask = timer.call("select", fisher.select, estimate, BUDGET_K, "fish")
        return {"seed": seed, "estimate": estimate, "mask": mask}

    def check(self, out) -> list[str]:
        est, seed = out["estimate"], out["seed"]
        s = est.scores
        ref = self.reference[seed]
        problems = []
        if s.shape != ref.shape:
            return [f"{s.size} scores, expected {ref.size}"]
        if not (np.all(np.isfinite(s)) and np.all(s >= 0)):
            problems.append("scores not finite and non-negative")
        if est.num_samples != self.cfgs[seed].mask.fisher_samples:
            problems.append(f"scores over {est.num_samples} samples")
        atol = SCORE_ATOL_SHARE * float(ref.max())
        if not np.allclose(s, ref, rtol=SCORE_RTOL, atol=atol):
            worst = float(np.max(np.abs(s - ref) / (atol + np.abs(ref))))
            problems.append(f"scores differ from reference (worst "
                            f"|d|/(atol+|ref|) = {worst:.3g})")
        bits = out["mask"].bits
        overlap = float((bits & self.reference_masks[seed]).sum()) / BUDGET_K
        self.overlaps.append(overlap)
        return problems

    def digest(self, out) -> str:
        return _digest(out["estimate"].scores.tobytes(),
                       out["mask"].bits.tobytes())

    def work(self, out, timer: Timer) -> float:
        """Samples scored per second of estimate_fisher plus select."""
        return out["estimate"].num_samples / timer.seconds

    def baseline(self, parts: list[dict], tracer) -> dict:
        """ROADMAP baseline: s per 512-sample untraced score estimate."""
        return {"score_512_s": statistics.median(p["estimate"] for p in parts)}

    def report(self) -> dict:
        return {"fish_overlap_min": min(self.overlaps, default=None),
                "fish_overlap_mean": (float(np.mean(self.overlaps))
                                      if self.overlaps else None)}


SWEEP_CONFIG = {
    "model": dataclasses.asdict(ORDERING.model),
    "task": {"kind": "parity", "size": SWEEP_TASK_SIZE, "seed": 0},
    "peft": {"method": "unipelt", "rank": 4, "prefix_len": 8,
             "target_weights": ["W_Q", "W_K", "W_V", "W_O", "FFN"],
             "target_layers": [1, 2]},
    "mask": {"strategy": "fish", "budget": 0.01,
             "fisher_samples": SWEEP_TASK_SIZE, "seed": 0},
    "train": {"optimizer": "adamw", "lr": 0.1, "epochs": SWEEP_EPOCHS,
              "batch_size": 32, "seed": 0},
}


class SweepUnipelt:
    """One in-process ``peftlab compare`` over a UniPELT config."""

    name = "sweep-unipelt"
    throughput_name = "cells_per_min"
    throughput_scale = 60.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.config_path = work_dir / "sweep-config.json"
        self.out_dir = work_dir / "sweep"
        self.config_path.write_text(json.dumps(SWEEP_CONFIG, indent=2))

    def seeds_for(self, i: int) -> tuple[int, int]:
        a, b = np.random.default_rng([self.seed, i]).choice(
            10_000, size=2, replace=False)
        return int(a), int(b)

    def operation(self, i: int, timer: Timer):
        seeds = self.seeds_for(i)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = ["compare", "--config", str(self.config_path),
                "--strategy", SWEEP_STRATEGIES, "--budget", SWEEP_BUDGETS,
                "--seed", f"{seeds[0]},{seeds[1]}",
                "--epochs", str(SWEEP_EPOCHS), "--out", str(self.out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = timer.call("cli", cli.cli, argv)
        return {"seeds": seeds, "code": code, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue()}

    def _cells(self) -> list[Path]:
        cells = self.out_dir / "cells"
        return sorted(cells.iterdir()) if cells.is_dir() else []

    def check(self, out) -> list[str]:
        problems = []
        if out["code"] != 0:
            problems.append(f"exit code {out['code']}: {out['stderr'].strip()}")
        if "ERROR" in out["stdout"]:
            problems.append("ERROR cell in the comparison table")
        expected = (len(SWEEP_STRATEGIES.split(",")) *
                    len(SWEEP_BUDGETS.split(",")) * len(out["seeds"]))
        cells = self._cells()
        if len(cells) != expected:
            problems.append(f"{len(cells)} cell directories, expected "
                            f"{expected}")
        state = {}
        for cell in cells:
            try:
                state[cell.name] = self._check_cell(cell, problems)
            except Exception as e:  # a missing or unreadable artifact
                problems.append(f"{cell.name}: {type(e).__name__}: {e}")
        for seed in out["seeds"]:
            dense = [state.get(f"dense-{b}-{seed}")
                     for b in SWEEP_BUDGETS.split(",")]
            if None in dense or any(d != dense[0] for d in dense):
                problems.append(f"dense cells differ across budgets at "
                                f"seed {seed}")
        return problems

    @staticmethod
    def _check_cell(cell: Path, problems: list[str]) -> tuple:
        doc = json.loads((cell / "report.json").read_text())
        if doc["diverged"]:
            problems.append(f"{cell.name}: diverged")
        st = checkpoint.load_checkpoint(cell / "checkpoint.bin")
        loss, _ = optim.evaluate(st.model, make_task(st.cfg)[1])
        if loss != doc["final_eval_loss"]:
            problems.append(f"{cell.name}: reloaded checkpoint evaluates to "
                            f"{loss!r}, report says "
                            f"{doc['final_eval_loss']!r}")
        weights = _digest(*(t.data.tobytes()
                            for _, t in st.model.named_parameters()),
                          *(t.data.tobytes()
                            for _, t in st.module.trainable_entries()))
        return (json.dumps(doc["records"]), doc["k"],
                (cell / "mask.bin").read_bytes(), weights)

    def digest(self, out) -> str:
        chunks = [str(out["code"]).encode(), out["stdout"].encode()]
        for path in sorted(p for p in self.out_dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "report.json":
                doc = json.loads(data)
                doc.pop("wall_time_seconds")
                data = json.dumps(doc, sort_keys=True).encode()
            chunks += [str(path.relative_to(self.out_dir)).encode(), data]
        return _digest(*chunks)

    def work(self, out, timer: Timer) -> float:
        """Completed cells per second."""
        return len(self._cells()) / timer.seconds

    def baseline(self, parts: list[dict], tracer) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (TrainLoraSparse, ScoreLora, SweepUnipelt)}


def setup_probe(name: str, work_dir: Path) -> None:
    """The first set-up a user of the workload pays after ``import peftlab``:
    task, build and attach, or reading the sweep's config."""
    if name == SweepUnipelt.name:
        text = (work_dir / "sweep-config.json").read_text()
        config.from_json(text)
        return
    cfg = rebind(ORDERING, POOL[0])
    make_task(cfg)
    peft.attach(model.build_model(cfg.model), cfg.peft)
