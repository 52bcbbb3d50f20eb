#!/usr/bin/env python3
"""Run one peftlab benchmark workload and print its result.

    python3 perfbench/run.py --workload train-lora-sparse --seed 1 \\
        --seconds 30 --trace 0

One process drives peftlab as a closed loop with one client: the next
operation starts when the previous one returns. Every operation's output is
checked. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced runs of the same inputs, requires their
outputs to be bitwise equal, and reports the per-layer metrics.

Standard output ends with two JSON lines: a full report (environment, all
metrics, checks, baseline quantities), then the result
``{"correct", "attempted", "failed", "metrics"}``. The report is also saved
under ``.perfbench-run/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
WORKLOAD_NAMES = ("train-lora-sparse", "score-lora", "sweep-unipelt")

# One BLAS thread: the workloads are single-threaded Python driving small
# matrices, and a second thread only adds contention noise on a small box.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# Set-up probes run in two groups, before and after the measured loop, so
# that set-up time samples both ends of the run's window.
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s",
                    "throughput": "1/s", "peak_rss_mb": "MB"}


def prepare() -> None:
    """Pin the BLAS thread count for this process and its children, and make
    peftlab and the benchmark's modules importable. Call before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> dict:
    """The highest whole percentile (nearest rank) with at least ``beyond``
    samples above it. With too few samples no percentile qualifies; the
    maximum is reported with the number of samples actually beyond it (0)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return {"percentile": 100, "value": ordered[-1], "samples": n,
                "beyond": 0}
    pct = 100 * (n - beyond) // n
    rank = max(1, -(-pct * n // 100))
    return {"percentile": pct, "value": ordered[rank - 1], "samples": n,
            "beyond": n - rank}


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "self_s")):
        return "s"
    if metric.endswith("bytes") or metric.endswith("bytes_used"):
        return "B"
    if metric.endswith(("yield", "ratio", "share", "score_reuse")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# environment


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _git_head() -> str | None:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    direct = _read(git / ref)
    if direct:
        return direct.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    threads = None
    for line in (_read(Path("/proc/self/status")) or "").splitlines():
        if line.startswith("Threads:"):
            threads = int(line.split()[1])
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "process_threads": threads,
        "git_head": _git_head(),
    }


# ---------------------------------------------------------------------------
# measurement

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import pathlib, workloads
workloads.setup_probe({name!r}, pathlib.Path({work!r}))
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, work_dir: Path) -> list[float]:
    """Set-up time of fresh processes: import peftlab, then the workload's
    first set-up (see workloads.setup_probe)."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH), name=name,
                         work=str(work_dir))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


@dataclass
class Op:
    index: int
    traced: bool
    seconds: float
    parts: dict
    problems: list = field(default_factory=list)
    rate: float | None = None
    digest: str | None = None


def run_op(wl, i: int, tracer=None, digest: bool = False) -> Op:
    """One operation plus its checks. Any exception or failed check marks
    the operation failed; its time is kept either way."""
    from workloads import Timer

    gc.collect()
    timer = Timer()
    out = None
    try:
        if tracer is None:
            out = wl.operation(i, timer)
        else:
            with tracer.installed(i):
                out = wl.operation(i, timer)
    except Exception:
        problems = [traceback.format_exc(limit=4)]
    else:
        try:
            problems = wl.check(out)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
    op = Op(i, tracer is not None, timer.seconds, dict(timer.parts), problems)
    if not problems:
        op.rate = wl.work(out, timer)
        if digest:
            op.digest = wl.digest(out)
    return op


def measure(wl, seconds: float, tracer=None) -> tuple[list[Op], list[Op]]:
    """Closed loop for ``seconds`` after one warm-up operation.

    Returns (warm-up, measured). With a tracer, each index runs untraced and
    then traced; a traced output that differs from its untraced twin fails.
    """
    warm = [run_op(wl, 0)]
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if tracer is None:
            ops.append(run_op(wl, i))
        else:
            plain = run_op(wl, i, digest=True)
            traced = run_op(wl, i, tracer, digest=True)
            if plain.digest and traced.digest and plain.digest != traced.digest:
                traced.problems.append("traced output differs from untraced")
            ops += [plain, traced]
        i += 1
    return warm, ops


def summarize(wl, args, setup: list[float], warm: list[Op], ops: list[Op],
              tracer) -> dict:
    import tracer as tracing

    everything = warm + ops
    failed = [op for op in everything if op.problems]
    plain = [op for op in ops if not op.traced]
    times = [op.seconds for op in plain]
    rates = [op.rate for op in plain if op.rate is not None]
    tail = tail_percentile(times)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": len(everything),
        "failed": len(failed),
        "error_rate": len(failed) / len(everything),
        "failures": [f"op {op.index}{' (traced)' if op.traced else ''}: "
                     f"{'; '.join(op.problems)}" for op in failed[:5]],
        "setup_s_samples": setup,
        "op_s": {"p50": statistics.median(times), **tail},
        "op_s_samples": times,
        "parts_p50_s": {part: statistics.median(op.parts.get(part, 0.0)
                                                for op in plain)
                        for part in dict.fromkeys(p for op in plain
                                                 for p in op.parts)},
        wl.throughput_name: (statistics.median(rates) * wl.throughput_scale
                             if rates else 0.0),
    }
    if hasattr(wl, "report"):
        report.update(wl.report())

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail["value"],
            "throughput": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        traced = [op for op in ops if op.traced]
        values = tracing.layer_metrics(tracer, len(traced))
        values["trace.overhead_ratio"] = (
            statistics.median(op.seconds for op in traced)
            / statistics.median(times))
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
        report["baseline"] = wl.baseline([op.parts for op in plain], tracer)
        report["spans"] = len(tracer.start)
    report["metrics"] = metrics
    return report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "peftlab" / "__init__.py").is_file():
        print(f"perfbench: peftlab sources not found under {SRC}",
              file=sys.stderr)
        return 2
    prepare()
    import tracer as tracing
    import workloads

    work = RUN_DIR / f"work-{os.getpid()}"
    results = RUN_DIR / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        setup = measure_setup(args.workload, work)
        tracer = tracing.Tracer() if args.trace else None
        warm, ops = measure(wl, args.seconds, tracer)
        setup += measure_setup(args.workload, work)
        report = summarize(wl, args, setup, warm, ops, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.save(results / f"{args.workload}-spans.npz")
    print(f"perfbench: {args.workload}: {report['attempted']} operations, "
          f"{report['failed']} failed", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
