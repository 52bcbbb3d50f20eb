#!/usr/bin/env python3
"""Record the outputs the benchmark checks operations against.

    python3 perfbench/record_reference.py

Runs the train-lora-sparse and score-lora operations once per experiment
seed in ``workloads.POOL`` and writes ``reference/train.json`` (eval-loss
curves) and ``reference/scores.npy`` (score vectors, in POOL order). A
change that alters these numbers on purpose re-records them and says which.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.prepare()
    import numpy as np
    import workloads

    # Neither workload writes to its work directory.
    train = workloads.TrainLoraSparse(0, run.RUN_DIR)
    score = workloads.ScoreLora(0, run.RUN_DIR)
    curves, scores = {}, []
    for seed in workloads.POOL:
        out = train.operation(train.order.index(seed), workloads.Timer())
        curves[str(seed)] = [r.eval_loss for r in out["report"].records]
        out = score.operation(score.order.index(seed), workloads.Timer())
        scores.append(out["estimate"].scores)
    workloads.REFERENCE.mkdir(exist_ok=True)
    doc = {"environment": run.environment(), "eval_loss": curves}
    (workloads.REFERENCE / "train.json").write_text(
        json.dumps(doc, indent=2) + "\n")
    np.save(workloads.REFERENCE / "scores.npy", np.stack(scores))
    print(f"recorded {len(curves)} curves and {len(scores)} score vectors",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
