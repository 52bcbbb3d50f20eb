"""Command-line front end.

Subcommands mirror the pipeline stages: ``gen-data`` writes a dataset,
``fisher`` estimates and stores scores, ``mask`` selects and stores a mask,
``train`` runs the full pipeline, ``eval`` re-scores a checkpoint,
``compare`` sweeps strategies x budgets x seeds, and ``report`` renders
stored run reports as text. Flags override the config file; every command
reads ``--strategy``, ``--budget`` and ``--seed`` alike, as comma lists that
``compare`` sweeps and every other command takes one value of. Exit codes:
0 success; 1 a usage error or a config value its own field rule refuses;
2 a runtime failure. A value that can only be checked against the built
model or the data (a rank above a weight's smaller dimension, a target
layer the model lacks) fails in its pipeline stage, exits 2, and the
message names that stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import config as config_mod
from .checkpoint import (atomic_write_text, load_checkpoint, save_mask,
                         save_scores)
from .config import ExperimentConfig
from .errors import ConfigError, PeftLabError
from .experiment import (_SCORED, _make_task, _run_config, _select_mask,
                         _setup, compare_strategies, comparison_tsv,
                         run_experiment)
from .optim import evaluate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peftlab",
        description="Sparse-within-adapter training experiments.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, help_text: str, needs_cfg: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_cfg:
            p.add_argument("--config", metavar="PATH",
                           help="JSON experiment config (defaults apply "
                                "when omitted)")
            p.add_argument("--method", help="adapter method override")
            p.add_argument("--strategy",
                           help="selection strategy (comma list for compare)")
            p.add_argument("--budget",
                           help="trainable fraction of the flat view "
                                "(comma list for compare)")
            p.add_argument("--rank", type=int, help="low-rank width override")
            p.add_argument("--prefix-len", type=int, dest="prefix_len",
                           help="prefix length override")
            p.add_argument("--layers",
                           help="comma list of target layers, counted "
                                "from the top")
            p.add_argument("--seed",
                           help="experiment seed (comma list for compare)")
            p.add_argument("--epochs", type=int, help="epoch count override")
            p.add_argument("--lr", type=float, help="learning rate override")
            p.add_argument("--out", metavar="DIR", help="output directory")
        return p

    add("gen-data", "generate a task dataset and write it as JSON lines")
    add("fisher", "estimate per-coordinate scores and persist them")
    add("mask", "select a sparsity mask and persist it")
    add("train", "run the full experiment pipeline")
    p_eval = add("eval", "evaluate a stored checkpoint on its own task",
                 needs_cfg=False)
    p_eval.add_argument("checkpoint", help="checkpoint file to evaluate")
    add("compare", "sweep strategies x budgets x seeds into a table")
    p_rep = add("report", "render stored run reports as text", needs_cfg=False)
    p_rep.add_argument("paths", nargs="+",
                       help="report.json files or run directories")
    return parser


def _parse_list(text: str, what: str, kind: type) -> tuple:
    """The comma list ``text`` of the flag ``what`` as ``kind`` values."""
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{what}: expected comma-separated {noun}, "
                          f"got '{text}'") from None


def _single(values: tuple, what: str):
    if len(values) != 1:
        raise ConfigError(f"{what}: exactly one value expected, got "
                          f"{len(values)}")
    return values[0]


def _load_config(args) -> ExperimentConfig:
    """The config file, or the defaults, with every flag but the sweep axes
    (--strategy, --budget, --seed) folded over it."""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        cfg = config_mod.from_json(text)
    else:
        cfg = ExperimentConfig()

    peft_kw = {}
    if args.method is not None:
        peft_kw["method"] = args.method
    if args.rank is not None:
        peft_kw["rank"] = args.rank
    if args.prefix_len is not None:
        peft_kw["prefix_len"] = args.prefix_len
    if args.layers is not None:
        peft_kw["target_layers"] = _parse_list(args.layers, "--layers", int)
    if peft_kw:
        cfg = dataclasses.replace(
            cfg, peft=dataclasses.replace(cfg.peft, **peft_kw))

    train_kw = {}
    if args.epochs is not None:
        train_kw["epochs"] = args.epochs
    if args.lr is not None:
        train_kw["lr"] = args.lr
    if train_kw:
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, **train_kw))

    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _axes(cfg: ExperimentConfig, args) -> tuple[tuple, tuple, tuple]:
    """--strategy, --budget and --seed as comma lists. An absent flag gives
    the config's own strategy or budget, and no seed: (None,)."""
    def axis(text, flag, kind, own):
        return (own,) if text is None else _parse_list(text, flag, kind)
    return (axis(args.strategy, "--strategy", str, cfg.mask.strategy),
            axis(args.budget, "--budget", float, cfg.mask.budget),
            axis(args.seed, "--seed", int, None))


def _single_config(args) -> ExperimentConfig:
    """The config of a single-run command: one value of each sweep axis."""
    cfg = _load_config(args)
    return _run_config(cfg, *map(_single, _axes(cfg, args),
                                 ("--strategy", "--budget", "--seed")))


def _out_dir(cfg: ExperimentConfig) -> str:
    if cfg.out_dir is None:
        raise ConfigError("this command needs an output directory "
                          "(--out or config out_dir)")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _cmd_gen_data(args) -> int:
    cfg = _single_config(args)
    out = _out_dir(cfg)
    lines = []
    for split, data in zip(("train", "eval"), _make_task(cfg)):
        for row, label in zip(data.token_ids, data.labels):
            lines.append(json.dumps({"tokens": [int(t) for t in row],
                                     "label": int(label), "split": split}))
    path = os.path.join(out, "dataset.jsonl")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} examples to {path}")
    return 0


def _cmd_fisher(args) -> int:
    cfg = _single_config(args)
    out = _out_dir(cfg)
    estimate = _setup(cfg, True)[3]
    path = os.path.join(out, "scores.bin")
    save_scores(path, estimate)
    print(f"wrote {len(estimate)} scores ({estimate.num_samples} samples) "
          f"to {path}")
    return 0


def _cmd_mask(args) -> int:
    cfg = _single_config(args)
    out = _out_dir(cfg)
    _, _, module, estimate = _setup(cfg, cfg.mask.strategy in _SCORED)
    if estimate is not None:
        save_scores(os.path.join(out, "scores.bin"), estimate)
    n = module.theta_tilde().length
    mask = _select_mask(cfg, n, estimate)
    path = os.path.join(out, "mask.bin")
    save_mask(path, mask)
    print(f"wrote {mask.strategy} mask (k={mask.k} of {n}) to {path}")
    return 0


def _cmd_train(args) -> int:
    cfg = _single_config(args)
    report = run_experiment(cfg)
    print(f"strategy={report.strategy} seed={report.seed} "
          f"final_eval_loss={report.final_eval_loss:.6f} "
          f"final_eval_accuracy={report.final_eval_accuracy:.6f} "
          f"diverged={report.diverged}")
    if cfg.out_dir is not None:
        print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    loss, acc = evaluate(state.model, _make_task(state.cfg)[1])
    print(json.dumps({"eval_loss": loss, "eval_accuracy": acc,
                      "config_hash": state.config_hash}, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    strategies, budgets, seeds = _axes(cfg, args)
    if seeds == (None,):
        own = (cfg.model.seed, cfg.task.seed, cfg.mask.seed, cfg.train.seed)
        if len(set(own)) > 1:
            raise ConfigError("compare needs --seed, which sets all four of "
                              "the config's model, task, mask and train "
                              f"seeds {own}")
        seeds = own[:1]
    runs = compare_strategies(cfg, strategies, budgets, seeds)
    sys.stdout.write(comparison_tsv(runs))
    failed = {k: r for k, r in runs.items() if isinstance(r, PeftLabError)}
    for (strategy, budget, seed), e in failed.items():
        print(f"run ({strategy}, {budget:g}, seed {seed}) failed: {e}",
              file=sys.stderr)
    return 2 if failed else 0


def _sparkline(values) -> str:
    """One glyph per value, scaled over the finite values; a non-finite
    value (a diverged run's NaN loss) is drawn as ``!``."""
    glyphs = " .:-=+*#%@"
    finite = [v for v in values if math.isfinite(v)] or [0.0]
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    return "".join(glyphs[int((v - lo) / span * (len(glyphs) - 1))]
                   if math.isfinite(v) else "!" for v in values)


def _loss(stored) -> float:
    """A loss as report.json stores it: null is a non-finite loss."""
    return math.nan if stored is None else stored


def _cmd_report(args) -> int:
    docs = []
    for path in args.paths:
        if os.path.isdir(path):
            path = os.path.join(path, "report.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append((path, json.load(fh)))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read report '{path}': {e}") from e
    rows = []
    for path, doc in docs:
        try:
            curve = [_loss(r["eval_loss"]) for r in doc["records"]]
            rows.append(f"{doc['strategy']}\t{doc['seed']}\t{doc['k']}\t"
                        f"{doc['ratio2']:.6f}\t"
                        f"{_loss(doc['final_eval_loss']):.4f}\t"
                        f"{doc['final_eval_accuracy']:.4f}\t"
                        f"{_sparkline(curve)}")
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"'{path}' is not a run report") from e
    print("strategy\tseed\tk\tratio2\tfinal_loss\tfinal_acc\teval-loss curve")
    print("\n".join(rows))
    return 0


_COMMANDS = {"gen-data": _cmd_gen_data, "fisher": _cmd_fisher,
             "mask": _cmd_mask, "train": _cmd_train, "eval": _cmd_eval,
             "compare": _cmd_compare, "report": _cmd_report}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PeftLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
