"""Command-line entry point.

Subcommands: generate (compile a meta-configuration), allocate (re-run
device allocation on a full configuration), simulate (run the training
simulator), validate (check a full configuration).  Exit codes: 0 on
success, 1 on validation/pipeline failure, 2 on usage errors.  A failure
prints one line, `error: [stage] message`, to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import allocator, configgen
from .core import ConfigError
from .sharing import enumerate_modules


def _cmd_generate(args) -> int:
    cfg = configgen.generate(configgen.load_meta_config(args.meta))
    if args.output:
        configgen.write_full_config(cfg, args.output)
    else:
        sys.stdout.buffer.write(configgen.emit(cfg).encode("utf-8"))
    return 0


def _cmd_allocate(args) -> int:
    cfg = configgen.load_full_config(args.config)
    tasks = list(cfg.tasks.values())
    ctx = allocator.CostContext(tasks, enumerate_modules(tasks), cfg.topology)
    task_dev = ctx.placement_list({t.id: t.device for t in tasks})
    print(f"cost before: {ctx.cost(task_dev):.6g}")
    allocator.local_search(ctx, task_dev, args.budget, args.seed)
    print(f"cost after:  {ctx.cost(task_dev):.6g}")
    if args.output:
        placed = {t: cfg.tasks[t].with_device(d) for t, d in ctx.placement(task_dev).items()}
        configgen.write_full_config(dataclasses.replace(cfg, tasks=placed), args.output)
    return 0


def _cmd_simulate(args) -> int:
    from . import syncsim  # only here: it loads numpy
    cfg = configgen.load_full_config(args.config)
    ledger, summary = syncsim.run_benchmark(
        list(cfg.tasks.values()),
        cfg.topology,
        steps=args.steps,
        seed=args.seed,
        accum_count=args.accum_count,
    )
    if args.report:
        os.makedirs(args.report, exist_ok=True)
        with open(os.path.join(args.report, "ledger.tsv"), "w") as f:
            f.write(ledger.to_tsv())
        with open(os.path.join(args.report, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    return 0


def _cmd_validate(args) -> int:
    cfg = configgen.load_full_config(args.config)
    print(f"{args.config}: OK ({len(cfg.tasks)} tasks)")
    return 0


def _count(low: int):
    """argparse type: an integer of at least `low`."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtplan",
        description="Planner and simulator for modular multilingual training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="compile a meta-configuration")
    p.add_argument("meta", help="meta-configuration YAML file")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("allocate", help="re-run device allocation")
    p.add_argument("config", help="full configuration YAML file")
    p.add_argument("-o", "--output", help="write re-allocated configuration here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_count(0), default=allocator.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("simulate", help="run the training simulator")
    p.add_argument("config", help="full configuration YAML file")
    p.add_argument("--steps", type=_count(0), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--accum-count", type=_count(1), default=1)
    p.add_argument("--report", help="directory for ledger.tsv and summary.json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="validate a full configuration")
    p.add_argument("config", help="full configuration YAML file")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        message = str(exc)
    except OSError as exc:
        message = f"[io] {exc}"
    # one line per failure, whatever the message (YAML errors span several)
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
