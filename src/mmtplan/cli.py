"""Command-line entry point.

Subcommands: generate (compile a meta-configuration), allocate (re-run
device allocation on a full configuration), simulate (run the training
simulator), validate (check a full configuration).  Exit codes: 0 on
success, 1 on validation/pipeline failure, 2 on usage errors.  A failure
prints one line, `error: [stage] message`, to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import allocator, configgen, syncsim
from .core import validate_config
from .sharing import enumerate_modules


def _cmd_generate(args) -> int:
    meta = configgen.load_meta_config(args.meta)
    if args.seed is not None:
        from dataclasses import replace

        meta = replace(meta, seed=args.seed)
    cfg = configgen.generate(meta)
    text = configgen.emit(cfg)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_valid_config(path: str) -> configgen.FullConfig:
    """Load a full configuration; every violation of `validate_config`
    ends up in one `ConfigError` of stage "validation"."""
    cfg = configgen.load_full_config(path)
    violations = validate_config(list(cfg.tasks.values()), cfg.topology)
    if violations:
        raise configgen.ConfigError("validation", "; ".join(violations))
    return cfg


def _cmd_allocate(args) -> int:
    cfg = _load_valid_config(args.config)
    tasks = list(cfg.tasks.values())
    missing = [t.id for t in tasks if t.device is None]
    if missing:
        raise configgen.ConfigError(
            "allocation", f"tasks without device: {', '.join(missing)}"
        )
    modules = enumerate_modules(tasks)
    before = allocator.Assignment({t.id: t.device for t in tasks})
    cost_before = allocator.comm_cost(
        before, tasks, modules, cfg.topology, args.w_intra, args.w_inter
    )
    after = allocator.local_search(
        before,
        tasks,
        modules,
        cfg.topology,
        budget=args.budget,
        seed=args.seed,
        w_intra=args.w_intra,
        w_inter=args.w_inter,
    )
    cost_after = allocator.comm_cost(
        after, tasks, modules, cfg.topology, args.w_intra, args.w_inter
    )
    print(f"cost before: {cost_before.total:.6g}")
    print(f"cost after:  {cost_after.total:.6g}")
    if args.output:
        placed = {
            tid: task.with_device(after.placement[tid])
            for tid, task in cfg.tasks.items()
        }
        new_cfg = configgen.FullConfig(
            placed, cfg.enc_layers, cfg.dec_layers, cfg.topology
        )
        configgen.write_full_config(new_cfg, args.output)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_valid_config(args.config)
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
    cfg = _load_valid_config(args.config)
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
    p.add_argument("--seed", type=int, default=None, help="override the meta seed")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("allocate", help="re-run device allocation")
    p.add_argument("config", help="full configuration YAML file")
    p.add_argument("-o", "--output", help="write re-allocated configuration here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=allocator.DEFAULT_BUDGET)
    p.add_argument("--w-intra", type=float, default=allocator.DEFAULT_W_INTRA)
    p.add_argument("--w-inter", type=float, default=allocator.DEFAULT_W_INTER)
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
    except configgen.ConfigError as exc:
        message = str(exc)
    except allocator.AllocationError as exc:
        message = f"[allocation] {exc}"
    except syncsim.SimulationError as exc:
        message = f"[simulation] {exc}"
    except OSError as exc:
        message = f"[io] {exc}"
    # one line per failure, whatever the message (YAML errors span several)
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
