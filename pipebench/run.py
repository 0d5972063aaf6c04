#!/usr/bin/env python3
"""mmtplan pipeline benchmark.

Runs one workload's whole pipeline in this process, on one thread, with
the library calls behind `mmtplan generate meta.yaml -o full.yaml`
followed by `mmtplan simulate full.yaml`: load the meta-configuration,
generate the plan, emit it to a file and load and validate it back, then
simulate it.  Rounds of that pipeline repeat for --seconds seconds; every
round's outputs are checked by the benchmark's own code (checkers.py).

    python3 pipebench/run.py --workload plan-hub --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics, taken from spans
recorded around the calls into each layer.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checkers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SRC_TEMPLATE, TGT_TEMPLATE, WORKLOADS, Inputs, make_inputs  # noqa: E402

BATCH_TOKENS = 4096
SETUP_PER_ROUND = 2  # set-up samples taken before each untraced round
SAMPLE_S = 2.0  # an untraced round repeats a stage until its passes take this long
MAX_PASSES = 10
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import mmtplan\n"
    "from mmtplan import configgen\n"
    "configgen.load_meta_config({path!r})\n"
    "print(time.perf_counter() - t0)\n"
)
# A failure of this check is a failed operation (the hand-off lost
# information); a failure of any other check means a wrong output.
OPERATION_CHECKS = {"round_trip"}

# per-layer metric -> (span name, "total" or "self")
SPAN_METRICS = {
    "pathtmpl.discover_tasks_s": ("pathtmpl.discover_tasks", "total"),
    "clusterer.load_distance_matrix_s": ("clusterer.load_distance_matrix", "total"),
    "clusterer.cluster_languages_s": ("clusterer.cluster_languages", "total"),
    "sharing.build_module_sequence_s": ("sharing.build_module_sequence", "total"),
    "sharing.enumerate_modules_s": ("sharing.enumerate_modules", "total"),
    "allocator.initial_assignment_s": ("allocator.initial_assignment", "total"),
    "allocator.local_search_s": ("allocator.local_search", "total"),
    "core.validate_config_s": ("core.validate_config", "total"),
    "configgen.load_meta_config_s": ("configgen.load_meta_config", "total"),
    "configgen.generate_self_s": ("configgen.generate", "self"),
    "configgen.emit_s": ("configgen.emit", "total"),
    "configgen.parse_s": ("configgen.parse", "total"),
    "syncsim.multiplex_s": ("syncsim.multiplex", "total"),
    "syncsim.forward_s": ("syncsim.forward", "total"),
    "syncsim.local_backward_s": ("syncsim.local_backward", "total"),
    "syncsim.sync_step_s": ("syncsim.sync_step", "total"),
    "syncsim.run_benchmark_self_s": ("syncsim.run_benchmark", "self"),
}


@dataclass
class CostWatch:
    """Reads the allocator's evaluations and accepted moves from the
    results of `CostContext.cost`: per context, the first call prices the
    start placement and every later call one candidate move, accepted
    when it strictly lowers the best cost so far (local search's rule)."""

    best: dict = field(default_factory=dict)
    evaluations: int = 0
    accepted: int = 0

    def __call__(self, args: tuple, result: float) -> None:
        ctx = args[0]
        if ctx not in self.best:
            self.best[ctx] = result
            return
        self.evaluations += 1
        if result < self.best[ctx] - 1e-12:
            self.best[ctx] = result
            self.accepted += 1


def import_program():
    if not os.path.isfile(os.path.join(SRC, "mmtplan", "__init__.py")):
        sys.exit(f"pipebench: no program source at {SRC}/mmtplan; run from a full checkout")
    sys.path.insert(0, SRC)
    import mmtplan
    from mmtplan import allocator, configgen, core, syncsim

    if os.path.dirname(os.path.realpath(mmtplan.__file__)) != os.path.realpath(
        os.path.join(SRC, "mmtplan")
    ):
        sys.exit(f"pipebench: imported mmtplan from {mmtplan.__file__}, not from {SRC}")
    return allocator, configgen, core, syncsim


def setup_once(meta_path: str) -> float:
    """Import mmtplan and load the meta-configuration in a fresh
    interpreter; returns the time the child measured for both."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET.format(path=meta_path)],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def install_tracer(allocator, configgen, core, syncsim, watch: CostWatch) -> Tracer:
    tracer = Tracer()
    for owner, attr, name in (
        (configgen, "load_meta_config", "configgen.load_meta_config"),
        (configgen, "generate", "configgen.generate"),
        (configgen, "discover_tasks", "pathtmpl.discover_tasks"),
        (configgen, "load_distance_matrix", "clusterer.load_distance_matrix"),
        (configgen, "cluster_languages", "clusterer.cluster_languages"),
        (configgen, "build_module_sequence", "sharing.build_module_sequence"),
        (configgen, "enumerate_modules", "sharing.enumerate_modules"),
        (syncsim, "enumerate_modules", "sharing.enumerate_modules"),
        (allocator, "initial_assignment", "allocator.initial_assignment"),
        (allocator, "local_search", "allocator.local_search"),
        (configgen, "validate_config", "core.validate_config"),
        (core, "validate_config", "core.validate_config"),
        (configgen, "emit", "configgen.emit"),
        (configgen, "parse", "configgen.parse"),
        (syncsim, "run_benchmark", "syncsim.run_benchmark"),
        (syncsim, "multiplex", "syncsim.multiplex"),
        (syncsim, "forward", "syncsim.forward"),
        (syncsim, "local_backward", "syncsim.local_backward"),
        (syncsim, "sync_step", "syncsim.sync_step"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(getattr(allocator, "CostContext", None), "cost", "allocator.cost_eval", watch)
    return tracer


@dataclass
class Round:
    traced: bool
    times: dict[str, float]  # first pass of each stage
    samples: dict[str, list[float]]  # every pass of each timed stage
    checks: dict[str, list[str]]
    layer: dict[str, float] = field(default_factory=dict)
    counts: dict[str, object] = field(default_factory=dict)


def sample(stage, repeat: bool):
    """Run `stage` once, then, if `repeat`, again until its passes add up
    to SAMPLE_S or MAX_PASSES: a short stage is timed more than once per
    round, so its median is not set by a few moments of a noisy machine.
    Returns the first result, every pass's time, and whether every pass
    returned a result equal to the first."""
    t = time.perf_counter()
    first = stage()
    times = [time.perf_counter() - t]
    same = True
    while repeat and sum(times) < SAMPLE_S and len(times) < MAX_PASSES:
        t = time.perf_counter()
        again = stage()
        times.append(time.perf_counter() - t)
        same = same and again == first
    return first, times, same


def run_round(mods, inp: Inputs, plan_path: str, tracer: Tracer | None,
              watch: CostWatch | None) -> Round:
    """One pass of the pipeline, with short stages repeated in untraced
    rounds, followed by the checks of its outputs."""
    allocator, configgen, core, syncsim = mods
    w = inp.workload
    repeat = tracer is None

    def hand_off():
        text = configgen.emit(cfg)
        with open(plan_path, "w") as f:
            f.write(text)
        parsed = configgen.load_full_config(plan_path)
        return text, parsed, core.validate_config(list(parsed.tasks.values()), parsed.topology)

    def simulate():
        return syncsim.run_benchmark(
            list(parsed.tasks.values()), parsed.topology, steps=w.sim_steps, seed=meta.seed,
            accum_count=w.accum_count, batch_tokens=BATCH_TOKENS,
        )

    if tracer is not None:
        tracer.clear()
        tracer.recording = True
    t0 = time.perf_counter()
    meta = configgen.load_meta_config(inp.meta_path)
    load_s = time.perf_counter() - t0
    cfg, plan_t, same_plan = sample(lambda: configgen.generate(meta), repeat)
    (text, parsed, violations), hand_t, same_hand = sample(hand_off, repeat)
    (ledger, _), sim_t, same_sim = sample(simulate, repeat)
    if tracer is not None:
        tracer.recording = False

    tasks = list(parsed.tasks.values())
    final = {t.id: t.device for t in tasks}
    initial = allocator.initial_assignment(tasks, parsed.topology, seed=meta.seed).placement
    round_trip, re_emit = checkers.check_round_trip(cfg, text, parsed, configgen.emit)
    ledger_checks = checkers.check_ledger(
        ledger, tasks, w.n_gpus_per_node, w.sim_steps, w.accum_count, BATCH_TOKENS)
    checks = {
        "task_set": checkers.check_task_set(parsed.tasks, inp.pairs, SRC_TEMPLATE, TGT_TEMPLATE),
        "module_names": checkers.check_module_names(tasks, w.enc, w.dec, inp.groups, w.adapters),
        "weights_curriculum": checkers.check_weights(
            tasks, inp.line_counts, w.temperature, inp.curriculum),
        "feasibility": checkers.check_feasibility(
            tasks, w.n_nodes, w.n_gpus_per_node, w.n_slots_per_gpu),
        "validate_config": violations,
        "objective": checkers.check_objective(tasks, final, initial),
        "round_trip": round_trip,
        "re_emit_bytes": re_emit,
        "repeatable": [f"a repeated {stage} returned another result"
                       for stage, same in (("generate", same_plan), ("hand-off", same_hand),
                                           ("simulation", same_sim)) if not same],
        **ledger_checks,
        "sync_oracle": checkers.check_sync_oracle(
            syncsim, tasks, w.n_gpus_per_node, seed=inp.seed),
    }
    samples = {
        "plan_s": plan_t,
        "emit_parse_s": hand_t,
        "sim_step_ms": [1000.0 * t / w.sim_steps for t in sim_t],
    }
    times = {
        "load_meta_s": load_s,
        "plan_s": plan_t[0],
        "emit_parse_s": hand_t[0],
        "sim_step_ms": samples["sim_step_ms"][0],
        "total_s": load_s + plan_t[0] + hand_t[0] + sim_t[0],
        "passes": len(plan_t) + len(hand_t) + len(sim_t),
        "plan_sync_ms": checkers.plan_sync_ms(tasks, parsed.topology),
    }
    devices = set(final.values())
    counts = {
        "tasks": len(tasks),
        "modules": len(checkers.hosting_groups(tasks, w.n_gpus_per_node)),
        "devices_used": len(devices),
        "batches_multiplexed": w.sim_steps * len(devices) * w.accum_count,
        "yaml_bytes": len(text.encode()),
    }
    rnd = Round(tracer is not None, times, samples, checks, counts=counts)
    if tracer is not None:
        rnd.layer, extra = layer_metrics(tracer, watch, meta.search_budget)
        rnd.layer["allocator.cost_final"] = checkers.span_cost(tasks, final)
        rnd.layer["configgen.yaml_kb"] = len(text.encode()) / 1024
        rnd.layer["syncsim.grad_mb_per_step"] = ledger.total_grad_bytes / w.sim_steps / 1e6
        rnd.layer["syncsim.modeled_comm_fraction"] = ledger.comm_fraction
        rnd.counts.update(extra)
    return rnd


def layer_metrics(tracer: Tracer, watch: CostWatch, budget: int) -> tuple[dict, dict]:
    total, own, calls = tracer.totals()
    layer = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        if span in tracer.wrapped:
            layer[metric] = (own if kind == "self" else total).get(span, 0.0)
    counts = {"calls": dict(sorted(calls.items()))}
    if "allocator.cost_eval" in tracer.wrapped:
        n = calls.get("allocator.cost_eval", 0)
        layer["allocator.cost_eval_us"] = 1e6 * total.get("allocator.cost_eval", 0.0) / n if n else 0.0
        layer["allocator.accept_ratio"] = (
            watch.accepted / watch.evaluations if watch.evaluations else 0.0)
        counts.update(
            cost_evaluations=watch.evaluations,
            accepted_moves=watch.accepted,
            local_search_stop="budget" if watch.evaluations >= budget else "local_optimum",
        )
    # stage shares that explain why each workload was chosen
    gen = total.get("configgen.generate", 0.0)
    if gen:
        counts["share_of_plan"] = {
            s: round(total.get(s, 0.0) / gen, 4)
            for s in ("allocator.local_search", "clusterer.cluster_languages",
                      "pathtmpl.discover_tasks")
        }
    watch.best.clear()
    watch.evaluations = watch.accepted = 0
    return layer, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    mods = import_program()
    workdir = os.path.join(HERE, "work", args.workload)
    inp = make_inputs(WORKLOADS[args.workload], args.seed, workdir)
    plan_path = os.path.join(workdir, "full.yaml")
    setup_once(inp.meta_path)  # warm-up: compiles bytecode, fills the file cache

    watch = CostWatch()
    tracer = install_tracer(*mods, watch) if args.trace else None
    rounds: list[Round] = []
    setup_samples: list[float] = []
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if tracer is None:
                setup_samples += [setup_once(inp.meta_path) for _ in range(SETUP_PER_ROUND)]
            gc.collect()
            rounds.append(run_round(mods, inp, plan_path, tracer if traced else None, watch))
            if time.perf_counter() - start >= args.seconds and (
                tracer is None or len(rounds) % 2 == 0
            ):
                break
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    attempted = failed = 0
    correct = True
    for i, rnd in enumerate(rounds):
        for name, problems in rnd.checks.items():
            attempted += 1
            if problems:
                failed += 1
                correct = correct and name in OPERATION_CHECKS
                for p in problems[:5]:
                    print(f"round {i} check {name}: {p}", file=sys.stderr)

    plain = [r for r in rounds if not r.traced]
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for key in ("plan_s", "emit_parse_s", "sim_step_ms"):
            values[key] = statistics.median([t for r in plain for t in r.samples[key]])
        values["plan_sync_ms"] = statistics.median([r.times["plan_sync_ms"] for r in plain])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        counts = plain[-1].counts
    else:
        traced = [r for r in rounds if r.traced]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {
            key: statistics.median([r.layer[key] for r in traced])
            for key in units if key in traced[0].layer
        }
        values["trace.overhead_s"] = (statistics.median([r.times["total_s"] for r in traced])
                                      - statistics.median([r.times["total_s"] for r in plain]))
        counts = traced[-1].counts
        absent = sorted(k for k in units if k not in values)
        if absent:
            print(f"absent (wrapped name no longer exists): {', '.join(absent)}")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  ({len(plain)} untraced)  checks {attempted - failed}/{attempted} passed")
    for i, rnd in enumerate(rounds):
        print(f"  round {i}{' traced' if rnd.traced else ''}: " + "  ".join(
            f"{k} {v:.4g}" for k, v in rnd.times.items()))
    for key, value in values.items():
        print(f"  {key:36s} {value:14.6g} {units[key]}")
    print("counts " + json.dumps(counts, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
