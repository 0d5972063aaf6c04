"""Output checks made apart from the program.

Every checker returns a list of human-readable problems; an empty list
means the output passed.  The checkers read only the plain fields of the
program's outputs (task ids, group names, devices, ledger records) and
recompute what those fields must be from the benchmark's own inputs and
formulas, so a fault shared by the program and its own validators still
shows.  The two exceptions are named as such: the round trip calls
`emit`/`parse`, and the synchronization check compares the simulator's
`sync_step` against its single-process oracle.
"""
from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# Parameters of one d=512, 8-head, ffn=2048 transformer layer: four d x d
# attention projections, two d x ffn feed-forward matrices, four norm scales.
PARAMS_PER_LAYER = 4 * 512 * 512 + 2 * 512 * 2048 + 4 * 512
GRAD_BYTES_PER_PARAM = 4  # float32 gradients on the wire
READY_BYTES_PER_DEVICE = 4  # one ready flag per group member
# The allocator's documented span weights (per extra device, per extra node).
W_INTRA = 1.0
W_INTER = 4.0
SYNC_RTOL = 1e-9


def _module_layers(tasks: Iterable) -> dict[tuple, int]:
    layers = {}
    for t in tasks:
        for m, n in zip(t.enc_modules + t.dec_modules, t.enc_layers + t.dec_layers):
            layers[(m.side.value, m.position, m.group)] = n
    return layers


def hosting_groups(tasks: Iterable, n_gpus_per_node: int) -> dict[tuple, set[int]]:
    """Module -> flat indices of the devices whose tasks use it."""
    groups: dict[tuple, set[int]] = defaultdict(set)
    for t in tasks:
        flat = t.device.node * n_gpus_per_node + t.device.gpu
        for m in t.enc_modules + t.dec_modules:
            groups[(m.side.value, m.position, m.group)].add(flat)
    return groups


def _ring_allreduce_s(payload: float, g: int, alpha: float, beta: float) -> float:
    return 2 * (g - 1) * alpha + 2 * (g - 1) / g * payload / beta


def plan_sync_ms(tasks: Sequence, topo) -> float:
    """Modeled allreduce time (ms) of one step in which every module is
    used: ring allreduce (Thakur, Rabenseifner & Gropp 2005) of each
    module's float32 gradients over its hosting devices, with the
    inter-node latency and bandwidth when those devices span nodes."""
    layers = _module_layers(tasks)
    total = 0.0
    for key, devs in hosting_groups(tasks, topo.n_gpus_per_node).items():
        g = len(devs)
        if g < 2:
            continue
        spans = len({d // topo.n_gpus_per_node for d in devs}) > 1
        alpha = topo.alpha_inter if spans else topo.alpha_intra
        beta = topo.beta_inter if spans else topo.beta_intra
        payload = GRAD_BYTES_PER_PARAM * layers[key] * PARAMS_PER_LAYER
        total += _ring_allreduce_s(payload, g, alpha, beta)
    return 1000.0 * total


def span_cost(tasks: Sequence, placement: Mapping[str, object]) -> float:
    """The allocator's objective: per module, its parameter count times
    W_INTRA per extra device plus (W_INTER - W_INTRA) per extra node."""
    layers = _module_layers(tasks)
    devs: dict[tuple, set[tuple[int, int]]] = defaultdict(set)
    for t in tasks:
        d = placement[t.id]
        for m in t.enc_modules + t.dec_modules:
            devs[(m.side.value, m.position, m.group)].add((d.node, d.gpu))
    total = 0.0
    for key, ds in devs.items():
        n_nodes = len({node for node, _ in ds})
        span = W_INTRA * (len(ds) - 1) + (W_INTER - W_INTRA) * (n_nodes - 1)
        total += layers[key] * PARAMS_PER_LAYER * span
    return total


def check_task_set(tasks: Mapping[str, object], pairs: Sequence[tuple[str, str]],
                   src_template: str, tgt_template: str) -> list[str]:
    """The tasks are exactly the pairs laid out on disk, with the paths
    the templates give for them."""
    expected = {f"train_{s}-{t}": (s, t) for s, t in pairs}
    problems = [f"missing task {tid}" for tid in sorted(expected.keys() - tasks.keys())]
    problems += [f"unexpected task {tid}" for tid in sorted(tasks.keys() - expected.keys())]
    for tid in sorted(expected.keys() & tasks.keys()):
        s, t = expected[tid]
        task = tasks[tid]
        pair = f"{s}-{t}"
        fields = dict(src_lang=s, tgt_lang=t, lang_pair=pair)
        if (task.src_lang, task.tgt_lang) != (s, t):
            problems.append(f"task {tid}: languages {task.src_lang}-{task.tgt_lang}")
        if task.src_path != src_template.format(**fields):
            problems.append(f"task {tid}: source path {task.src_path}")
        if task.tgt_path != tgt_template.format(**fields):
            problems.append(f"task {tid}: target path {task.tgt_path}")
    return problems


def expected_group(pattern: str, side: str, src: str, tgt: str,
                   groups: Mapping[str, str] | None) -> str:
    """Group name a sharing pattern prescribes for one task and side."""
    lang = {
        "SRC_LANGUAGE": src, "SRC_GROUP": src,
        "TGT_LANGUAGE": tgt, "TGT_GROUP": tgt,
        "LANGUAGE": src if side == "encoder" else tgt,
        "GROUP": src if side == "encoder" else tgt,
    }.get(pattern)
    if lang is None:
        return "full"
    if pattern.endswith("GROUP"):
        return groups[lang] if groups and lang in groups else "<no group>"
    return lang


def check_module_names(tasks: Iterable, enc: Sequence[tuple[str, int]],
                       dec: Sequence[tuple[str, int]],
                       groups: Mapping[str, str] | None,
                       adapters: Sequence[Mapping] = ()) -> list[str]:
    """Every module (and adapter instance) carries the group name its
    sharing pattern prescribes; `groups` is the planted family naming."""
    problems = []
    for t in tasks:
        for side, stacks, mods, layers in (
            ("encoder", enc, t.enc_modules, t.enc_layers),
            ("decoder", dec, t.dec_modules, t.dec_layers),
        ):
            got = [(m.side.value, m.position, m.group) for m in mods]
            want = [(side, i, expected_group(p, side, t.src_lang, t.tgt_lang, groups))
                    for i, (p, _) in enumerate(stacks)]
            if got != want:
                problems.append(f"task {t.id}: {side} modules {got}, expected {want}")
            if tuple(layers) != tuple(n for _, n in stacks):
                problems.append(f"task {t.id}: {side} layer counts {tuple(layers)}")
        want_adapters = {
            (a["name"], f'{a["name"]}:'
             f'{expected_group(a["pattern"], a["side"], t.src_lang, t.tgt_lang, groups)}')
            for a in adapters
        }
        if set(t.adapters) != want_adapters or len(t.adapters) != len(want_adapters):
            problems.append(f"task {t.id}: adapters {t.adapters}, expected {sorted(want_adapters)}")
    return problems


def expected_weight(count: int, c_min: int, temperature: float) -> int:
    """Temperature smoothing relative to the smallest corpus, rounded half up."""
    return max(1, math.floor((count / c_min) ** (1.0 / temperature) + 0.5))


def expected_step(count: int, stages: Sequence[Mapping]) -> int:
    """Start step of the earliest stage whose size threshold the corpus is under."""
    for stage in sorted(stages, key=lambda s: s["start_step"]):
        if count < stage["below_lines"]:
            return stage["start_step"]
    return 0


def check_weights(tasks: Iterable, line_counts: Mapping[str, int], temperature: float,
                  stages: Sequence[Mapping]) -> list[str]:
    tasks = list(tasks)
    c_min = min(line_counts[t.id] for t in tasks)
    problems = []
    for t in tasks:
        w = expected_weight(line_counts[t.id], c_min, temperature)
        if t.weight != w:
            problems.append(f"task {t.id}: weight {t.weight}, expected {w}")
        s = expected_step(line_counts[t.id], stages)
        if t.introduce_at_training_step != s:
            problems.append(f"task {t.id}: introduced at {t.introduce_at_training_step}, expected {s}")
    return problems


def check_feasibility(tasks: Iterable, n_nodes: int, n_gpus_per_node: int,
                      n_slots_per_gpu: int) -> list[str]:
    """Every task is on a device of the topology, no device holds more
    tasks than it has slots, and every used device has a task active
    from step 0."""
    problems = []
    hosted: dict[tuple[int, int], list] = defaultdict(list)
    for t in tasks:
        d = t.device
        if d is None:
            problems.append(f"task {t.id}: no device")
        elif not (0 <= d.node < n_nodes and 0 <= d.gpu < n_gpus_per_node):
            problems.append(f"task {t.id}: device {d.node}:{d.gpu} outside the topology")
        else:
            hosted[(d.node, d.gpu)].append(t)
    for dev, ts in sorted(hosted.items()):
        if len(ts) > n_slots_per_gpu:
            problems.append(f"device {dev}: {len(ts)} tasks on {n_slots_per_gpu} slots")
        if all(t.introduce_at_training_step > 0 for t in ts):
            problems.append(f"device {dev}: no task active from step 0")
    return problems


def check_objective(tasks: Sequence, final: Mapping[str, object],
                    initial: Mapping[str, object]) -> list[str]:
    """Local search never returns a plan costlier than its warm start."""
    c_final, c_initial = span_cost(tasks, final), span_cost(tasks, initial)
    if c_final > c_initial * (1 + 1e-12):
        return [f"final objective {c_final:.9g} above the warm start's {c_initial:.9g}"]
    return []


def check_round_trip(cfg, text: str, parsed, emit: Callable[[object], str]) -> tuple[list[str], list[str]]:
    """parse(emit(cfg)) == cfg, and emit(parse(emit(cfg))) == emit(cfg).
    Returned separately: the first is a known fault on some inputs."""
    equal = [] if parsed == cfg else ["parse(emit(cfg)) != cfg"]
    same_bytes = [] if emit(parsed) == text else ["re-emitting the parsed plan changes its bytes"]
    return equal, same_bytes


def check_ledger(ledger, tasks: Sequence, n_gpus_per_node: int, steps: int,
                 accum_count: int, batch_tokens: int) -> dict[str, list[str]]:
    """Token total, ready-sync bytes and gradient bytes of every step,
    against the hosting groups of the plan."""
    groups = hosting_groups(tasks, n_gpus_per_node)
    layers = _module_layers(tasks)
    n_devices = len(set().union(*groups.values())) if groups else 0
    multi = {k: len(v) for k, v in groups.items() if len(v) >= 2}
    ready = READY_BYTES_PER_DEVICE * sum(multi.values())
    payload = {k: GRAD_BYTES_PER_PARAM * layers[k] * PARAMS_PER_LAYER for k in multi}
    full_share = sum(v for k, v in payload.items() if k[2] == "full")
    all_sum = sum(payload.values())

    tokens = steps * n_devices * accum_count * batch_tokens
    got_tokens = sum(r.tokens for r in ledger.records)
    out: dict[str, list[str]] = {"token_total": [], "ready_bytes": [], "grad_bytes": []}
    if len(ledger.records) != steps:
        out["token_total"].append(f"{len(ledger.records)} ledger records for {steps} steps")
    if got_tokens != tokens:
        out["token_total"].append(f"token total {got_tokens}, expected {tokens}")
    for r in ledger.records:
        if r.ready_bytes != ready:
            out["ready_bytes"].append(f"step {r.step}: ready bytes {r.ready_bytes}, expected {ready}")
        if not full_share <= r.grad_bytes <= all_sum:
            out["grad_bytes"].append(
                f"step {r.step}: gradient bytes {r.grad_bytes} outside [{full_share}, {all_sum}]")
    return out


def check_sync_oracle(syncsim, tasks: Sequence, n_gpus_per_node: int, seed: int,
                      steps: int = 2, batches: int = 2, dim: int = 4) -> list[str]:
    """On the plan's device/module layout, the simulator's module-wise
    synchronization equals its single-process oracle to SYNC_RTOL."""
    by_dev: dict[int, list] = defaultdict(list)
    for t in sorted(tasks, key=lambda t: t.id):
        by_dev[t.device.node * n_gpus_per_node + t.device.gpu].append(t)
    hosted = {i: frozenset(m for t in ts for m in t.modules()) for i, ts in by_dev.items()}
    model = syncsim.ToyModel.random(set().union(*hosted.values()), dim=dim, seed=seed)
    rng = random.Random(seed)
    data = np.random.default_rng(seed)
    problems = []
    for step in range(steps):
        devices = [syncsim.DeviceState(i, hosted[i], dim) for i in sorted(by_dev)]
        runs = []
        for dev in devices:
            for _ in range(batches):
                chain = list(rng.choice(by_dev[dev.index]).modules())
                x = data.standard_normal(dim)
                states = syncsim.forward(model, chain, x)
                dev.accumulate(syncsim.local_backward(model, chain, states))
                runs.append((dev.index, chain, x))
        synced = syncsim.sync_step(devices)
        ref = syncsim.oracle_reference(model, runs, hosted)
        if synced.keys() != ref.keys():
            problems.append(f"step {step}: synchronized modules differ from the oracle's")
            continue
        for key in sorted(ref):
            err = float(np.max(np.abs(synced[key] - ref[key])))
            scale = float(np.max(np.abs(ref[key])))
            if err > SYNC_RTOL * scale:
                problems.append(f"step {step}: module {key} off by {err:.3g} (scale {scale:.3g})")
    return problems
