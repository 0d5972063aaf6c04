"""Desk-scale simulation of modular distributed training.

`run_benchmark` models the communication of each optimizer step from the
multiplexing trace alone: which tasks each device drew decides which
shared modules all-reduce their gradients, and a ring allreduce cost
model turns the ledger's bytes into time.  Modules hosted on a single
device never communicate at all.  No gradient value enters the ledger.

Batches are drawn by one rule, `multiplex`'s: a draw table per curriculum
phase (`draw_table`: the active tasks' running weight sums and their
integer total) and a bisection into it.  `run_benchmark` keeps one table
per device and rebuilds it only at the steps where one of the device's
tasks is introduced, so a step costs one rng call, one bisection and a
few additions per batch.

The synchronization rule itself has a tensor-level reference: simulated
devices run a toy linear-chain model over the real task/module structure,
and `sync_step` sums a shared module's gradients across the devices
hosting it and renormalizes by the number of devices that actually used
the module this step.  A single-process oracle, `oracle_reference`,
computes the same quantity without any simulated communication and
serves as ground truth.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .allocator import CostContext
from .core import ClusterTopology, ConfigError, ModuleKey, TaskSpec, task_id
from .sharing import ArchSpec, SharingPattern, build_module_sequence, enumerate_modules

GRAD_BYTES_PER_PARAM = 4  # float32 on the wire
READY_ENTRY_BYTES = 4
COMPUTE_SEC_PER_TOKEN_LAYER = 2e-9


class SimulationError(ConfigError):
    def __init__(self, message: str):
        super().__init__("simulation", message)


@dataclass
class ToyModel:
    """Stand-in for the real network: one d x d weight matrix per module,
    a linear chain forward pass and a quadratic loss against `target`.
    Analytic gradients keep oracle and finite-difference checks exact."""

    dim: int
    weights: dict[ModuleKey, np.ndarray]
    target: np.ndarray

    @classmethod
    def random(
        cls, modules: Iterable[ModuleKey], dim: int = 4, seed: int = 0
    ) -> "ToyModel":
        rng = np.random.default_rng(seed)
        keys = sorted(set(modules))
        weights = {k: rng.standard_normal((dim, dim)) / np.sqrt(dim) for k in keys}
        target = rng.standard_normal(dim)
        return cls(dim, weights, target)


def forward(model: ToyModel, chain: Sequence[ModuleKey], x: np.ndarray) -> list[np.ndarray]:
    """Hidden states h_0..h_w of the module chain; h_0 is the input."""
    if not chain:
        raise SimulationError("a task must use at least one module")
    if x.shape != (model.dim,):
        raise SimulationError(f"input shape {x.shape} != ({model.dim},)")
    states = [x]
    for key in chain:
        states.append(model.weights[key] @ states[-1])
    return states


def loss(model: ToyModel, h_final: np.ndarray) -> float:
    diff = h_final - model.target
    return 0.5 * float(diff @ diff)


def local_backward(
    model: ToyModel, chain: Sequence[ModuleKey], states: Sequence[np.ndarray]
) -> dict[ModuleKey, np.ndarray]:
    """Analytic chain-rule gradients, negated: returns -dL/dW per module
    in the chain.  Modules hosted but unused simply do not appear."""
    delta = states[-1] - model.target
    grads: dict[ModuleKey, np.ndarray] = {}
    for i in range(len(chain) - 1, -1, -1):
        key = chain[i]
        g = -np.outer(delta, states[i])
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g
        delta = model.weights[key].T @ delta
    return grads


@dataclass
class DeviceState:
    """One simulated device: the modules it hosts (union over its tasks'
    sequences), a local gradient buffer per hosted module and the set of
    modules used this step."""

    index: int
    hosted: frozenset[ModuleKey]
    dim: int
    buffers: dict[ModuleKey, np.ndarray] = field(default_factory=dict)
    used: set[ModuleKey] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.buffers:
            self.buffers = {
                k: np.zeros((self.dim, self.dim)) for k in sorted(self.hosted)
            }

    def accumulate(self, grads: Mapping[ModuleKey, np.ndarray]) -> None:
        for key, g in grads.items():
            if key not in self.hosted:
                raise SimulationError(f"gradient for unhosted module {key}")
            self.buffers[key] += g
            self.used.add(key)


def sync_step(devices: Sequence[DeviceState]) -> dict[ModuleKey, np.ndarray]:
    """Synchronize gradients across devices, module by module.

    For each module the communication group is the set of hosting devices;
    the synchronized value is the sum of their buffers divided by the
    number of devices that used the module this step, installed on every
    group member.  An unused module stays zero (no division), and a module
    hosted on a single device skips communication entirely.  Summation
    order is ascending device index, so results are bit-deterministic.
    """
    ordered = sorted(devices, key=lambda d: d.index)
    if len({d.index for d in ordered}) != len(ordered):
        raise SimulationError("duplicate device index")
    dims = {d.dim for d in ordered}
    if len(dims) > 1:
        raise SimulationError("inconsistent module dimensions across devices")

    all_modules = sorted(set().union(*(d.hosted for d in ordered)))
    synced: dict[ModuleKey, np.ndarray] = {}
    for key in all_modules:
        group = [d for d in ordered if key in d.hosted]
        n = sum(1 for d in group if key in d.used)
        if n == 0:
            synced[key] = np.zeros_like(group[0].buffers[key])
            continue
        total = np.zeros_like(group[0].buffers[key])
        for dev in group:
            total += dev.buffers[key]
        total /= n
        synced[key] = total
        for dev in group:
            dev.buffers[key] = total.copy()
    return synced


def oracle_reference(
    model: ToyModel,
    runs: Sequence[tuple[int, Sequence[ModuleKey], np.ndarray]],
    hosted: Mapping[int, frozenset[ModuleKey]],
) -> dict[ModuleKey, np.ndarray]:
    """Single-process ground truth for sync_step.

    `runs` lists every (device index, module chain, input) executed this
    step.  Per module: sum gradients within each device, then divide the
    cross-device sum by the number of *devices* that used the module (not
    the number of tasks).
    """
    per_device: dict[int, dict[ModuleKey, np.ndarray]] = {i: {} for i in hosted}
    for dev_index, chain, x in runs:
        states = forward(model, chain, x)
        for key, g in local_backward(model, chain, states).items():
            acc = per_device[dev_index]
            acc[key] = acc.get(key, np.zeros_like(g)) + g

    modules = sorted(set().union(*hosted.values())) if hosted else []
    result: dict[ModuleKey, np.ndarray] = {}
    for key in modules:
        n = sum(1 for i in per_device if key in per_device[i])
        if n == 0:
            result[key] = np.zeros((model.dim, model.dim))
            continue
        total = np.zeros((model.dim, model.dim))
        for i in sorted(per_device):
            if key in per_device[i]:
                total += per_device[i][key]
        result[key] = total / n
    return result


def draw_table(
    tasks: Sequence[TaskSpec], step: int
) -> tuple[list[int], list[float], int]:
    """The multiplexer's draw table at `step`: the positions in `tasks` of
    the tasks active there (curriculum-delayed tasks are excluded until
    their introduction step), the running float sums of their weights
    (0.0 + w1 + w2 ...) and the exact integer total of those weights.

    A draw takes the first running sum above `rng.random() * total`, or
    the last entry should rounding leave the draw past every sum.  The
    integer total, not the float sum `cum[-1]`, scales the draw: past
    2**53 the two differ."""
    active = [k for k, t in enumerate(tasks) if t.introduce_at_training_step <= step]
    cum: list[float] = []
    acc = 0.0
    for k in active:
        acc += tasks[k].weight
        cum.append(acc)
    return active, cum, sum(tasks[k].weight for k in active)


def multiplex(
    tasks: Sequence[TaskSpec], step: int, rng: random.Random
) -> TaskSpec:
    """Weighted choice among the tasks active at `step`; curriculum-delayed
    tasks are excluded until their introduction step."""
    tasks = sorted(tasks, key=lambda t: t.id)
    active, cum, total = draw_table(tasks, step)
    if not active:
        raise SimulationError(f"no active task at step {step}")
    k = bisect_right(cum, rng.random() * total)
    return tasks[active[min(k, len(cum) - 1)]]


class Reservoir:
    """Classic single-pass reservoir sample of fixed capacity: after n
    items every item is retained with probability capacity/n."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._seen = 0
        self.items: list = []

    def add(self, item) -> None:
        self._seen += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            j = self._rng.randrange(self._seen)
            if j < self.capacity:
                self.items[j] = item


def reservoir_batch(stream: Iterable, capacity: int, seed: int = 0) -> list:
    res = Reservoir(capacity, seed)
    for item in stream:
        res.add(item)
    return res.items


def ring_allreduce_time(payload_bytes: float, group: int, alpha: float, beta: float) -> float:
    """Ring allreduce: 2(g-1) latency hops plus 2(g-1)/g of the payload
    over the bandwidth."""
    if group < 2:
        return 0.0
    return 2 * (group - 1) * alpha + 2 * (group - 1) / group * payload_bytes / beta


@dataclass
class StepRecord:
    step: int
    ready_bytes: int
    grad_bytes: int
    comm_time: float
    compute_time: float
    tokens: int


@dataclass
class CommLedger:
    records: list[StepRecord] = field(default_factory=list)

    @property
    def total_tokens(self) -> int:
        return sum(r.tokens for r in self.records)

    @property
    def total_time(self) -> float:
        return sum(r.comm_time + r.compute_time for r in self.records)

    @property
    def total_grad_bytes(self) -> int:
        return sum(r.grad_bytes for r in self.records)

    @property
    def total_ready_bytes(self) -> int:
        return sum(r.ready_bytes for r in self.records)

    @property
    def comm_fraction(self) -> float:
        total = self.total_time
        return sum(r.comm_time for r in self.records) / total if total > 0 else 0.0

    @property
    def tokens_per_sec(self) -> float:
        total = self.total_time
        return self.total_tokens / total if total > 0 else 0.0

    def to_tsv(self) -> str:
        lines = ["step\tready_bytes\tgrad_bytes\tcomm_time\tcompute_time\ttokens"]
        for r in self.records:
            lines.append(
                f"{r.step}\t{r.ready_bytes}\t{r.grad_bytes}"
                f"\t{r.comm_time:.9e}\t{r.compute_time:.9e}\t{r.tokens}"
            )
        return "\n".join(lines) + "\n"


def run_benchmark(
    tasks: Sequence[TaskSpec],
    topo: ClusterTopology,
    steps: int,
    seed: int = 0,
    accum_count: int = 1,
    batch_tokens: int = 4096,
) -> tuple[CommLedger, dict]:
    """Model the communication and compute of optimizer steps over an
    allocated configuration, from the multiplexing trace alone.

    Each step, every device draws `accum_count` batches by `multiplex`'s
    rule, from a draw table that is rebuilt only at the steps where one of
    its tasks is introduced.  Each module hosted on two or more devices
    all-reduces its ready flags, and its gradient too if a drawn task used
    it; the ring allreduce model charges the worst link class its device
    group spans.  Compute time is COMPUTE_SEC_PER_TOKEN_LAYER * tokens *
    layers on the slowest device.  The order of `tasks` is not an input:
    the run follows `CostContext.tasks`.
    """
    modules = enumerate_modules(tasks)
    ctx = CostContext(tasks, modules, topo)
    for task, mods in zip(ctx.tasks, ctx.task_modules):
        if not mods:
            raise SimulationError(f"task {task.id} must use at least one module")
    task_dev = ctx.placement_list({t.id: t.device for t in ctx.tasks})
    by_device: dict[int, list[int]] = {}
    for t, i in enumerate(task_dev):
        by_device.setdefault(i, []).append(t)
    dev_indices = sorted(by_device)

    # Modules hosted on 2+ devices, in sorted-key order so that comm_time
    # sums its terms in a fixed order: (id, gradient bytes, ready-flag
    # time, gradient time).  Single-device modules never communicate.
    shared: list[tuple[int, int, float, float]] = []
    ready_bytes = 0
    for m, devs in enumerate(ctx.hosts(task_dev)):
        g = len(devs)
        if g < 2:
            continue
        spans_nodes = ctx.node_count(devs) > 1
        alpha = topo.alpha_inter if spans_nodes else topo.alpha_intra
        beta = topo.beta_inter if spans_nodes else topo.beta_intra
        payload = GRAD_BYTES_PER_PARAM * modules[ctx.module_keys[m]].n_params
        ready_bytes += READY_ENTRY_BYTES * g
        ready_time = ring_allreduce_time(READY_ENTRY_BYTES, g, alpha, beta)
        grad_time = ring_allreduce_time(payload, g, alpha, beta)
        shared.append((m, payload, ready_time, grad_time))

    # Per task, once: the compute time of one batch and its modules as a
    # bitmask over module ids.
    term = [
        COMPUTE_SEC_PER_TOKEN_LAYER * batch_tokens * (sum(t.enc_layers) + sum(t.dec_layers))
        for t in ctx.tasks
    ]
    mask = []
    for mods in ctx.task_modules:
        bits = 0
        for m in mods:
            bits |= 1 << m
        mask.append(bits)

    def table(j: int, step: int) -> tuple[list[float], int, list[float], list[int]]:
        """Device j's draw table at `step`, with the compute terms and
        masks of its active tasks in table order."""
        ids = by_device[dev_indices[j]]
        active, cum, total = draw_table([ctx.tasks[t] for t in ids], step)
        if not active and accum_count > 0:
            raise SimulationError(
                f"no active task on device {topo.devices()[dev_indices[j]]} at step {step}"
            )
        picked = [ids[k] for k in active]
        return cum, total, [term[t] for t in picked], [mask[t] for t in picked]

    # The steps at which device j's table is built: step 0, then each step
    # inside the run at which one of its tasks is introduced.
    rebuild: dict[int, set[int]] = {0: set(range(len(dev_indices)))} if steps > 0 else {}
    for j, i in enumerate(dev_indices):
        for t in by_device[i]:
            intro = ctx.tasks[t].introduce_at_training_step
            if 0 < intro < steps:
                rebuild.setdefault(intro, set()).add(j)

    draws = [random.Random(f"{seed}:{i}:mux").random for i in dev_indices]
    tables: list = [None] * len(dev_indices)
    tokens = batch_tokens * accum_count * len(dev_indices)
    ledger = CommLedger()
    for step in range(steps):
        for j in sorted(rebuild.get(step, ())):
            tables[j] = table(j, step)
        used = 0
        compute_per_device = []
        for rand, (cum, total, terms, masks) in zip(draws, tables):
            compute = 0.0
            last = len(cum) - 1
            for _ in range(accum_count):
                # `draw_table`'s draw rule, as in `multiplex`
                k = bisect_right(cum, rand() * total)
                if k > last:
                    k = last
                used |= masks[k]
                compute += terms[k]
            compute_per_device.append(compute)

        grad_bytes = 0
        comm_time = 0.0
        for m, payload, ready_time, grad_time in shared:
            comm_time += ready_time
            if used >> m & 1:
                grad_bytes += payload
                comm_time += grad_time

        ledger.records.append(
            StepRecord(
                step=step,
                ready_bytes=ready_bytes,
                grad_bytes=grad_bytes,
                comm_time=comm_time,
                compute_time=max(compute_per_device, default=0.0),
                tokens=tokens,
            )
        )

    summary = {
        "steps": steps,
        "devices": len(dev_indices),
        "tasks": len(ctx.tasks),
        "modules": len(modules),
        "total_tokens": ledger.total_tokens,
        "total_time_sec": ledger.total_time,
        "tokens_per_sec": ledger.tokens_per_sec,
        "comm_time_fraction": ledger.comm_fraction,
        "grad_allreduce_bytes": ledger.total_grad_bytes,
        "ready_sync_bytes": ledger.total_ready_bytes,
    }
    return ledger, summary


def synthetic_uniform_tasks(
    arch_kind: str, n_gpus: int, topo: ClusterTopology
) -> list[TaskSpec]:
    """Uniform benchmark workload: one task per GPU, identical load, with
    the sharing scheme selected by `arch_kind`.  Task i works on its own
    synthetic language, so the independent scheme shares nothing."""
    archs = {
        "independent": ArchSpec(
            ((SharingPattern.LANGUAGE, 6),), ((SharingPattern.LANGUAGE, 6),)
        ),
        "partially_shared": ArchSpec(
            ((SharingPattern.LANGUAGE, 4), (SharingPattern.FULL, 4)),
            ((SharingPattern.LANGUAGE, 4),),
        ),
        "fully_shared": ArchSpec(
            ((SharingPattern.FULL, 9),), ((SharingPattern.FULL, 4),)
        ),
    }
    if arch_kind not in archs:
        raise ValueError(f"unknown architecture kind: {arch_kind}")
    arch = archs[arch_kind]
    devices = topo.devices()
    if n_gpus > len(devices):
        raise ValueError("more tasks than GPUs in topology")

    tasks = []
    for i in range(n_gpus):
        lang = f"l{i:02d}"
        enc, dec, enc_layers, dec_layers = build_module_sequence(arch, lang, lang)
        tasks.append(
            TaskSpec(
                id=task_id(lang, lang),
                src_lang=lang,
                tgt_lang=lang,
                src_path=f"synthetic/{lang}.src",
                tgt_path=f"synthetic/{lang}.tgt",
                enc_modules=enc,
                dec_modules=dec,
                enc_layers=enc_layers,
                dec_layers=dec_layers,
                device=devices[i],
            )
        )
    return tasks


def scaling_experiment(
    arch_kind: str,
    gpu_counts: Sequence[int],
    n_gpus_per_node: int = 4,
    steps: int = 5,
    seed: int = 0,
) -> dict[int, float]:
    """Scaling efficiency E(k) = throughput(k) / (k * throughput(1)) for
    the uniform workload, where the task count grows proportionally to the
    GPU count (one task per GPU)."""

    def throughput(k: int) -> float:
        n_nodes = max(1, -(-k // n_gpus_per_node))
        topo = ClusterTopology(
            n_nodes=n_nodes, n_gpus_per_node=n_gpus_per_node, n_slots_per_gpu=1
        )
        tasks = synthetic_uniform_tasks(arch_kind, k, topo)
        ledger, _ = run_benchmark(tasks, topo, steps=steps, seed=seed)
        return ledger.tokens_per_sec

    base = throughput(1)
    return {k: throughput(k) / (k * base) for k in gpu_counts}
