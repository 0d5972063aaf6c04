"""Desk-scale simulation of modular distributed training.

`run_benchmark` models the communication of each optimizer step from the
multiplexing trace alone: which tasks each device drew decides which
shared modules all-reduce their gradients, and a ring allreduce cost
model turns the ledger's bytes into time.  Modules hosted on a single
device never communicate at all.  No gradient value enters the ledger.

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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ClusterTopology, ModuleKey, TaskSpec
from .sharing import enumerate_modules

GRAD_BYTES_PER_PARAM = 4  # float32 on the wire
READY_ENTRY_BYTES = 4


class SimulationError(RuntimeError):
    pass


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

    def reset(self) -> None:
        for buf in self.buffers.values():
            buf[:] = 0.0
        self.used.clear()

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


def multiplex(
    tasks: Sequence[TaskSpec], step: int, rng: random.Random
) -> TaskSpec:
    """Weighted choice among the tasks active at `step`; curriculum-delayed
    tasks are excluded until their introduction step."""
    active = [t for t in sorted(tasks, key=lambda t: t.id) if t.introduce_at_training_step <= step]
    if not active:
        raise SimulationError(f"no active task at step {step}")
    total = sum(t.weight for t in active)
    r = rng.random() * total
    acc = 0.0
    for task in active:
        acc += task.weight
        if r < acc:
            return task
    return active[-1]


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
    compute_coeff: float = 2e-9,
) -> tuple[CommLedger, dict]:
    """Model the communication and compute of optimizer steps over an
    allocated configuration, from the multiplexing trace alone.

    Each step, every device draws `accum_count` batches via the task
    multiplexer.  Each module hosted on two or more devices all-reduces its
    ready flags, and its gradient too if a drawn task used it; the ring
    allreduce model charges the worst link class its device group spans.
    Compute time is coeff * tokens * layers on the slowest device.
    """
    tasks = sorted(tasks, key=lambda t: t.id)
    for t in tasks:
        if t.device is None:
            raise SimulationError(f"task {t.id} has no device assignment")
        if not t.modules():
            raise SimulationError(f"task {t.id} must use at least one module")

    modules = enumerate_modules(tasks)
    keys = sorted(modules)
    module_id = {key: m for m, key in enumerate(keys)}
    task_modules = {t.id: frozenset(module_id[k] for k in t.modules()) for t in tasks}
    chain_layers = {t.id: sum(t.enc_layers) + sum(t.dec_layers) for t in tasks}

    by_device: dict[int, list[TaskSpec]] = {}
    hosts: list[set[int]] = [set() for _ in keys]
    for t in tasks:
        i = topo.flat(t.device)
        by_device.setdefault(i, []).append(t)
        for m in task_modules[t.id]:
            hosts[m].add(i)
    dev_indices = sorted(by_device)

    # Modules hosted on 2+ devices, in sorted-key order so that comm_time
    # sums its terms in a fixed order: (id, gradient bytes, ready-flag
    # time, gradient time).  Single-device modules never communicate.
    shared: list[tuple[int, int, float, float]] = []
    ready_bytes = 0
    for m, key in enumerate(keys):
        g = len(hosts[m])
        if g < 2:
            continue
        spans_nodes = len({i // topo.n_gpus_per_node for i in hosts[m]}) > 1
        alpha = topo.alpha_inter if spans_nodes else topo.alpha_intra
        beta = topo.beta_inter if spans_nodes else topo.beta_intra
        payload = GRAD_BYTES_PER_PARAM * modules[key].n_params
        ready_bytes += READY_ENTRY_BYTES * g
        ready_time = ring_allreduce_time(READY_ENTRY_BYTES, g, alpha, beta)
        grad_time = ring_allreduce_time(payload, g, alpha, beta)
        shared.append((m, payload, ready_time, grad_time))

    mux_rngs = {i: random.Random(f"{seed}:{i}:mux") for i in dev_indices}

    ledger = CommLedger()
    for step in range(steps):
        used: set[int] = set()
        compute_per_device = []
        for i in dev_indices:
            compute = 0.0
            for _ in range(accum_count):
                task = multiplex(by_device[i], step, mux_rngs[i])
                used |= task_modules[task.id]
                compute += compute_coeff * batch_tokens * chain_layers[task.id]
            compute_per_device.append(compute)

        grad_bytes = 0
        comm_time = 0.0
        for m, payload, ready_time, grad_time in shared:
            comm_time += ready_time
            if m in used:
                grad_bytes += payload
                comm_time += grad_time

        ledger.records.append(
            StepRecord(
                step=step,
                ready_bytes=ready_bytes,
                grad_bytes=grad_bytes,
                comm_time=comm_time,
                compute_time=max(compute_per_device, default=0.0),
                tokens=batch_tokens * accum_count * len(dev_indices),
            )
        )

    summary = {
        "steps": steps,
        "devices": len(dev_indices),
        "tasks": len(tasks),
        "modules": len(modules),
        "total_tokens": ledger.total_tokens,
        "total_time_sec": ledger.total_time,
        "tokens_per_sec": ledger.tokens_per_sec,
        "comm_time_fraction": ledger.comm_fraction,
        "grad_allreduce_bytes": ledger.total_grad_bytes,
        "ready_sync_bytes": ledger.total_ready_bytes,
    }
    return ledger, summary


SCALING_ARCHS = ("independent", "partially_shared", "fully_shared")


def synthetic_uniform_tasks(
    arch_kind: str, n_gpus: int, topo: ClusterTopology
) -> list[TaskSpec]:
    """Uniform benchmark workload: one task per GPU, identical load, with
    the sharing scheme selected by `arch_kind`.  Task i works on its own
    synthetic language, so the independent scheme shares nothing."""
    from .core import task_id
    from .sharing import ArchSpec, SharingPattern, build_module_sequence

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
    **benchmark_kwargs,
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
        ledger, _ = run_benchmark(tasks, topo, steps=steps, seed=seed, **benchmark_kwargs)
        return ledger.tokens_per_sec

    base = throughput(1)
    return {k: throughput(k) / (k * base) for k in gpu_counts}
