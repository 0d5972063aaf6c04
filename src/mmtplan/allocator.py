"""Task-to-GPU assignment: a two-level warm start, then local search.

Minimizes cross-device module synchronization cost while respecting GPU
slot capacity and the curriculum-cover constraint: every GPU that hosts
any task must host at least one task active from step 0, so no device
idles early in training.

A module whose tasks sit on several nodes pays the inter-node link, so
the warm start partitions the task-module hypergraph nodes first, then
devices (the connectivity-1 objective of PaToH, Catalyurek & Aykanat
1999, with node-level coarsening as in hMETIS, Karypis et al. 1999):
whole task groups fill nodes before their tasks are cut into device
blocks.  A group is the tasks of one module, for each task the heaviest
(sharers x parameters) that still fits one node's share of the tasks:
the first coarsening level of hMETIS.  A group stays contiguous inside
its node.  Local search then moves one task at a time, which cannot
regroup a node on its own.

The cost of a placement is, per module, its parameter count times a
weighted span: W_INTRA per extra device plus (W_INTER - W_INTRA) per
extra node, that is 1 per extra device and 3 more per extra node.  The
weights are constants, not options.  Local search never recomputes that
sum: it keeps, per module, how many of the module's tasks sit on each
device and on each node, and scores a move by the change in span of the
moving task's modules only (the incremental gain update of Kernighan-Lin
and Fiduccia-Mattheyses).  `CostContext` is the one module index; its
`cost` is the full recomputation, the oracle for the incremental scores.
A run builds it once: `warm_start` and `local_search` take it and work on
placements as lists of device indices, one per task of `ctx.tasks`.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import ClusterTopology, ConfigError, DeviceId, ModuleKey, TaskSpec
from .sharing import ModuleInfo, enumerate_modules

W_INTRA = 1.0
W_INTER = 4.0
DEFAULT_BUDGET = 10000


class AllocationError(ConfigError):
    def __init__(self, message: str):
        super().__init__("allocation", message)


@dataclass(frozen=True)
class Assignment:
    placement: dict[str, DeviceId]


@dataclass(frozen=True)
class CommCost:
    total: float
    per_module: dict[ModuleKey, float]


class CostContext:
    """One task/module structure over integer ids: tasks sorted by id,
    modules sorted by key, devices in `topo.devices()` order.  Placements
    are lists of device indices, one per task.  The warm start, local
    search, `comm_cost` and the simulator all number modules through it,
    and its task order is the one order of a run's tasks."""

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        modules: Mapping[ModuleKey, ModuleInfo],
        topo: ClusterTopology,
    ):
        self.topo = topo
        self.tasks = sorted(tasks, key=lambda t: t.id)
        self.module_keys = sorted(modules)
        self.params = [float(modules[k].n_params) for k in self.module_keys]
        module_id = {k: m for m, k in enumerate(self.module_keys)}
        self.task_modules = [[module_id[k] for k in task.modules()] for task in self.tasks]
        self.dev_node = [d.node for d in topo.devices()]

    def placement_list(self, placement: Mapping[str, DeviceId]) -> list[int]:
        missing = [task.id for task in self.tasks if placement.get(task.id) is None]
        if missing:
            raise AllocationError(f"tasks without device: {', '.join(missing)}")
        out = []
        for task in self.tasks:
            dev = placement[task.id]
            if not self.topo.contains(dev):
                raise AllocationError(
                    f"task {task.id} is placed on device {dev}, outside the topology"
                )
            out.append(self.topo.flat(dev))
        return out

    def placement(self, task_dev: Sequence[int]) -> dict[str, DeviceId]:
        """The inverse of `placement_list`: task id to device."""
        devices = self.topo.devices()
        return {task.id: devices[d] for task, d in zip(self.tasks, task_dev)}

    def hosts(self, task_dev: Sequence[int]) -> list[set[int]]:
        """Per module, the set of devices hosting at least one of its tasks."""
        devs: list[set[int]] = [set() for _ in self.module_keys]
        for t, mods in enumerate(self.task_modules):
            for m in mods:
                devs[m].add(task_dev[t])
        return devs

    def node_count(self, devs: set[int]) -> int:
        return len({self.dev_node[d] for d in devs})

    def module_costs(self, task_dev: Sequence[int]) -> list[float]:
        """Full recomputation: per module, params * (W_INTRA*(|devices|-1)
        + (W_INTER-W_INTRA)*(|nodes|-1)) over the devices of its tasks."""
        out = []
        for p, ds in zip(self.params, self.hosts(task_dev)):
            if not ds:
                out.append(0.0)
                continue
            n_node = self.node_count(ds)
            out.append(p * (W_INTRA * (len(ds) - 1) + (W_INTER - W_INTRA) * (n_node - 1)))
        return out

    def cost(self, task_dev: Sequence[int]) -> float:
        return sum(self.module_costs(task_dev))


class SpanCounts:
    """Occupancy of one placement: per module, how many of its tasks sit
    on each device and on each node.  Moving a task changes a module's
    cost only where the move empties a device or node of that module or
    occupies a new one, so a relocation is scored in O(|modules(task)|).
    `task_dev` is shared with the caller and updated by `move`."""

    def __init__(self, ctx: CostContext, task_dev: list[int]):
        self.ctx = ctx
        self.task_dev = task_dev
        self.on_dev = [[0] * ctx.topo.n_devices for _ in ctx.module_keys]
        self.on_node = [[0] * ctx.topo.n_nodes for _ in ctx.module_keys]
        for t, mods in enumerate(ctx.task_modules):
            d = task_dev[t]
            node = ctx.dev_node[d]
            for m in mods:
                self.on_dev[m][d] += 1
                self.on_node[m][node] += 1

    def delta(self, t: int, dst: int) -> float:
        """Change in cost if task t moved to device dst."""
        ctx = self.ctx
        src = self.task_dev[t]
        if src == dst:
            return 0.0
        params, on_dev, on_node = ctx.params, self.on_dev, self.on_node
        ns, nd = ctx.dev_node[src], ctx.dev_node[dst]
        dev_span = node_span = 0.0
        for m in ctx.task_modules[t]:
            here = on_dev[m]
            dev_span += params[m] * ((here[dst] == 0) - (here[src] == 1))
            if ns != nd:
                here = on_node[m]
                node_span += params[m] * ((here[nd] == 0) - (here[ns] == 1))
        return W_INTRA * dev_span + (W_INTER - W_INTRA) * node_span

    def move(self, t: int, dst: int) -> None:
        ctx = self.ctx
        src = self.task_dev[t]
        ns, nd = ctx.dev_node[src], ctx.dev_node[dst]
        for m in ctx.task_modules[t]:
            here = self.on_dev[m]
            here[src] -= 1
            here[dst] += 1
            here = self.on_node[m]
            here[ns] -= 1
            here[nd] += 1
        self.task_dev[t] = dst


def comm_cost(
    a: Assignment,
    tasks: Sequence[TaskSpec],
    modules: Mapping[ModuleKey, ModuleInfo],
    topo: ClusterTopology,
) -> CommCost:
    """Synchronization cost of an assignment; total is the sum of the
    non-negative per-module contributions."""
    ctx = CostContext(tasks, modules, topo)
    per_module = ctx.module_costs(ctx.placement_list(a.placement))
    return CommCost(sum(per_module), dict(zip(ctx.module_keys, per_module)))


def initial_assignment(
    tasks: Sequence[TaskSpec], topo: ClusterTopology, seed: int = 0
) -> Assignment:
    """`warm_start` on a module index of its own."""
    ctx = CostContext(tasks, enumerate_modules(tasks), topo)
    return Assignment(ctx.placement(warm_start(ctx, seed)))


def warm_start(ctx: CostContext, seed: int) -> list[int]:
    """Two-level greedy warm start: whole task groups to nodes first, then
    signature blocks to the devices of each node.  Returns a device index
    per task of `ctx.tasks`.

    The first `used` devices in `topo.devices()` (node-major) are used, as
    many as the curriculum cover allows, with blocks of base or base+1
    tasks.  A task's group is one of its modules that not every task
    shares: the one with the largest sharers x `CostContext.params`
    (ties to the lower module id) among those with at most `limit`
    sharers, one node's share of the balanced blocks, or among all of
    them when none has.  Groups go whole into nodes best-fit-decreasing,
    largest first, each group's tasks in sharing-signature order; the
    tasks of groups that fit no node fill the remaining node capacity in
    node order.  Each node's tasks are cut, in that order, into the
    node's device blocks, so a group stays contiguous.  A block without
    a step-0 task swaps in one from a block of the same node where there
    is one.  The seed orders tasks of equal signature.  Groups, node
    lists and blocks hold indices into `ctx.tasks`."""
    topo = ctx.topo
    n = len(ctx.tasks)
    if n == 0:
        return []
    capacity = topo.n_devices * topo.n_slots_per_gpu
    if n > capacity:
        raise AllocationError(f"{n} tasks exceed {capacity} total slots")

    step0 = [t.introduce_at_training_step == 0 for t in ctx.tasks]
    n_step0 = sum(step0)
    min_gpus = math.ceil(n / topo.n_slots_per_gpu)
    if n_step0 < min_gpus:
        raise AllocationError(
            f"only {n_step0} step-0 tasks for at least {min_gpus} required GPUs: "
            "some device would idle before curriculum catch-up"
        )
    used = min(topo.n_devices, n, n_step0)

    sharers = Counter(m for mods in ctx.task_modules for m in mods)

    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    order.sort(key=lambda t: sorted(ctx.task_modules[t]))  # stable: seeded within a signature

    limit = math.ceil(n / used) * topo.n_gpus_per_node
    rank = {m: (s > limit, -s * ctx.params[m], m) for m, s in sharers.items()}
    groups: dict[int, list[int]] = {}
    for t in order:
        own = [m for m in ctx.task_modules[t] if sharers[m] < n]
        key = min(own, key=rank.__getitem__, default=-1)
        groups.setdefault(key, []).append(t)

    node = ctx.dev_node  # devices 0..used-1 are the first `used` of topo.devices()
    base, rem = divmod(n, used)
    sizes = [base + (1 if b < rem else 0) for b in range(used)]
    free = [0] * topo.n_nodes
    for d, size in enumerate(sizes):
        free[node[d]] += size
    on_node: list[list[int]] = [[] for _ in free]
    loose: list[int] = []
    for _, members in sorted(groups.items(), key=lambda g: (-len(g[1]), g[0])):
        fits = [k for k, room in enumerate(free) if room >= len(members)]
        if not fits:
            loose += members
            continue
        k = min(fits, key=free.__getitem__)
        on_node[k] += members
        free[k] -= len(members)
    for k, room in enumerate(free):
        on_node[k] += loose[:room]
        del loose[:room]

    blocks: list[list[int]] = []
    for d, size in enumerate(sizes):
        members = on_node[node[d]]
        blocks.append(members[:size])
        del members[:size]

    # repair curriculum cover: move a spare step-0 task into uncovered
    # blocks, from a block on the same node where one has a spare.  The
    # `used` blocks hold at least `used` step-0 tasks and a swap keeps that
    # total, so while block b holds none, one of the others holds two.
    n0 = [sum(step0[t] for t in block) for block in blocks]
    for b, block in enumerate(blocks):
        if n0[b]:
            continue
        donors = [o for o in range(used) if n0[o] >= 2]
        o = min(donors, key=lambda o: node[o] != node[b])
        spare = next(t for t in blocks[o] if step0[t])
        delayed = next(t for t in block if not step0[t])
        block[block.index(delayed)] = spare
        blocks[o][blocks[o].index(spare)] = delayed
        n0[b] += 1
        n0[o] -= 1

    task_dev = [0] * n
    for d, block in enumerate(blocks):
        for t in block:
            task_dev[t] = d
    return task_dev


def local_search(ctx: CostContext, task_dev: list[int], budget: int, seed: int) -> None:
    """First-improvement hill climbing over relocations and swaps of the
    placement `task_dev` (a device index per task of `ctx.tasks`), which
    it improves in place.

    A move is accepted iff it strictly decreases the communication cost
    and keeps the assignment feasible (capacity and curriculum cover).
    Candidates are drawn lazily from a seeded uniform order over the
    index space t*n_devices + d (relocations) followed by the pairs
    t1 < t2 (swaps); the order restarts after every accepted move, and
    draws that are not valid moves are skipped.  Stops at a local optimum
    (the whole order drawn without an improvement) or after `budget`
    scored moves; the result never costs more than the input.
    """
    n_tasks = len(ctx.tasks)
    n_dev = ctx.topo.n_devices
    slots = ctx.topo.n_slots_per_gpu
    spans = SpanCounts(ctx, task_dev) if budget > 0 else None

    is_step0 = [t.introduce_at_training_step == 0 for t in ctx.tasks]
    count = [0] * n_dev
    count0 = [0] * n_dev
    for t, d in enumerate(task_dev):
        count[d] += 1
        count0[d] += is_step0[t]

    def relocate_ok(t: int, dst: int) -> bool:
        src = task_dev[t]
        if count[dst] >= slots:
            return False
        s0 = 1 if is_step0[t] else 0
        if count[src] - 1 > 0 and count0[src] - s0 == 0:
            return False
        if count0[dst] + s0 == 0:
            return False
        return True

    def swap_ok(t1: int, t2: int) -> bool:
        d1, d2 = task_dev[t1], task_dev[t2]
        delta = (1 if is_step0[t2] else 0) - (1 if is_step0[t1] else 0)
        return count0[d1] + delta > 0 and count0[d2] - delta > 0

    # an accepted move must beat the rounding noise of its few summed terms
    tol = 1e-12 * max(1.0, max(ctx.params, default=0.0) * W_INTER)
    n_reloc = n_tasks * n_dev
    n_moves = n_reloc + n_tasks * (n_tasks - 1) // 2
    rng = random.Random(seed)
    evals = 0
    drawn = 0  # position in the current order
    displaced: dict[int, int] = {}  # sparse Fisher-Yates: order[i] where i is not i
    while evals < budget and drawn < n_moves:
        j = rng.randrange(drawn, n_moves)
        k = displaced.get(j, j)
        displaced[j] = displaced.get(drawn, drawn)
        drawn += 1
        if k < n_reloc:
            t, dst = divmod(k, n_dev)
            src = task_dev[t]
            if dst == src or not relocate_ok(t, dst):
                continue
            evals += 1
            if spans.delta(t, dst) < -tol:
                spans.move(t, dst)
                count[src] -= 1
                count[dst] += 1
                count0[src] -= is_step0[t]
                count0[dst] += is_step0[t]
                drawn = 0
                displaced.clear()
        else:
            k -= n_reloc
            t2 = (1 + math.isqrt(1 + 8 * k)) // 2
            t1 = k - t2 * (t2 - 1) // 2
            d1, d2 = task_dev[t1], task_dev[t2]
            if d1 == d2 or not swap_ok(t1, t2):
                continue
            evals += 1
            change = spans.delta(t1, d2)
            spans.move(t1, d2)
            change += spans.delta(t2, d1)
            if change < -tol:
                spans.move(t2, d1)
                shift = is_step0[t2] - is_step0[t1]
                count0[d1] += shift
                count0[d2] -= shift
                drawn = 0
                displaced.clear()
            else:
                spans.move(t1, d1)
