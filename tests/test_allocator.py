import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtplan.allocator import (
    W_INTER,
    AllocationError,
    Assignment,
    CostContext,
    SpanCounts,
    comm_cost,
    initial_assignment,
    warm_start,
)
from mmtplan.core import ClusterTopology, DeviceId, ModuleKey, Side, validate_config
from mmtplan.sharing import GroupMapError, ModuleInfo, enumerate_modules

from conftest import make_task, modules_at, search


def random_instance(seed, n_tasks, topo, n_groups=3, allow_delayed=True):
    """Random tasks over a small pool of sharing groups."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n_tasks):
        src = f"s{i:02d}"
        tgt = f"t{i:02d}"
        enc = [f"e{rng.randrange(n_groups)}", "full"]
        dec = [f"d{rng.randrange(n_groups)}"]
        intro = 0
        if allow_delayed and rng.random() < 0.3:
            intro = 1000
        tasks.append(make_task(src, tgt, enc, dec, intro=intro))
    # guarantee feasibility: at least one step-0 task per possibly-used GPU
    n_step0 = sum(1 for t in tasks if t.introduce_at_training_step == 0)
    needed = -(-n_tasks // topo.n_slots_per_gpu)
    i = 0
    while n_step0 < needed:
        if tasks[i].introduce_at_training_step > 0:
            tasks[i] = make_task(
                tasks[i].src_lang, tasks[i].tgt_lang,
                [m.group for m in tasks[i].enc_modules],
                [m.group for m in tasks[i].dec_modules],
            )
            n_step0 += 1
        i += 1
    return tasks


def placed(a, tasks):
    """The tasks with the devices of assignment `a`, for `validate_config`."""
    return [t.with_device(a.placement[t.id]) for t in tasks]


def feasible_placements(tasks, topo):
    for combo in itertools.product(topo.devices(), repeat=len(tasks)):
        a = Assignment({t.id: d for t, d in zip(tasks, combo)})
        if validate_config(placed(a, tasks), topo) == []:
            yield a


class TestCommCost:
    def test_single_task_single_gpu(self):
        topo = ClusterTopology(1, 1, 1)
        t = make_task("aa", "bb", ["x"], ["y"], device=(0, 0))
        a = Assignment({t.id: DeviceId(0, 0)})
        cost = comm_cost(a, [t], modules_at([t], 100), topo)
        assert cost.total == 0.0

    def test_independent_tasks_cost_zero(self):
        topo = ClusterTopology(1, 4, 1)
        tasks = [
            make_task(f"s{i}", f"t{i}", [f"s{i}"], [f"t{i}"]) for i in range(4)
        ]
        a = Assignment({t.id: DeviceId(0, i) for i, t in enumerate(tasks)})
        cost = comm_cost(a, tasks, modules_at(tasks, 100), topo)
        assert cost.total == 0.0

    def test_full_module_two_gpus_one_node(self):
        topo = ClusterTopology(1, 2, 1)
        t1 = make_task("aa", "bb", ["full"], ["d1"])
        t2 = make_task("bb", "aa", ["full"], ["d2"])
        a = Assignment({t1.id: DeviceId(0, 0), t2.id: DeviceId(0, 1)})
        modules = modules_at([t1, t2], 100)
        cost = comm_cost(a, [t1, t2], modules, topo)
        # 100 * (1*(2-1) + (4-1)*(1-1))
        assert cost.total == 100.0
        assert cost.per_module[ModuleKey(Side.ENCODER, 0, "full")] == 100.0

    def test_inter_node_span_weighted(self):
        topo = ClusterTopology(2, 1, 1)
        t1 = make_task("aa", "bb", ["full"], ["d1"])
        t2 = make_task("bb", "aa", ["full"], ["d2"])
        a = Assignment({t1.id: DeviceId(0, 0), t2.id: DeviceId(1, 0)})
        modules = modules_at([t1, t2], 100)
        # 100 * (1*1 + 3*1) = 400 for the shared encoder
        assert comm_cost(a, [t1, t2], modules, topo).total == 400.0

    def test_total_is_sum_of_contributions(self):
        topo = ClusterTopology(2, 2, 2)
        tasks = random_instance(11, 6, topo)
        a = initial_assignment(tasks, topo)
        cost = comm_cost(a, tasks, modules_at(tasks, 10), topo)
        assert cost.total == pytest.approx(sum(cost.per_module.values()))
        assert all(v >= 0 for v in cost.per_module.values())

    def test_device_relabeling_invariance(self):
        # cost depends only on co-location structure
        topo = ClusterTopology(2, 2, 2)
        tasks = random_instance(5, 6, topo, allow_delayed=False)
        modules = modules_at(tasks, 10)
        a = initial_assignment(tasks, topo)
        base = comm_cost(a, tasks, modules, topo).total
        # swap the gpu labels within each node, then swap the two nodes
        relabeled = {
            tid: DeviceId(1 - d.node, 1 - d.gpu) for tid, d in a.placement.items()
        }
        assert comm_cost(Assignment(relabeled), tasks, modules, topo).total == base


class TestIncrementalCost:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_tasks=st.integers(2, 9))
    def test_delta_matches_full_recompute(self, data, n_tasks):
        # after any sequence of relocations and swaps, the running sum of
        # incremental scores equals the full recomputation
        topo = ClusterTopology(3, 2, 2)
        tasks = random_instance(data.draw(st.integers(0, 10**6)), n_tasks, topo)
        params = st.integers(1, 10**6)
        modules = {
            k: ModuleInfo(m.n_layers, data.draw(params))
            for k, m in enumerate_modules(tasks).items()
        }
        ctx = CostContext(tasks, modules, topo)
        device = st.integers(0, topo.n_devices - 1)
        task = st.integers(0, n_tasks - 1)
        task_dev = [data.draw(device) for _ in tasks]
        spans = SpanCounts(ctx, task_dev)
        cost = ctx.cost(task_dev)
        scale = sum(ctx.params) * W_INTER
        moves = st.one_of(
            st.tuples(st.just("relocate"), task, device),
            st.tuples(st.just("swap"), task, task),
        )
        for kind, x, y in data.draw(st.lists(moves, max_size=30)):
            if kind == "relocate":
                cost += spans.delta(x, y)
                spans.move(x, y)
            else:
                d1, d2 = task_dev[x], task_dev[y]
                cost += spans.delta(x, d2)
                spans.move(x, d2)
                cost += spans.delta(y, d1)
                spans.move(y, d1)
            assert cost == pytest.approx(ctx.cost(task_dev), rel=1e-9, abs=1e-9 * scale)


class TestInitialAssignment:
    def test_forced_one_per_gpu(self):
        topo = ClusterTopology(1, 4, 1)
        tasks = [make_task(f"s{i}", "zz", ["full"], ["full"]) for i in range(4)]
        a = initial_assignment(tasks, topo)
        assert len(set(a.placement.values())) == 4

    def test_balanced_packing(self):
        topo = ClusterTopology(1, 4, 2)
        tasks = [make_task(f"s{i}", "zz", ["full"], ["full"]) for i in range(8)]
        a = initial_assignment(tasks, topo)
        counts = {}
        for dev in a.placement.values():
            counts[dev] = counts.get(dev, 0) + 1
        assert sorted(counts.values()) == [2, 2, 2, 2]

    def test_capacity_error(self):
        topo = ClusterTopology(1, 4, 1)
        tasks = [make_task(f"s{i}", "zz", ["full"], ["full"]) for i in range(5)]
        with pytest.raises(AllocationError):
            initial_assignment(tasks, topo)

    def test_curriculum_cover_infeasible(self):
        topo = ClusterTopology(1, 2, 1)
        tasks = [
            make_task("aa", "zz", ["full"], ["full"], intro=0),
            make_task("bb", "zz", ["full"], ["full"], intro=5000),
        ]
        # 2 tasks, slots=1: both GPUs used, but only one step-0 task...
        # the allocator shrinks to the feasible GPU count instead
        with pytest.raises(AllocationError):
            initial_assignment(tasks, topo)

    def test_cover_repair(self):
        topo = ClusterTopology(1, 2, 2)
        tasks = [
            make_task("aa", "zz", ["x"], ["x"], intro=0),
            make_task("bb", "zz", ["x"], ["x"], intro=0),
            make_task("cc", "zz", ["y"], ["y"], intro=5000),
            make_task("dd", "zz", ["y"], ["y"], intro=5000),
        ]
        a = initial_assignment(tasks, topo)
        assert validate_config(placed(a, tasks), topo) == []

    def test_deterministic_given_seed(self):
        topo = ClusterTopology(2, 2, 2)
        tasks = random_instance(3, 7, topo)
        assert initial_assignment(tasks, topo, seed=5) == initial_assignment(
            tasks, topo, seed=5
        )

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        data=st.data(),
    )
    def test_feasible_balanced_and_deterministic(self, shape, data):
        topo = ClusterTopology(*shape)
        capacity = topo.n_devices * topo.n_slots_per_gpu
        n = data.draw(st.integers(1, min(capacity, 12)))
        tasks = random_instance(data.draw(st.integers(0, 10**6)), n, topo)
        seed = data.draw(st.integers(0, 10**6))
        a = initial_assignment(tasks, topo, seed=seed)
        assert validate_config(placed(a, tasks), topo) == []
        assert a == initial_assignment(tasks[::-1], topo, seed=seed)
        # the first `used` devices in node-major order, base or base+1 tasks each
        n_step0 = sum(t.introduce_at_training_step == 0 for t in tasks)
        used = min(topo.n_devices, n, n_step0)
        base, rem = divmod(n, used)
        counts = [list(a.placement.values()).count(d) for d in topo.devices()]
        sizes = [base + (b < rem) for b in range(used)]
        assert counts == sizes + [0] * (topo.n_devices - used)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        data=st.data(),
    )
    def test_warm_start_is_initial_assignment(self, shape, data):
        # over integer device indices, whatever the order of the tasks given
        topo = ClusterTopology(*shape)
        n = data.draw(st.integers(1, min(topo.n_devices * topo.n_slots_per_gpu, 12)))
        tasks = random_instance(data.draw(st.integers(0, 10**6)), n, topo)
        seed = data.draw(st.integers(0, 10**6))
        ctx = CostContext(tasks[::-1], enumerate_modules(tasks), topo)
        devices = topo.devices()
        placement = {t.id: devices[d] for t, d in zip(ctx.tasks, warm_start(ctx, seed))}
        assert placement == initial_assignment(tasks, topo, seed).placement

    @pytest.mark.parametrize(
        "enc_layers, dec_layers, side",
        [((2, 4), (4,), Side.DECODER), ((4, 4), (2,), Side.ENCODER)],
    )
    def test_language_modules_stay_on_one_node(self, enc_layers, dec_layers, side):
        # 20 all-pairs tasks, four per language and side, on five nodes of
        # four slots: every group of the heavier LANGUAGE side fits a node
        langs = ["bg", "de", "en", "fi", "hu"]
        tasks = [
            make_task(s, t, [s, "full"], [t], enc_layers, dec_layers)
            for s in langs
            for t in langs
            if s != t
        ]
        topo = ClusterTopology(5, 2, 2)
        for seed in range(5):
            a = initial_assignment(tasks, topo, seed=seed)
            nodes = {}
            for t in tasks:
                for m in t.modules():
                    nodes.setdefault(m, set()).add(a.placement[t.id].node)
            language = {m: n for m, n in nodes.items() if m.side is side and m.position == 0}
            assert len(language) == 5
            assert all(len(n) == 1 for n in language.values())

    def test_hub_families_stay_on_one_node(self):
        # a hub and three families of four, with plan-hub's layer shape;
        # family i is {a}{b_i}, so sorting by code interleaves the families
        families = [[a + b for a in "pqrs"] for b in "xyz"]
        group = {lang: f"f{i}" for i, fam in enumerate(families) for lang in fam}
        group["hh"] = "fh"
        pairs = [(lang, "hh") for fam in families for lang in fam]
        pairs += [("hh", lang) for lang in sorted(group) if lang != "hh"]
        tasks = [
            make_task(s, t, [s, group[s], "full"], [group[t], t], (2, 2, 2), (2, 2))
            for s, t in pairs
        ]
        topo = ClusterTopology(3, 2, 4)
        for seed in range(5):
            a = initial_assignment(tasks, topo, seed=seed)
            for fam in families:
                into = {a.placement[f"train_{lang}-hh"].node for lang in fam}
                out = {a.placement[f"train_hh-{lang}"].node for lang in fam}
                assert len(into) == 1 and len(out) == 1, (seed, fam)

    def test_conflicting_layer_counts_name_the_module(self):
        topo = ClusterTopology(1, 2, 2)
        tasks = [
            make_task("aa", "zz", ["aa", "full"], ["zz"], enc_layers=(1, 2)),
            make_task("bb", "zz", ["bb", "full"], ["zz"], enc_layers=(1, 3)),
        ]
        with pytest.raises(GroupMapError) as exc:
            initial_assignment(tasks, topo)
        assert str(exc.value) == (
            "[sharing] conflicting layer counts for module encoder:1:full: 2 vs 3"
        )

    def test_cover_repair_takes_same_node_donor(self):
        # groups a..d of two tasks fill devices 0:0, 0:1, 1:0, 1:1 in turn;
        # the d block on node 1 has no step-0 task, and both the a block
        # (node 0) and the c block (node 1) have a spare one
        topo = ClusterTopology(2, 2, 2)
        intro = {"a": (0, 0), "b": (0, 5000), "c": (0, 0), "d": (5000, 5000)}
        tasks = [
            make_task(f"{g}{i}", "zz", ["full"], [g], intro=intro[g][i])
            for g in "abcd"
            for i in range(2)
        ]
        a = initial_assignment(tasks, topo)
        assert validate_config(placed(a, tasks), topo) == []
        on = {t.id: a.placement[t.id] for t in tasks}
        assert on["train_a0-zz"] == on["train_a1-zz"] == DeviceId(0, 0)
        hosted = sorted(t.src_lang[0] for t in tasks if on[t.id] == DeviceId(1, 1))
        assert hosted == ["c", "d"]


class TestLocalSearch:
    def test_never_worse_and_valid(self):
        topo = ClusterTopology(2, 2, 2)
        for seed in range(8):
            tasks = random_instance(seed, 7, topo)
            modules = modules_at(tasks, 10)
            a0 = initial_assignment(tasks, topo, seed=seed)
            before = comm_cost(a0, tasks, modules, topo).total
            result = search(a0, tasks, modules, topo, seed=seed)
            after = comm_cost(result, tasks, modules, topo).total
            assert after <= before
            assert validate_config(placed(result, tasks), topo) == []

    def test_already_optimal_unchanged(self):
        topo = ClusterTopology(1, 2, 1)
        tasks = [
            make_task("s0", "t0", ["s0"], ["t0"]),
            make_task("s1", "t1", ["s1"], ["t1"]),
        ]
        modules = modules_at(tasks, 10)
        a0 = Assignment({tasks[0].id: DeviceId(0, 0), tasks[1].id: DeviceId(0, 1)})
        assert search(a0, tasks, modules, topo).placement == a0.placement

    def test_colocates_shared_decoder(self):
        # two tasks sharing a decoder on different nodes, with a same-node
        # free slot: the search must bring them together
        topo = ClusterTopology(2, 1, 2)
        t1 = make_task("aa", "zz", ["aa"], ["shared"])
        t2 = make_task("bb", "zz", ["bb"], ["shared"])
        modules = modules_at([t1, t2], 10)
        a0 = Assignment({t1.id: DeviceId(0, 0), t2.id: DeviceId(1, 0)})
        before = comm_cost(a0, [t1, t2], modules, topo).total
        result = search(a0, [t1, t2], modules, topo)
        after = comm_cost(result, [t1, t2], modules, topo).total
        assert after < before
        devs = set(result.placement.values())
        assert len(devs) == 1

    def test_matches_exhaustive_optimum(self):
        topo = ClusterTopology(1, 2, 3)
        for seed in range(10):
            tasks = random_instance(seed + 100, 6, topo)
            modules = modules_at(tasks, 10)
            best = min(
                comm_cost(a, tasks, modules, topo).total
                for a in feasible_placements(tasks, topo)
            )
            a0 = initial_assignment(tasks, topo, seed=seed)
            result = search(a0, tasks, modules, topo, seed=seed)
            assert comm_cost(result, tasks, modules, topo).total == pytest.approx(best)

    def test_budget_zero_is_identity(self):
        topo = ClusterTopology(2, 2, 2)
        tasks = random_instance(2, 6, topo)
        modules = modules_at(tasks, 10)
        a0 = initial_assignment(tasks, topo)
        assert search(a0, tasks, modules, topo, budget=0).placement == a0.placement

    def test_rejects_start_outside_topology(self):
        topo = ClusterTopology(1, 2, 2)
        t1 = make_task("aa", "zz", ["x"], ["y"])
        t2 = make_task("bb", "zz", ["x"], ["y"])
        modules = modules_at([t1, t2], 10)
        for bad in (DeviceId(0, -1), DeviceId(1, 0)):
            a0 = Assignment({t1.id: DeviceId(0, 0), t2.id: bad})
            with pytest.raises(AllocationError, match=f"{t2.id}.*{bad}"):
                search(a0, [t1, t2], modules, topo)
