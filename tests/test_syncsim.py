import json
import random
from collections import Counter

import numpy as np
import pytest

from mmtplan.core import ClusterTopology, ModuleKey, Side
from mmtplan.syncsim import (
    DeviceState,
    Reservoir,
    SimulationError,
    ToyModel,
    forward,
    local_backward,
    loss,
    multiplex,
    oracle_reference,
    reservoir_batch,
    ring_allreduce_time,
    run_benchmark,
    scaling_experiment,
    sync_step,
    synthetic_uniform_tasks,
)

from conftest import make_task

E = Side.ENCODER
D = Side.DECODER


def keys(*names):
    return tuple(ModuleKey(E, i, n) for i, n in enumerate(names))


class TestForwardBackward:
    def test_identity_chain_zero_loss(self):
        chain = keys("a", "b")
        model = ToyModel(3, {k: np.eye(3) for k in chain}, np.array([1.0, 2.0, 3.0]))
        states = forward(model, chain, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(states[-1], states[0])
        assert loss(model, states[-1]) == 0.0
        grads = local_backward(model, chain, states)
        assert all(np.allclose(g, 0) for g in grads.values())

    def test_scalar_case_by_hand(self):
        chain = keys("w")
        model = ToyModel(1, {chain[0]: np.array([[2.0]])}, np.array([0.0]))
        states = forward(model, chain, np.array([1.0]))
        assert states[-1][0] == 2.0
        assert loss(model, states[-1]) == 2.0
        grads = local_backward(model, chain, states)
        # dL/dW = (h1 - y) * h0 = 2; stored negated
        assert grads[chain[0]][0, 0] == -2.0

    def test_empty_chain_rejected(self):
        model = ToyModel(2, {}, np.zeros(2))
        with pytest.raises(SimulationError):
            forward(model, (), np.zeros(2))

    def test_dimension_mismatch(self):
        chain = keys("a")
        model = ToyModel(2, {chain[0]: np.eye(2)}, np.zeros(2))
        with pytest.raises(SimulationError):
            forward(model, chain, np.zeros(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dim = 3
        n_mods = rng.integers(1, 4)
        chain = keys(*(f"m{i}" for i in range(n_mods)))
        model = ToyModel.random(chain, dim=dim, seed=seed)
        x = rng.standard_normal(dim)
        states = forward(model, chain, x)
        grads = local_backward(model, chain, states)

        eps = 1e-6
        for key in chain:
            W = model.weights[key]
            numeric = np.zeros_like(W)
            for i in range(dim):
                for j in range(dim):
                    orig = W[i, j]
                    W[i, j] = orig + eps
                    lp = loss(model, forward(model, chain, x)[-1])
                    W[i, j] = orig - eps
                    lm = loss(model, forward(model, chain, x)[-1])
                    W[i, j] = orig
                    numeric[i, j] = (lp - lm) / (2 * eps)
            # buffers hold -grad
            assert np.allclose(-grads[key], numeric, rtol=1e-4, atol=1e-8)


def run_scenario(seed, n_devices=None, n_tasks=None, accum_count=1):
    """Random multi-device scenario; returns (synced, oracle) per module."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    dim = 3
    n_devices = n_devices or rng.randint(2, 8)
    n_tasks = n_tasks or rng.randint(2, 16)
    pool = [ModuleKey(E, i, f"g{rng.randrange(4)}") for i in range(3)] + [
        ModuleKey(D, 0, f"g{rng.randrange(4)}"),
        ModuleKey(E, 0, "full"),
        ModuleKey(D, 1, "full"),
    ]
    pool = sorted(set(pool))
    chains = []
    for _ in range(n_tasks):
        size = rng.randint(1, min(3, len(pool)))
        chains.append(tuple(rng.sample(pool, size)))
    task_dev = [rng.randrange(n_devices) for _ in chains]

    hosted = {
        d: frozenset(
            k for chain, td in zip(chains, task_dev) if td == d for k in chain
        )
        for d in range(n_devices)
    }
    hosted = {d: mods for d, mods in hosted.items() if mods}
    model = ToyModel.random(pool, dim=dim, seed=seed)

    runs = []
    for _ in range(accum_count):
        for t, (chain, d) in enumerate(zip(chains, task_dev)):
            if d not in hosted:
                continue
            x = nrng.standard_normal(dim)
            runs.append((d, chain, x))

    devices = {d: DeviceState(d, hosted[d], dim) for d in sorted(hosted)}
    for d, chain, x in runs:
        states = forward(model, chain, x)
        devices[d].accumulate(local_backward(model, chain, states))
    synced = sync_step(list(devices.values()))
    oracle = oracle_reference(model, runs, hosted)
    return synced, oracle, devices


class TestSyncStep:
    def test_two_device_mean(self):
        key = ModuleKey(E, 0, "full")
        d1 = DeviceState(0, frozenset({key}), 1)
        d2 = DeviceState(1, frozenset({key}), 1)
        d1.buffers[key][:] = 2.0
        d2.buffers[key][:] = 4.0
        d1.used.add(key)
        d2.used.add(key)
        synced = sync_step([d1, d2])
        assert synced[key][0, 0] == 3.0
        assert d1.buffers[key][0, 0] == 3.0 and d2.buffers[key][0, 0] == 3.0

    def test_renormalizes_by_users_not_hosts(self):
        # used on one of two hosting devices: the zero contribution is
        # summed in but the division is by n=1
        key = ModuleKey(E, 0, "full")
        d1 = DeviceState(0, frozenset({key}), 1)
        d2 = DeviceState(1, frozenset({key}), 1)
        d1.buffers[key][:] = 4.0
        d1.used.add(key)
        synced = sync_step([d1, d2])
        assert synced[key][0, 0] == 4.0
        assert d2.buffers[key][0, 0] == 4.0

    def test_unused_module_stays_zero(self):
        key = ModuleKey(E, 0, "full")
        d1 = DeviceState(0, frozenset({key}), 2)
        d2 = DeviceState(1, frozenset({key}), 2)
        synced = sync_step([d1, d2])
        assert np.all(synced[key] == 0.0)

    def test_oracle_device_mean_not_task_mean(self):
        # two tasks on device A (grads 1 and 3), one on device B (grad 2):
        # the synchronized value is ((1+3)+2)/2 = 3, a device mean
        key = ModuleKey(E, 0, "full")
        d1 = DeviceState(0, frozenset({key}), 1)
        d2 = DeviceState(1, frozenset({key}), 1)
        d1.accumulate({key: np.array([[1.0]])})
        d1.accumulate({key: np.array([[3.0]])})
        d2.accumulate({key: np.array([[2.0]])})
        synced = sync_step([d1, d2])
        assert synced[key][0, 0] == 3.0

    def test_matches_oracle_randomized(self):
        for seed in range(30):
            synced, oracle, _ = run_scenario(seed)
            assert set(synced) >= set(oracle)
            for key in oracle:
                scale = max(1.0, np.abs(oracle[key]).max())
                assert np.allclose(synced[key], oracle[key], rtol=1e-9, atol=1e-12 * scale)

    def test_linearity_of_renormalization(self):
        _, _, devices = run_scenario(99)
        before = sync_step(list(devices.values()))
        # rebuild and scale every buffer by c: the synchronized gradient
        # scales by exactly c
        _, _, devices2 = run_scenario(99)
        c = 2.5
        for dev in devices2.values():
            for key in dev.used:
                dev.buffers[key] *= c
        after = sync_step(list(devices2.values()))
        for key in before:
            assert np.allclose(after[key], c * before[key])

    def test_duplicate_device_index_rejected(self):
        key = ModuleKey(E, 0, "full")
        d1 = DeviceState(0, frozenset({key}), 1)
        d2 = DeviceState(0, frozenset({key}), 1)
        with pytest.raises(SimulationError):
            sync_step([d1, d2])


class TestMultiplex:
    def test_single_task_always_chosen(self):
        t = make_task("aa", "bb", ["x"], ["y"])
        rng = random.Random(0)
        assert all(multiplex([t], 0, rng) is t for _ in range(10))

    def test_weighted_frequencies(self):
        a = make_task("aa", "zz", ["x"], ["y"], weight=1)
        b = make_task("bb", "zz", ["x"], ["y"], weight=3)
        rng = random.Random(42)
        counts = Counter(multiplex([a, b], 0, rng).id for _ in range(100_000))
        assert counts[b.id] / 100_000 == pytest.approx(0.75, abs=0.01)

    def test_curriculum_exclusion(self):
        a = make_task("aa", "zz", ["x"], ["y"], intro=0)
        b = make_task("bb", "zz", ["x"], ["y"], intro=5000)
        rng = random.Random(0)
        assert all(multiplex([a, b], 0, rng) is a for _ in range(200))
        with pytest.raises(SimulationError):
            multiplex([b], 0, rng)
        # active from its introduction step onward
        assert multiplex([b], 5000, rng) is b


class TestReservoir:
    def test_holds_everything_below_capacity(self):
        assert reservoir_batch(range(5), 10) == [0, 1, 2, 3, 4]

    def test_base_recurrence(self):
        kept = Counter()
        for seed in range(10_000):
            sample = reservoir_batch([1, 2], 1, seed=seed)
            kept[sample[0]] += 1
        assert kept[2] / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_uniform_inclusion_probability(self):
        B, n, trials = 10, 1000, 10_000
        target = 123
        hits = 0
        for seed in range(trials):
            if target in reservoir_batch(range(n), B, seed=seed):
                hits += 1
        assert hits / trials == pytest.approx(B / n, abs=0.002)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Reservoir(0)


class TestCostModel:
    def test_singleton_group_is_free(self):
        assert ring_allreduce_time(1e6, 1, 1e-5, 1e9) == 0.0

    def test_ring_formula(self):
        t = ring_allreduce_time(8e6, 4, 1e-5, 1e9)
        assert t == pytest.approx(2 * 3 * 1e-5 + 2 * 3 / 4 * 8e6 / 1e9)


class TestRunBenchmark:
    def test_independent_no_gradient_traffic(self):
        topo = ClusterTopology(1, 4, 1)
        tasks = synthetic_uniform_tasks("independent", 4, topo)
        ledger, summary = run_benchmark(tasks, topo, steps=5)
        assert summary["grad_allreduce_bytes"] == 0
        assert summary["ready_sync_bytes"] == 0

    def test_fully_shared_all_devices_communicate(self):
        topo = ClusterTopology(1, 4, 1)
        tasks = synthetic_uniform_tasks("fully_shared", 4, topo)
        ledger, summary = run_benchmark(tasks, topo, steps=3)
        assert summary["grad_allreduce_bytes"] > 0
        assert summary["modules"] == 2

    def test_deterministic_ledger(self):
        topo = ClusterTopology(2, 2, 2)
        tasks = []
        base = synthetic_uniform_tasks("partially_shared", 4, topo)
        for i, t in enumerate(base):
            tasks.append(t)
        l1, s1 = run_benchmark(tasks, topo, steps=4, seed=7, accum_count=2)
        l2, s2 = run_benchmark(tasks, topo, steps=4, seed=7, accum_count=2)
        assert l1.to_tsv() == l2.to_tsv()
        assert s1 == s2

    def test_zero_steps_empty_ledger(self):
        topo = ClusterTopology(1, 2, 1)
        tasks = synthetic_uniform_tasks("independent", 2, topo)
        ledger, summary = run_benchmark(tasks, topo, steps=0)
        assert ledger.records == []
        assert summary["total_tokens"] == 0

    def test_unplaced_task_rejected(self):
        topo = ClusterTopology(1, 1, 1)
        t = make_task("aa", "bb", ["x"], ["y"])
        with pytest.raises(SimulationError):
            run_benchmark([t], topo, steps=1)


PINNED_LEDGER = """\
step\tready_bytes\tgrad_bytes\tcomm_time\tcompute_time\ttokens
0\t16\t25182208\t2.134577280e-03\t1.310720000e-04\t16384
1\t16\t25182208\t2.134577280e-03\t1.310720000e-04\t16384
2\t16\t62955520\t5.196442240e-03\t1.310720000e-04\t16384
3\t16\t25182208\t2.134577280e-03\t1.310720000e-04\t16384
4\t16\t62955520\t5.196442240e-03\t9.830400000e-05\t16384
"""

PINNED_SUMMARY = """\
{
  "comm_time_fraction": 0.9642583067747592,
  "devices": 2,
  "grad_allreduce_bytes": 201457664,
  "modules": 7,
  "ready_sync_bytes": 80,
  "steps": 5,
  "tasks": 4,
  "tokens_per_sec": 4702854.371742193,
  "total_time_sec": 0.017419208320000004,
  "total_tokens": 81920
}"""


def test_ledger_and_summary_are_pinned():
    """Byte-exact ledger and summary for a fixed plan on two nodes.

    enc:1:full spans both nodes and is used every step; dec:0:en is
    hosted on both nodes but used only when train_de-en is drawn on node
    0 or, from step 2 on, train_fr-en on node 1, so grad_bytes varies.
    """
    topo = ClusterTopology(2, 1, 2)
    tasks = [
        make_task("de", "en", ["de", "full"], ["en"], (1, 2), (3,), device=(0, 0)),
        make_task("de", "fr", ["de", "full"], ["fr"], (1, 2), (3,), weight=3, device=(0, 0)),
        make_task("en", "de", ["en", "full"], ["de"], (3, 2), (3,), device=(1, 0)),
        make_task("fr", "en", ["fr", "full"], ["en"], (1, 2), (3,), intro=2, device=(1, 0)),
    ]
    ledger, summary = run_benchmark(tasks, topo, steps=5, seed=8, accum_count=2)
    assert ledger.to_tsv() == PINNED_LEDGER
    assert json.dumps(summary, indent=2, sort_keys=True) == PINNED_SUMMARY


class TestScaling:
    def test_independent_is_ideal(self):
        eff = scaling_experiment("independent", [4, 8], steps=2)
        assert all(e == pytest.approx(1.0) for e in eff.values())

    def test_shared_efficiency_decreases(self):
        eff = scaling_experiment("fully_shared", [4, 8, 12], steps=2)
        values = [eff[k] for k in [4, 8, 12]]
        assert values == sorted(values, reverse=True)
        assert all(0 < v <= 1.0 for v in values)
