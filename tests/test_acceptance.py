"""Acceptance suite: one test per criterion, each printing a pass/fail
line (visible with pytest -s or in captured output on failure)."""
import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from mmtplan.allocator import (
    comm_cost,
    initial_assignment,
)
from mmtplan.configgen import assign_transforms, emit, generate, parse
from mmtplan.core import ClusterTopology, ModuleKey, Side, validate_config
from mmtplan.pathtmpl import CorpusMode, PathTemplate
from mmtplan.sharing import (
    ArchSpec,
    SharingPattern,
    build_module_sequence,
    enumerate_modules,
    resolve_group_name,
)
from mmtplan.syncsim import (
    multiplex,
    reservoir_batch,
    run_benchmark,
    scaling_experiment,
    synthetic_uniform_tasks,
)

from conftest import make_task, modules_at, search
from test_allocator import feasible_placements, placed, random_instance
from test_configgen import all_files_exist, meta_for
from test_syncsim import run_scenario

SP = SharingPattern


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num:02d}] FAIL - {name}")
        raise
    print(f"[ACCEPTANCE {num:02d}] PASS - {name}")


def test_01_algorithm_oracle_equivalence():
    with criterion(1, "gradient sync equals single-process oracle (200 scenarios)"):
        start = time.monotonic()
        rng = random.Random(0)
        for i in range(200):
            accum = rng.choice([1, 2, 4])
            synced, oracle, _ = run_scenario(
                seed=1000 + i,
                n_devices=rng.randint(2, 8),
                n_tasks=rng.randint(2, 16),
                accum_count=accum,
            )
            for key in oracle:
                scale = max(1e-30, np.abs(oracle[key]).max())
                assert np.abs(synced[key] - oracle[key]).max() <= 1e-9 * scale
        assert time.monotonic() - start < 10.0


def test_02_gradient_correctness():
    with criterion(2, "backward pass matches central finite differences"):
        from mmtplan.syncsim import ToyModel, forward, local_backward, loss

        eps = 1e-6
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(1, 5))
            n_mods = int(rng.integers(1, 4))
            chain = tuple(ModuleKey(Side.ENCODER, i, f"m{i}") for i in range(n_mods))
            model = ToyModel.random(chain, dim=dim, seed=seed)
            x = rng.standard_normal(dim)
            grads = local_backward(model, chain, forward(model, chain, x))
            for key in chain:
                W = model.weights[key]
                for i in range(dim):
                    for j in range(dim):
                        orig = W[i, j]
                        W[i, j] = orig + eps
                        lp = loss(model, forward(model, chain, x)[-1])
                        W[i, j] = orig - eps
                        lm = loss(model, forward(model, chain, x)[-1])
                        W[i, j] = orig
                        numeric = (lp - lm) / (2 * eps)
                        analytic = -grads[key][i, j]
                        denom = max(1e-8, abs(numeric))
                        assert abs(analytic - numeric) / denom <= 1e-4


def test_03_module_identity_rule():
    with criterion(3, "positionwise module identity"):
        t1 = make_task("aa", "bb", ["x", "y"], ["d"])
        t2 = make_task("bb", "aa", ["y", "x"], ["d"])
        enc_modules = [
            k for k in enumerate_modules([t1, t2]) if k.side is Side.ENCODER
        ]
        assert len(enc_modules) == 4

        arch = ArchSpec(((SP.FULL, 9),), ((SP.FULL, 4),))
        for n_langs in [2, 5, 21]:
            langs = [f"l{i:02d}" for i in range(n_langs)]
            tasks = []
            for src, tgt in itertools.permutations(langs, 2):
                enc, dec, el, dl = build_module_sequence(arch, src, tgt)
                tasks.append(
                    make_task(src, tgt, [m.group for m in enc], [m.group for m in dec])
                )
            assert len(enumerate_modules(tasks)) == 2


def test_04_sharing_pattern_naming():
    with criterion(4, "sharing pattern name resolution"):
        langs = ["aa", "bb", "cc", "dd"]
        groups = {"aa": "g0", "bb": "g0", "cc": "g1", "dd": "g1"}
        for src, tgt in itertools.product(langs, langs):
            for side in (Side.ENCODER, Side.DECODER):
                assert resolve_group_name(SP.FULL, side, src, tgt) == "full"
            assert resolve_group_name(SP.LANGUAGE, Side.ENCODER, src, tgt) == src
            assert resolve_group_name(SP.LANGUAGE, Side.DECODER, src, tgt) == tgt
            assert resolve_group_name(
                SP.GROUP, Side.ENCODER, src, tgt, groups
            ) == resolve_group_name(SP.SRC_GROUP, Side.ENCODER, src, tgt, groups)
            assert resolve_group_name(
                SP.GROUP, Side.DECODER, src, tgt, groups
            ) == resolve_group_name(SP.TGT_GROUP, Side.DECODER, src, tgt, groups)


def test_05_path_templating():
    with criterion(5, "symmetric path templating and direction consistency"):
        t = PathTemplate("{sorted_pair}/train.{side_a}.gz", CorpusMode.SYMMETRIC)
        assert t.render("ben", "eng") == "ben-eng/train.src.gz"
        assert t.render("eng", "ben") == "ben-eng/train.trg.gz"

        src_t = PathTemplate("{sorted_pair}/train.{side_a}.gz", CorpusMode.SYMMETRIC)
        tgt_t = PathTemplate("{sorted_pair}/train.{side_b}.gz", CorpusMode.SYMMETRIC)
        rng = random.Random(5)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(1000):
            a = "".join(rng.choices(alphabet, k=rng.randint(2, 3)))
            b = "".join(rng.choices(alphabet, k=rng.randint(2, 3)))
            if a == b:
                continue
            assert src_t.render(a, b) == tgt_t.render(b, a)


def test_06_prefix_transform_rule():
    with criterion(6, "target-language prefix transform rule"):
        shared = ArchSpec(((SP.FULL, 9),), ((SP.FULL, 4),))
        lang_dec = ArchSpec(((SP.FULL, 6),), ((SP.TGT_LANGUAGE, 6),))
        pairs = [("bg", "en"), ("sw", "ca"), ("en", "en")]
        for src, tgt in pairs:
            transforms = assign_transforms(src, tgt, shared, "bart")
            assert transforms[-1] == f"prefix:{tgt}"
            transforms = assign_transforms(src, tgt, lang_dec, "bart")
            assert not any(x.startswith("prefix") for x in transforms)


def test_07_allocator_optimality_small_scale():
    with criterion(7, "local search reaches exhaustive optimum on small instances"):
        topo = ClusterTopology(1, 2, 3)
        for seed in range(20):
            rng = random.Random(seed)
            tasks = random_instance(seed, rng.randint(2, 6), topo)
            modules = modules_at(tasks, 10)
            best = min(
                comm_cost(a, tasks, modules, topo).total
                for a in feasible_placements(tasks, topo)
            )
            a0 = initial_assignment(tasks, topo, seed=seed)
            initial = comm_cost(a0, tasks, modules, topo).total
            result = search(a0, tasks, modules, topo, seed=seed)
            final = comm_cost(result, tasks, modules, topo).total
            assert final <= initial
            assert validate_config(placed(result, tasks), topo) == []
            assert final == pytest.approx(best)


def test_08_independent_architecture_sparsity():
    with criterion(8, "independent architecture has zero gradient traffic"):
        topo = ClusterTopology(2, 4, 1)
        tasks = synthetic_uniform_tasks("independent", 8, topo)
        _, summary = run_benchmark(tasks, topo, steps=10)
        assert summary["grad_allreduce_bytes"] == 0


def test_09_simulated_scaling_efficiency():
    with criterion(9, "scaling efficiency of the uniform benchmark"):
        start = time.monotonic()
        ks = [4, 8, 12, 16, 20]
        eff = scaling_experiment("independent", ks, steps=5)
        assert all(eff[k] >= 0.95 for k in ks)
        for arch in ["partially_shared", "fully_shared"]:
            eff = scaling_experiment(arch, ks, steps=5)
            values = [eff[k] for k in ks]
            assert all(
                later <= earlier + 1e-12
                for earlier, later in zip(values, values[1:])
            )
        assert time.monotonic() - start < 60.0


def test_10_pipeline_determinism_and_round_trip():
    with criterion(10, "generation determinism, round trip, validation"):
        meta = meta_for(
            ["bg", "de", "en", "fi"],
            topology=ClusterTopology(2, 2, 4),
            line_counts={"train_bg-en": 300, "train_en-bg": 100},
            seed=9,
        )
        cfg1 = generate(meta, all_files_exist)
        cfg2 = generate(meta, all_files_exist)
        assert emit(cfg1).encode() == emit(cfg2).encode()
        assert parse(emit(cfg1)) == cfg1
        assert validate_config(list(cfg1.tasks.values()), cfg1.topology) == []


def test_11_sampling_statistics():
    with criterion(11, "multiplexer and reservoir sampling statistics"):
        a = make_task("aa", "zz", ["x"], ["y"], weight=1)
        b = make_task("bb", "zz", ["x"], ["y"], weight=3)
        rng = random.Random(11)
        draws = 100_000
        counts = Counter(multiplex([a, b], 0, rng).id for _ in range(draws))
        assert abs(counts[b.id] / draws - 0.75) <= 0.01

        B, n, trials = 10, 1000, 10_000
        target = 500
        hits = sum(
            1 for seed in range(trials) if target in reservoir_batch(range(n), B, seed)
        )
        assert abs(hits / trials - B / n) <= 0.002
