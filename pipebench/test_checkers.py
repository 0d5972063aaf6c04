"""Tests of the benchmark's own checkers, on toy plans and reduced workloads.

    python3 -m pytest -q pipebench
"""
from __future__ import annotations

import dataclasses
import os
import random
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checkers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

from mmtplan import allocator, syncsim  # noqa: E402
from mmtplan.core import ClusterTopology, DeviceId, ModuleKey, Side, TaskSpec  # noqa: E402
from mmtplan.sharing import enumerate_modules  # noqa: E402

FOUR_P = 4 * checkers.PARAMS_PER_LAYER  # gradient bytes of a one-layer module
TOPO = ClusterTopology(n_nodes=2, n_gpus_per_node=2, n_slots_per_gpu=2)


def task(src, tgt, enc, dec, device, intro=0):
    return TaskSpec(
        id=f"train_{src}-{tgt}", src_lang=src, tgt_lang=tgt,
        src_path=f"{src}-{tgt}.{src}", tgt_path=f"{src}-{tgt}.{tgt}",
        enc_modules=tuple(ModuleKey(Side.ENCODER, i, g) for i, g in enumerate(enc)),
        dec_modules=tuple(ModuleKey(Side.DECODER, i, g) for i, g in enumerate(dec)),
        enc_layers=(1,) * len(enc), dec_layers=(1,) * len(dec),
        introduce_at_training_step=intro,
        device=DeviceId(*device),
    )


def toy_plan():
    """enc [LANGUAGE, FULL] / dec [LANGUAGE], three tasks over two nodes."""
    return [
        task("aa", "bb", ["aa", "full"], ["bb"], (0, 0)),
        task("aa", "cc", ["aa", "full"], ["cc"], (0, 1)),
        task("bb", "aa", ["bb", "full"], ["aa"], (1, 0)),
    ]


def test_plan_sync_ms_by_hand():
    # enc:0:aa spans 0:0 and 0:1 (one node, g=2); enc:1:full spans 0:0, 0:1
    # and 1:0 (two nodes, g=3); every other module sits on one device.
    aa = 2 * 1 * 5e-6 + 2 * 1 / 2 * 12_591_104 / 100e9
    full = 2 * 2 * 20e-6 + 2 * 2 / 3 * 12_591_104 / 12.5e9
    assert FOUR_P == 12_591_104
    assert checkers.plan_sync_ms(toy_plan(), TOPO) == pytest.approx(1000 * (aa + full), rel=1e-12)
    assert checkers.plan_sync_ms(toy_plan(), TOPO) == pytest.approx(1.5589621333, rel=1e-9)


def test_feasibility_accepts_toy_plan():
    assert checkers.check_feasibility(toy_plan(), 2, 2, 2) == []


def test_feasibility_rejects_over_capacity_device():
    plan = toy_plan() + [task("cc", "aa", ["cc", "full"], ["aa"], (0, 0))]
    plan.append(task("cc", "bb", ["cc", "full"], ["bb"], (0, 0)))
    assert any("3 tasks on 2 slots" in p for p in checkers.check_feasibility(plan, 2, 2, 2))


def test_feasibility_rejects_device_outside_topology():
    plan = toy_plan()[:2] + [task("bb", "aa", ["bb", "full"], ["aa"], (2, 0))]
    assert any("outside the topology" in p for p in checkers.check_feasibility(plan, 2, 2, 2))
    plan = toy_plan()[:2] + [task("bb", "aa", ["bb", "full"], ["aa"], (1, 2))]
    assert any("outside the topology" in p for p in checkers.check_feasibility(plan, 2, 2, 2))


def test_feasibility_rejects_device_without_step0_task():
    plan = toy_plan()[:2] + [task("bb", "aa", ["bb", "full"], ["aa"], (1, 0), intro=100)]
    assert checkers.check_feasibility(plan, 2, 2, 2) == ["device (1, 0): no task active from step 0"]


def test_task_set_rejects_missing_and_extra_tasks():
    plan = {t.id: t for t in toy_plan()}
    pairs = [("aa", "bb"), ("aa", "cc"), ("bb", "aa")]
    tpl = ("{lang_pair}.{src_lang}", "{lang_pair}.{tgt_lang}")
    assert checkers.check_task_set(plan, pairs, *tpl) == []
    assert checkers.check_task_set(plan, pairs + [("cc", "aa")], *tpl) == ["missing task train_cc-aa"]
    assert checkers.check_task_set(plan, pairs[:2], *tpl) == ["unexpected task train_bb-aa"]


def test_module_names_reject_wrong_group():
    enc, dec = (("LANGUAGE", 1), ("FULL", 1)), (("LANGUAGE", 1),)
    assert checkers.check_module_names(toy_plan(), enc, dec, None) == []
    wrong = toy_plan()[:2] + [task("bb", "aa", ["bb", "full"], ["bb"], (1, 0))]
    problems = checkers.check_module_names(wrong, enc, dec, None)
    assert len(problems) == 1 and problems[0].startswith("task train_bb-aa: decoder modules")
    grouped = ((("GROUP", 1), ("FULL", 1)), (("LANGUAGE", 1),))
    groups = {"aa": "group0", "bb": "group1", "cc": "group1"}
    problems = checkers.check_module_names(toy_plan(), *grouped, groups)
    assert len(problems) == 3  # encoder position 0 should be the source's group


def test_weights_reject_wrong_weight_and_step():
    plan = toy_plan()
    counts = {"train_aa-bb": 100, "train_aa-cc": 400, "train_bb-aa": 50}
    stages = [{"start_step": 10, "below_lines": 60}]
    # (count / 50) ** (1 / 2) rounded: 1.41 -> 1, 2.83 -> 3, 1 -> 1; train_bb-aa is delayed
    assert checkers.expected_weight(400, 50, 2.0) == 3
    problems = checkers.check_weights(plan, counts, 2.0, stages)
    assert problems == [
        "task train_aa-cc: weight 1, expected 3",
        "task train_bb-aa: introduced at 0, expected 10",
    ]


def test_ledger_rejects_token_total():
    plan = toy_plan()
    # three used devices; enc:0:aa (g=2) and enc:1:full (g=3) synchronize
    records = [syncsim.StepRecord(s, 4 * 5, FOUR_P, 0.0, 0.0, 3 * 10) for s in range(2)]
    ok = checkers.check_ledger(syncsim.CommLedger(records), plan, 2, 2, 1, 10)
    assert ok == {"token_total": [], "ready_bytes": [], "grad_bytes": []}
    records[1] = dataclasses.replace(records[1], tokens=29)
    bad = checkers.check_ledger(syncsim.CommLedger(records), plan, 2, 2, 1, 10)
    assert bad["token_total"] == ["token total 59, expected 60"]
    records[1] = dataclasses.replace(records[1], tokens=30, ready_bytes=16, grad_bytes=3 * FOUR_P)
    bad = checkers.check_ledger(syncsim.CommLedger(records), plan, 2, 2, 1, 10)
    assert bad["token_total"] == [] and len(bad["ready_bytes"]) == 1 and len(bad["grad_bytes"]) == 1


def test_span_cost_is_the_allocator_objective():
    plan = toy_plan() + [task("cc", "aa", ["cc", "full"], ["aa"], (1, 1))]
    modules = enumerate_modules(plan)
    devices = TOPO.devices()
    rng = random.Random(0)
    for _ in range(20):
        placement = {t.id: rng.choice(devices) for t in plan}
        want = allocator.comm_cost(allocator.Assignment(placement), plan, modules, TOPO).total
        assert checkers.span_cost(plan, placement) == pytest.approx(want, rel=1e-12)
    worse = {t.id: devices[i] for i, t in enumerate(plan)}
    better = {t.id: devices[0] for t in plan}
    assert checkers.check_objective(plan, better, worse) == []
    assert len(checkers.check_objective(plan, worse, better)) == 1


def test_sync_oracle_passes_on_toy_plan():
    assert checkers.check_sync_oracle(syncsim, toy_plan(), 2, seed=3) == []


def test_tracer_reports_missing_name_as_absent():
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "gone", "layer.gone")
    tracer.wrap(None, "cost", "allocator.cost_eval")
    assert tracer.absent == {"layer.gone", "allocator.cost_eval"} and not tracer.wrapped


REDUCED = {
    "plan-allpairs": dict(n_langs=5, n_nodes=1, n_gpus_per_node=3, search_budget=300, sim_steps=3),
    "plan-hub": dict(n_langs=16, n_families=4, n_nodes=2, n_gpus_per_node=4, sim_steps=3),
    "sim-wide": dict(n_langs=8, n_nodes=2, n_gpus_per_node=4, sim_steps=6, curriculum=(0.1, 3)),
}


@pytest.fixture(scope="module")
def mods():
    return run.import_program()


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_checks_pass_on_reduced_workloads(name, mods, tmp_path):
    w = dataclasses.replace(WORKLOADS[name], **REDUCED[name])
    inp = make_inputs(w, 5, str(tmp_path / "work"))
    rnd = run.run_round(mods, inp, str(tmp_path / "full.yaml"), None, None)
    failing = {k for k, v in rnd.checks.items() if v}
    # plan-hub lists its adapters out of name order, which parse() does not keep
    assert failing <= run.OPERATION_CHECKS
    assert ("round_trip" in failing) == (name == "plan-hub")


def test_traced_round_without_cost_context_cost(mods, tmp_path, monkeypatch):
    """A planner whose local search no longer prices moves through
    CostContext.cost: the traced round reports those metrics as absent."""
    alloc = mods[0]
    monkeypatch.setattr(alloc, "local_search", lambda a0, *args, **kwargs: a0)
    monkeypatch.delattr(alloc.CostContext, "cost")
    w = dataclasses.replace(WORKLOADS["plan-allpairs"], **REDUCED["plan-allpairs"])
    inp = make_inputs(w, 5, str(tmp_path / "work"))
    watch = run.CostWatch()
    tracer = run.install_tracer(*mods, watch)
    try:
        rnd = run.run_round(mods, inp, str(tmp_path / "full.yaml"), tracer, watch)
    finally:
        tracer.unwrap_all()
    assert tracer.absent == {"allocator.cost_eval"}
    assert "allocator.cost_eval_us" not in rnd.layer and "allocator.accept_ratio" not in rnd.layer
    assert rnd.layer["allocator.local_search_s"] > 0 and rnd.layer["configgen.emit_s"] > 0
    assert not any(rnd.checks.values())
