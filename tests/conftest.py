from dataclasses import replace

import pytest
import yaml

from mmtplan import allocator, configgen
from mmtplan.core import DeviceId, ModuleKey, Side, TaskSpec, task_id
from mmtplan.sharing import enumerate_modules


def make_task(
    src,
    tgt,
    enc_groups,
    dec_groups,
    enc_layers=None,
    dec_layers=None,
    weight=1,
    intro=0,
    device=None,
    transforms=(),
):
    """Build a TaskSpec from sharing-group names, defaulting layer counts
    to 1 per position."""
    enc_layers = enc_layers or tuple(1 for _ in enc_groups)
    dec_layers = dec_layers or tuple(1 for _ in dec_groups)
    return TaskSpec(
        id=task_id(src, tgt),
        src_lang=src,
        tgt_lang=tgt,
        src_path=f"{src}-{tgt}/train.{src}",
        tgt_path=f"{src}-{tgt}/train.{tgt}",
        enc_modules=tuple(
            ModuleKey(Side.ENCODER, i, g) for i, g in enumerate(enc_groups)
        ),
        dec_modules=tuple(
            ModuleKey(Side.DECODER, i, g) for i, g in enumerate(dec_groups)
        ),
        enc_layers=tuple(enc_layers),
        dec_layers=tuple(dec_layers),
        weight=weight,
        introduce_at_training_step=intro,
        transforms=tuple(transforms),
        device=DeviceId(*device) if isinstance(device, tuple) else device,
    )


def modules_at(tasks, params_per_layer):
    """`enumerate_modules` with `params_per_layer` parameters per layer
    instead of the default, so that costs are small round numbers."""
    return {
        key: replace(info, n_params=info.n_layers * params_per_layer)
        for key, info in enumerate_modules(tasks).items()
    }


def search(a0, tasks, modules, topo, budget=allocator.DEFAULT_BUDGET, seed=0):
    """`allocator.local_search` from assignment `a0` on a module index of
    `tasks` and `modules`; returns the searched assignment."""
    ctx = allocator.CostContext(tasks, modules, topo)
    task_dev = ctx.placement_list(a0.placement)
    allocator.local_search(ctx, task_dev, budget, seed)
    return allocator.Assignment(ctx.placement(task_dev))


@pytest.fixture
def task_factory():
    return make_task


class PurePythonLoader(yaml.SafeLoader):
    """`configgen.YAML_LOADER`'s rules on the pure-Python base class."""

    construct_mapping = configgen.YAML_LOADER.construct_mapping


@pytest.fixture
def pure_python_yaml(monkeypatch):
    """Have `configgen` load YAML with the pure-Python class, the one that
    runs where PyYAML has no libyaml."""
    monkeypatch.setattr(configgen, "YAML_LOADER", PurePythonLoader)
