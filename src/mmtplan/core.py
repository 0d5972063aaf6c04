"""Domain model shared by all planner modules.

Languages, tasks, module identities, devices and the cluster topology.
All types are immutable values after construction and safe to share
across workers.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

_LANG_RE = re.compile(r"^[a-z0-9_]+$")


class Side(str, Enum):
    ENCODER = "encoder"
    DECODER = "decoder"


def check_language(code: str) -> str:
    """Validate a language code and return it unchanged.

    Codes are short lowercase tokens; comparison throughout the code base
    is plain byte-lexicographic, never locale-dependent.
    """
    if not code or not _LANG_RE.match(code):
        raise ValueError(f"invalid language code: {code!r}")
    return code


def task_id(src: str, tgt: str) -> str:
    """Deterministic task identifier for a translation direction.

    Denoising autoencoder tasks are the self-pair case (src == tgt).
    """
    check_language(src)
    check_language(tgt)
    return f"train_{src}-{tgt}"


@dataclass(frozen=True, order=True)
class ModuleKey:
    """Identity of a shareable parameter block.

    Two keys denote the same parameter block iff side, position and group
    name are all equal: sharing is positionwise, so encoder groups [x, y]
    and [y, x] yield four distinct modules.
    """

    side: Side
    position: int
    group: str

    def __str__(self) -> str:
        return f"{self.side.value}:{self.position}:{self.group}"


@dataclass(frozen=True, order=True)
class DeviceId:
    node: int
    gpu: int

    def __str__(self) -> str:
        return f"{self.node}:{self.gpu}"

    @classmethod
    def parse(cls, text: str) -> "DeviceId":
        node, _, gpu = text.partition(":")
        return cls(int(node), int(gpu))


@dataclass(frozen=True)
class ClusterTopology:
    """Nodes x GPUs x slots, with a two-level communication cost model.

    alpha_* are per-message latencies in seconds, beta_* bandwidths in
    bytes per second.  Inter-node links are assumed no better than
    intra-node ones.
    """

    n_nodes: int
    n_gpus_per_node: int
    n_slots_per_gpu: int
    alpha_intra: float = 5e-6
    alpha_inter: float = 20e-6
    beta_intra: float = 100e9
    beta_inter: float = 12.5e9

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.n_gpus_per_node < 1 or self.n_slots_per_gpu < 1:
            raise ValueError("topology counts must be >= 1")
        if self.beta_intra <= 0 or self.beta_inter <= 0:
            raise ValueError("bandwidths must be positive")
        if self.alpha_inter < self.alpha_intra:
            raise ValueError("alpha_inter must be >= alpha_intra")
        if self.beta_inter > self.beta_intra:
            raise ValueError("beta_inter must be <= beta_intra")

    @property
    def n_devices(self) -> int:
        return self.n_nodes * self.n_gpus_per_node

    def devices(self) -> list[DeviceId]:
        return [
            DeviceId(n, g)
            for n in range(self.n_nodes)
            for g in range(self.n_gpus_per_node)
        ]

    def flat(self, dev: DeviceId) -> int:
        return dev.node * self.n_gpus_per_node + dev.gpu

    def contains(self, dev: DeviceId) -> bool:
        return 0 <= dev.node < self.n_nodes and 0 <= dev.gpu < self.n_gpus_per_node


@dataclass(frozen=True)
class TaskSpec:
    """One translation or denoising direction with everything the trainer
    needs: corpus paths, module sequences, sampling weight, curriculum
    step and (once allocated) a device."""

    id: str
    src_lang: str
    tgt_lang: str
    src_path: str
    tgt_path: str
    enc_modules: tuple[ModuleKey, ...]
    dec_modules: tuple[ModuleKey, ...]
    enc_layers: tuple[int, ...]
    dec_layers: tuple[int, ...]
    weight: int = 1
    introduce_at_training_step: int = 0
    transforms: tuple[str, ...] = ()
    adapters: tuple[tuple[str, str], ...] = ()
    device: Optional[DeviceId] = None

    @property
    def is_denoising(self) -> bool:
        return self.src_lang == self.tgt_lang

    def with_device(self, device: DeviceId) -> "TaskSpec":
        return replace(self, device=device)

    def modules(self) -> tuple[ModuleKey, ...]:
        """Encoder modules followed by decoder modules, in forward order."""
        return self.enc_modules + self.dec_modules


def validate_task(task: TaskSpec) -> list[str]:
    """Check the per-task invariants; returns human-readable violations."""
    violations = []
    try:
        check_language(task.src_lang)
        check_language(task.tgt_lang)
    except ValueError as exc:
        violations.append(f"task {task.id}: {exc}")
    expected = task_id(task.src_lang, task.tgt_lang) if not violations else None
    if expected is not None and task.id != expected:
        violations.append(f"task {task.id}: id does not match languages ({expected})")
    if len(task.enc_modules) != len(task.enc_layers):
        violations.append(f"task {task.id}: encoder modules/layer-counts length mismatch")
    if len(task.dec_modules) != len(task.dec_layers):
        violations.append(f"task {task.id}: decoder modules/layer-counts length mismatch")
    if not task.enc_modules or not task.dec_modules:
        violations.append(f"task {task.id}: needs at least one module per side")
    if task.weight < 1:
        violations.append(f"task {task.id}: weight must be a positive integer")
    if task.introduce_at_training_step < 0:
        violations.append(f"task {task.id}: negative curriculum step")
    return violations


def validate_config(tasks: list[TaskSpec], topo: ClusterTopology) -> list[str]:
    """Validate a full task set against topology bounds, slot limits and
    the curriculum cover (every used device hosts a task active from
    step 0, so the multiplexer always has a task to draw).

    Returns an empty list iff the configuration is valid.  Violations are
    reported, never raised; the result is independent of task order.
    """
    violations: list[str] = []
    for task in sorted(tasks, key=lambda t: t.id):
        violations.extend(validate_task(task))

    for dup, n in sorted(Counter(t.id for t in tasks).items()):
        if n > 1:
            violations.append(f"duplicate task id: {dup}")

    enc_counts = {len(t.enc_modules) for t in tasks}
    if len(enc_counts) > 1:
        violations.append(
            "unequal encoder position count across tasks: "
            + ", ".join(str(c) for c in sorted(enc_counts))
        )
    dec_counts = {len(t.dec_modules) for t in tasks}
    if len(dec_counts) > 1:
        violations.append(
            "unequal decoder position count across tasks: "
            + ", ".join(str(c) for c in sorted(dec_counts))
        )

    per_device: dict[DeviceId, list[TaskSpec]] = {}
    for task in sorted(tasks, key=lambda t: t.id):
        if task.device is None:
            continue
        if not topo.contains(task.device):
            violations.append(f"task {task.id}: device {task.device} outside topology")
            continue
        per_device.setdefault(task.device, []).append(task)
    for dev in sorted(per_device):
        hosted = per_device[dev]
        if len(hosted) > topo.n_slots_per_gpu:
            violations.append(
                f"device {dev} holds {len(hosted)} tasks, "
                f"exceeding n_slots_per_gpu={topo.n_slots_per_gpu}"
            )
        if not any(t.introduce_at_training_step == 0 for t in hosted):
            violations.append(f"device {dev} has no task active from step 0")
    return violations
