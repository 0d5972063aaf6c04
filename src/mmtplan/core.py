"""Domain model shared by all planner modules.

Languages, tasks, module identities, devices and the cluster topology.
All types are immutable values after construction and safe to share
across workers.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional

_LANG_RE = re.compile(r"[a-z0-9_]+")
_DEVICE_RE = re.compile(r"(-?[0-9]+):(-?[0-9]+)")
_SURROGATE = re.compile("[\ud800-\udfff]")
# Task ids and adapter names are the keys of a plan.  Both are kept to
# printable ASCII of 1-122 characters (a task id train_{src}-{tgt} of two
# 57-character codes has 121): the keys that plans written as YAML by
# earlier versions could hold, so every plan read before is read under
# the same rules, and no key comes near the 1024 characters a YAML reader
# takes as an implicit key.
MAX_LANG_LEN = 57
MAX_ADAPTER_NAME_LEN = 122
# The planner and the simulator build lists over every device.
MAX_DEVICES = 2**16
# A module holds layers x DEFAULT_PARAMS_PER_LAYER (about 2**22)
# parameters, and the cost model and the simulator turn that into bytes
# and times as floats; up to 2**16 layers keeps every module's parameter
# count and byte payload below 2**53, where a float is still exact.
MAX_LAYERS = 2**16


class ConfigError(ValueError):
    """A failure tagged with the pipeline stage that produced it; `str()` is
    `[stage] message`.  Library errors are subclasses that fix their stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):
        # `args` holds the prefixed text and a subclass's `__init__` takes
        # no stage, so rebuild from the stage and the message instead
        return _stage_error, (type(self), self.stage, self.message)


def _stage_error(cls: type, stage: str, message: str) -> ConfigError:
    error = cls.__new__(cls)
    ConfigError.__init__(error, stage, message)
    return error


class Side(str, Enum):
    ENCODER = "encoder"
    DECODER = "decoder"


def check_language(code: str) -> str:
    """Validate a language code and return it unchanged.

    Codes are short lowercase tokens; comparison throughout the code base
    is plain byte-lexicographic, never locale-dependent.
    """
    if not code or not _LANG_RE.fullmatch(code):
        raise ValueError(f"invalid language code: {code!r}")
    if len(code) > MAX_LANG_LEN:
        raise ValueError(f"language code {code!r} is longer than {MAX_LANG_LEN} characters")
    return code


def check_adapter_name(name: str) -> None:
    """An adapter name keys an emitted plan: 1-122 printable ASCII characters."""
    if not (0 < len(name) <= MAX_ADAPTER_NAME_LEN and name.isascii() and name.isprintable()):
        raise ValueError(
            f"adapter name {name!r} is not 1-{MAX_ADAPTER_NAME_LEN} printable ASCII characters"
        )


def check_text(text: str, what: str) -> None:
    """A string that names a file or goes into a plan holds no surrogate.
    No UTF-8 text holds one and libyaml's reader rejects one, but
    `json.loads` and the pure-Python YAML reader read one from a `\\ud800`
    escape.  `what` names the string in the error; a non-string passes."""
    if isinstance(text, str) and not text.isascii() and _SURROGATE.search(text):
        raise ValueError(f"{what} {text!r} holds a lone surrogate, which UTF-8 cannot encode")


def task_id(src: str, tgt: str) -> str:
    """Task identifier for a translation direction; denoising autoencoder
    tasks are the self-pairs.  `check_language` checks the codes where they
    enter (`MetaConfig`, `validate_task`, `LanguageDistanceMatrix`)."""
    return f"train_{src}-{tgt}"


class ModuleKey(NamedTuple):
    """Identity of a shareable parameter block.

    Two keys denote the same parameter block iff side, position and group
    name are all equal: sharing is positionwise, so encoder groups [x, y]
    and [y, x] yield four distinct modules.  A key is a plain tuple, so it
    orders by (side, position, group) and hashes and compares in C.
    """

    side: Side
    position: int
    group: str

    def __str__(self) -> str:
        return f"{self.side.value}:{self.position}:{self.group}"


class DeviceId(NamedTuple):
    """One GPU: a plain tuple, ordered node-major, that hashes and compares in C."""

    node: int
    gpu: int

    def __str__(self) -> str:
        return f"{self.node}:{self.gpu}"

    @classmethod
    def parse(cls, text: str) -> "DeviceId":
        """Read `node:gpu`, two ASCII integers.  A negative one is read, so
        that validate_config reports it as outside the topology."""
        match = _DEVICE_RE.fullmatch(text)
        if match is None:
            raise ValueError(f"device {text!r} is not node:gpu")
        return cls(int(match[1]), int(match[2]))


def _finite(value: float) -> bool:
    """math.isfinite, and False for an int too large for a float, which
    the cost model could not turn into a time."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ClusterTopology:
    """Nodes x GPUs x slots, with a two-level communication cost model.

    alpha_* are per-message latencies in seconds, finite and >= 0;
    beta_* are bandwidths in bytes per second, finite and > 0.
    Inter-node links are assumed no better than intra-node ones.
    """

    n_nodes: int
    n_gpus_per_node: int
    n_slots_per_gpu: int
    alpha_intra: float = 5e-6
    alpha_inter: float = 20e-6
    beta_intra: float = 100e9
    beta_inter: float = 12.5e9

    def __post_init__(self) -> None:
        for name in ("n_nodes", "n_gpus_per_node", "n_slots_per_gpu"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_devices > MAX_DEVICES:
            raise ValueError(
                f"n_nodes x n_gpus_per_node is {self.n_devices} devices, "
                f"more than {MAX_DEVICES}"
            )
        for name in ("alpha_intra", "alpha_inter", "beta_intra", "beta_inter"):
            value = getattr(self, name)
            if name.startswith("alpha") and not (_finite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
            if name.startswith("beta") and not (_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
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

    def with_device(self, device: DeviceId) -> "TaskSpec":
        return replace(self, device=device)

    def modules(self) -> tuple[ModuleKey, ...]:
        """Encoder modules followed by decoder modules, in forward order."""
        return self.enc_modules + self.dec_modules


def validate_task(task: TaskSpec) -> list[str]:
    """Check the per-task invariants; returns human-readable violations.
    Module i of a side is keyed (side, i, group), adapter names are
    strictly increasing, as `parse` reads a plan back, and no path,
    transform, group or adapter instance holds a surrogate (`check_text`).
    Layer counts are the plan's, not the task's: `validate_config` checks
    them once per distinct tuple."""
    return _task_violations(task, set())


def _task_violations(task: TaskSpec, valid: set) -> list[str]:
    """`validate_task`, where `valid` holds the language codes that the
    caller has found valid, and gains those found valid here."""
    found = []
    try:
        for code in (task.src_lang, task.tgt_lang):
            if not (type(code) is str and code in valid):
                valid.add(check_language(code))
    except ValueError as exc:
        found.append(str(exc))
    else:
        expected = task_id(task.src_lang, task.tgt_lang)
        if task.id != expected:
            found.append(f"id does not match languages ({expected})")
    if not task.enc_modules or not task.dec_modules:
        found.append("needs at least one module per side")
    texts = [task.src_path, task.tgt_path, *task.transforms]
    for side, modules in ((Side.ENCODER, task.enc_modules), (Side.DECODER, task.dec_modules)):
        for i, key in enumerate(modules):
            if key.side != side or key.position != i:
                found.append(f"{side.value} module {i} is keyed {key}")
            texts.append(key.group)
    if task.weight < 1:
        found.append("weight must be a positive integer")
    if task.introduce_at_training_step < 0:
        found.append("negative curriculum step")
    if task.adapters:
        names = [name for name, _ in task.adapters]
        for name in names:
            try:
                check_adapter_name(name)
            except ValueError as exc:
                found.append(str(exc))
        if any(a >= b for a, b in zip(names, names[1:])):
            found.append("adapter names are not sorted, each once")
        texts += [instance for _, instance in task.adapters]
    try:
        plain = "".join(texts).isascii()
    except TypeError:  # a non-string, which `check_text` passes by
        plain = False
    if not plain:
        named = [
            ("src_path", task.src_path),
            ("tgt_path", task.tgt_path),
            *((f"transform {i}", t) for i, t in enumerate(task.transforms)),
            *((f"encoder module {i}", k.group) for i, k in enumerate(task.enc_modules)),
            *((f"decoder module {i}", k.group) for i, k in enumerate(task.dec_modules)),
            *((f"adapter {name}", instance) for name, instance in task.adapters),
        ]
        for what, text in named:
            try:
                check_text(text, what)
            except ValueError as exc:
                found.append(str(exc))
    return [f"task {task.id}: {v}" for v in found] if found else found


def validate_config(tasks: list[TaskSpec], topo: ClusterTopology) -> list[str]:
    """Validate a full task set against topology bounds, slot limits, the
    layer counts (once per distinct tuple, since every task of a plan
    carries the plan's), the curriculum cover (every used device hosts a
    task active from step 0, so the multiplexer always has a task to
    draw) and the multiplexer's weight total (a float).

    Returns an empty list iff the configuration is valid.  Violations are
    reported, never raised; the result is independent of task order.
    """
    violations: list[str] = []
    by_id = sorted(tasks, key=lambda t: t.id)
    valid: set = set()
    for task in by_id:
        violations.extend(_task_violations(task, valid))

    for dup, n in sorted(Counter(t.id for t in tasks).items()):
        if n > 1:
            violations.append(f"duplicate task id: {dup}")

    for side, shapes in (
        ("encoder", {(t.enc_layers, len(t.enc_modules)) for t in tasks}),
        ("decoder", {(t.dec_layers, len(t.dec_modules)) for t in tasks}),
    ):
        counts = sorted({positions for _, positions in shapes})
        if len(counts) > 1:
            violations.append(
                f"unequal {side} position count across tasks: "
                + ", ".join(str(c) for c in counts)
            )
        for layers, positions in sorted(shapes):
            if len(layers) != positions:
                violations.append(
                    f"{side} modules/layer-counts length mismatch: "
                    f"{len(layers)} layer counts for {positions} positions"
                )
        for n in sorted({n for layers, _ in shapes for n in layers}):
            if not 1 <= n <= MAX_LAYERS:
                violations.append(f"{side} layer count {n} is not in 1..{MAX_LAYERS}")

    per_device: dict[DeviceId, list[TaskSpec]] = {}
    for task in by_id:
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
        if not _finite(sum(t.weight for t in hosted)):
            violations.append(
                f"device {dev}: the weights of its tasks sum past what a float holds"
            )
    return violations
