"""Meta-configuration compiler.

Takes a compact meta-configuration and produces the full explicit
configuration: task discovery, language clustering, sharing-group
resolution, weighting and curriculum, transform and adapter assignment,
and GPU allocation.  The emitted file spells out every task completely;
nothing is left implicit.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass
from typing import Callable, Mapping, Optional, Sequence

import yaml

from . import allocator
from .clusterer import load_distance_matrix, cluster_languages
from .core import (
    ClusterTopology,
    ConfigError,
    DeviceId,
    ModuleKey,
    Side,
    TaskSpec,
    check_adapter_name,
    check_language,
    check_text,
    task_id,
    validate_config,
)
from .pathtmpl import CorpusMode, PathTemplate, discover_tasks
from .sharing import (
    GROUP_PATTERNS,
    TGT_LANGUAGE_PATTERNS,
    ArchSpec,
    SharingPattern,
    build_module_sequence,
    enumerate_modules,
    resolve_group_name,
)


# PyYAML's Python composer, whose recursion ends in a RecursionError, on
# libyaml's scanner and parser where PyYAML has libyaml (its own composer
# recurses on the C stack, which 50,000 levels of nesting overflow), else on
# the pure-Python ones: SafeLoader, which already has the composer.
_C_LOADER = getattr(yaml, "CSafeLoader", None)
_YAML_BASES = (yaml.composer.Composer, _C_LOADER) if _C_LOADER else (yaml.SafeLoader,)


class YAML_LOADER(*_YAML_BASES):
    """A repeated mapping key is an error, not last-wins; `<<` merged keys may
    be overridden.  Names SafeConstructor, so it fits the pure-Python loader too."""

    def __init__(self, stream):
        _YAML_BASES[-1].__init__(self, stream)
        yaml.composer.Composer.__init__(self)

    def construct_mapping(self, node, deep=False):
        pairs = node.value[:]  # before `<<` merges are flattened in
        mapping = yaml.constructor.SafeConstructor.construct_mapping(self, node, deep)
        first = {}
        for key_node in [k for k, _ in pairs if k.tag != "tag:yaml.org,2002:merge"]:
            key = self.construct_object(key_node)
            if first.setdefault(key, key_node) is not key_node:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark)
        return mapping


# What loading malformed YAML raises.  Besides YAMLError, PyYAML's
# constructor raises ValueError for a timestamp that is no date
# (2001-13-01) or an integer of more than 4300 digits, and libyaml's loader
# a UnicodeEncodeError (a ValueError) for a str holding a lone surrogate.
# The composer recurses once per nesting level.
_YAML_ERRORS = (yaml.YAMLError, ValueError, RecursionError)
# Characters a YAML reader does not read back from a JSON string as they
# are: it rejects U+007F-U+009F (but U+0085), U+FFFE, U+FFFF and
# surrogates, and takes U+0085, U+2028 and U+2029 as line breaks, which it
# folds or trims spaces around.  `emit` writes them as JSON escapes, which
# YAML reads the same.
_YAML_UNSAFE = re.compile("[\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]")
# PyYAML reads numbers by YAML 1.1, whose float needs a `.` in its
# mantissa: it reads JSON's `5e-06` as a string and `5.0e-06` as the float.
# The topology's latencies and bandwidths are a plan's only floats, each a
# top-level key on a line of its own.
_BARE_MANTISSA = re.compile(r'(\n "(?:alpha|beta)_in(?:ter|tra)": \d+)(?=e)')


@dataclass(frozen=True)
class CurriculumStage:
    """Tasks whose corpus has fewer than `below_lines` lines are delayed
    until `start_step`, which is >= 0.  The earliest applicable stage wins."""

    start_step: int
    below_lines: int

    def __post_init__(self) -> None:
        if self.start_step < 0:
            raise ValueError(f"curriculum: start_step must be >= 0, got {self.start_step}")


@dataclass(frozen=True)
class AdapterSpec:
    name: str
    side: Side
    positions: tuple[int, ...]
    pattern: SharingPattern

    def __post_init__(self) -> None:
        check_adapter_name(self.name)


@dataclass(frozen=True)
class MetaConfig:
    languages: tuple[str, ...]
    src_path_template: str
    tgt_path_template: str
    corpus_mode: CorpusMode
    arch: ArchSpec
    topology: ClusterTopology
    n_groups: int = 1
    distance_matrix_path: Optional[str] = None
    temperature: float = 1.0
    autoencoder: bool = False
    noise_transform: str = "bart"
    curriculum_stages: tuple[CurriculumStage, ...] = ()
    adapters: tuple[AdapterSpec, ...] = ()
    corpus_root: str = "."
    line_counts: Optional[Mapping[str, int]] = None
    seed: int = 0
    search_budget: int = allocator.DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if not self.languages:
            raise ValueError("langs: at least one language code")
        seen = set()
        for lang in self.languages:
            if check_language(lang) in seen:
                raise ValueError(f"langs: duplicate language code {lang}")
            seen.add(lang)
        if self.n_groups < 1:
            raise ValueError(f"n_groups must be >= 1, got {self.n_groups}")
        if self.n_groups > len(self.languages):
            raise ValueError("n_groups exceeds number of languages")
        if not self.temperature >= 1:
            raise ValueError("temperature must be >= 1")
        if self.search_budget < 0:
            raise ValueError(f"search_budget must be >= 0, got {self.search_budget}")
        for i, spec in enumerate(self.adapters):
            bound = len(self.arch.stacks(spec.side))
            if any(p < 0 or p >= bound for p in spec.positions):
                raise ValueError(f"adapter {spec.name}: position out of arch bounds")
            if spec.name in (other.name for other in self.adapters[:i]):
                raise ValueError(f"adapters: duplicate name {spec.name}")
        if (self.distance_matrix_path is None) == self.uses_groups:
            which = "required where a" if self.uses_groups else "no"
            raise ValueError(f"distance_matrix: {which} sharing pattern or adapter uses groups")
        for name in ("src_path_template", "tgt_path_template", "noise_transform"):
            check_text(getattr(self, name), name)

    @property
    def uses_groups(self) -> bool:
        """Whether a stack or an adapter has a GROUP pattern, so that
        languages are clustered from the distance matrix."""
        patterns = {p for p, _ in self.arch.enc_stacks + self.arch.dec_stacks}
        patterns |= {spec.pattern for spec in self.adapters}
        return bool(patterns & GROUP_PATTERNS)


@dataclass(frozen=True)
class FullConfig:
    """An explicit plan, checked where it is built: at least one task,
    `validate_config`, and each task placed, keyed by its id and carrying
    the plan's layer counts.
    Any violation is one `[validation]` error, so `parse(emit(cfg)) == cfg`.
    Do not mutate `tasks` after construction; use `dataclasses.replace`."""

    tasks: dict[str, TaskSpec]
    enc_layers: tuple[int, ...]
    dec_layers: tuple[int, ...]
    topology: ClusterTopology

    def __post_init__(self) -> None:
        tasks = list(self.tasks.values())
        # every task carries the plan's layer counts, and `validate_config`
        # checks them through the tasks, so a plan without one checks none
        violations = [] if tasks else ["plan has no tasks"]
        violations += [f"key {k} holds task {t.id}" for k, t in self.tasks.items() if k != t.id]
        violations += validate_config(tasks, self.topology)
        violations += sorted(f"task {t.id}: no device" for t in tasks if t.device is None)
        enc, dec = self.enc_layers, self.dec_layers
        off = sorted(t.id for t in tasks if t.enc_layers != enc or t.dec_layers != dec)
        if off:
            violations.append(f"{len(off)} tasks, {off[0]} first, lack the plan's layer counts")
        if violations:
            raise ConfigError("validation", "; ".join(violations))


def compute_weights(line_counts: Mapping[str, int], temperature: float) -> dict[str, int]:
    """Temperature-smoothed sampling weights, normalized to the smallest
    corpus: w = max(1, round((c / c_min)^(1/T)))."""
    if not line_counts:
        raise ConfigError("weighting", "empty line-count map")
    c_min = min(line_counts.values())
    if c_min < 1:
        raise ConfigError("weighting", "line counts must be >= 1")
    weights = {}
    for key in line_counts:
        try:
            ratio = (line_counts[key] / c_min) ** (1.0 / temperature)
        except OverflowError:
            raise ConfigError(
                "weighting",
                f"weight of {key} does not fit a float "
                "(line count or temperature too large)",
            ) from None
        weights[key] = max(1, int(math.floor(ratio + 0.5)))
    return weights


def assign_curriculum(
    line_counts: Mapping[str, int], stages: Sequence[CurriculumStage]
) -> dict[str, int]:
    """Introduction step per task: the start step of the first (earliest)
    stage whose size predicate the task satisfies, else 0."""
    ordered = sorted(stages, key=lambda s: s.start_step)
    result = {}
    for key, count in line_counts.items():
        step = 0
        for stage in ordered:
            if count < stage.below_lines:
                step = stage.start_step
                break
        result[key] = step
    return result


def assign_transforms(
    src: str, tgt: str, arch: ArchSpec, noise_transform: str
) -> tuple[str, ...]:
    """Transform chain for one task.

    Translation tasks tokenize and filter; denoising self-pairs tokenize
    and add the noising objective.  When the decoder has no
    target-language-specific module, a target-language prefix token is
    appended so the model knows where to translate to.
    """
    if src == tgt:
        transforms = ["subword", noise_transform]
    else:
        transforms = ["subword", "filter"]
    if TGT_LANGUAGE_PATTERNS.isdisjoint(pattern for pattern, _ in arch.dec_stacks):
        transforms.append(f"prefix:{tgt}")
    return tuple(transforms)


def assign_adapters(
    src: str,
    tgt: str,
    specs: Sequence[AdapterSpec],
    groups: Optional[Mapping[str, str]],
) -> tuple[tuple[str, str], ...]:
    """Adapter instances for one task, named <adapter>:<resolved group>,
    sorted by adapter name (the order `parse` reads them back in)."""
    out = []
    for spec in specs:
        resolved = resolve_group_name(spec.pattern, spec.side, src, tgt, groups)
        out.append((spec.name, f"{spec.name}:{resolved}"))
    return tuple(sorted(out))


def default_probe(corpus_root: str) -> Callable[[str], bool]:
    """Whether a template path names a regular file (symlinks followed)
    under `corpus_root`: one `stat` per call.  The root is joined once; an
    absolute path ignores it, as `os.path.join` does."""
    root = os.path.join(corpus_root, "")
    return lambda path: os.path.isfile(path if os.path.isabs(path) else root + path)


def generate(
    meta: MetaConfig, file_exists: Optional[Callable[[str], bool]] = None
) -> FullConfig:
    """Run the full compilation pipeline; deterministic given the meta
    configuration (and the probe's answers), whose `seed` is the only one.
    Group patterns cluster `meta.languages` alone.  The plan, its tasks in
    `CostContext.tasks` order, is checked as it is built (`[validation]`)."""
    probe = file_exists if file_exists is not None else default_probe(meta.corpus_root)

    src_tpl = PathTemplate(meta.src_path_template, meta.corpus_mode)
    tgt_tpl = PathTemplate(meta.tgt_path_template, meta.corpus_mode)
    found = discover_tasks(
        src_tpl, tgt_tpl, meta.languages, probe, include_self_pairs=meta.autoencoder
    )
    if not found:
        raise ConfigError("discovery", "empty task set: no corpus files found")

    groups: Optional[dict[str, str]] = None
    if meta.uses_groups:
        try:
            matrix = load_distance_matrix(meta.distance_matrix_path)
            groups = cluster_languages(matrix, meta.n_groups, meta.languages)
        except (OSError, ValueError) as exc:
            raise ConfigError("clustering", str(exc)) from exc

    ids = [task_id(src, tgt) for src, tgt, _, _ in found]
    line_counts = meta.line_counts or {}
    unknown = ", ".join(sorted(set(line_counts).difference(ids)))
    if unknown:
        raise ConfigError("weighting", f"line_counts for tasks not discovered: {unknown}")
    counts = {tid: int(line_counts.get(tid, 1)) for tid in ids}
    weights = compute_weights(counts, meta.temperature)
    curriculum = assign_curriculum(counts, meta.curriculum_stages)

    tasks: dict[str, TaskSpec] = {}
    for tid, (src, tgt, src_path, tgt_path) in zip(ids, found):
        enc, dec, enc_layers, dec_layers = build_module_sequence(meta.arch, src, tgt, groups)
        adapters = assign_adapters(src, tgt, meta.adapters, groups)
        tasks[tid] = TaskSpec(
            id=tid,
            src_lang=src,
            tgt_lang=tgt,
            src_path=src_path,
            tgt_path=tgt_path,
            enc_modules=enc,
            dec_modules=dec,
            enc_layers=enc_layers,
            dec_layers=dec_layers,
            weight=weights[tid],
            introduce_at_training_step=curriculum[tid],
            transforms=assign_transforms(src, tgt, meta.arch, meta.noise_transform),
            adapters=adapters,
        )

    ctx = allocator.CostContext(
        list(tasks.values()), enumerate_modules(tasks.values()), meta.topology
    )
    task_dev = allocator.warm_start(ctx, meta.seed)
    allocator.local_search(ctx, task_dev, meta.search_budget, meta.seed)

    placed = {tid: tasks[tid].with_device(dev) for tid, dev in ctx.placement(task_dev).items()}
    any_task = next(iter(placed.values()))
    return FullConfig(
        tasks=placed,
        enc_layers=any_task.enc_layers,
        dec_layers=any_task.dec_layers,
        topology=meta.topology,
    )


# ---------------------------------------------------------------------------
# serialization

_NUMBER = (int, float)
# A document's keys, in the order they are read and their faults found,
# each with (kind, entry, default, convert) as `_read` takes them.  A
# default is taken from its dataclass where a field holds the value read.
_TOPOLOGY = {
    "n_nodes": (int, None, MISSING, None),
    "n_gpus_per_node": (int, None, MISSING, None),
    "n_slots_per_gpu": (int, None, MISSING, None),
    "alpha_intra": (_NUMBER, None, ClusterTopology.alpha_intra, None),
    "alpha_inter": (_NUMBER, None, ClusterTopology.alpha_inter, None),
    "beta_intra": (_NUMBER, None, ClusterTopology.beta_intra, None),
    "beta_inter": (_NUMBER, None, ClusterTopology.beta_inter, None),
}


# What `emit` writes a task with: sorted keys and the default separators.
# The C encoder runs only where `indent` is None; with any indent, `json`
# falls back to its pure-Python one.
_ENCODE = json.JSONEncoder(ensure_ascii=False, check_circular=False, sort_keys=True).encode


def emit(cfg: FullConfig) -> str:
    """Serialize as JSON text with sorted keys, byte-deterministic: each
    top-level key on a line of its own, and under `tasks` one task per
    line, `"<id>": {...}`, so a changed task is one changed line.  JSON is
    a subset of YAML 1.2, and the text is written so that YAML 1.1 readers
    (PyYAML, libyaml) read the same document from it: a plan stays a YAML
    file.  Every task of a `FullConfig` has the device that `parse`
    requires."""
    top = {
        "enc_layers": list(cfg.enc_layers),
        "dec_layers": list(cfg.dec_layers),
        **{key: getattr(cfg.topology, key) for key in _TOPOLOGY},
    }
    lines = []
    for tid in sorted(cfg.tasks):
        task = cfg.tasks[tid]
        entry = {
            "src_tgt": f"{task.src_lang}-{task.tgt_lang}",
            "path_src": task.src_path,
            "path_tgt": task.tgt_path,
            "enc_sharing_groups": [m.group for m in task.enc_modules],
            "dec_sharing_groups": [m.group for m in task.dec_modules],
            "transforms": list(task.transforms),
            "weight": task.weight,
            "introduce_at_training_step": task.introduce_at_training_step,
            "node_gpu": str(task.device),
        }
        if task.adapters:
            entry["adapters"] = dict(task.adapters)
        lines.append(f"  {_ENCODE(tid)}: {_ENCODE(entry)}")
    head = "{\n" + "".join(f" {_ENCODE(k)}: {_ENCODE(v)},\n" for k, v in sorted(top.items()))
    # "tasks" sorts after every other top-level key
    text = _BARE_MANTISSA.sub(r"\1.0", head) + ' "tasks": {\n' + ",\n".join(lines) + "\n }\n}\n"
    # every character the pass escapes is U+007F or not ASCII
    if "\x7f" in text or not text.isascii():
        text = _YAML_UNSAFE.sub(lambda m: f"\\u{ord(m[0]):04x}", text)
    return text


def _load_yaml(data, stage: str, where: str = ""):
    try:
        return yaml.load(data, Loader=YAML_LOADER)
    except _YAML_ERRORS as exc:
        raise ConfigError(stage, f"invalid YAML{where}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """`json.loads` hook: a repeated key sends the text to the YAML reader,
    whose error names it."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError("repeated key")
    return doc


def _yaml_string(constant: str):
    """`json.loads` hook: YAML 1.1 reads NaN and Infinity as strings, so
    text holding them goes to the YAML reader."""
    raise ValueError(f"{constant} is a string in YAML")


def _load_plan(text: str | bytes):
    """The document of a plan file.  JSON text, as `emit` writes it, is
    read by the stdlib's C reader, with the meaning YAML gives it; other
    text, or JSON too deep for it, by `YAML_LOADER`, so that a hand-written
    YAML plan is read and a faulty one is reported by the YAML reader."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_yaml_string)
    except (ValueError, RecursionError):
        return _load_yaml(text, "parse")


def _typed(value, kind, what: str):
    """`value` if its type is exactly `kind`, or one of a tuple of kinds,
    else a `ValueError`; JSON and YAML readers give exact builtins, and a
    bool is no int.  A scalar where a string belongs (YAML reads an
    unquoted no as False and 2:0 as 120) gets a hint to quote it."""
    kinds = kind if type(kind) is tuple else (kind,)
    if type(value) in kinds:
        return value
    if kind is str and not isinstance(value, (dict, list, type(None))):
        raise ValueError(f"{what} {value!r} is not a string; quote it")
    expected = " or ".join(k.__name__ for k in kinds)
    raise ValueError(f"{what}: expected {expected}, got {value!r}")


def _read(doc: dict, table: Mapping[str, tuple], where: str = "") -> list:
    """The values of `doc`'s keys, in the order of `table`, which maps each
    key that `doc` may hold to (kind, entry, default, convert).  A value is
    a `kind` (`_typed`); unless `entry` is None, so is each item of a list,
    or each value of a mapping, whose keys are strings, an `entry`; then
    `convert`, unless None, gives the value returned.  An absent key gives
    `default` as it is (no row has a default of its kind and a `convert`),
    and is an error where that is MISSING, as dataclasses mark a field
    without a default.  An explicit null is checked.  Every error names
    the field as `where` + key, `convert`'s as `<key>: <message>`."""
    if not doc.keys() <= table.keys():
        unknown = ", ".join(sorted(map(str, doc.keys() - table.keys())))
        raise ValueError(f"{where}unknown keys: {unknown}")
    values = []
    for key, (kind, entry, default, convert) in table.items():
        # an absent key whose default has its kind takes the fast path
        value = doc.get(key, default)
        if type(value) is not kind:
            if key not in doc:
                if default is MISSING:
                    raise ValueError(f"{where}{key}: required key is missing")
                values.append(default)
                continue
            _typed(value, kind, where + key)
        if entry is not None:
            if kind is list:
                for item in value:
                    if type(item) is not entry:
                        _typed(item, entry, f"{where}{key} entry")
            else:
                for name in value:
                    if type(name) is not str:
                        _typed(name, str, where + key)
                for item in value.values():
                    if type(item) is not entry:
                        _typed(item, entry, where + key)
        if convert is not None:
            try:
                value = convert(value)
            except ValueError as exc:
                raise ValueError(f"{where}{key}: {exc}") from None
        values.append(value)
    return values


def _src_tgt(text: str) -> tuple[str, str]:
    src, dash, tgt = text.partition("-")
    if not dash:
        raise ValueError(f"{text!r} is not <src>-<tgt>")
    return src, tgt


_PLAN = {
    **_TOPOLOGY,
    "enc_layers": (list, int, MISSING, tuple),
    "dec_layers": (list, int, MISSING, tuple),
    # each task id and entry is checked where the entry is read
    "tasks": (dict, None, MISSING, None),
}
_TASK = {
    "src_tgt": (str, None, MISSING, _src_tgt),
    "enc_sharing_groups": (list, str, MISSING, None),
    "dec_sharing_groups": (list, str, MISSING, None),
    "adapters": (dict, str, TaskSpec.adapters, lambda names: tuple(sorted(names.items()))),
    "path_src": (str, None, MISSING, None),
    "path_tgt": (str, None, MISSING, None),
    "weight": (int, None, TaskSpec.weight, None),
    "introduce_at_training_step": (int, None, TaskSpec.introduce_at_training_step, None),
    "transforms": (list, str, TaskSpec.transforms, tuple),
    "node_gpu": (str, None, MISSING, None),
}


def parse(text: str | bytes) -> FullConfig:
    """Inverse of emit: parse(emit(cfg)) == cfg.  A wrong type or an unknown
    key is a `[parse]` error, so later stages see only well-typed values;
    the `FullConfig` built checks the plan's rules (`[validation]`).  Bytes
    are decoded as UTF-8, or UTF-16 by BOM.  The plan and each task are
    read by `_read`.  Tasks share one `ModuleKey` tuple per side and group
    sequence, and one `DeviceId` per `node_gpu`, as equal values."""
    doc = _load_plan(text)
    if not isinstance(doc, dict):
        raise ConfigError("parse", "top level must be a mapping")
    modules: dict[tuple, tuple[ModuleKey, ...]] = {}
    devices: dict[str, DeviceId] = {}

    def module_keys(side: Side, groups: list) -> tuple[ModuleKey, ...]:
        seq = (side, *groups)
        keys = modules.get(seq)
        if keys is None:
            keys = modules[seq] = tuple(ModuleKey(side, i, g) for i, g in enumerate(groups))
        return keys

    try:
        *topology, enc_layers, dec_layers, entries = _read(doc, _PLAN)
        topo = ClusterTopology(*topology)
        tasks: dict[str, TaskSpec] = {}
        for tid, entry in entries.items():
            if type(tid) is not str:
                _typed(tid, str, "task id")
            where = f"task {tid}: "
            if type(entry) is not dict:
                _typed(entry, dict, where + "entry")
            ((src, tgt), enc_groups, dec_groups, adapters, src_path, tgt_path,
             weight, step, transforms, node_gpu) = _read(entry, _TASK, where)
            device = devices.get(node_gpu)
            if device is None:
                try:
                    device = devices[node_gpu] = DeviceId.parse(node_gpu)
                except ValueError as exc:
                    raise ValueError(f"{where}node_gpu: {exc}") from None
            tasks[tid] = TaskSpec(
                id=tid,
                src_lang=src,
                tgt_lang=tgt,
                src_path=src_path,
                tgt_path=tgt_path,
                enc_modules=module_keys(Side.ENCODER, enc_groups),
                dec_modules=module_keys(Side.DECODER, dec_groups),
                enc_layers=enc_layers,
                dec_layers=dec_layers,
                weight=weight,
                introduce_at_training_step=step,
                transforms=transforms,
                adapters=adapters,
                device=device,
            )
    except ValueError as exc:
        raise ConfigError("parse", str(exc)) from None
    return FullConfig(
        tasks=dict(sorted(tasks.items())),
        enc_layers=enc_layers,
        dec_layers=dec_layers,
        topology=topo,
    )


def load_full_config(path: str) -> FullConfig:
    with open(path, "rb") as f:
        return parse(f.read())


def write_full_config(cfg: FullConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(emit(cfg))


# ---------------------------------------------------------------------------
# meta-configuration file loading

def _each(table: Mapping[str, tuple]):
    """A `convert` for a list of mappings: each mapping's values, read by `_read`."""
    return lambda items: tuple(tuple(_read(item, table)) for item in items)


_STACK = {"pattern": (str, None, MISSING, SharingPattern), "layers": (int, None, MISSING, None)}
_CURRICULUM = {"start_step": (int, None, MISSING, None), "below_lines": (int, None, MISSING, None)}
_ADAPTER = {
    "name": (str, None, MISSING, None),
    "side": (str, None, MISSING, Side),
    "positions": (list, int, (), tuple),
    "pattern": (str, None, MISSING, SharingPattern),
}
_META = {
    "line_counts": (dict, int, MetaConfig.line_counts, None),
    "langs": (list, str, MISSING, tuple),
    "src_path_template": (str, None, MISSING, None),
    "tgt_path_template": (str, None, MISSING, None),
    "corpus_mode": (str, None, CorpusMode.DIRECTIONAL, CorpusMode),
    "enc_sharing": (list, dict, MISSING, _each(_STACK)),
    "dec_sharing": (list, dict, MISSING, _each(_STACK)),
    # a meta file may leave out n_nodes: one node
    **_TOPOLOGY, "n_nodes": (int, None, 1, None),
    "n_groups": (int, None, MetaConfig.n_groups, None),
    "temperature": (_NUMBER, None, MetaConfig.temperature, None),
    "autoencoder": (bool, None, MetaConfig.autoencoder, None),
    "noise_transform": (str, None, MetaConfig.noise_transform, None),
    "seed": (int, None, MetaConfig.seed, None),
    "search_budget": (int, None, MetaConfig.search_budget, None),
    "distance_matrix": (str, None, MetaConfig.distance_matrix_path, None),
    "curriculum": (list, dict, MetaConfig.curriculum_stages, _each(_CURRICULUM)),
    "adapters": (list, dict, MetaConfig.adapters, _each(_ADAPTER)),
    "corpus_root": (str, None, MetaConfig.corpus_root, None),
}


def _load_meta_yaml(path: str):
    with open(path, "rb") as f:
        return _load_yaml(f, "meta", f" in {path}")


def load_meta_config(path: str) -> MetaConfig:
    """Read a meta-configuration YAML file.

    Every field is read by `_read`, which checks its type, and an unknown
    key is an error; once every type is read, the dataclasses that hold
    the values check their other rules.  Relative corpus roots, distance
    matrices and line-count files are resolved against the meta file's
    directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    doc = _load_meta_yaml(path)
    if not isinstance(doc, dict):
        raise ConfigError("meta", "meta-configuration must be a mapping")
    # as written: the meta file's directory, which they are resolved
    # against, may hold the surrogate escapes of bytes that are no UTF-8
    for key in ("corpus_root", "distance_matrix", "line_counts"):
        try:
            check_text(doc.get(key), key)
        except ValueError as exc:
            raise ConfigError("meta", str(exc)) from None

    def resolve(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.join(base, p)

    # a line-count file is read as the mapping it holds would be inline
    if isinstance(doc.get("line_counts"), str):
        doc["line_counts"] = _load_meta_yaml(resolve(doc["line_counts"]))
    try:
        values = dict(zip(_META, _read(doc, _META)))
        return MetaConfig(
            languages=values["langs"],
            src_path_template=values["src_path_template"],
            tgt_path_template=values["tgt_path_template"],
            corpus_mode=values["corpus_mode"],
            arch=ArchSpec(values["enc_sharing"], values["dec_sharing"]),
            topology=ClusterTopology(*[values[key] for key in _TOPOLOGY]),
            n_groups=values["n_groups"],
            distance_matrix_path=resolve(values["distance_matrix"]),
            temperature=values["temperature"],
            autoencoder=values["autoencoder"],
            noise_transform=values["noise_transform"],
            curriculum_stages=tuple(CurriculumStage(*stage) for stage in values["curriculum"]),
            adapters=tuple(AdapterSpec(*spec) for spec in values["adapters"]),
            corpus_root=resolve(values["corpus_root"]),
            line_counts=values["line_counts"],
            seed=values["seed"],
            search_budget=values["search_budget"],
        )
    except ValueError as exc:
        raise ConfigError("meta", str(exc)) from None
