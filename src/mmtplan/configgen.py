"""Meta-configuration compiler.

Takes a compact meta-configuration and produces the full explicit
configuration: task discovery, language clustering, sharing-group
resolution, weighting and curriculum, transform and adapter assignment,
and GPU allocation.  The emitted file spells out every task completely;
nothing is left implicit.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import yaml

from . import allocator
from .clusterer import load_distance_matrix, cluster_languages
from .core import (
    ClusterTopology,
    DeviceId,
    ModuleKey,
    Side,
    TaskSpec,
    task_id,
    validate_config,
)
from .pathtmpl import CorpusMode, PathTemplate, discover_tasks
from .sharing import (
    ArchSpec,
    SharingPattern,
    build_module_sequence,
    enumerate_modules,
    resolve_group_name,
)


class ConfigError(ValueError):
    """Pipeline failure, tagged with the stage that produced it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


_GROUP_PATTERNS = {
    SharingPattern.GROUP,
    SharingPattern.SRC_GROUP,
    SharingPattern.TGT_GROUP,
}


@dataclass(frozen=True)
class CurriculumStage:
    """Tasks whose corpus has fewer than `below_lines` lines are delayed
    until `start_step`.  The earliest applicable stage wins."""

    start_step: int
    below_lines: int


@dataclass(frozen=True)
class AdapterSpec:
    name: str
    side: Side
    positions: tuple[int, ...]
    pattern: SharingPattern


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
    w_intra: float = allocator.DEFAULT_W_INTRA
    w_inter: float = allocator.DEFAULT_W_INTER

    def __post_init__(self) -> None:
        if self.n_groups > len(self.languages):
            raise ValueError("n_groups exceeds number of languages")
        if self.temperature < 1:
            raise ValueError("temperature must be >= 1")
        for spec in self.adapters:
            bound = len(self.arch.stacks(spec.side))
            if any(p < 0 or p >= bound for p in spec.positions):
                raise ValueError(f"adapter {spec.name}: position out of arch bounds")


@dataclass(frozen=True)
class FullConfig:
    tasks: dict[str, TaskSpec]
    enc_layers: tuple[int, ...]
    dec_layers: tuple[int, ...]
    topology: ClusterTopology


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
        ratio = (line_counts[key] / c_min) ** (1.0 / temperature)
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
    dec_patterns = {pattern for pattern, _ in arch.dec_stacks}
    if not dec_patterns & {SharingPattern.LANGUAGE, SharingPattern.TGT_LANGUAGE}:
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
    return lambda path: os.path.exists(os.path.join(corpus_root, path))


def generate(
    meta: MetaConfig, file_exists: Optional[Callable[[str], bool]] = None
) -> FullConfig:
    """Run the full compilation pipeline; deterministic given the meta
    configuration (and the probe's answers)."""
    probe = file_exists if file_exists is not None else default_probe(meta.corpus_root)

    try:
        src_tpl = PathTemplate(meta.src_path_template, meta.corpus_mode)
        tgt_tpl = PathTemplate(meta.tgt_path_template, meta.corpus_mode)
    except ValueError as exc:
        raise ConfigError("templates", str(exc)) from exc

    try:
        pairs = discover_tasks(
            src_tpl, tgt_tpl, meta.languages, probe, include_self_pairs=meta.autoencoder
        )
    except ValueError as exc:
        raise ConfigError("discovery", str(exc)) from exc
    if not pairs:
        raise ConfigError("discovery", "empty task set: no corpus files found")

    patterns = {p for p, _ in meta.arch.enc_stacks + meta.arch.dec_stacks}
    patterns |= {spec.pattern for spec in meta.adapters}
    groups: Optional[dict[str, str]] = None
    if patterns & _GROUP_PATTERNS:
        if meta.distance_matrix_path is None:
            raise ConfigError(
                "clustering", "GROUP sharing patterns require a distance matrix"
            )
        try:
            matrix = load_distance_matrix(meta.distance_matrix_path)
            groups = cluster_languages(matrix, meta.n_groups)
        except (OSError, ValueError) as exc:
            raise ConfigError("clustering", str(exc)) from exc
        missing = set(meta.languages) - set(groups)
        if missing:
            raise ConfigError(
                "clustering", f"distance matrix lacks languages: {sorted(missing)}"
            )

    ids = {pair: task_id(*pair) for pair in pairs}
    counts = {
        ids[pair]: int((meta.line_counts or {}).get(ids[pair], 1)) for pair in pairs
    }
    weights = compute_weights(counts, meta.temperature)
    curriculum = assign_curriculum(counts, meta.curriculum_stages)

    tasks: dict[str, TaskSpec] = {}
    for src, tgt in pairs:
        tid = ids[(src, tgt)]
        try:
            enc, dec, enc_layers, dec_layers = build_module_sequence(
                meta.arch, src, tgt, groups
            )
            adapters = assign_adapters(src, tgt, meta.adapters, groups)
        except KeyError as exc:
            raise ConfigError("sharing", str(exc)) from exc
        tasks[tid] = TaskSpec(
            id=tid,
            src_lang=src,
            tgt_lang=tgt,
            src_path=src_tpl.render(src, tgt),
            tgt_path=tgt_tpl.render(src, tgt),
            enc_modules=enc,
            dec_modules=dec,
            enc_layers=enc_layers,
            dec_layers=dec_layers,
            weight=weights[tid],
            introduce_at_training_step=curriculum[tid],
            transforms=assign_transforms(src, tgt, meta.arch, meta.noise_transform),
            adapters=adapters,
        )

    try:
        modules = enumerate_modules(tasks.values())
        a0 = allocator.initial_assignment(
            list(tasks.values()), meta.topology, seed=meta.seed
        )
        best = allocator.local_search(
            a0,
            list(tasks.values()),
            modules,
            meta.topology,
            budget=meta.search_budget,
            seed=meta.seed,
            w_intra=meta.w_intra,
            w_inter=meta.w_inter,
        )
    except (allocator.AllocationError, ValueError) as exc:
        raise ConfigError("allocation", str(exc)) from exc

    placed = {
        tid: task.with_device(best.placement[tid]) for tid, task in tasks.items()
    }
    violations = validate_config(list(placed.values()), meta.topology)
    if violations:
        raise ConfigError("validation", "; ".join(violations))

    any_task = next(iter(placed.values()))
    return FullConfig(
        tasks=dict(sorted(placed.items())),
        enc_layers=any_task.enc_layers,
        dec_layers=any_task.dec_layers,
        topology=meta.topology,
    )


# ---------------------------------------------------------------------------
# serialization

def _topology_dict(topo: ClusterTopology) -> dict:
    return {
        "n_nodes": topo.n_nodes,
        "n_gpus_per_node": topo.n_gpus_per_node,
        "n_slots_per_gpu": topo.n_slots_per_gpu,
        "alpha_intra": topo.alpha_intra,
        "alpha_inter": topo.alpha_inter,
        "beta_intra": topo.beta_intra,
        "beta_inter": topo.beta_inter,
    }


def emit(cfg: FullConfig) -> str:
    """Serialize to YAML with stable key order; byte-deterministic."""
    doc = {
        "enc_layers": list(cfg.enc_layers),
        "dec_layers": list(cfg.dec_layers),
        **_topology_dict(cfg.topology),
        "tasks": {},
    }
    for tid, task in sorted(cfg.tasks.items()):
        entry = {
            "src_tgt": f"{task.src_lang}-{task.tgt_lang}",
            "path_src": task.src_path,
            "path_tgt": task.tgt_path,
            "enc_sharing_groups": [m.group for m in task.enc_modules],
            "dec_sharing_groups": [m.group for m in task.dec_modules],
            "transforms": list(task.transforms),
            "weight": task.weight,
            "introduce_at_training_step": task.introduce_at_training_step,
        }
        if task.device is not None:
            entry["node_gpu"] = str(task.device)
        if task.adapters:
            entry["adapters"] = {name: inst for name, inst in task.adapters}
        doc["tasks"][tid] = entry
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def _typed(value, kind, what: str, stage: str = "parse"):
    """`value` if it is an instance of `kind`, else a `ConfigError` of
    `stage`.  A bool is never accepted where YAML should give a number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        expected = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(stage, f"{what}: expected {expected}, got {value!r}")
    return value


def _get(doc: dict, key: str, kind, where: str = "", default=None):
    """doc[key], or `default` if one is given and the key is absent,
    checked by `_typed`; errors name the field as `where` + `key`."""
    value = doc[key] if default is None else doc.get(key, default)
    return _typed(value, kind, f"{where}{key}")


def _get_list(doc: dict, key: str, kind, where: str = "", default=None) -> list:
    """`_get` for a list whose every item is a `kind`."""
    items = _get(doc, key, list, where, default)
    return [_typed(v, kind, f"{where}{key}") for v in items]


def parse(text: str) -> FullConfig:
    """Inverse of emit: parse(emit(cfg)) == cfg.  Every field is checked
    for its type here, so later stages see only well-typed values."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("parse", f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("parse", "top level must be a mapping")
    number = (int, float)
    try:
        topo = ClusterTopology(
            n_nodes=_get(doc, "n_nodes", int),
            n_gpus_per_node=_get(doc, "n_gpus_per_node", int),
            n_slots_per_gpu=_get(doc, "n_slots_per_gpu", int),
            alpha_intra=_get(doc, "alpha_intra", number, default=5e-6),
            alpha_inter=_get(doc, "alpha_inter", number, default=20e-6),
            beta_intra=_get(doc, "beta_intra", number, default=100e9),
            beta_inter=_get(doc, "beta_inter", number, default=12.5e9),
        )
        enc_layers = tuple(_get_list(doc, "enc_layers", int))
        dec_layers = tuple(_get_list(doc, "dec_layers", int))
        tasks: dict[str, TaskSpec] = {}
        for tid, entry in doc["tasks"].items():
            where = f"task {_typed(tid, str, 'task id')}: "
            entry = _typed(entry, dict, where + "entry")
            src, _, tgt = _get(entry, "src_tgt", str, where).partition("-")
            enc_groups = _get_list(entry, "enc_sharing_groups", str, where)
            dec_groups = _get_list(entry, "dec_sharing_groups", str, where)
            enc = tuple(ModuleKey(Side.ENCODER, i, g) for i, g in enumerate(enc_groups))
            dec = tuple(ModuleKey(Side.DECODER, i, g) for i, g in enumerate(dec_groups))
            device = None
            if "node_gpu" in entry:
                if not isinstance(entry["node_gpu"], str):
                    raise ConfigError(
                        "parse",
                        f"{where}node_gpu {entry['node_gpu']!r} is not a string; "
                        "quote it (YAML reads an unquoted 2:0 as 120)",
                    )
                device = DeviceId.parse(entry["node_gpu"])
            adapters = _get(entry, "adapters", dict, where, default={})
            for name in [*adapters, *adapters.values()]:
                _typed(name, str, where + "adapters")
            tasks[tid] = TaskSpec(
                id=tid,
                src_lang=src,
                tgt_lang=tgt,
                src_path=_get(entry, "path_src", str, where),
                tgt_path=_get(entry, "path_tgt", str, where),
                enc_modules=enc,
                dec_modules=dec,
                enc_layers=enc_layers[: len(enc)],
                dec_layers=dec_layers[: len(dec)],
                weight=_get(entry, "weight", int, where, default=1),
                introduce_at_training_step=_get(
                    entry, "introduce_at_training_step", int, where, default=0
                ),
                transforms=tuple(_get_list(entry, "transforms", str, where, [])),
                adapters=tuple(sorted(adapters.items())),
                device=device,
            )
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError("parse", f"malformed configuration: {exc!r}") from exc
    return FullConfig(
        tasks=dict(sorted(tasks.items())),
        enc_layers=enc_layers,
        dec_layers=dec_layers,
        topology=topo,
    )


def load_full_config(path: str) -> FullConfig:
    with open(path) as f:
        return parse(f.read())


def write_full_config(cfg: FullConfig, path: str) -> None:
    with open(path, "w") as f:
        f.write(emit(cfg))


# ---------------------------------------------------------------------------
# meta-configuration file loading

def _parse_stacks(raw, side_name: str) -> tuple[tuple[SharingPattern, int], ...]:
    stacks = []
    for item in raw:
        try:
            pattern = SharingPattern(item["pattern"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError("meta", f"bad {side_name} sharing stack: {item!r}") from exc
        stacks.append((pattern, int(item["layers"])))
    return tuple(stacks)


def _load_meta_yaml(path: str):
    with open(path) as f:
        try:
            return yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError("meta", f"invalid YAML in {path}: {exc}") from exc


def load_meta_config(path: str) -> MetaConfig:
    """Read a meta-configuration YAML file.

    Relative corpus roots, distance matrices and line-count files are
    resolved against the meta file's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    doc = _load_meta_yaml(path)
    if not isinstance(doc, dict):
        raise ConfigError("meta", "meta-configuration must be a mapping")

    def resolve(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.join(base, p)

    langs = doc.get("langs")
    if isinstance(langs, list):
        for lang in langs:
            if not isinstance(lang, str):
                raise ConfigError(
                    "meta",
                    f"langs entry {lang!r} is not a string; quote it "
                    "(YAML reads an unquoted no, yes, on or off as a boolean)",
                )

    line_counts = doc.get("line_counts")
    if isinstance(line_counts, str):
        line_counts = _load_meta_yaml(resolve(line_counts))
    if line_counts is not None:
        line_counts = {
            _typed(k, str, "line_counts", "meta"): _typed(v, int, "line_counts", "meta")
            for k, v in _typed(line_counts, dict, "line_counts", "meta").items()
        }

    try:
        arch = ArchSpec(
            _parse_stacks(doc["enc_sharing"], "encoder"),
            _parse_stacks(doc["dec_sharing"], "decoder"),
        )
        topo = ClusterTopology(
            n_nodes=doc.get("n_nodes", 1),
            n_gpus_per_node=doc["n_gpus_per_node"],
            n_slots_per_gpu=doc["n_slots_per_gpu"],
            alpha_intra=doc.get("alpha_intra", 5e-6),
            alpha_inter=doc.get("alpha_inter", 20e-6),
            beta_intra=doc.get("beta_intra", 100e9),
            beta_inter=doc.get("beta_inter", 12.5e9),
        )
        stages = tuple(
            CurriculumStage(int(s["start_step"]), int(s["below_lines"]))
            for s in doc.get("curriculum", ())
        )
        adapters = tuple(
            AdapterSpec(
                name=str(a["name"]),
                side=Side(a["side"]),
                positions=tuple(int(p) for p in a.get("positions", ())),
                pattern=SharingPattern(a["pattern"]),
            )
            for a in doc.get("adapters", ())
        )
        return MetaConfig(
            languages=tuple(_typed(doc["langs"], list, "langs", "meta")),
            src_path_template=_typed(
                doc["src_path_template"], str, "src_path_template", "meta"
            ),
            tgt_path_template=_typed(
                doc["tgt_path_template"], str, "tgt_path_template", "meta"
            ),
            corpus_mode=CorpusMode(doc.get("corpus_mode", "directional")),
            arch=arch,
            topology=topo,
            n_groups=int(doc.get("n_groups", 1)),
            distance_matrix_path=resolve(doc.get("distance_matrix")),
            temperature=float(doc.get("temperature", 1.0)),
            autoencoder=bool(doc.get("autoencoder", False)),
            noise_transform=str(doc.get("noise_transform", "bart")),
            curriculum_stages=stages,
            adapters=adapters,
            corpus_root=resolve(
                _typed(doc.get("corpus_root", "."), str, "corpus_root", "meta")
            ),
            line_counts=line_counts,
            seed=int(doc.get("seed", 0)),
            search_budget=int(doc.get("search_budget", allocator.DEFAULT_BUDGET)),
            w_intra=float(doc.get("w_intra", allocator.DEFAULT_W_INTRA)),
            w_inter=float(doc.get("w_inter", allocator.DEFAULT_W_INTER)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("meta", f"malformed meta-configuration: {exc!r}") from exc
