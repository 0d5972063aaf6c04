"""Layerwise parameter-sharing patterns.

Resolves sharing patterns into concrete module group names per task and
enumerates the global module inventory.  Group names in configuration
files use the exact uppercase pattern identifiers.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .core import MAX_LAYERS, ConfigError, ModuleKey, Side, TaskSpec

# Per-layer parameter count for a d=512, 8-head, ffn=2048 transformer
# layer: 4 d^2 attention projections + 2 d*ffn feed-forward + norm scales.
DEFAULT_PARAMS_PER_LAYER = 4 * 512 * 512 + 2 * 512 * 2048 + 4 * 512


class SharingPattern(str, Enum):
    FULL = "FULL"
    SRC_GROUP = "SRC_GROUP"
    TGT_GROUP = "TGT_GROUP"
    GROUP = "GROUP"
    SRC_LANGUAGE = "SRC_LANGUAGE"
    TGT_LANGUAGE = "TGT_LANGUAGE"
    LANGUAGE = "LANGUAGE"


@dataclass(frozen=True)
class ArchSpec:
    """Sharing architecture: one (pattern, n_layers) stack per sequential
    position, per side.  An error names the side by its meta key."""

    enc_stacks: tuple[tuple[SharingPattern, int], ...]
    dec_stacks: tuple[tuple[SharingPattern, int], ...]

    def __post_init__(self) -> None:
        for key, stacks in (("enc_sharing", self.enc_stacks), ("dec_sharing", self.dec_stacks)):
            if not stacks:
                raise ValueError(f"{key}: at least one stack")
            for i, (_, n) in enumerate(stacks):
                if not 1 <= n <= MAX_LAYERS:
                    raise ValueError(f"{key}[{i}]: layer count {n} is not in 1..{MAX_LAYERS}")

    def stacks(self, side: Side) -> tuple[tuple[SharingPattern, int], ...]:
        return self.enc_stacks if side is Side.ENCODER else self.dec_stacks


class GroupMapError(ConfigError):
    def __init__(self, message: str):
        super().__init__("sharing", message)


# The patterns resolved through the language clustering, and the decoder
# patterns that give each target language a module of its own.
GROUP_PATTERNS = frozenset({SharingPattern.GROUP, SharingPattern.SRC_GROUP, SharingPattern.TGT_GROUP})
TGT_LANGUAGE_PATTERNS = frozenset({SharingPattern.LANGUAGE, SharingPattern.TGT_LANGUAGE})


def resolve_group_name(
    pattern: SharingPattern,
    side: Side,
    src: str,
    tgt: str,
    groups: Mapping[str, str] | None = None,
) -> str:
    """Map a sharing pattern to the module group name for one task.

    GROUP and LANGUAGE are the side-dependent conveniences: they behave as
    their SRC_* variant on the encoder and the TGT_* variant on the decoder.
    """
    if pattern is SharingPattern.FULL:
        return "full"
    if pattern is SharingPattern.SRC_LANGUAGE:
        return src
    if pattern is SharingPattern.TGT_LANGUAGE:
        return tgt
    if pattern is SharingPattern.LANGUAGE:
        return src if side is Side.ENCODER else tgt
    # remaining patterns are the GROUP_PATTERNS
    if pattern is SharingPattern.GROUP:
        lang = src if side is Side.ENCODER else tgt
    elif pattern is SharingPattern.SRC_GROUP:
        lang = src
    else:
        lang = tgt
    if groups is None or lang not in groups:
        raise GroupMapError(f"no group defined for language {lang!r}")
    return groups[lang]


def build_module_sequence(
    arch: ArchSpec,
    src: str,
    tgt: str,
    groups: Mapping[str, str] | None = None,
) -> tuple[tuple[ModuleKey, ...], tuple[ModuleKey, ...], tuple[int, ...], tuple[int, ...]]:
    """Resolve the architecture into per-position module keys and layer
    counts for one task."""

    def one_side(side: Side) -> tuple[tuple[ModuleKey, ...], tuple[int, ...]]:
        keys = []
        layers = []
        for pos, (pattern, n_layers) in enumerate(arch.stacks(side)):
            keys.append(ModuleKey(side, pos, resolve_group_name(pattern, side, src, tgt, groups)))
            layers.append(n_layers)
        return tuple(keys), tuple(layers)

    enc_modules, enc_layers = one_side(Side.ENCODER)
    dec_modules, dec_layers = one_side(Side.DECODER)
    return enc_modules, dec_modules, enc_layers, dec_layers


@dataclass(frozen=True)
class ModuleInfo:
    n_layers: int
    n_params: int


def enumerate_modules(tasks: Iterable[TaskSpec]) -> dict[ModuleKey, ModuleInfo]:
    """Union of all tasks' module sequences with layer and parameter counts.

    Sharing is exactly name-equality at a (side, position): any two tasks
    agreeing on the triple reference one module.  Layer counts must agree
    across all referencing tasks.
    """
    inventory: dict[ModuleKey, int] = {}
    for task in tasks:
        for key, n_layers in zip(task.modules(), task.enc_layers + task.dec_layers):
            seen = inventory.setdefault(key, n_layers)
            if seen != n_layers:
                raise GroupMapError(
                    f"conflicting layer counts for module {key}: {seen} vs {n_layers}"
                )
    return {
        key: ModuleInfo(n_layers, n_layers * DEFAULT_PARAMS_PER_LAYER)
        for key, n_layers in inventory.items()
    }

