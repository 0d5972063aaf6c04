"""Corpus path templating and data-driven task discovery.

Two corpus layouts are supported: *directional* corpora distinguish the
two translation directions of a pair, *symmetric* corpora use the same
file pair for both directions.  Note that in symmetric mode the target
side abbreviation is 'trg', not 'tgt'.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .core import ConfigError


class CorpusMode(str, Enum):
    DIRECTIONAL = "directional"
    SYMMETRIC = "symmetric"


DIRECTIONAL_VARS = frozenset({"src_lang", "tgt_lang", "lang_pair"})
SYMMETRIC_VARS = frozenset({"lang_a", "lang_b", "side_a", "side_b", "sorted_pair"})


class TemplateError(ConfigError):
    def __init__(self, message: str):
        super().__init__("templates", message)


def _placeholders(template: str) -> set[str]:
    try:
        fields = list(string.Formatter().parse(template))
    except ValueError as exc:  # an unbalanced brace
        raise TemplateError(str(exc)) from None
    names = set()
    for _, name, spec, conv in fields:
        if name is None:
            continue
        if not name or spec or conv or "." in name or "[" in name:
            raise TemplateError(f"malformed placeholder in template: {template!r}")
        names.add(name)
    return names


@dataclass(frozen=True)
class PathTemplate:
    """A path pattern with {variable} placeholders, checked at parse time
    against the whitelist of its corpus mode."""

    template: str
    mode: CorpusMode

    def __post_init__(self) -> None:
        allowed = DIRECTIONAL_VARS if self.mode is CorpusMode.DIRECTIONAL else SYMMETRIC_VARS
        unknown = _placeholders(self.template) - allowed
        if unknown:
            raise TemplateError(
                f"variables {sorted(unknown)} not allowed in {self.mode.value} mode "
                f"(template {self.template!r})"
            )

    def render(self, src: str, tgt: str) -> str:
        """The path for the direction src->tgt.  A symmetric template is
        rendered against the alphabetically sorted file pair: the pair is
        "forward" iff src is the first language, and side_a/side_b flip
        accordingly.  The codes are checked by `MetaConfig`, not here."""
        if self.mode is CorpusMode.DIRECTIONAL:
            return self.template.format(src_lang=src, tgt_lang=tgt, lang_pair=f"{src}-{tgt}")
        lang_a, lang_b = min(src, tgt), max(src, tgt)
        forward = src == lang_a
        return self.template.format(
            lang_a=lang_a,
            lang_b=lang_b,
            side_a="src" if forward else "trg",
            side_b="trg" if forward else "src",
            sorted_pair=f"{lang_a}-{lang_b}",
        )


def discover_tasks(
    src_template: PathTemplate,
    tgt_template: PathTemplate,
    languages: Iterable[str],
    file_exists: Callable[[str], bool],
    include_self_pairs: bool = False,
) -> list[tuple[str, str, str, str]]:
    """Find which directed language pairs have data in the corpus: sorted
    `(src, tgt, src_path, tgt_path)`, with the paths rendered to probe them.

    A pair survives iff the probe accepts both its rendered source and
    target paths (`configgen.default_probe` accepts regular files,
    symlinks followed).  Self-pairs (for autoencoder stages) are probed
    only when requested.  The probe is injected so discovery stays
    filesystem-agnostic.  The codes are checked by `MetaConfig`, not here.
    """
    langs = sorted(set(languages))
    found = []
    for src in langs:
        for tgt in langs:
            if src == tgt and not include_self_pairs:
                continue
            if file_exists(src_path := src_template.render(src, tgt)) and file_exists(
                tgt_path := tgt_template.render(src, tgt)
            ):
                found.append((src, tgt, src_path, tgt_path))
    return found
