"""Language grouping by deterministic complete-linkage clustering.

The dissimilarity signal is user-supplied as a matrix file; this module
only partitions.  Tie-breaking and group naming are fully specified so
that results are bit-identical across platforms and input orderings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import check_language


@dataclass(frozen=True)
class LanguageDistanceMatrix:
    languages: tuple[str, ...]
    d: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.languages)
        if len(set(self.languages)) != n:
            raise ValueError("duplicate language in distance matrix")
        for lang in self.languages:
            check_language(lang)
        if len(self.d) != n or any(len(row) != n for row in self.d):
            raise ValueError("distance matrix is not square")
        # each pair once: a NaN or negative entry below the diagonal fails the mirror test
        for i in range(n):
            if self.d[i][i] != 0.0:
                raise ValueError("distance matrix diagonal must be zero")
            for j in range(i + 1, n):
                v = self.d[i][j]
                if not math.isfinite(v) or v < 0:
                    raise ValueError("distances must be finite and non-negative")
                if v != self.d[j][i]:
                    raise ValueError("distance matrix must be symmetric")


def load_distance_matrix(path: str) -> LanguageDistanceMatrix:
    """Read a matrix file: a header row of language codes followed by a
    dense whitespace-separated numeric matrix."""
    with open(path) as f:
        rows = [line.split() for line in f if line.strip()]
    if not rows:
        raise ValueError(f"empty distance matrix file: {path}")
    languages = tuple(rows[0])
    data = tuple(tuple(float(x) for x in row) for row in rows[1:])
    return LanguageDistanceMatrix(languages, data)


def cluster_languages(
    m: LanguageDistanceMatrix, k: int, languages: Iterable[str]
) -> dict[str, str]:
    """Agglomerative complete-linkage clustering of `languages` down to k
    groups, over their rows of `m`; the matrix's other languages take no
    part.  Every one of `languages` must be in the matrix.

    Merge order: smallest complete-linkage distance first; ties broken by
    the lexicographically smallest pair of cluster minimum members.  Group
    names group0..group{k-1} follow the ascending order of each cluster's
    smallest member, so the output is independent of input ordering.
    """
    index = {lang: i for i, lang in enumerate(m.languages)}
    names = sorted(set(languages))
    missing = [lang for lang in names if lang not in index]
    if missing:
        raise ValueError(f"distance matrix lacks languages: {missing}")
    order = [index[lang] for lang in names]
    if not 1 <= k <= len(order):
        raise ValueError(f"k={k} out of range for {len(order)} languages")

    # Clusters are keyed by the sorted position of their smallest member.
    # link[a][c] is the complete-linkage distance between clusters a and c;
    # after a merge it is max(link[a][c], link[b][c]) (Lance-Williams).
    # Keys are only ever removed, so `members` iterates in ascending order.
    # nearest[a] is (link, c) for a's nearest cluster c > a, ties to the
    # smaller c, so the least (link, a, c) over it is the least (link, a, b)
    # over all pairs a < b: the same merge as a rescan of every pair.
    link = [[m.d[i][j] for j in order] for i in order]
    members = {a: [a] for a in range(len(order))}
    nearest: dict[int, tuple[float, int]] = {}

    def refresh(a: int) -> None:
        row = link[a]
        entry = min(((row[c], c) for c in members if c > a), default=None)
        if entry is None:
            nearest.pop(a, None)
        else:
            nearest[a] = entry

    for a in members:
        refresh(a)
    while len(members) > k:
        _, a, b = min((d, a, c) for a, (d, c) in nearest.items())
        members[a] += members.pop(b)
        nearest.pop(b, None)
        for c in members:
            link[a][c] = link[c][a] = max(link[a][c], link[b][c])
        # A merge only raises distances, so an entry stays right unless it
        # is a's own or it named a or b.
        for c in [c for c, (_, x) in nearest.items() if c == a or x == a or x == b]:
            refresh(c)

    return {
        m.languages[order[i]]: f"group{idx}"
        for idx, cluster in enumerate(members.values())
        for i in sorted(cluster)
    }
