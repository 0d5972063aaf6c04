import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmtplan.clusterer import (
    LanguageDistanceMatrix,
    cluster_languages,
    load_distance_matrix,
)


def matrix_from(langs, dist):
    n = len(langs)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = float(dist(langs[i], langs[j]))
    return LanguageDistanceMatrix(tuple(langs), tuple(tuple(r) for r in d))


def reference_cluster_languages(m, k):
    """Complete linkage that rescans every cluster pair and every member
    pair on each merge, with the same tie-break and group names.  Oracle
    for `cluster_languages`; also returns the merge heights in order."""
    langs = sorted(m.languages)
    if not 1 <= k <= len(langs):
        raise ValueError(f"k={k} out of range for {len(langs)} languages")
    index = {lang: i for i, lang in enumerate(m.languages)}

    def dist(a, b):
        return m.d[index[a]][index[b]]

    clusters = [[lang] for lang in langs]
    heights = []
    while len(clusters) > k:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                linkage = max(dist(a, b) for a in clusters[i] for b in clusters[j])
                pair = tuple(sorted((clusters[i][0], clusters[j][0])))
                if best is None or (linkage, pair) < best[:2]:
                    best = (linkage, pair, i, j)
        linkage, _, i, j = best
        heights.append(linkage)
        merged = sorted(clusters[i] + clusters[j])
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])

    assignment = {
        lang: f"group{idx}" for idx, cluster in enumerate(clusters) for lang in cluster
    }
    return assignment, heights


def brute_force_best_partition(m, k):
    """Minimal achievable maximum intra-cluster distance over all
    k-partitions (independent oracle for the small-instance example)."""
    langs = list(m.languages)
    best = None
    for labels in itertools.product(range(k), repeat=len(langs)):
        if len(set(labels)) != k:
            continue
        worst = 0.0
        for i in range(len(langs)):
            for j in range(i + 1, len(langs)):
                if labels[i] == labels[j]:
                    worst = max(worst, m.d[i][j])
        parts = frozenset(
            frozenset(l for l, lab in zip(langs, labels) if lab == c)
            for c in range(k)
        )
        if best is None or worst < best[0]:
            best = (worst, parts)
    return best


class TestValidation:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            LanguageDistanceMatrix(("aa", "bb"), ((0.0, 1.0), (2.0, 0.0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            LanguageDistanceMatrix(("aa", "bb"), ((1.0, 1.0), (1.0, 0.0)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            LanguageDistanceMatrix(("aa", "bb"), ((0.0, float("nan")), (float("nan") , 0.0)))

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_lower_triangle_fault_is_asymmetry(self, bad):
        d = ((0.0, 1.0, 2.0), (1.0, 0.0, 3.0), (2.0, bad, 0.0))
        with pytest.raises(ValueError, match="must be symmetric"):
            LanguageDistanceMatrix(("aa", "bb", "cc"), d)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0, float("nan"), float("inf")]),
                         min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
    )
    def test_first_error_as_full_scan(self, rows):
        # the rule that checks every ordered pair, as an oracle
        def full_scan(d):
            n = len(d)
            for i in range(n):
                if d[i][i] != 0.0:
                    return "distance matrix diagonal must be zero"
                for j in range(n):
                    if not math.isfinite(d[i][j]) or d[i][j] < 0:
                        return "distances must be finite and non-negative"
                    if d[i][j] != d[j][i]:
                        return "distance matrix must be symmetric"
            return None

        langs = tuple(f"l{i}" for i in range(len(rows)))
        try:
            LanguageDistanceMatrix(langs, tuple(map(tuple, rows)))
            error = None
        except ValueError as exc:
            error = str(exc)
        assert error == full_scan(rows)

    def test_k_out_of_range(self):
        m = matrix_from(["aa", "bb"], lambda a, b: 1.0)
        with pytest.raises(ValueError):
            cluster_languages(m, 0, m.languages)
        with pytest.raises(ValueError):
            cluster_languages(m, 3, m.languages)


class TestClustering:
    def test_only_the_given_languages_are_clustered(self):
        def dist(a, b):
            if "zz" in (a, b):
                return 99.0
            return 1.0 if {a, b} in ({"aa", "bb"}, {"cc", "dd"}) else 5.0

        m = matrix_from(["aa", "bb", "cc", "dd", "zz"], dist)
        assert cluster_languages(m, 2, ["dd", "cc", "bb", "aa"]) == {
            "aa": "group0", "bb": "group0", "cc": "group1", "dd": "group1",
        }
        with pytest.raises(ValueError, match="out of range for 2 languages"):
            cluster_languages(m, 3, ["aa", "zz"])

    def test_languages_missing_from_the_matrix(self):
        m = matrix_from(["aa", "bb"], lambda a, b: 1.0)
        with pytest.raises(ValueError, match=r"^distance matrix lacks languages: \['cc', 'dd'\]$"):
            cluster_languages(m, 1, ["dd", "aa", "cc"])

    def test_k_equals_n(self):
        m = matrix_from(["aa", "bb", "cc"], lambda a, b: 1.0)
        result = cluster_languages(m, 3, m.languages)
        assert len(set(result.values())) == 3

    def test_k_equals_one(self):
        m = matrix_from(["aa", "bb", "cc"], lambda a, b: 1.0)
        assert set(cluster_languages(m, 1, m.languages).values()) == {"group0"}

    def test_two_natural_clusters(self):
        # oracle: brute force over all 2-partitions minimizing the max
        # intra-cluster distance agrees with complete linkage here
        def dist(a, b):
            close = {frozenset({"de", "en"}), frozenset({"et", "fi"})}
            return 1.0 if frozenset({a, b}) in close else 10.0

        m = matrix_from(["de", "en", "et", "fi"], dist)
        _, best_parts = brute_force_best_partition(m, 2)
        assert best_parts == {frozenset({"de", "en"}), frozenset({"et", "fi"})}
        result = cluster_languages(m, 2, m.languages)
        assert result == {"de": "group0", "en": "group0", "et": "group1", "fi": "group1"}

    def test_group_naming_by_smallest_member(self):
        def dist(a, b):
            return 1.0 if frozenset({a, b}) == frozenset({"bb", "dd"}) else 10.0

        m = matrix_from(["aa", "bb", "cc", "dd"], dist)
        result = cluster_languages(m, 3, m.languages)
        # clusters {aa}, {bb,dd}, {cc} named by ascending smallest member
        assert result == {"aa": "group0", "bb": "group1", "dd": "group1", "cc": "group2"}

    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_partition_and_permutation_invariance(self, seed, n, k):
        k = min(k, n)
        rng = random.Random(seed)
        langs = [f"l{i}" for i in range(n)]
        values = {}

        def dist(a, b):
            key = frozenset({a, b})
            if key not in values:
                values[key] = rng.uniform(0.1, 10.0)
            return values[key]

        m = matrix_from(langs, dist)
        result = cluster_languages(m, k, m.languages)
        assert set(result) == set(langs)  # every language in exactly one group
        assert len(set(result.values())) == k

        perm = langs[:]
        rng.shuffle(perm)
        m2 = matrix_from(perm, dist)
        assert cluster_languages(m2, k, m2.languages) == result

    def test_merge_heights_non_decreasing(self):
        rng = np.random.default_rng(3)
        n = 7
        sym = rng.uniform(0.1, 5.0, size=(n, n))
        sym = (sym + sym.T) / 2
        np.fill_diagonal(sym, 0.0)
        langs = [f"l{i}" for i in range(n)]
        m = LanguageDistanceMatrix(tuple(langs), tuple(tuple(r) for r in sym))

        # complete linkage heights never decrease
        _, heights = reference_cluster_languages(m, 1)
        assert len(heights) == n - 1
        assert heights == sorted(heights)


class TestAgainstReference:
    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_with_ties(self, seed, n):
        # integer distances 0-3 make most merges a tie on linkage
        rng = random.Random(seed)
        langs = [f"l{i:02d}" for i in range(n)]
        values = {}

        def dist(a, b):
            return values.setdefault(frozenset({a, b}), rng.randint(0, 3))

        m = matrix_from(langs, dist)
        rng.shuffle(langs)
        shuffled = matrix_from(langs, dist)
        for k in range(1, n + 1):
            expected, _ = reference_cluster_languages(m, k)
            assert cluster_languages(m, k, m.languages) == expected
            assert cluster_languages(shuffled, k, shuffled.languages) == expected

    @pytest.mark.parametrize("seed, n", [(0, 25), (1, 33), (2, 40)])
    def test_equals_reference_at_larger_n(self, seed, n):
        # three distance values: nearly every merge is a tie, and each merge
        # leaves many clusters whose cached nearest cluster was a or b
        rng = random.Random(seed)
        langs = [f"l{i:02d}" for i in range(n)]
        values = {}

        def dist(a, b):
            return values.setdefault(frozenset({a, b}), rng.choice((1.0, 2.0, 3.0)))

        m = matrix_from(langs, dist)
        for k in range(1, n + 1):
            expected, _ = reference_cluster_languages(m, k)
            assert cluster_languages(m, k, m.languages) == expected

    def test_planted_families_with_ties(self):
        # 60 languages in 6 planted families: distances inside a family are
        # 1 or 2, across families 3 or 4, so both levels are full of ties
        rng = random.Random(60)
        langs = [f"x{i:02d}" for i in range(60)]
        rng.shuffle(langs)
        family = {lang: i % 6 for i, lang in enumerate(langs)}

        def dist(a, b):
            base = 1 if family[a] == family[b] else 3
            return base + rng.randint(0, 1)

        m = matrix_from(langs, dist)
        for k in (1, 2, 5, 6, 7, 12, 30, 59, 60):
            expected, _ = reference_cluster_languages(m, k)
            assert cluster_languages(m, k, m.languages) == expected
        groups = cluster_languages(m, 6, m.languages)
        assert {frozenset(l for l in langs if groups[l] == g) for g in set(groups.values())} == {
            frozenset(l for l in langs if family[l] == f) for f in range(6)
        }


def test_load_distance_matrix(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("de en\n0 2.5\n2.5 0\n")
    m = load_distance_matrix(str(path))
    assert m.languages == ("de", "en")
    assert m.d[0][1] == 2.5
