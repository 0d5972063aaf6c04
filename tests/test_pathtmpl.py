import pytest
from hypothesis import assume, given, strategies as st

from mmtplan.pathtmpl import (
    CorpusMode,
    PathTemplate,
    TemplateError,
    discover_tasks,
)

langs = st.text(alphabet="abcdefghij", min_size=2, max_size=3)


class TestDirectional:
    def test_substitution(self):
        t = PathTemplate("{lang_pair}/train.{src_lang}", CorpusMode.DIRECTIONAL)
        assert t.render("bg", "en") == "bg-en/train.bg"

    def test_all_variables(self):
        t = PathTemplate("{src_lang}-{tgt_lang}.src", CorpusMode.DIRECTIONAL)
        assert t.render("sw", "ca") == "sw-ca.src"

    def test_symmetric_variable_rejected(self):
        with pytest.raises(TemplateError):
            PathTemplate("{sorted_pair}/x", CorpusMode.DIRECTIONAL)

    def test_unknown_variable_rejected(self):
        with pytest.raises(TemplateError):
            PathTemplate("{bogus}/x", CorpusMode.DIRECTIONAL)


class TestSymmetric:
    def test_forward_direction(self):
        t = PathTemplate("{sorted_pair}/train.{side_a}.gz", CorpusMode.SYMMETRIC)
        assert t.render("ben", "eng") == "ben-eng/train.src.gz"

    def test_reverse_direction_flips_side(self):
        # trg, not tgt
        t = PathTemplate("{sorted_pair}/train.{side_a}.gz", CorpusMode.SYMMETRIC)
        assert t.render("eng", "ben") == "ben-eng/train.trg.gz"

    def test_side_b_complements(self):
        t = PathTemplate("{side_a}.{side_b}", CorpusMode.SYMMETRIC)
        assert t.render("ben", "eng") == "src.trg"
        assert t.render("eng", "ben") == "trg.src"

    def test_self_pair(self):
        t = PathTemplate("{lang_a}-{lang_b}", CorpusMode.SYMMETRIC)
        assert t.render("en", "en") == "en-en"

    def test_directional_variable_rejected(self):
        with pytest.raises(TemplateError):
            PathTemplate("{src_lang}/x", CorpusMode.SYMMETRIC)

    @given(langs, langs)
    def test_direction_consistency(self, a, b):
        # source path of A->B equals target path of B->A; vacuous for
        # self-pairs, where both directions are the forward one
        assume(a != b)
        src = PathTemplate("{sorted_pair}/train.{side_a}.gz", CorpusMode.SYMMETRIC)
        tgt = PathTemplate("{sorted_pair}/train.{side_b}.gz", CorpusMode.SYMMETRIC)
        assert src.render(a, b) == tgt.render(b, a)

    @given(langs, langs)
    def test_sorted_pair_invariant_under_reversal(self, a, b):
        t = PathTemplate("{sorted_pair}", CorpusMode.SYMMETRIC)
        assert t.render(a, b) == t.render(b, a)

    @given(langs, langs)
    def test_rendering_is_total(self, a, b):
        t = PathTemplate(
            "{lang_a}/{lang_b}/{side_a}/{side_b}/{sorted_pair}", CorpusMode.SYMMETRIC
        )
        assert "{" not in t.render(a, b)


class TestDiscoverTasks:
    def test_single_surviving_pair(self):
        src = PathTemplate("{lang_pair}.{src_lang}", CorpusMode.DIRECTIONAL)
        tgt = PathTemplate("{lang_pair}.{tgt_lang}", CorpusMode.DIRECTIONAL)
        present = {"en-de.en", "en-de.de"}
        found = discover_tasks(src, tgt, ["en", "de"], present.__contains__)
        assert found == [("en", "de", "en-de.en", "en-de.de")]

    def test_symmetric_pair_survives_both_directions(self):
        src = PathTemplate("{sorted_pair}/train.{side_a}.gz", CorpusMode.SYMMETRIC)
        tgt = PathTemplate("{sorted_pair}/train.{side_b}.gz", CorpusMode.SYMMETRIC)
        present = {"ben-eng/train.src.gz", "ben-eng/train.trg.gz"}
        found = discover_tasks(src, tgt, ["eng", "ben"], present.__contains__)
        assert found == [
            ("ben", "eng", "ben-eng/train.src.gz", "ben-eng/train.trg.gz"),
            ("eng", "ben", "ben-eng/train.trg.gz", "ben-eng/train.src.gz"),
        ]

    def test_symmetric_paths_are_the_rendered_ones(self):
        # each direction gets the paths it renders, so generate need not
        # render them again
        src = PathTemplate("{sorted_pair}/{lang_a}.{side_a}", CorpusMode.SYMMETRIC)
        tgt = PathTemplate("{sorted_pair}/{lang_b}.{side_b}", CorpusMode.SYMMETRIC)
        found = discover_tasks(src, tgt, ["fi", "de", "en"], lambda p: True)
        assert [pair[:2] for pair in found] == [
            ("de", "en"), ("de", "fi"), ("en", "de"), ("en", "fi"), ("fi", "de"), ("fi", "en")
        ]
        for s, t, src_path, tgt_path in found:
            assert (src_path, tgt_path) == (src.render(s, t), tgt.render(s, t))

    def test_no_files(self):
        src = PathTemplate("{lang_pair}.{src_lang}", CorpusMode.DIRECTIONAL)
        tgt = PathTemplate("{lang_pair}.{tgt_lang}", CorpusMode.DIRECTIONAL)
        assert discover_tasks(src, tgt, ["en", "de"], lambda p: False) == []

    def test_self_pairs_only_when_requested(self):
        src = PathTemplate("{lang_pair}.{src_lang}", CorpusMode.DIRECTIONAL)
        tgt = PathTemplate("{lang_pair}.{tgt_lang}", CorpusMode.DIRECTIONAL)
        found = discover_tasks(src, tgt, ["en"], lambda p: True)
        assert found == []
        found = discover_tasks(
            src, tgt, ["en"], lambda p: True, include_self_pairs=True
        )
        assert found == [("en", "en", "en-en.en", "en-en.en")]

    def test_output_sorted(self):
        src = PathTemplate("{lang_pair}.{src_lang}", CorpusMode.DIRECTIONAL)
        tgt = PathTemplate("{lang_pair}.{tgt_lang}", CorpusMode.DIRECTIONAL)
        found = discover_tasks(src, tgt, ["fi", "de", "en"], lambda p: True)
        assert found == sorted(found)
