import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from conftest import make_task
from mmtplan import allocator, configgen, sharing
from mmtplan.configgen import (
    AdapterSpec,
    ConfigError,
    CurriculumStage,
    FullConfig,
    MetaConfig,
    assign_adapters,
    assign_curriculum,
    assign_transforms,
    compute_weights,
    default_probe,
    emit,
    generate,
    load_full_config,
    load_meta_config,
    parse,
)
from mmtplan.core import ClusterTopology, DeviceId, ModuleKey, Side, TaskSpec, validate_config
from mmtplan.pathtmpl import CorpusMode
from mmtplan.sharing import ArchSpec, SharingPattern

SP = SharingPattern

LANG_ARCH = ArchSpec(((SP.LANGUAGE, 2),), ((SP.LANGUAGE, 2),))
SHARED_ARCH = ArchSpec(((SP.FULL, 9),), ((SP.FULL, 4),))


def meta_for(languages, arch=LANG_ARCH, **kwargs):
    defaults = dict(
        languages=tuple(languages),
        src_path_template="{lang_pair}/train.{src_lang}",
        tgt_path_template="{lang_pair}/train.{tgt_lang}",
        corpus_mode=CorpusMode.DIRECTIONAL,
        arch=arch,
        topology=ClusterTopology(1, 1, 8),
    )
    defaults.update(kwargs)
    return MetaConfig(**defaults)


def all_files_exist(path):
    return True


class TestComputeWeights:
    def test_linear_at_t1(self):
        assert compute_weights({"a": 100, "b": 300}, 1.0) == {"a": 1, "b": 3}

    def test_full_smoothing(self):
        w = compute_weights({"a": 100, "b": 10_000_000}, 1e9)
        assert w == {"a": 1, "b": 1}

    def test_square_root_smoothing(self):
        assert compute_weights({"a": 100, "b": 10000}, 2.0) == {"a": 1, "b": 10}

    def test_empty_map_rejected(self):
        with pytest.raises(ConfigError):
            compute_weights({}, 1.0)


class TestAssignCurriculum:
    def test_no_stages(self):
        assert assign_curriculum({"a": 10, "b": 99}, []) == {"a": 0, "b": 0}

    def test_threshold_stage(self):
        stages = [CurriculumStage(5000, 1000)]
        assert assign_curriculum({"a": 100, "b": 5000}, stages) == {"a": 5000, "b": 0}

    def test_first_applicable_stage_wins(self):
        stages = [CurriculumStage(8000, 500), CurriculumStage(2000, 1000)]
        # sorted by start step, so the 2000 stage is checked first
        assert assign_curriculum({"a": 100}, stages) == {"a": 2000}


class TestAssignTransforms:
    def test_fully_shared_gets_prefix(self):
        assert assign_transforms("bg", "en", SHARED_ARCH, "bart") == (
            "subword",
            "filter",
            "prefix:en",
        )

    def test_language_decoder_no_prefix(self):
        assert assign_transforms("bg", "en", LANG_ARCH, "bart") == ("subword", "filter")

    def test_denoising_gets_noise_transform(self):
        assert assign_transforms("en", "en", LANG_ARCH, "bart") == ("subword", "bart")

    def test_denoising_with_shared_decoder(self):
        assert assign_transforms("en", "en", SHARED_ARCH, "mass") == (
            "subword",
            "mass",
            "prefix:en",
        )


class TestAssignAdapters:
    def test_language_pattern(self):
        spec = AdapterSpec("da", Side.DECODER, (0,), SP.LANGUAGE)
        assert assign_adapters("bg", "en", [spec], None) == (("da", "da:en"),)

    def test_full_pattern_constant(self):
        spec = AdapterSpec("x", Side.ENCODER, (0,), SP.FULL)
        for src, tgt in [("bg", "en"), ("sw", "ca")]:
            assert assign_adapters(src, tgt, [spec], None) == (("x", "x:full"),)

    def test_no_specs(self):
        assert assign_adapters("bg", "en", [], None) == ()


class TestGenerate:
    def test_two_language_pipeline(self):
        meta = meta_for(["bg", "en"])
        cfg = generate(meta, all_files_exist)
        assert sorted(cfg.tasks) == ["train_bg-en", "train_en-bg"]
        task = cfg.tasks["train_bg-en"]
        assert task.src_path == "bg-en/train.bg"
        assert [m.group for m in task.enc_modules] == ["bg"]
        assert [m.group for m in task.dec_modules] == ["en"]
        assert task.device == DeviceId(0, 0)
        # 2 encoder + 2 decoder language modules
        from mmtplan.sharing import enumerate_modules

        assert len(enumerate_modules(cfg.tasks.values())) == 4

    def test_empty_task_set(self):
        meta = meta_for(["bg", "en"])
        with pytest.raises(ConfigError, match="empty task set"):
            generate(meta, lambda p: False)

    def test_deterministic_bytes(self):
        meta = meta_for(
            ["bg", "de", "en", "fi"],
            topology=ClusterTopology(2, 2, 4),
            line_counts={"train_bg-en": 300, "train_en-bg": 100},
            seed=3,
        )
        a = emit(generate(meta, all_files_exist))
        b = emit(generate(meta, all_files_exist))
        assert a == b

    def test_emitted_config_validates(self):
        meta = meta_for(["bg", "de", "en"], topology=ClusterTopology(1, 2, 4))
        cfg = generate(meta, all_files_exist)
        assert validate_config(list(cfg.tasks.values()), cfg.topology) == []

    def test_weights_and_curriculum_applied(self):
        meta = meta_for(
            ["bg", "en"],
            line_counts={"train_bg-en": 400, "train_en-bg": 100},
            curriculum_stages=(CurriculumStage(5000, 200),),
        )
        cfg = generate(meta, all_files_exist)
        assert cfg.tasks["train_bg-en"].weight == 4
        assert cfg.tasks["train_en-bg"].weight == 1
        assert cfg.tasks["train_en-bg"].introduce_at_training_step == 5000
        assert cfg.tasks["train_bg-en"].introduce_at_training_step == 0

    def test_unknown_line_count_keys_are_an_error(self):
        # a partial map is fine; a key that names no discovered task is not
        meta = meta_for(
            ["bg", "en"], line_counts={"train_en-gb": 1, "train_bg-en": 4, "train_bg-de": 1}
        )
        with pytest.raises(ConfigError) as info:
            generate(meta, all_files_exist)
        assert str(info.value) == (
            "[weighting] line_counts for tasks not discovered: train_bg-de, train_en-gb"
        )

    def test_autoencoder_adds_self_pairs(self):
        meta = meta_for(["bg", "en"], autoencoder=True, noise_transform="bart")
        cfg = generate(meta, all_files_exist)
        assert "train_bg-bg" in cfg.tasks
        assert cfg.tasks["train_bg-bg"].transforms == ("subword", "bart")

    def test_group_pattern_requires_matrix(self):
        arch = ArchSpec(((SP.GROUP, 2),), ((SP.LANGUAGE, 2),))
        with pytest.raises(ValueError) as info:
            meta_for(["bg", "en"], arch=arch, n_groups=1)
        assert str(info.value) == (
            "distance_matrix: required where a sharing pattern or adapter uses groups"
        )

    def test_group_pattern_with_matrix(self, tmp_path):
        matrix = tmp_path / "dist.txt"
        matrix.write_text("bg de en\n0 5 1\n5 0 5\n1 5 0\n")
        arch = ArchSpec(((SP.GROUP, 2),), ((SP.LANGUAGE, 2),))
        meta = meta_for(
            ["bg", "de", "en"],
            arch=arch,
            n_groups=2,
            distance_matrix_path=str(matrix),
        )
        cfg = generate(meta, all_files_exist)
        # bg and en cluster together
        assert cfg.tasks["train_bg-en"].enc_modules[0].group == "group0"
        assert cfg.tasks["train_de-en"].enc_modules[0].group == "group1"

    def test_matrix_languages_outside_langs_are_not_clustered(self, tmp_path):
        # zz is far from every language: clustered too, it would take a
        # group of its own and leave aa..dd all in group0
        matrix = tmp_path / "dist.txt"
        matrix.write_text(
            "aa bb cc dd zz\n"
            "0 1 5 5 99\n1 0 5 5 99\n5 5 0 1 99\n5 5 1 0 99\n99 99 99 99 0\n"
        )
        arch = ArchSpec(((SP.GROUP, 2),), ((SP.LANGUAGE, 2),))
        meta = meta_for(
            ["aa", "bb", "cc", "dd"],
            arch=arch,
            topology=ClusterTopology(1, 2, 8),
            n_groups=2,
            distance_matrix_path=str(matrix),
        )
        cfg = generate(meta, all_files_exist)
        groups = {t.src_lang: t.enc_modules[0].group for t in cfg.tasks.values()}
        assert groups == {"aa": "group0", "bb": "group0", "cc": "group1", "dd": "group1"}

    def test_weights_past_a_float_are_a_validation_error(self):
        # each weight fits a float, their sum on the one device does not
        meta = meta_for(
            ["bg", "de", "en"],
            line_counts={"train_bg-de": 10**308, "train_bg-en": 10**308},
            temperature=1.0,
        )
        with pytest.raises(ConfigError) as exc:
            generate(meta, all_files_exist)
        assert str(exc.value) == (
            "[validation] device 0:0: the weights of its tasks sum past what a float holds"
        )

    def test_adapters_resolved_per_task(self):
        meta = meta_for(
            ["bg", "en"],
            adapters=(AdapterSpec("da", Side.DECODER, (0,), SP.LANGUAGE),),
        )
        cfg = generate(meta, all_files_exist)
        assert cfg.tasks["train_bg-en"].adapters == (("da", "da:en"),)

    def test_searched_plan_is_pinned(self):
        # Local search moves 5 of these 12 tasks off the warm start, and
        # other span weights (an extra node costing no more than an extra
        # device) would place 4 of them elsewhere: any change to the warm
        # start, the allocator's objective or its search order shows here.
        arch = ArchSpec(((SP.LANGUAGE, 2), (SP.FULL, 4)), ((SP.LANGUAGE, 4),))
        meta = meta_for(["bg", "de", "en", "fi"], arch=arch, topology=ClusterTopology(3, 2, 2))
        cfg = generate(meta, all_files_exist)
        assert {tid: str(t.device) for tid, t in cfg.tasks.items()} == {
            "train_bg-de": "1:0",
            "train_bg-en": "2:0",
            "train_bg-fi": "2:1",
            "train_de-bg": "0:1",
            "train_de-en": "2:0",
            "train_de-fi": "2:1",
            "train_en-bg": "0:0",
            "train_en-de": "1:0",
            "train_en-fi": "0:0",
            "train_fi-bg": "0:1",
            "train_fi-de": "1:1",
            "train_fi-en": "1:1",
        }


    def test_builds_one_module_index(self, monkeypatch):
        # the warm start and local search share one module inventory and
        # one CostContext
        calls = {"enumerate_modules": 0, "CostContext": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (configgen, allocator):
            monkeypatch.setattr(
                module, "enumerate_modules", counted("enumerate_modules", sharing.enumerate_modules)
            )
        monkeypatch.setattr(
            allocator.CostContext, "__init__", counted("CostContext", allocator.CostContext.__init__)
        )
        arch = ArchSpec(((SP.LANGUAGE, 2), (SP.FULL, 4)), ((SP.LANGUAGE, 4),))
        meta = meta_for(["bg", "de", "en", "fi"], arch=arch, topology=ClusterTopology(3, 2, 2))
        generate(meta, all_files_exist)
        assert calls == {"enumerate_modules": 1, "CostContext": 1}


class TestRoundTrip:
    def test_parse_emit_identity(self):
        meta = meta_for(
            ["bg", "de", "en"],
            topology=ClusterTopology(2, 2, 3),
            adapters=(AdapterSpec("da", Side.DECODER, (0,), SP.LANGUAGE),),
            line_counts={"train_bg-en": 250},
        )
        cfg = generate(meta, all_files_exist)
        assert parse(emit(cfg)) == cfg

    def test_adapters_out_of_name_order(self):
        meta = meta_for(
            ["bg", "de", "en"],
            adapters=(
                AdapterSpec("tgt", Side.DECODER, (0,), SP.LANGUAGE),
                AdapterSpec("src", Side.ENCODER, (0,), SP.LANGUAGE),
            ),
        )
        cfg = generate(meta, all_files_exist)
        assert cfg.tasks["train_bg-en"].adapters == (("src", "src:bg"), ("tgt", "tgt:en"))
        assert parse(emit(cfg)) == cfg

    def test_emit_is_stable_under_round_trip(self):
        meta = meta_for(["bg", "en"])
        cfg = generate(meta, all_files_exist)
        assert emit(parse(emit(cfg))) == emit(cfg)

    def test_emit_ignores_task_order(self):
        cfg = generate(meta_for(["bg", "de", "en"]), all_files_exist)
        backwards = replace(cfg, tasks=dict(sorted(cfg.tasks.items(), reverse=True)))
        assert list(backwards.tasks) != list(cfg.tasks)
        assert emit(backwards) == emit(cfg)

    def test_emit_rejects_an_unplaced_task(self):
        # `parse` requires node_gpu, so such a plan would not read back;
        # emit never meets one, since no FullConfig holds an unplaced task
        cfg = generate(meta_for(["bg", "en"]), all_files_exist)
        task = cfg.tasks["train_en-bg"]
        with pytest.raises(ConfigError) as info:
            replace(cfg, tasks={**cfg.tasks, task.id: replace(task, device=None)})
        assert str(info.value) == "[validation] task train_en-bg: no device"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse("not: [valid")
        with pytest.raises(ConfigError):
            parse("just a string")
        with pytest.raises(ConfigError):
            parse("tasks: {}")

    @pytest.mark.parametrize(
        "text",
        [
            "a: \ud800",  # no UTF-8 encoding: libyaml's loader raises UnicodeEncodeError
            b"a: \xff\n",  # not UTF-8
            "a: 2001-13-01",  # a timestamp that is no date
            "a: " + "1" * 5000,  # more digits than int() converts
        ],
        ids=["lone-surrogate", "non-utf8-bytes", "bad-timestamp", "huge-int"],
    )
    def test_parse_rejects_unloadable_text(self, text):
        with pytest.raises(ConfigError, match=r"^\[parse\] invalid YAML") as info:
            parse(text)
        assert info.value.stage == "parse"

    def test_emitted_bytes_are_pinned(self):
        # An adapter, a delayed task, and an alpha whose shortest repr
        # (1e-06) has no `.`: a change of writer or of its settings that
        # moves one byte shows here.
        assert emit(generate(pinned_meta(), all_files_exist)) == PINNED_EMIT

    def test_hand_written_yaml_plan(self):
        # a plan as YAML, as earlier versions wrote it, reads as the same plan
        assert parse(YAML_PLAN) == generate(pinned_meta(), all_files_exist)

    def test_plans_in_earlier_layouts(self):
        # one value per line, and YAML, read as the plan that is emitted now
        cfg = generate(pinned_meta(), all_files_exist)
        assert parse(INDENT_ONE_PLAN) == parse(YAML_PLAN) == parse(PINNED_EMIT) == cfg

    def test_emit_uses_the_c_encoder(self):
        # `json` encodes with its pure-Python encoder wherever `indent` is
        # set, at several times the cost; under each task, one line
        meta = meta_for(
            ["bg", "de", "en"],
            topology=ClusterTopology(2, 2, 3),
            adapters=(AdapterSpec("da", Side.DECODER, (0,), SP.LANGUAGE),),
        )
        cfg = generate(meta, all_files_exist)
        with mock.patch.object(json.encoder, "_make_iterencode", side_effect=AssertionError):
            text = emit(cfg)
        lines = text.splitlines()
        assert len(lines) == 13 + len(cfg.tasks)
        for tid in cfg.tasks:
            (line,) = [line for line in lines if line.startswith(f'  "{tid}": ')]
            assert json.loads("{" + line.rstrip(",") + "}")[tid] == json.loads(text)["tasks"][tid]

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 5000 + "]" * 5000,
            '{"tasks": ' + "[" * 5000 + "]" * 5000 + "}",
            "a: " + "[" * 5000 + "]" * 5000,  # YAML only
        ],
        ids=["json-list", "json-value", "yaml-value"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ConfigError) as info:
            parse(text)
        assert info.value.stage == "parse"


def test_python_composer_on_every_platform():
    # libyaml's composer recurses on the C stack, which a document nested
    # 50,000 levels deep overflows; PyYAML's ends in a RecursionError
    for name in ("get_single_node", "compose_node"):
        assert getattr(configgen.YAML_LOADER, name) is getattr(yaml.composer.Composer, name)


DROP = object()  # the key is left out


class TestParseErrors:
    """Each fault in a task entry gives one exact `[parse]` line, which
    names the task and the field; of two faults, the first in the
    reader's order is reported."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param({key: DROP}, f"{key}: required key is missing", id=f"{key}-missing")
            for key in (
                "src_tgt", "path_src", "path_tgt", "enc_sharing_groups", "dec_sharing_groups",
                "node_gpu",
            )
        ]
        + [
            pytest.param({key: value}, message, id=case)
            for case, key, value, message in [
                ("src_tgt-list", "src_tgt", [1], "src_tgt: expected str, got [1]"),
                ("src_tgt-bool", "src_tgt", False, "src_tgt False is not a string; quote it"),
                ("src_tgt-no-dash", "src_tgt", "bgen", "src_tgt: 'bgen' is not <src>-<tgt>"),
                ("path_src-mapping", "path_src", {}, "path_src: expected str, got {}"),
                ("path_src-int", "path_src", 5, "path_src 5 is not a string; quote it"),
                ("path_tgt-null", "path_tgt", None, "path_tgt: expected str, got None"),
                ("enc_sharing_groups-string", "enc_sharing_groups", "bg",
                 "enc_sharing_groups: expected list, got 'bg'"),
                ("enc_sharing_groups-int-entry", "enc_sharing_groups", [1],
                 "enc_sharing_groups entry 1 is not a string; quote it"),
                ("dec_sharing_groups-mapping", "dec_sharing_groups", {},
                 "dec_sharing_groups: expected list, got {}"),
                ("dec_sharing_groups-null-entry", "dec_sharing_groups", ["en", None],
                 "dec_sharing_groups entry: expected str, got None"),
                ("transforms-string", "transforms", "subword",
                 "transforms: expected list, got 'subword'"),
                ("transforms-list-entry", "transforms", ["subword", []],
                 "transforms entry: expected str, got []"),
                ("weight-string", "weight", "4", "weight: expected int, got '4'"),
                ("weight-float", "weight", 4.0, "weight: expected int, got 4.0"),
                ("weight-bool", "weight", True, "weight: expected int, got True"),
                ("introduce_at_training_step-float", "introduce_at_training_step", 1.5,
                 "introduce_at_training_step: expected int, got 1.5"),
                ("introduce_at_training_step-bool", "introduce_at_training_step", False,
                 "introduce_at_training_step: expected int, got False"),
                ("node_gpu-int", "node_gpu", 0, "node_gpu 0 is not a string; quote it"),
                ("node_gpu-list", "node_gpu", ["0:0"], "node_gpu: expected str, got ['0:0']"),
                ("node_gpu-dash", "node_gpu", "0-0", "node_gpu: device '0-0' is not node:gpu"),
                ("node_gpu-empty", "node_gpu", "", "node_gpu: device '' is not node:gpu"),
                ("node_gpu-letter", "node_gpu", "0:x", "node_gpu: device '0:x' is not node:gpu"),
                ("adapters-list", "adapters", ["da"], "adapters: expected dict, got ['da']"),
                ("adapters-int-name", "adapters", {1: "da:en"},
                 "adapters 1 is not a string; quote it"),
                ("adapters-int-value", "adapters", {"da": 5},
                 "adapters 5 is not a string; quote it"),
                ("adapters-null-value", "adapters", {"da": None},
                 "adapters: expected str, got None"),
                ("unknown-key", "wieght", 4, "unknown keys: wieght"),
            ]
        ]
        + [
            # with two faults, the first in the reader's order is reported
            pytest.param({"src_tgt": "bgen", "enc_sharing_groups": "bg"},
                         "src_tgt: 'bgen' is not <src>-<tgt>", id="dash-before-groups"),
            pytest.param({"enc_sharing_groups": [1], "dec_sharing_groups": "en"},
                         "enc_sharing_groups entry 1 is not a string; quote it",
                         id="entry-before-next-list"),
            pytest.param({"adapters": {"da": 5}, "path_src": 5, "node_gpu": "x"},
                         "adapters 5 is not a string; quote it", id="adapters-before-paths"),
            pytest.param({"weight": "1", "transforms": [1], "node_gpu": 0},
                         "weight: expected int, got '1'", id="weight-before-transforms"),
            pytest.param({"weight": True, "wieght": 1}, "unknown keys: wieght",
                         id="keys-before-fields"),
        ],
    )
    def test_task_field_error(self, changes, message):
        doc = json.loads(emit(generate(pinned_meta(), all_files_exist)))
        entry = doc["tasks"]["train_bg-en"]
        for key, value in changes.items():
            if value is DROP:
                del entry[key]
            else:
                entry[key] = value
        # JSON keys are strings, so a mapping with another key is YAML
        keys = [k for v in changes.values() if isinstance(v, dict) for k in v]
        text = json.dumps(doc) if all(isinstance(k, str) for k in keys) else yaml.safe_dump(doc)
        with pytest.raises(ConfigError) as info:
            parse(text)
        assert str(info.value) == f"[parse] task train_bg-en: {message}"

    def test_task_entry_error(self):
        doc = json.loads(emit(generate(pinned_meta(), all_files_exist)))
        doc["tasks"]["train_bg-en"] = ["x"]
        with pytest.raises(ConfigError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == "[parse] task train_bg-en: entry: expected dict, got ['x']"
        doc["tasks"][7] = doc["tasks"].pop("train_bg-en")
        with pytest.raises(ConfigError) as info:
            parse(yaml.safe_dump(doc))
        assert str(info.value) == "[parse] task id 7 is not a string; quote it"


def pinned_meta():
    return meta_for(
        ["bg", "en"],
        src_path_template="corpus #1/{lang_pair}/train.{src_lang}",
        topology=ClusterTopology(
            1, 1, 2, alpha_intra=1e-06, alpha_inter=3e-05, beta_intra=5e10, beta_inter=1.25e10
        ),
        adapters=(AdapterSpec("da", Side.DECODER, (0,), SP.LANGUAGE),),
        line_counts={"train_bg-en": 400, "train_en-bg": 100},
        curriculum_stages=(CurriculumStage(5000, 200),),
    )


PINNED_EMIT = """\
{
 "alpha_inter": 3.0e-05,
 "alpha_intra": 1.0e-06,
 "beta_inter": 12500000000.0,
 "beta_intra": 50000000000.0,
 "dec_layers": [2],
 "enc_layers": [2],
 "n_gpus_per_node": 1,
 "n_nodes": 1,
 "n_slots_per_gpu": 2,
 "tasks": {
  "train_bg-en": {"adapters": {"da": "da:en"}, "dec_sharing_groups": ["en"], "enc_sharing_groups": ["bg"], "introduce_at_training_step": 0, "node_gpu": "0:0", "path_src": "corpus #1/bg-en/train.bg", "path_tgt": "bg-en/train.en", "src_tgt": "bg-en", "transforms": ["subword", "filter"], "weight": 4},
  "train_en-bg": {"adapters": {"da": "da:bg"}, "dec_sharing_groups": ["bg"], "enc_sharing_groups": ["en"], "introduce_at_training_step": 5000, "node_gpu": "0:0", "path_src": "corpus #1/en-bg/train.en", "path_tgt": "en-bg/train.bg", "src_tgt": "en-bg", "transforms": ["subword", "filter"], "weight": 1}
 }
}
"""

# The plan above as JSON with one value per line, the layout of
# `json.dumps(..., indent=1)` that earlier versions wrote.
INDENT_ONE_PLAN = """\
{
 "alpha_inter": 3.0e-05,
 "alpha_intra": 1.0e-06,
 "beta_inter": 12500000000.0,
 "beta_intra": 50000000000.0,
 "dec_layers": [
  2
 ],
 "enc_layers": [
  2
 ],
 "n_gpus_per_node": 1,
 "n_nodes": 1,
 "n_slots_per_gpu": 2,
 "tasks": {
  "train_bg-en": {
   "adapters": {
    "da": "da:en"
   },
   "dec_sharing_groups": [
    "en"
   ],
   "enc_sharing_groups": [
    "bg"
   ],
   "introduce_at_training_step": 0,
   "node_gpu": "0:0",
   "path_src": "corpus #1/bg-en/train.bg",
   "path_tgt": "bg-en/train.en",
   "src_tgt": "bg-en",
   "transforms": [
    "subword",
    "filter"
   ],
   "weight": 4
  },
  "train_en-bg": {
   "adapters": {
    "da": "da:bg"
   },
   "dec_sharing_groups": [
    "bg"
   ],
   "enc_sharing_groups": [
    "en"
   ],
   "introduce_at_training_step": 5000,
   "node_gpu": "0:0",
   "path_src": "corpus #1/en-bg/train.en",
   "path_tgt": "en-bg/train.bg",
   "src_tgt": "en-bg",
   "transforms": [
    "subword",
    "filter"
   ],
   "weight": 1
  }
 }
}
"""

# The plan above as YAML, in the layout earlier versions wrote.
YAML_PLAN = """\
alpha_inter: 3.0e-05
alpha_intra: 1.0e-06
beta_inter: 12500000000.0
beta_intra: 50000000000.0
dec_layers:
- 2
enc_layers:
- 2
n_gpus_per_node: 1
n_nodes: 1
n_slots_per_gpu: 2
tasks:
  train_bg-en:
    adapters:
      da: da:en
    dec_sharing_groups:
    - en
    enc_sharing_groups:
    - bg
    introduce_at_training_step: 0
    node_gpu: 0:0
    path_src: 'corpus #1/bg-en/train.bg'
    path_tgt: bg-en/train.en
    src_tgt: bg-en
    transforms:
    - subword
    - filter
    weight: 4
  train_en-bg:
    adapters:
      da: da:bg
    dec_sharing_groups:
    - bg
    enc_sharing_groups:
    - en
    introduce_at_training_step: 5000
    node_gpu: 0:0
    path_src: 'corpus #1/en-bg/train.en'
    path_tgt: en-bg/train.bg
    src_tgt: en-bg
    transforms:
    - subword
    - filter
    weight: 1
"""


@pytest.mark.usefixtures("pure_python_yaml")
class TestRoundTripPurePython(TestRoundTrip):
    """The same cases on the classes that run where PyYAML has no libyaml."""


# Strings an emitted plan may hold: YAML 1.1 traps (no, 2:0, 1e3, ~, ''),
# path characters that force quoting in YAML, any unicode but lone
# surrogates (astral, control and line-break characters too, with the
# ones YAML reads otherwise than JSON next to spaces), and long strings.
_TRAPS = [
    "no", "yes", "on", "null", "~", "", "2:0", "0:1", "1e3", "1_000", "0o17",
    ".inf", "-1", "a b", "{x}", "a: b", "#c", "a #b", "- x", "-x", "? x",
    "'q'", '"d"', "|", ">", "*a", "&a", "!t", "%x", "@x", "`x", " lead", "trail ",
]
_PIECES = _TRAPS + [
    "corpus", "/", "é", "Ω", "\U0001d11e", "\t", "\r", "\n", "a" * 30,
    "\x7f", "\x85", "\x9f", "\u2028", "\u2029", "\ufeff", "\ufffe", "\uffff",
]
odd_text = st.one_of(
    st.sampled_from(_TRAPS),
    st.text(),
    st.text(min_size=81, max_size=200),
    st.lists(st.sampled_from(_PIECES), max_size=40).map(" ".join),
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
)
# Mapping keys (task ids, adapter names) are drawn as a plan allows them:
# language codes of up to 57 characters, and adapter names of 1-122
# printable ASCII characters.
lang_code = st.one_of(
    st.sampled_from(["no", "yes", "on", "null", "0", "1e3", "1_000", "0o17"]),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=50, max_size=57),
)
adapter_name = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=122
)


@st.composite
def full_configs(draw):
    """Plans as `parse` returns them, with odd strings in every string field.
    Each is valid by construction: every task takes a slot of its own inside
    the topology, and the first task on each device is active from step 0."""
    n_enc, n_dec = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    enc_layers = tuple(draw(st.lists(st.integers(1, 6), min_size=n_enc, max_size=n_enc)))
    dec_layers = tuple(draw(st.lists(st.integers(1, 6), min_size=n_dec, max_size=n_dec)))
    topology = ClusterTopology(
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        alpha_intra=draw(st.sampled_from([0, 1e-06, 5e-06, 1.5e-05])),
        alpha_inter=draw(st.sampled_from([2e-05, 1e-04, 3])),
        beta_intra=draw(st.sampled_from([100e9, 5e10, 10**11, 1e16])),
        beta_inter=draw(st.sampled_from([12.5e9, 1e10, 7])),
    )
    n_slots = topology.n_devices * topology.n_slots_per_gpu
    pairs = draw(
        st.lists(
            st.tuples(lang_code, lang_code), min_size=1, max_size=min(4, n_slots), unique=True
        )
    )
    slots = draw(st.permutations(range(n_slots)))
    devices = [topology.devices()[s // topology.n_slots_per_gpu] for s in slots[: len(pairs)]]
    tasks = {}
    for i, ((src, tgt), device) in enumerate(zip(pairs, devices)):
        task = make_task(
            src,
            tgt,
            draw(st.lists(odd_text, min_size=n_enc, max_size=n_enc)),
            draw(st.lists(odd_text, min_size=n_dec, max_size=n_dec)),
            enc_layers=enc_layers,
            dec_layers=dec_layers,
            weight=draw(st.integers(1, 10**6)),
            intro=draw(st.integers(0, 10**6)) if device in devices[:i] else 0,
            device=device,
            transforms=draw(st.lists(odd_text, max_size=3)),
        )
        adapters = draw(st.dictionaries(adapter_name, odd_text, max_size=2))
        tasks[task.id] = replace(
            task,
            src_path=draw(odd_text),
            tgt_path=draw(odd_text),
            adapters=tuple(sorted(adapters.items())),
        )
    return FullConfig(dict(sorted(tasks.items())), enc_layers, dec_layers, topology)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestYamlPaths:
    """An emitted plan is JSON text that libyaml's loader and the
    pure-Python one, which `configgen` uses where PyYAML has no libyaml,
    read as the same document; each reads a YAML plan the same way."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=full_configs())
    def test_yaml_readers_read_the_json_document(self, cfg):
        text = emit(cfg)
        doc = json.loads(text)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == doc
        assert yaml.load(text, Loader=yaml.SafeLoader) == doc
        yaml_text = yaml.safe_dump(doc)
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            with mock.patch.object(configgen, "YAML_LOADER", loader):
                assert parse(yaml_text) == cfg


def with_task(cfg, tid, **changes):
    """`cfg` with task `tid` changed; construction checks the new plan."""
    return replace(cfg, tasks={**cfg.tasks, tid: replace(cfg.tasks[tid], **changes)})


class TestPlanBoundary:
    """A `FullConfig` checks every plan rule where it is built, so each
    one that exists reads back from its emitted text unchanged."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=full_configs())
    def test_parse_inverts_emit(self, cfg):
        text = emit(cfg)
        assert parse(text) == cfg
        assert emit(parse(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(cfg=full_configs())
    def test_writer_writes_the_readers_keys(self, cfg):
        # `emit` and `parse` share one key list: a task leaves out only
        # `adapters`, and only when it has none
        doc = json.loads(emit(cfg))
        assert doc.keys() == configgen._PLAN.keys()
        for tid, entry in doc["tasks"].items():
            unwritten = set() if cfg.tasks[tid].adapters else {"adapters"}
            assert entry.keys() == configgen._TASK.keys() - unwritten

    def test_absent_optional_fields_take_the_task_defaults(self):
        optional = ("weight", "introduce_at_training_step", "transforms", "adapters")
        doc = json.loads(emit(generate(pinned_meta(), all_files_exist)))
        for entry in doc["tasks"].values():
            for key in optional:
                entry.pop(key, None)
        defaults = {f.name: f.default for f in fields(TaskSpec) if f.name in optional}
        for task in parse(json.dumps(doc)).tasks.values():
            assert {key: getattr(task, key) for key in optional} == defaults

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda cfg: replace(
                cfg, tasks={("x" if k == "train_bg-en" else k): t for k, t in cfg.tasks.items()}),
             "key x holds task train_bg-en"),
            (lambda cfg: replace(cfg, tasks={}), "plan has no tasks"),
            (lambda cfg: replace(cfg, enc_layers=(3,)),
             "6 tasks, train_bg-de first, lack the plan's layer counts"),
            (lambda cfg: with_task(cfg, "train_bg-en",
                                   enc_modules=(ModuleKey(Side.DECODER, 0, "bg"),)),
             "task train_bg-en: encoder module 0 is keyed decoder:0:bg"),
            (lambda cfg: with_task(cfg, "train_bg-en",
                                   enc_modules=(ModuleKey(Side.ENCODER, 3, "bg"),)),
             "task train_bg-en: encoder module 0 is keyed encoder:3:bg"),
            (lambda cfg: with_task(cfg, "train_bg-en",
                                   adapters=(("sa", "sa:bg"), ("da", "da:en"))),
             "task train_bg-en: adapter names are not sorted, each once"),
            (lambda cfg: with_task(cfg, "train_bg-en",
                                   adapters=(("da", "da:en"), ("da", "da:en"))),
             "task train_bg-en: adapter names are not sorted, each once"),
        ],
        ids=["key-not-id", "no-tasks", "plan-layers", "module-side", "module-position",
             "adapters-unsorted", "adapter-twice"],
    )
    def test_plan_that_would_not_read_back_is_rejected(self, build, message):
        meta = meta_for(
            ["bg", "de", "en"],
            adapters=(
                AdapterSpec("da", Side.DECODER, (0,), SP.LANGUAGE),
                AdapterSpec("sa", Side.ENCODER, (0,), SP.LANGUAGE),
            ),
        )
        cfg = generate(meta, all_files_exist)
        with pytest.raises(ConfigError) as info:
            build(cfg)
        assert str(info.value) == f"[validation] {message}"

    @pytest.mark.parametrize("loader", ["json", "yaml-pure-python"])
    def test_surrogate_escape_is_rejected(self, loader):
        # `json.loads` and the pure-Python YAML reader read the escape, and
        # the plan boundary rejects the string, as a library plan's
        doc = json.loads(emit(generate(pinned_meta(), all_files_exist)))
        doc["tasks"]["train_bg-en"]["path_src"] = "PATH"
        escaped = '"bg-en/train\\ud800.bg"'  # the same in JSON and YAML
        if loader == "json":
            text = json.dumps(doc).replace('"PATH"', escaped)
        else:
            text = yaml.safe_dump(doc).replace("PATH", escaped)
        with mock.patch.object(configgen, "YAML_LOADER", yaml.SafeLoader):
            with pytest.raises(ConfigError) as info:
                parse(text)
        assert str(info.value) == (
            "[validation] task train_bg-en: src_path 'bg-en/train\\ud800.bg' holds a lone "
            "surrogate, which UTF-8 cannot encode"
        )

    def test_library_reader_checks_the_plan(self, tmp_path):
        # the library's reader is the boundary too, not only the CLI
        doc = yaml.safe_load(emit(generate(meta_for(["bg", "en"]), all_files_exist)))
        doc["tasks"]["train_bg-en"]["weight"] = 0
        path = tmp_path / "full.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as info:
            load_full_config(str(path))
        assert info.value.stage == "validation"
        assert info.value.message == "task train_bg-en: weight must be a positive integer"


class TestMetaRules:
    """Each meta rule is checked by the type that holds its value."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: meta_for([]), "langs: at least one language code"),
            (lambda: meta_for(["bg", "DE"]), "invalid language code: 'DE'"),
            (lambda: meta_for(["bg", "a" * 58]),
             f"language code {'a' * 58!r} is longer than 57 characters"),
            (lambda: meta_for(["bg", "en", "bg"]), "langs: duplicate language code bg"),
            (lambda: meta_for(["bg", "en"], n_groups=0), "n_groups must be >= 1, got 0"),
            (lambda: meta_for(["bg", "en"], n_groups=3), "n_groups exceeds number of languages"),
            (lambda: ArchSpec((), ((SP.FULL, 1),)), "enc_sharing: at least one stack"),
            (lambda: ArchSpec(((SP.FULL, 1),), ((SP.LANGUAGE, 4), (SP.FULL, 0))),
             "dec_sharing[1]: layer count 0 is not in 1..65536"),
            (lambda: AdapterSpec("", Side.DECODER, (0,), SP.LANGUAGE),
             "adapter name '' is not 1-122 printable ASCII characters"),
            (lambda: CurriculumStage(-5, 2), "curriculum: start_step must be >= 0, got -5"),
            (lambda: meta_for(["bg", "en"], distance_matrix_path="nope.txt"),
             "distance_matrix: no sharing pattern or adapter uses groups"),
            (lambda: meta_for(["bg", "en"], tgt_path_template="{lang_pair}/\ud800"),
             "tgt_path_template '{lang_pair}/\\ud800' holds a lone surrogate, "
             "which UTF-8 cannot encode"),
            (lambda: meta_for(["bg", "en"], noise_transform="b\udfffrt"),
             "noise_transform 'b\\udfffrt' holds a lone surrogate, which UTF-8 cannot encode"),
        ],
        ids=[
            "no-langs", "uppercase-lang", "long-lang", "repeated-lang", "n_groups-0",
            "n_groups-above-langs", "no-enc-stack", "zero-layers", "empty-adapter-name",
            "negative-start-step", "matrix-without-groups", "surrogate-template",
            "surrogate-noise-transform",
        ],
    )
    def test_rule_checked_by_its_type(self, build, message):
        # the types check these rules themselves, so a MetaConfig built in
        # Python meets them as a meta file does
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_bounds_are_accepted(self):
        meta = meta_for(["bg", "en"], n_groups=2, curriculum_stages=(CurriculumStage(0, 5),))
        assert meta.n_groups == 2 and meta.curriculum_stages[0].start_step == 0


# A meta file with only the keys that have no default
REQUIRED_META = """\
langs: [bg, en]
src_path_template: x
tgt_path_template: y
enc_sharing: [{pattern: FULL, layers: 1}]
dec_sharing: [{pattern: FULL, layers: 1}]
n_gpus_per_node: 2
n_slots_per_gpu: 3
"""


class TestLoadMetaConfig:
    def test_full_meta_file(self, tmp_path):
        (tmp_path / "meta.yaml").write_text(
            """\
langs: [bg, en]
src_path_template: "{lang_pair}/train.{src_lang}"
tgt_path_template: "{lang_pair}/train.{tgt_lang}"
corpus_mode: directional
enc_sharing:
  - {pattern: LANGUAGE, layers: 2}
  - {pattern: FULL, layers: 4}
dec_sharing:
  - {pattern: LANGUAGE, layers: 4}
n_gpus_per_node: 2
n_slots_per_gpu: 4
temperature: 2.0
curriculum:
  - {start_step: 5000, below_lines: 1000}
adapters:
  - {name: da, side: decoder, positions: [0], pattern: LANGUAGE}
seed: 11
"""
        )
        meta = load_meta_config(str(tmp_path / "meta.yaml"))
        assert meta.languages == ("bg", "en")
        assert meta.arch.enc_stacks == ((SP.LANGUAGE, 2), (SP.FULL, 4))
        assert meta.topology.n_gpus_per_node == 2
        assert meta.temperature == 2.0
        assert meta.curriculum_stages == (CurriculumStage(5000, 1000),)
        assert meta.adapters[0].name == "da"
        assert meta.seed == 11

    def test_optional_keys_take_the_dataclass_defaults(self, tmp_path):
        (tmp_path / "meta.yaml").write_text(REQUIRED_META)
        meta = load_meta_config(str(tmp_path / "meta.yaml"))
        for field in fields(MetaConfig):
            if field.default is not MISSING and field.name != "corpus_root":
                assert getattr(meta, field.name) == field.default, field.name
        # the default corpus root is resolved, as a relative one is
        assert meta.corpus_root == os.path.join(str(tmp_path), MetaConfig.corpus_root)
        assert meta.corpus_mode is CorpusMode.DIRECTIONAL
        assert meta.topology == ClusterTopology(1, 2, 3)

    def test_line_count_file_reads_as_its_mapping_inline(self, tmp_path):
        # the mapping a file holds is read as an inline one, and a null as
        # an inline null is: an error, as for every key
        (tmp_path / "counts.yaml").write_text("train_bg-en: 3\ntrain_en-bg: 1\n")
        (tmp_path / "empty.yaml").write_text("")
        path = tmp_path / "meta.yaml"
        path.write_text(REQUIRED_META + "line_counts: counts.yaml\n")
        assert load_meta_config(str(path)).line_counts == {"train_bg-en": 3, "train_en-bg": 1}
        for value in ("~", "empty.yaml"):
            path.write_text(REQUIRED_META + f"line_counts: {value}\n")
            with pytest.raises(ConfigError) as info:
                load_meta_config(str(path))
            assert str(info.value) == "[meta] line_counts: expected dict, got None"

    def test_every_type_is_read_before_the_rules(self, tmp_path):
        # of a rule broken in a stack and a mistyped topology key, the type
        # is reported: every value is read before the dataclasses check it
        (tmp_path / "meta.yaml").write_text(
            REQUIRED_META.replace("layers: 1}]\ndec", "layers: 0}]\ndec").replace(
                "n_gpus_per_node: 2", "n_gpus_per_node: x"
            )
        )
        with pytest.raises(ConfigError) as info:
            load_meta_config(str(tmp_path / "meta.yaml"))
        assert str(info.value) == "[meta] n_gpus_per_node: expected int, got 'x'"

    def test_malformed_meta(self, tmp_path):
        (tmp_path / "meta.yaml").write_text("langs: [bg]\n")
        with pytest.raises(ConfigError, match="meta"):
            load_meta_config(str(tmp_path / "meta.yaml"))

    def test_invalid_language_is_a_meta_error(self, tmp_path):
        # a meta file's codes are checked when it is read, before discovery
        path = tmp_path / "meta.yaml"
        meta_text = META_LANGS_BG_EN.replace("[bg, en]", "[bg, EN]")
        path.write_text(meta_text.format(root=".", src_tpl="x", tgt_tpl="y"))
        with pytest.raises(ConfigError, match=r"^\[meta\] invalid language code: 'EN'$"):
            load_meta_config(str(path))

    def test_unquoted_boolean_language(self, tmp_path):
        # YAML 1.1 reads Norwegian `no` as False
        (tmp_path / "meta.yaml").write_text(
            "langs: [en, no]\n"
            "src_path_template: x\ntgt_path_template: y\n"
            "enc_sharing: []\ndec_sharing: []\n"
            "n_gpus_per_node: 1\nn_slots_per_gpu: 1\n"
        )
        with pytest.raises(ConfigError, match=r"\[meta\] langs entry False .*quote"):
            load_meta_config(str(tmp_path / "meta.yaml"))

    @pytest.mark.usefixtures("pure_python_yaml")
    @pytest.mark.parametrize(
        "key, value",
        [
            ("src_path_template", '"x\\ud800"'),
            ("corpus_root", '"c\\ud800"'),
            ("distance_matrix", '"d\\udfff.txt"'),
            ("line_counts", '"n\\udc80.yaml"'),
            ("noise_transform", '"b\\ud800"'),
        ],
    )
    def test_surrogate_escape_is_a_meta_error(self, tmp_path, key, value):
        # libyaml's reader rejects the escape; the pure-Python one reads it
        doc = {
            "langs": "[bg, en]",
            "src_path_template": "x",
            "tgt_path_template": "y",
            "enc_sharing": "[{pattern: FULL, layers: 1}]",
            "dec_sharing": "[{pattern: FULL, layers: 1}]",
            "n_gpus_per_node": "1",
            "n_slots_per_gpu": "1",
            key: value,
        }
        (tmp_path / "meta.yaml").write_text("".join(f"{k}: {v}\n" for k, v in doc.items()))
        with pytest.raises(ConfigError) as info:
            load_meta_config(str(tmp_path / "meta.yaml"))
        assert str(info.value).startswith(f"[meta] {key} ")
        assert str(info.value).endswith("holds a lone surrogate, which UTF-8 cannot encode")

    @pytest.mark.parametrize(
        "keys",
        [
            "n_nodes: 2\nn_gpus_per_node: 3\nn_slots_per_gpu: 4\n",
            "n_nodes: 1\nn_gpus_per_node: 1\nn_slots_per_gpu: 1\nbeta_inter: 100\n",
            "n_nodes: 2\nn_gpus_per_node: 3\nn_slots_per_gpu: 4\nalpha_intra: 1.0e-06\n"
            "alpha_inter: 3.0e-05\nbeta_intra: 5.0e+10\nbeta_inter: 1.0e+10\n",
        ],
    )
    def test_topology_matches_parse(self, tmp_path, keys):
        # absent alpha/beta keys take the same defaults in both readers
        (tmp_path / "meta.yaml").write_text(
            "langs: [bg, en]\nsrc_path_template: x\ntgt_path_template: y\n"
            "enc_sharing: [{pattern: FULL, layers: 1}]\n"
            "dec_sharing: [{pattern: FULL, layers: 1}]\n" + keys
        )
        full = parse(
            "enc_layers: [1]\ndec_layers: [1]\n"
            "tasks: {train_bg-en: {src_tgt: bg-en, path_src: x, path_tgt: y,"
            " enc_sharing_groups: [a], dec_sharing_groups: [b], node_gpu: '0:0'}}\n" + keys
        )
        assert load_meta_config(str(tmp_path / "meta.yaml")).topology == full.topology

    def test_adapter_position_out_of_bounds(self):
        with pytest.raises(ValueError, match="position out of arch bounds"):
            meta_for(
                ["bg", "en"],
                adapters=(AdapterSpec("da", Side.DECODER, (5,), SP.FULL),),
            )


META_LANGS_BG_EN = """\
langs: [bg, en]
src_path_template: "{src_tpl}"
tgt_path_template: "{tgt_tpl}"
corpus_root: {root}
enc_sharing: [{{pattern: LANGUAGE, layers: 1}}]
dec_sharing: [{{pattern: LANGUAGE, layers: 1}}]
n_gpus_per_node: 1
n_slots_per_gpu: 2
"""


def write_meta(path, root, src_tpl="{lang_pair}.{src_lang}", tgt_tpl="{lang_pair}.{tgt_lang}"):
    path.write_text(META_LANGS_BG_EN.format(root=root, src_tpl=src_tpl, tgt_tpl=tgt_tpl))
    return load_meta_config(str(path))


def write_corpus(corpus, pairs=("bg-en", "en-bg")):
    corpus.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        for lang in pair.split("-"):
            (corpus / f"{pair}.{lang}").write_text("x\n")


class TestDefaultProbe:
    def test_relative_root_resolves_against_meta_directory(self, tmp_path, monkeypatch):
        (tmp_path / "conf").mkdir()
        write_corpus(tmp_path / "conf" / "corpus")
        meta = write_meta(tmp_path / "conf" / "meta.yaml", "corpus")
        monkeypatch.chdir(tmp_path)  # not the meta file's directory
        assert meta.corpus_root == str(tmp_path / "conf" / "corpus")
        probe = default_probe(meta.corpus_root)
        assert probe("bg-en.bg") and not probe("bg-en.de")
        assert sorted(generate(meta).tasks) == ["train_bg-en", "train_en-bg"]

    def test_root_with_trailing_slash(self, tmp_path):
        write_corpus(tmp_path / "corpus")
        probe = default_probe(str(tmp_path / "corpus") + "/")
        assert probe("bg-en.bg") and probe("en-bg.en")
        assert not probe("bg-en.de")

    def test_absolute_template_path_ignores_root(self, tmp_path):
        write_corpus(tmp_path / "elsewhere")
        (tmp_path / "corpus").mkdir()
        probe = default_probe(str(tmp_path / "corpus"))
        assert probe(str(tmp_path / "elsewhere" / "bg-en.bg"))
        meta = write_meta(
            tmp_path / "meta.yaml",
            "corpus",
            src_tpl=f"{tmp_path}/elsewhere/{{lang_pair}}.{{src_lang}}",
            tgt_tpl=f"{tmp_path}/elsewhere/{{lang_pair}}.{{tgt_lang}}",
        )
        cfg = generate(meta)
        assert cfg.tasks["train_bg-en"].src_path == f"{tmp_path}/elsewhere/bg-en.bg"

    def test_missing_root(self, tmp_path):
        meta = write_meta(tmp_path / "meta.yaml", "no-such-dir")
        assert not default_probe(meta.corpus_root)("bg-en.bg")
        with pytest.raises(ConfigError, match=r"^\[discovery\] empty task set"):
            generate(meta)

    def test_broken_symlink(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, pairs=("en-bg",))
        (corpus / "bg-en.bg").symlink_to(tmp_path / "gone.bg")
        (corpus / "bg-en.en").symlink_to(corpus / "en-bg.en")
        probe = default_probe(str(corpus))
        assert not probe("bg-en.bg")
        assert probe("bg-en.en")  # a symlink to a file is followed
        meta = write_meta(tmp_path / "meta.yaml", "corpus")
        assert sorted(generate(meta).tasks) == ["train_en-bg"]

    def test_directory_is_not_a_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, pairs=("en-bg",))
        (corpus / "bg-en.bg").mkdir()
        (corpus / "bg-en.en").write_text("x\n")
        probe = default_probe(str(corpus))
        assert not probe("bg-en.bg") and not probe("")
        meta = write_meta(tmp_path / "meta.yaml", "corpus")
        assert sorted(generate(meta).tasks) == ["train_en-bg"]


def test_meta_loading_does_not_import_numpy(tmp_path):
    # numpy would add about 0.15 s to every command's start-up; only the
    # simulator needs it
    meta = tmp_path / "meta.yaml"
    write_meta(meta, "corpus")
    code = (
        "import sys\n"
        "import mmtplan\n"
        "from mmtplan import configgen\n"
        f"configgen.load_meta_config({str(meta)!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(configgen.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
