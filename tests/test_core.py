import random

import pytest

from mmtplan.core import (
    ClusterTopology,
    DeviceId,
    ModuleKey,
    Side,
    check_language,
    task_id,
    validate_config,
)

from conftest import make_task


class TestTaskId:
    def test_translation_pair(self):
        assert task_id("bg", "en") == "train_bg-en"

    def test_denoising_self_pair(self):
        assert task_id("en", "en") == "train_en-en"

    def test_direct_formatting(self):
        assert task_id("sw", "ca") == "train_sw-ca"

    @pytest.mark.parametrize("bad", ["", "EN", "fr-FR", "zh hans", "a.b"])
    def test_rejects_bad_codes(self, bad):
        with pytest.raises(ValueError):
            task_id(bad, "en")


def test_language_comparison_is_byte_order():
    # determinism requirement: plain byte order, no locale
    assert check_language("az") < check_language("ben")
    assert sorted(["sv", "ca", "sw"]) == ["ca", "sv", "sw"]


class TestModuleKey:
    def test_structural_equality(self):
        a = ModuleKey(Side.ENCODER, 0, "full")
        b = ModuleKey(Side.ENCODER, 0, "full")
        assert a == b and hash(a) == hash(b)

    def test_position_matters(self):
        assert ModuleKey(Side.ENCODER, 0, "x") != ModuleKey(Side.ENCODER, 1, "x")

    def test_side_matters(self):
        assert ModuleKey(Side.ENCODER, 0, "x") != ModuleKey(Side.DECODER, 0, "x")


class TestClusterTopology:
    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            ClusterTopology(0, 4, 1)

    def test_rejects_faster_inter_node(self):
        with pytest.raises(ValueError):
            ClusterTopology(2, 4, 1, alpha_intra=1e-5, alpha_inter=1e-6)
        with pytest.raises(ValueError):
            ClusterTopology(2, 4, 1, beta_intra=1e9, beta_inter=2e9)

    def test_device_enumeration(self):
        topo = ClusterTopology(2, 2, 1)
        devs = topo.devices()
        assert len(devs) == 4
        assert topo.flat(DeviceId(1, 1)) == 3
        assert not topo.contains(DeviceId(2, 0))


class TestValidateConfig:
    def test_empty_task_list_is_valid(self):
        assert validate_config([], ClusterTopology(1, 1, 1)) == []

    def test_unequal_encoder_positions(self):
        t1 = make_task("aa", "bb", ["x", "y"], ["z"])
        t2 = make_task("bb", "aa", ["x", "y", "w"], ["z"])
        violations = validate_config([t1, t2], ClusterTopology(1, 1, 2))
        assert any("unequal encoder position count" in v for v in violations)

    def test_slot_capacity(self):
        topo = ClusterTopology(1, 1, 4)
        langs = ["aa", "bb", "cc", "dd", "ee"]
        tasks = [
            make_task(l, "zz", ["x"], ["y"], device=(0, 0)) for l in langs
        ]
        violations = validate_config(tasks, topo)
        assert any("exceeding n_slots_per_gpu" in v for v in violations)
        # exactly at capacity is fine
        assert validate_config(tasks[:4], topo) == []

    def test_device_out_of_bounds(self):
        topo = ClusterTopology(1, 2, 1)
        t = make_task("aa", "bb", ["x"], ["y"], device=(0, 5))
        assert any("outside topology" in v for v in validate_config([t], topo))

    def test_order_insensitive_and_idempotent(self):
        topo = ClusterTopology(1, 1, 1)
        tasks = [
            make_task("aa", "bb", ["x", "y"], ["z"], device=(0, 0)),
            make_task("bb", "aa", ["x"], ["z"], device=(0, 0)),
        ]
        first = validate_config(tasks, topo)
        shuffled = tasks[:]
        random.Random(7).shuffle(shuffled)
        assert validate_config(shuffled, topo) == first
        assert validate_config(tasks, topo) == first

    def test_duplicate_ids(self):
        tasks = [make_task("aa", "bb", ["x"], ["y"]) for _ in range(2)]
        violations = validate_config(tasks, ClusterTopology(1, 1, 2))
        assert any("duplicate task id" in v for v in violations)

    def test_layer_length_mismatch(self):
        t = make_task("aa", "bb", ["x"], ["y"], enc_layers=(1, 2))
        violations = validate_config([t], ClusterTopology(1, 1, 1))
        assert any("length mismatch" in v for v in violations)

    def test_curriculum_cover(self):
        topo = ClusterTopology(1, 2, 2)
        delayed = make_task("aa", "bb", ["x"], ["y"], intro=5, device=(0, 1))
        covered = make_task("bb", "aa", ["x"], ["y"], device=(0, 1))
        assert validate_config([delayed], topo) == [
            "device 0:1 has no task active from step 0"
        ]
        assert validate_config([delayed, covered], topo) == []
