import math
import pickle
import random
from dataclasses import replace

import pytest

from mmtplan.core import (
    MAX_DEVICES,
    MAX_LANG_LEN,
    MAX_LAYERS,
    ClusterTopology,
    ConfigError,
    DeviceId,
    ModuleKey,
    Side,
    check_language,
    task_id,
    validate_config,
    validate_task,
)

from mmtplan.allocator import AllocationError
from mmtplan.pathtmpl import TemplateError
from mmtplan.sharing import GroupMapError
from mmtplan.syncsim import SimulationError

from conftest import make_task


class TestTaskId:
    def test_translation_pair(self):
        assert task_id("bg", "en") == "train_bg-en"

    def test_denoising_self_pair(self):
        assert task_id("en", "en") == "train_en-en"

    def test_direct_formatting(self):
        assert task_id("sw", "ca") == "train_sw-ca"

    # `task_id` only formats; `check_language` owns the rule for codes
    @pytest.mark.parametrize("bad", ["", "EN", "fr-FR", "zh hans", "a.b", "en\n"])
    def test_rejects_bad_codes(self, bad):
        with pytest.raises(ValueError):
            check_language(bad)

    def test_code_length_cap(self):
        # two codes of the longest length give a task id of 121 characters
        longest = check_language("a" * MAX_LANG_LEN)
        assert len(task_id(longest, longest)) == 121
        with pytest.raises(ValueError, match="longer than 57 characters"):
            check_language("a" * (MAX_LANG_LEN + 1))


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

    def test_sorts_by_side_position_group(self):
        keys = [
            ModuleKey(Side.ENCODER, 1, "a"),
            ModuleKey(Side.DECODER, 2, "z"),
            ModuleKey(Side.ENCODER, 0, "b"),
            ModuleKey(Side.ENCODER, 0, "a"),
            ModuleKey(Side.DECODER, 10, "a"),
        ]
        assert [str(k) for k in sorted(keys)] == [
            "decoder:2:z", "decoder:10:a", "encoder:0:a", "encoder:0:b", "encoder:1:a",
        ]

    def test_hashes_and_compares_in_c(self):
        # no Python-level __hash__/__eq__ runs on a dict lookup by key
        assert ModuleKey.__hash__ is tuple.__hash__ and ModuleKey.__eq__ is tuple.__eq__
        assert Side.__hash__ is str.__hash__ and Side.__eq__ is str.__eq__


class TestDeviceId:
    @pytest.mark.parametrize(
        "text, node, gpu", [("0:0", 0, 0), ("12:3", 12, 3), ("0:-1", 0, -1), ("-2:0", -2, 0)]
    )
    def test_reads_ascii_integers(self, text, node, gpu):
        assert DeviceId.parse(text) == DeviceId(node, gpu)

    def test_is_a_tuple_ordered_node_major(self):
        devices = [DeviceId(1, 0), DeviceId(0, 3), DeviceId(0, -1), DeviceId(10, 2)]
        assert [str(d) for d in sorted(devices)] == ["0:-1", "0:3", "1:0", "10:2"]
        assert [DeviceId.parse(str(d)) for d in devices] == devices
        assert hash(DeviceId.parse("2:1")) == hash(DeviceId(2, 1))
        # hashed and ordered in C, as a plain tuple
        assert DeviceId.__hash__ is tuple.__hash__ and DeviceId.__lt__ is tuple.__lt__

    # int() alone reads the first three as 10:0, 1:0 and 1:0
    @pytest.mark.parametrize(
        "text", [" 1_0:0", "\u0661:\u0660", "+1:0", "1 :0", "0:1\n", "1:0:0", "x", ":", "0:", ""]
    )
    def test_rejects_anything_else(self, text):
        with pytest.raises(ValueError, match="is not node:gpu$"):
            DeviceId.parse(text)


class TestClusterTopology:
    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            ClusterTopology(0, 4, 1)

    def test_rejects_faster_inter_node(self):
        with pytest.raises(ValueError):
            ClusterTopology(2, 4, 1, alpha_intra=1e-5, alpha_inter=1e-6)
        with pytest.raises(ValueError):
            ClusterTopology(2, 4, 1, beta_intra=1e9, beta_inter=2e9)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha_intra", -1.0),
            ("alpha_intra", math.nan),
            ("alpha_inter", math.inf),
            ("beta_intra", math.nan),
            ("beta_intra", 0.0),
            ("beta_inter", -1.0),
            ("beta_inter", math.inf),
            # finite, but too large for a float
            pytest.param("alpha_inter", 10**400, id="alpha_inter-10**400"),
            pytest.param("beta_intra", 10**400, id="beta_intra-10**400"),
        ],
    )
    def test_rejects_bad_latency_or_bandwidth(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ClusterTopology(2, 4, 1, **{field: value})

    def test_accepts_zero_latency(self):
        topo = ClusterTopology(2, 4, 1, alpha_intra=0.0, alpha_inter=0.0)
        assert topo.alpha_inter == 0.0

    def test_keeps_integer_values(self):
        # not converted to float, so an integer alpha/beta is emitted as written
        topo = ClusterTopology(2, 4, 1, alpha_intra=0, alpha_inter=1, beta_inter=10**10)
        values = (topo.alpha_intra, topo.alpha_inter, topo.beta_inter)
        assert values == (0, 1, 10**10) and all(type(v) is int for v in values)

    @pytest.mark.parametrize(
        "n_nodes, n_gpus", [(1, MAX_DEVICES + 1), (MAX_DEVICES + 1, 1), (257, 256)]
    )
    def test_rejects_too_many_devices(self, n_nodes, n_gpus):
        with pytest.raises(ValueError, match=f"devices, more than {MAX_DEVICES}$"):
            ClusterTopology(n_nodes, n_gpus, 1)

    def test_accepts_device_count_at_bound(self):
        assert ClusterTopology(256, 256, 1).n_devices == MAX_DEVICES

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

    def test_weight_total_must_fit_a_float(self):
        topo = ClusterTopology(1, 2, 2)
        heavy = make_task("aa", "bb", ["x"], ["y"], weight=10**308, device=(0, 0))
        other = make_task("bb", "aa", ["x"], ["y"], weight=10**308, device=(0, 0))
        assert validate_config([heavy], topo) == []
        assert validate_config([heavy, other], topo) == [
            "device 0:0: the weights of its tasks sum past what a float holds"
        ]
        # the multiplexer sums per device, so another device does not count
        assert validate_config([heavy, replace(other, device=DeviceId(0, 1))], topo) == []


class TestLayerCounts:
    @pytest.mark.parametrize("n", [1, MAX_LAYERS])
    def test_accepts_counts_in_range(self, n):
        task = make_task("aa", "bb", ["x"], ["y"], enc_layers=(n,), dec_layers=(n,))
        assert validate_config([task], ClusterTopology(1, 1, 1)) == []

    @pytest.mark.parametrize(
        "n", [-3, 0, MAX_LAYERS + 1, 10**400], ids=["-3", "0", "MAX_LAYERS+1", "10**400"]
    )
    def test_rejects_counts_out_of_range(self, n):
        task = replace(make_task("aa", "bb", ["x"], ["y", "z"]), dec_layers=(1, n))
        assert validate_config([task], ClusterTopology(1, 1, 1)) == [
            f"decoder layer count {n} is not in 1..{MAX_LAYERS}"
        ]

    def test_each_fault_reported_once_per_plan(self):
        # tasks of one plan share its layer counts; a bad count or a list
        # longer than the positions is one violation, not one per task
        tasks = [
            replace(make_task(a, b, ["x", "y"], ["z"]), enc_layers=(0, 2, 6))
            for a, b in [("aa", "bb"), ("bb", "aa"), ("aa", "cc")]
        ]
        assert validate_config(tasks, ClusterTopology(1, 1, 3)) == [
            "encoder modules/layer-counts length mismatch: 3 layer counts for 2 positions",
            f"encoder layer count 0 is not in 1..{MAX_LAYERS}",
        ]


class TestAdapterNames:
    @pytest.mark.parametrize("name", ["a", " ", "x" * 122, "~!{}:?"])
    def test_accepts_printable_ascii(self, name):
        task = replace(make_task("aa", "bb", ["x"], ["y"]), adapters=((name, "a:b"),))
        assert validate_task(task) == []

    @pytest.mark.parametrize("name", ["", "a\rb", "x" * 123, "caf\u00e9", "a\tb"])
    def test_rejects_other_names(self, name):
        task = replace(make_task("aa", "bb", ["x"], ["y"]), adapters=((name, "a:b"),))
        assert validate_task(task) == [
            f"task train_aa-bb: adapter name {name!r} is not 1-122 printable "
            "ASCII characters"
        ]


class TestValidateTask:
    def test_valid_task(self):
        assert validate_task(make_task("aa", "bb", ["x"], ["y"])) == []

    def test_id_must_match_languages(self):
        task = replace(make_task("aa", "bb", ["x"], ["y"]), id="train_bb-aa")
        assert validate_task(task) == [
            "task train_bb-aa: id does not match languages (train_aa-bb)"
        ]

    @pytest.mark.parametrize("side", ["enc_modules", "dec_modules"])
    def test_each_side_needs_a_module(self, side):
        task = replace(make_task("aa", "bb", ["x"], ["y"]), **{side: ()})
        assert validate_task(task) == [
            "task train_aa-bb: needs at least one module per side"
        ]

    def test_negative_curriculum_step(self):
        task = make_task("aa", "bb", ["x"], ["y"], intro=-1)
        assert validate_task(task) == ["task train_aa-bb: negative curriculum step"]

    @pytest.mark.parametrize(
        "changes, what, text",
        [
            (dict(src_path="a/\ud800.aa"), "src_path", "a/\ud800.aa"),
            (dict(tgt_path="\udfff"), "tgt_path", "\udfff"),
            (dict(transforms=("subword", "x\udc80")), "transform 1", "x\udc80"),
            (dict(enc_modules=(ModuleKey(Side.ENCODER, 0, "\udbff"),)), "encoder module 0",
             "\udbff"),
            (dict(dec_modules=(ModuleKey(Side.DECODER, 0, "y\ud800"),)), "decoder module 0",
             "y\ud800"),
            (dict(adapters=(("da", "da:\ud800"),)), "adapter da", "da:\ud800"),
        ],
        ids=["src_path", "tgt_path", "transform", "enc-group", "dec-group", "adapter"],
    )
    def test_surrogate_is_rejected(self, changes, what, text):
        # no UTF-8 text holds one, so no file call or YAML reader takes it
        task = replace(make_task("aa", "bb", ["x"], ["y"]), **changes)
        assert validate_task(task) == [
            f"task train_aa-bb: {what} {text!r} holds a lone surrogate, "
            "which UTF-8 cannot encode"
        ]

    def test_each_task_reports_its_language_code(self):
        # validate_config checks each distinct code once, and reports it
        # for every task that holds it
        tasks = [
            replace(make_task(a, "bb", ["x"], ["y"]), src_lang="A")
            for a in ("aa", "cc")
        ]
        assert validate_config(tasks, ClusterTopology(1, 1, 2)) == [
            "task train_aa-bb: invalid language code: 'A'",
            "task train_cc-bb: invalid language code: 'A'",
        ]

    def test_other_unicode_is_accepted(self):
        task = replace(
            make_task("aa", "bb", ["caf\u00e9"], ["\U0001d11e"]),
            src_path="\u03a9/\x85\u2028\ufffe",
            adapters=(("da", "da:\uffff"),),
        )
        assert validate_task(task) == []


@pytest.mark.parametrize(
    "cls, stage",
    [
        (AllocationError, "allocation"),
        (SimulationError, "simulation"),
        (TemplateError, "templates"),
        (GroupMapError, "sharing"),
    ],
)
def test_library_errors_carry_their_stage(cls, stage):
    # the CLI prints every library error through its one ConfigError handler
    exc = cls("went wrong")
    assert isinstance(exc, ConfigError) and isinstance(exc, ValueError)
    assert exc.stage == stage
    assert str(exc) == f"[{stage}] went wrong"


@pytest.mark.parametrize(
    "exc",
    [
        ConfigError("meta", "went wrong"),
        AllocationError("went wrong"),
        SimulationError("went wrong"),
        TemplateError("went wrong"),
        GroupMapError("went wrong"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_stage_errors_survive_pickle(exc):
    # a process pool hands errors back pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert back.stage == exc.stage
    assert str(back) == str(exc) == f"[{exc.stage}] went wrong"
