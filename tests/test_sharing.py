import itertools

import pytest

from mmtplan.core import MAX_LAYERS, ModuleKey, Side
from mmtplan.sharing import (
    DEFAULT_PARAMS_PER_LAYER,
    ArchSpec,
    GroupMapError,
    SharingPattern,
    build_module_sequence,
    enumerate_modules,
    resolve_group_name,
)

from conftest import make_task

ENC = Side.ENCODER
DEC = Side.DECODER


class TestResolveGroupName:
    def test_full_is_the_constant(self):
        assert resolve_group_name(SharingPattern.FULL, ENC, "bg", "en") == "full"

    def test_language_is_side_dependent(self):
        assert resolve_group_name(SharingPattern.LANGUAGE, ENC, "bg", "en") == "bg"
        assert resolve_group_name(SharingPattern.LANGUAGE, DEC, "bg", "en") == "en"

    def test_src_tgt_language(self):
        assert resolve_group_name(SharingPattern.SRC_LANGUAGE, DEC, "bg", "en") == "bg"
        assert resolve_group_name(SharingPattern.TGT_LANGUAGE, ENC, "bg", "en") == "en"

    def test_target_group_in_encoder(self):
        groups = {"en": "g0"}
        assert resolve_group_name(SharingPattern.TGT_GROUP, ENC, "bg", "en", groups) == "g0"

    def test_group_missing_language_fails(self):
        with pytest.raises(GroupMapError):
            resolve_group_name(SharingPattern.GROUP, ENC, "bg", "en", {"en": "g0"})

    def test_group_aliases_are_exact(self):
        # GROUP == SRC_GROUP on encoder, TGT_GROUP on decoder; LANGUAGE analogue
        langs = ["bg", "de", "en"]
        groups = {"bg": "g0", "de": "g0", "en": "g1"}
        for src, tgt in itertools.product(langs, langs):
            assert resolve_group_name(
                SharingPattern.GROUP, ENC, src, tgt, groups
            ) == resolve_group_name(SharingPattern.SRC_GROUP, ENC, src, tgt, groups)
            assert resolve_group_name(
                SharingPattern.GROUP, DEC, src, tgt, groups
            ) == resolve_group_name(SharingPattern.TGT_GROUP, DEC, src, tgt, groups)
            assert resolve_group_name(
                SharingPattern.LANGUAGE, ENC, src, tgt
            ) == resolve_group_name(SharingPattern.SRC_LANGUAGE, ENC, src, tgt)
            assert resolve_group_name(
                SharingPattern.LANGUAGE, DEC, src, tgt
            ) == resolve_group_name(SharingPattern.TGT_LANGUAGE, DEC, src, tgt)


class TestBuildModuleSequence:
    def test_partially_shared_shape(self):
        arch = ArchSpec(
            ((SharingPattern.LANGUAGE, 2), (SharingPattern.FULL, 4)),
            ((SharingPattern.LANGUAGE, 4),),
        )
        enc, dec, enc_layers, dec_layers = build_module_sequence(arch, "bg", "en")
        assert enc == (ModuleKey(ENC, 0, "bg"), ModuleKey(ENC, 1, "full"))
        assert dec == (ModuleKey(DEC, 0, "en"),)
        assert enc_layers == (2, 4)
        assert dec_layers == (4,)

    def test_fully_shared(self):
        arch = ArchSpec(((SharingPattern.FULL, 9),), ((SharingPattern.FULL, 4),))
        for src, tgt in [("bg", "en"), ("sw", "ca")]:
            enc, dec, _, _ = build_module_sequence(arch, src, tgt)
            assert enc == (ModuleKey(ENC, 0, "full"),)
            assert dec == (ModuleKey(DEC, 0, "full"),)

    def test_language_specific_yields_four_modules_for_two_directions(self):
        arch = ArchSpec(((SharingPattern.LANGUAGE, 6),), ((SharingPattern.LANGUAGE, 6),))
        e1, d1, _, _ = build_module_sequence(arch, "de", "en")
        e2, d2, _, _ = build_module_sequence(arch, "en", "de")
        assert len({*e1, *d1, *e2, *d2}) == 4

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            ArchSpec((), ((SharingPattern.FULL, 1),))

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            ArchSpec(((SharingPattern.FULL, 0),), ((SharingPattern.FULL, 1),))

    def test_layer_count_bound(self):
        ArchSpec(((SharingPattern.FULL, MAX_LAYERS),), ((SharingPattern.FULL, 1),))
        with pytest.raises(ValueError, match=f"layer count {MAX_LAYERS + 1} is not in 1..{MAX_LAYERS}"):
            ArchSpec(((SharingPattern.FULL, 1),), ((SharingPattern.FULL, MAX_LAYERS + 1),))


class TestEnumerateModules:
    def test_positionwise_identity(self):
        # encoder groups [x, y] and [y, x] are four modules, not two
        t1 = make_task("aa", "bb", ["x", "y"], ["d"])
        t2 = make_task("bb", "aa", ["y", "x"], ["d"])
        modules = enumerate_modules([t1, t2])
        enc_keys = [k for k in modules if k.side is ENC]
        assert len(enc_keys) == 4

    def test_single_task(self):
        t = make_task("aa", "bb", ["x"], ["y"])
        assert set(enumerate_modules([t])) == set(t.modules())

    def test_all_directed_pairs_language_arch(self):
        langs = [f"l{i:02d}" for i in range(21)]
        arch = ArchSpec(((SharingPattern.LANGUAGE, 1),), ((SharingPattern.LANGUAGE, 1),))
        tasks = []
        for src in langs:
            for tgt in langs:
                if src == tgt:
                    continue
                enc, dec, el, dl = build_module_sequence(arch, src, tgt)
                tasks.append(
                    make_task(src, tgt, [m.group for m in enc], [m.group for m in dec])
                )
        assert len(tasks) == 420
        modules = enumerate_modules(tasks)
        assert sum(1 for k in modules if k.side is ENC) == 21
        assert sum(1 for k in modules if k.side is DEC) == 21

    def test_fully_shared_is_two_modules(self):
        tasks = [
            make_task(s, t, ["full"], ["full"])
            for s, t in [("aa", "bb"), ("bb", "cc"), ("cc", "aa")]
        ]
        assert len(enumerate_modules(tasks)) == 2

    def test_conflicting_layer_counts(self):
        t1 = make_task("aa", "bb", ["x"], ["d1"], enc_layers=(2,))
        t2 = make_task("bb", "aa", ["x"], ["d2"], enc_layers=(3,))
        with pytest.raises(ValueError, match="conflicting layer counts"):
            enumerate_modules([t1, t2])

    def test_param_counts_scale_with_layers(self):
        t = make_task("aa", "bb", ["x"], ["y"], enc_layers=(3,), dec_layers=(1,))
        modules = enumerate_modules([t])
        assert modules[ModuleKey(ENC, 0, "x")].n_params == 3 * DEFAULT_PARAMS_PER_LAYER
        assert modules[ModuleKey(DEC, 0, "y")].n_params == DEFAULT_PARAMS_PER_LAYER
