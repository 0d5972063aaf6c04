import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import mmtplan
from mmtplan import configgen
from mmtplan.allocator import Assignment, comm_cost
from mmtplan.cli import main
from mmtplan.configgen import load_full_config
from mmtplan.sharing import enumerate_modules

META_YAML = """\
langs: [bg, de, en]
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
corpus_root: corpus
seed: 0
"""

# Every key a meta-configuration accepts, so that the fuzzer mutates each.
META_YAML_ALL_KEYS = """\
langs: [bg, de, en]
src_path_template: "{lang_pair}/train.{src_lang}"
tgt_path_template: "{lang_pair}/train.{tgt_lang}"
corpus_mode: directional
corpus_root: corpus
enc_sharing:
  - {pattern: LANGUAGE, layers: 2}
  - {pattern: GROUP, layers: 4}
dec_sharing:
  - {pattern: LANGUAGE, layers: 4}
n_nodes: 1
n_gpus_per_node: 2
n_slots_per_gpu: 4
alpha_intra: 5.0e-06
alpha_inter: 2.0e-05
beta_intra: 1.0e+11
beta_inter: 1.25e+10
n_groups: 2
distance_matrix: distances.txt
temperature: 2.0
autoencoder: false
noise_transform: bart
curriculum:
  - {start_step: 100, below_lines: 2}
adapters:
  - {name: da, side: decoder, positions: [0], pattern: LANGUAGE}
line_counts: {train_bg-de: 10, train_bg-en: 20, train_de-bg: 10, train_de-en: 1, train_en-bg: 30, train_en-de: 1}
seed: 0
search_budget: 100
"""


# YAML nested 50,000 levels deep, as the value of a key: in flow style and
# in compact block style
DEEP = {
    "flow": "[" * 50_000 + "]" * 50_000,
    "block": "\n  " + "- " * 50_000 + "x",
}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(mmtplan.__file__)))


def run_process(args, libyaml=True):
    """`mmtplan` in a process of its own, so that a crash shows as its exit
    status.  Without `libyaml`, PyYAML's C extension cannot be imported,
    and PyYAML runs as a build without libyaml does."""
    code = "import sys\n"
    if not libyaml:
        code += "sys.modules['yaml._yaml'] = None\nimport yaml\nassert not yaml.__with_libyaml__\n"
    code += "from mmtplan.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )


def make_workspace(root):
    (root / "meta.yaml").write_text(META_YAML)
    (root / "meta_all_keys.yaml").write_text(META_YAML_ALL_KEYS)
    (root / "distances.txt").write_text("bg de en\n0 0.2 0.9\n0.2 0 0.8\n0.9 0.8 0\n")
    corpus = root / "corpus"
    for src in ["bg", "de", "en"]:
        for tgt in ["bg", "de", "en"]:
            if src == tgt:
                continue
            pair = corpus / f"{src}-{tgt}"
            pair.mkdir(parents=True, exist_ok=True)
            (pair / f"train.{src}").write_text("x\n")
            (pair / f"train.{tgt}").write_text("x\n")
    return root


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def generated(workspace):
    out = workspace / "full.yaml"
    assert main(["generate", str(workspace / "meta.yaml"), "-o", str(out)]) == 0
    return out


# An exception's repr, such as KeyError('tasks'), in an error line
EXCEPTION_REPR = re.compile(r"\b\w*Error\(")


def one_error_line(capsys, stage):
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{stage}] "), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not EXCEPTION_REPR.search(err), err
    return err


class TestGenerate:
    def test_writes_config(self, workspace):
        out = workspace / "full.yaml"
        assert main(["generate", str(workspace / "meta.yaml"), "-o", str(out)]) == 0
        cfg = load_full_config(str(out))
        assert len(cfg.tasks) == 6

    def test_deterministic_output_files(self, workspace):
        out1 = workspace / "full1.yaml"
        out2 = workspace / "full2.yaml"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out1)])
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_is_the_output_file(self, workspace, capsys):
        out = generated(workspace)
        capsys.readouterr()
        assert main(["generate", str(workspace / "meta.yaml")]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_non_ascii_plan_is_utf8_whatever_the_io_encoding(self, workspace):
        # a plan holds non-ASCII text as it is, so it is written as UTF-8 to
        # a file and to stdout, even where stdio would encode as ASCII
        meta = workspace / "meta.yaml"
        template = "{lang_pair}/train \u00e9\U0001d11e.{src_lang}"
        meta.write_text(
            META_YAML.replace("{lang_pair}/train.{src_lang}", template), encoding="utf-8"
        )
        for pair in ("bg-de", "bg-en", "de-bg", "de-en", "en-bg", "en-de"):
            src = pair.split("-")[0]
            (workspace / "corpus" / template.format(lang_pair=pair, src_lang=src)).touch()
        out = workspace / "full.yaml"
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="ascii")
        cli = [sys.executable, "-m", "mmtplan.cli", "generate", str(meta)]
        to_file = subprocess.run([*cli, "-o", str(out)], env=env, capture_output=True)
        to_stdout = subprocess.run(cli, env=env, capture_output=True)
        assert (to_file.returncode, to_stdout.returncode) == (0, 0), to_stdout.stderr
        assert to_stdout.stdout == out.read_bytes()
        cfg = configgen.generate(configgen.load_meta_config(str(meta)))
        assert configgen.parse(to_stdout.stdout) == cfg
        assert cfg.tasks["train_bg-de"].src_path == "bg-de/train \u00e9\U0001d11e.bg"

    def test_seed_is_not_an_option(self, workspace):
        # the meta file's seed is the only one, so a plan is reproducible from it
        with pytest.raises(SystemExit) as exc:
            main(["generate", str(workspace / "meta.yaml"), "--seed", "3"])
        assert exc.value.code == 2

    def test_missing_corpus_fails_cleanly(self, workspace, capsys):
        import shutil

        shutil.rmtree(workspace / "corpus")
        rc = main(["generate", str(workspace / "meta.yaml")])
        assert rc == 1
        assert "[discovery]" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "nope.yaml")]) == 1

    def test_unquoted_norwegian_fails_cleanly(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML.replace("langs: [bg, de, en]", "langs: [en, no]"))
        for pair, langs in (("en-no", ("en", "no")), ("no-en", ("no", "en"))):
            (workspace / "corpus" / pair).mkdir()
            for lang in langs:
                (workspace / "corpus" / pair / f"train.{lang}").write_text("x\n")
        assert main(["generate", str(meta)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [meta] ") and "quote" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_directory_at_corpus_path_is_not_a_corpus(self, workspace):
        (workspace / "corpus" / "bg-de" / "train.bg").unlink()
        (workspace / "corpus" / "bg-de" / "train.bg").mkdir()
        out = workspace / "full.yaml"
        assert main(["generate", str(workspace / "meta.yaml"), "-o", str(out)]) == 0
        tasks = load_full_config(str(out)).tasks
        assert "train_bg-de" not in tasks and len(tasks) == 5

    def test_duplicate_language(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_text(
            META_YAML.replace("langs: [bg, de, en]", "langs: [en, de, en, bg]")
            + "n_groups: 3\n"
        )
        assert main(["generate", str(meta)]) == 1
        assert one_error_line(capsys, "meta") == (
            "error: [meta] langs: duplicate language code en\n"
        )

    def test_pure_python_yaml(self, workspace, request):
        # the classes that run where PyYAML has no libyaml give the same file
        out = generated(workspace)
        request.getfixturevalue("pure_python_yaml")
        pure = workspace / "pure.yaml"
        assert main(["generate", str(workspace / "meta.yaml"), "-o", str(pure)]) == 0
        assert pure.read_bytes() == out.read_bytes()
        assert main(["validate", str(pure)]) == 0

    def test_without_libyaml(self, workspace):
        # the loader's bases are chosen per platform: PyYAML's pure-Python
        # SafeLoader already has the composer.  Deep input on this platform
        # is `TestBadInput.test_deep_yaml_exits_1`'s.
        out = generated(workspace)
        pure = workspace / "pure.yaml"
        proc = run_process(["generate", str(workspace / "meta.yaml"), "-o", str(pure)], False)
        assert proc.returncode == 0, proc.stderr
        assert pure.read_bytes() == out.read_bytes()
        proc = run_process(["validate", str(pure)], False)
        assert (proc.returncode, proc.stdout) == (0, f"{pure}: OK (6 tasks)\n"), proc.stderr

    def test_all_keys_meta(self, workspace):
        out = workspace / "full.yaml"
        assert main(["generate", str(workspace / "meta_all_keys.yaml"), "-o", str(out)]) == 0
        cfg = load_full_config(str(out))
        assert len(cfg.tasks) == 6
        assert sum(t.introduce_at_training_step == 100 for t in cfg.tasks.values()) == 2


class TestValidate:
    def test_valid_config(self, workspace):
        out = workspace / "full.yaml"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out)])
        assert main(["validate", str(out)]) == 0

    def test_unequal_module_count_exits_1(self, tmp_path, capsys):
        # hand-build a config violating the equal-position-count rule
        text = """\
enc_layers: [2]
dec_layers: [2]
n_nodes: 1
n_gpus_per_node: 1
n_slots_per_gpu: 4
tasks:
  train_bg-en:
    src_tgt: bg-en
    path_src: a
    path_tgt: b
    enc_sharing_groups: [bg]
    dec_sharing_groups: [en]
    node_gpu: "0:0"
  train_en-bg:
    src_tgt: en-bg
    path_src: a
    path_tgt: b
    enc_sharing_groups: [en, full]
    dec_sharing_groups: [bg]
    node_gpu: "0:0"
"""
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(text)
        assert main(["validate", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "unequal encoder position count" in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_uncovered_device_exits_1(self, workspace, capsys, command):
        # every task delayed: no device has a task to draw at step 0
        out = generated(workspace)
        out.write_text(
            out.read_text().replace(
                '"introduce_at_training_step": 0', '"introduce_at_training_step": 3'
            )
        )
        capsys.readouterr()
        assert main([command, str(out)]) == 1
        err = one_error_line(capsys, "validation")
        assert "has no task active from step 0" in err


class TestBadInput:
    def test_malformed_meta_yaml(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML.replace("[bg, de, en]", "[bg, de, en"))
        assert main(["generate", str(meta)]) == 1
        one_error_line(capsys, "meta")

    @pytest.mark.parametrize("command", ["generate", "validate"])
    def test_directory_path(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 1
        one_error_line(capsys, "io")

    def test_unquoted_node_gpu(self, workspace, capsys):
        # YAML 1.1 reads an unquoted 2:0 as the base-60 integer 120; the
        # text is no longer JSON, so the YAML reader reads it
        out = generated(workspace)
        text = out.read_text()
        assert '"node_gpu": "0:1"' in text
        out.write_text(text.replace('"node_gpu": "0:1"', '"node_gpu": 2:0', 1))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        err = one_error_line(capsys, "parse")
        assert "node_gpu 120" in err and "quote" in err

    @pytest.mark.parametrize(
        "line, field",
        [
            ("autoencoder: 'false'", "autoencoder"),
            ("seed: 1.7", "seed"),
            ("seed: '3'", "seed"),
            ("search_budget: 2.9", "search_budget"),
            ("n_groups: 1.5", "n_groups"),
            ("temperature: '2'", "temperature"),
            ("temperature: .nan", "temperature"),
            ("noise_transform: [a]", "noise_transform"),
            ("n_nodes: 2.5", "n_nodes"),
            ("alpha_intra: fast", "alpha_intra"),
            ("w_intra: '1'", "w_intra"),
            ("w_intra: 1.0", "unknown keys: w_intra"),
            ("beta_intra: .nan", "beta_intra"),
            ("alpha_intra: -1.0", "alpha_intra"),
            ("search_budget: -5", "search_budget"),
            ("dec_sharing: [{pattern: LANGUAGE, layers: 4.5}]", "layers"),
            ("curriculum: [{start_step: 1.5, below_lines: 2}]", "start_step"),
            ("adapters: [{name: 7, side: decoder, pattern: LANGUAGE}]", "name 7"),
            ("adapters: [{name: da, side: decoder, positions: ['0'], pattern: LANGUAGE}]",
             "positions"),
            ("serach_budget: 5", "unknown keys: serach_budget"),
            pytest.param(
                "alpha_intra: 1" + "0" * 400,
                "alpha_intra must be finite",
                id="alpha_intra: 10**400-alpha_intra must be finite",
            ),
            pytest.param(
                "enc_sharing: [{pattern: FULL, layers: 1%s}]" % ("0" * 400),
                "is not in 1..65536",
                id="enc_sharing layers: 10**400-is not in 1..65536",
            ),
            ("dec_sharing: [{pattern: LANGUAGE, layers: 65537}]",
             "layer count 65537 is not in 1..65536"),
            ("langs", "langs: required key is missing"),
            ("dec_sharing: [{pattern: LANGUAGE, layers: 0}]",
             "layer count 0 is not in 1..65536"),
            ("enc_sharing: []", "enc_sharing: at least one stack"),
            ("dec_sharing: []", "dec_sharing: at least one stack"),
            ("enc_sharing: [{pattern: FULL, layers: 0}]",
             "enc_sharing[0]: layer count 0 is not in 1..65536"),
            ("dec_sharing: [{pattern: LANGUAGE, layers: 4}, {pattern: FULL, layers: 0}]",
             "dec_sharing[1]: layer count 0 is not in 1..65536"),
            ("corpus_mode: bogus", "corpus_mode: 'bogus' is not a valid CorpusMode"),
            ("adapters: [{name: da, side: middle, pattern: LANGUAGE}]",
             "adapters: side: 'middle' is not a valid Side"),
            ("enc_sharing: [{layers: 4}]", "enc_sharing: pattern: required key is missing"),
            ("enc_sharing: [{pattern: FULL, layers: 4, layer: 2}]",
             "enc_sharing: unknown keys: layer"),
            ("curriculum: [{start_step: 100}]",
             "curriculum: below_lines: required key is missing"),
            ("curriculum: [{start_step: 100, below_lines: 2, below: 3}]",
             "curriculum: unknown keys: below"),
            ("adapters: [{name: da, side: decoder, pattern: LANGUAGE, position: [0]}]",
             "adapters: unknown keys: position"),
            ("n_groups: 9", "n_groups exceeds number of languages"),
            ("temperature: 0.5", "temperature must be >= 1"),
            ("n_gpus_per_node: 0", "n_gpus_per_node must be >= 1, got 0"),
            ("n_slots_per_gpu", "n_slots_per_gpu: required key is missing"),
            ("line_counts: ~", "line_counts: expected dict, got None"),
        ],
    )
    def test_wrong_typed_meta_value(self, workspace, capsys, line, field):
        # the line replaces any line (and its indented block) for the same
        # key; a line without a colon only deletes its key
        key, colon, _ = line.partition(":")
        kept, skipping = [], False
        for old in META_YAML.splitlines():
            skipping = old.startswith(f"{key}:") or (skipping and old.startswith(" "))
            if not skipping:
                kept.append(old)
        meta = workspace / "meta.yaml"
        meta.write_text("\n".join(kept + [line] * bool(colon)) + "\n")
        assert main(["generate", str(meta), "-o", str(workspace / "full.yaml")]) == 1
        assert field in one_error_line(capsys, "meta")
        assert not (workspace / "full.yaml").exists()

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            ("tasks", None, "tasks: required key is missing"),
            ("tasks", [1], "tasks: expected dict, got [1]"),
            ("tasks.train_bg-de.src_tgt", None,
             "task train_bg-de: src_tgt: required key is missing"),
            ("tasks.train_bg-de.src_tgt", "bgde",
             "task train_bg-de: src_tgt: 'bgde' is not <src>-<tgt>"),
            ("n_gpus_per_node", 0, "n_gpus_per_node must be >= 1, got 0"),
            ("n_slots_per_gpu", None, "n_slots_per_gpu: required key is missing"),
            ("n_nodes", None, "n_nodes: required key is missing"),
            ("tasks.train_bg-de.wieght", 3, "task train_bg-de: unknown keys: wieght"),
            ("n_node", 3, "unknown keys: n_node"),
        ],
    )
    def test_bad_full_config_value(self, workspace, capsys, keys, value, field):
        # the value replaces the one at the dotted path `keys`; None
        # deletes the key
        out = generated(workspace)
        doc = yaml.safe_load(out.read_text())
        *parents, key = keys.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        if value is None:
            del target[key]
        else:
            target[key] = value
        out.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        assert field in one_error_line(capsys, "parse")

    def test_infinite_bandwidth_in_full_config(self, workspace, capsys):
        out = generated(workspace)
        text = out.read_text()
        assert '"beta_inter": 12500000000.0' in text
        out.write_text(text.replace('"beta_inter": 12500000000.0', '"beta_inter": .inf'))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        assert "beta_inter must be finite" in one_error_line(capsys, "parse")

    def test_overflowing_latency_in_full_config(self, workspace, capsys):
        out = generated(workspace)
        text = out.read_text()
        assert '"alpha_inter": 2.0e-05' in text
        out.write_text(text.replace('"alpha_inter": 2.0e-05', '"alpha_inter": 1' + "0" * 400))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        assert "alpha_inter must be finite" in one_error_line(capsys, "parse")

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    @pytest.mark.parametrize(
        "line",
        [b'"\xff\xfe": 2', b'"weight": 2001-13-01'],
        ids=["non-utf8", "bad-timestamp"],
    )
    def test_unloadable_full_config(self, workspace, capsys, command, line):
        out = generated(workspace)
        text = out.read_bytes()
        assert b'"weight": 1}' in text
        out.write_bytes(text.replace(b'"weight": 1}', line + b"}", 1))
        capsys.readouterr()
        assert main([command, str(out)]) == 1
        assert "invalid YAML" in one_error_line(capsys, "parse")

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    def test_surrogate_escape_in_full_config(self, workspace, capsys, command):
        # `json.loads` reads the escape; no YAML reader or file call takes it
        out = generated(workspace)
        text = out.read_text()
        assert '"path_src": "bg-de/train.bg"' in text
        out.write_text(text.replace("bg-de/train.bg", "bg-de/train\\ud800.bg"))
        capsys.readouterr()
        assert main([command, str(out)]) == 1
        err = one_error_line(capsys, "validation")
        assert "task train_bg-de: src_path 'bg-de/train\\ud800.bg' holds a lone surrogate" in err

    # PyYAML keeps the last of two equal keys; a repeat is an error instead,
    # with libyaml's loader and with the pure-Python one
    @pytest.mark.parametrize("loader", ["default", "pure_python_yaml"])
    @pytest.mark.parametrize("repeat", ["task id", "task field"])
    def test_repeated_key_in_full_config(self, workspace, capsys, request, loader, repeat):
        out = generated(workspace)
        text = out.read_text()
        if repeat == "task id":
            block = re.search(r'^  "train_de-en": \{.*\}', text, re.M)[0]
            text = text.replace(block, f"{block},\n{block}")
            key = "'train_de-en'"
        else:
            field = '"node_gpu": "0:0", '
            assert field in text
            text = text.replace(field, field + field.replace("0:0", "0:1"), 1)
            key = "'node_gpu'"
        out.write_text(text)
        if loader != "default":
            request.getfixturevalue(loader)
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        err = one_error_line(capsys, "parse")
        assert "invalid YAML" in err and f"found duplicate key {key}" in err

    @pytest.mark.parametrize("loader", ["default", "pure_python_yaml"])
    def test_repeated_meta_key(self, workspace, capsys, request, loader):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML + "langs: [bg, en]\n")
        if loader != "default":
            request.getfixturevalue(loader)
        assert main(["generate", str(meta)]) == 1
        err = one_error_line(capsys, "meta")
        assert "invalid YAML" in err and "found duplicate key 'langs'" in err

    def test_non_utf8_meta(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_bytes(META_YAML.encode() + b"noise_transform: b\xe4rt\n")
        assert main(["generate", str(meta)]) == 1
        assert "invalid YAML" in one_error_line(capsys, "meta")

    def test_non_utf8_line_counts(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML + "line_counts: counts.yaml\n")
        (workspace / "counts.yaml").write_bytes(b"train_bg-de: 10\ntrain_\xff-de: 3\n")
        assert main(["generate", str(meta)]) == 1
        assert "counts.yaml" in one_error_line(capsys, "meta")

    @pytest.mark.parametrize("n_gpus", [2**16 + 1, 100_000_000])
    def test_too_many_devices_in_meta(self, workspace, capsys, n_gpus):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML.replace("n_gpus_per_node: 2", f"n_gpus_per_node: {n_gpus}"))
        assert main(["generate", str(meta)]) == 1
        assert "devices, more than 65536" in one_error_line(capsys, "meta")

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    def test_too_many_devices_in_full_config(self, workspace, capsys, command):
        out = generated(workspace)
        text = out.read_text()
        assert '"n_nodes": 1,\n' in text and '"n_gpus_per_node": 2,\n' in text
        out.write_text(text.replace('"n_nodes": 1,\n', '"n_nodes": 32769,\n'))
        capsys.readouterr()
        assert main([command, str(out)]) == 1
        assert "devices, more than 65536" in one_error_line(capsys, "parse")

    @pytest.mark.parametrize(
        "line",
        ["line_counts: {train_bg-de: 1%s}" % ("0" * 400), "temperature: 1" + "0" * 400],
        ids=["line_counts", "temperature"],
    )
    def test_weight_too_large_for_a_float(self, workspace, capsys, line):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML + line + "\n")
        assert main(["generate", str(meta)]) == 1
        assert "train_bg-de does not fit a float" in one_error_line(capsys, "weighting")

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    def test_weight_total_too_large_in_full_config(self, workspace, capsys, command):
        out = generated(workspace)
        text = out.read_text()
        assert '"weight": 1}' in text
        out.write_text(text.replace('"weight": 1}', '"weight": 1%s}' % ("0" * 400), 1))
        capsys.readouterr()
        assert main([command, str(out)]) == 1
        err = one_error_line(capsys, "validation")
        assert "sum past what a float holds" in err

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    @pytest.mark.parametrize(
        "count", [-3, 0, 2**16 + 1, 10**400], ids=["-3", "0", "65537", "10**400"]
    )
    def test_layer_count_out_of_range_in_full_config(self, workspace, capsys, command, count):
        out = generated(workspace)
        doc = yaml.safe_load(out.read_text())
        doc["enc_layers"][0] = count
        out.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main([command, str(out)]) == 1
        err = one_error_line(capsys, "validation")
        # the plan's layer counts are checked once, not once per task
        assert err == f"error: [validation] encoder layer count {count} is not in 1..65536\n"

    def test_layer_counts_longer_than_positions(self, workspace, capsys):
        out = generated(workspace)
        doc = yaml.safe_load(out.read_text())
        assert len(doc["enc_layers"]) == 2
        doc["enc_layers"].append(6)
        out.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        assert one_error_line(capsys, "validation") == (
            "error: [validation] encoder modules/layer-counts length mismatch: "
            "3 layer counts for 2 positions\n"
        )

    def test_newline_in_language_code(self, workspace, capsys):
        out = generated(workspace)
        doc = yaml.safe_load(out.read_text())
        entry = doc["tasks"].pop("train_en-de")
        doc["tasks"]["train_en\n-de"] = dict(entry, src_tgt="en\n-de")
        out.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        assert "invalid language code: 'en\\n'" in one_error_line(capsys, "validation")

    # int() alone reads the first three as devices 10:0, 1:0 and 1:0
    @pytest.mark.parametrize("device", [" 1_0:0", "\u0661:\u0660", "+1:0", "1:0:0", "x"])
    def test_loose_device_id_in_full_config(self, workspace, capsys, device):
        out = generated(workspace)
        doc = yaml.safe_load(out.read_text())
        doc["tasks"]["train_bg-de"]["node_gpu"] = device
        out.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        err = one_error_line(capsys, "parse")
        assert err.startswith("error: [parse] task train_bg-de: node_gpu: device ")
        assert err.endswith(" is not node:gpu\n")

    def test_language_code_too_long(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML.replace("[bg, de, en]", "[bg, de, en, %s]" % ("a" * 58)))
        assert main(["generate", str(meta)]) == 1
        assert "longer than 57 characters" in one_error_line(capsys, "meta")

    @pytest.mark.parametrize(
        "name", ["", "a\rb", "x" * 123], ids=["empty", "carriage-return", "123-chars"]
    )
    def test_bad_adapter_name_in_full_config(self, workspace, capsys, name):
        out = generated(workspace)
        doc = yaml.safe_load(out.read_text())
        doc["tasks"]["train_bg-de"]["adapters"] = {name: "a:b"}
        out.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        err = one_error_line(capsys, "validation")
        assert "adapter name" in err and "printable ASCII" in err

    def test_bad_adapter_name_in_meta(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_text(
            META_YAML + "adapters: [{name: %s, side: decoder, pattern: LANGUAGE}]\n" % ("x" * 123)
        )
        assert main(["generate", str(meta)]) == 1
        assert "adapter name" in one_error_line(capsys, "meta")

    @pytest.mark.parametrize(
        "meta_text, message",
        [
            pytest.param(META_YAML + "n_groups: 0\n", "n_groups must be >= 1, got 0",
                         id="n_groups-0"),
            pytest.param(META_YAML_ALL_KEYS.replace("n_groups: 2", "n_groups: 0"),
                         "n_groups must be >= 1, got 0", id="n_groups-0-with-group-pattern"),
            # a negative step that delays every task, and one that delays some
            pytest.param(META_YAML + "curriculum: [{start_step: -5, below_lines: 2}]\n",
                         "curriculum: start_step must be >= 0, got -5",
                         id="start_step-every-task"),
            pytest.param(META_YAML_ALL_KEYS.replace("start_step: 100", "start_step: -5"),
                         "curriculum: start_step must be >= 0, got -5",
                         id="start_step-some-tasks"),
            pytest.param(META_YAML.replace("[bg, de, en]", "[bg, DE, en]"),
                         "invalid language code: 'DE'", id="uppercase-language"),
            # a matrix that nothing would read is named, not ignored
            pytest.param(META_YAML + "distance_matrix: nope.txt\n",
                         "distance_matrix: no sharing pattern or adapter uses groups",
                         id="distance_matrix-without-groups"),
            pytest.param(
                META_YAML + "adapters: [{name: %s, side: decoder, pattern: LANGUAGE}]\n"
                % ("x" * 123),
                "adapter name '%s' is not 1-122 printable ASCII characters" % ("x" * 123),
                id="adapter-name-123-chars",
            ),
        ],
    )
    def test_meta_rule_is_one_meta_line(self, workspace, capsys, monkeypatch, meta_text, message):
        # each rule is checked once, while the meta file is read
        monkeypatch.setattr(configgen, "generate", lambda *a: pytest.fail("generate ran"))
        meta = workspace / "meta.yaml"
        meta.write_text(meta_text)
        assert main(["generate", str(meta)]) == 1
        assert one_error_line(capsys, "meta") == f"error: [meta] {message}\n"

    def test_nul_in_template_finds_no_corpus(self, workspace, capsys):
        # a path holding a NUL byte names no file; discovery raises nothing
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML.replace('train.{src_lang}"', 'train.{src_lang}\\0"'))
        assert main(["generate", str(meta)]) == 1
        assert one_error_line(capsys, "discovery") == (
            "error: [discovery] empty task set: no corpus files found\n"
        )

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    def test_task_without_device_is_one_parse_line(self, workspace, capsys, command):
        plan = generated(workspace)
        doc = yaml.safe_load(plan.read_text())
        del doc["tasks"]["train_de-en"]["node_gpu"]
        plan.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main([command, str(plan)]) == 1
        assert one_error_line(capsys, "parse") == (
            "error: [parse] task train_de-en: node_gpu: required key is missing\n"
        )

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    def test_plan_without_tasks(self, tmp_path, capsys, command):
        path = tmp_path / "empty.yaml"
        path.write_text(
            "enc_layers: [0]\ndec_layers: []\nn_nodes: 1\n"
            "n_gpus_per_node: 1\nn_slots_per_gpu: 2\ntasks: {}\n"
        )
        assert main([command, str(path)]) == 1
        assert one_error_line(capsys, "validation") == "error: [validation] plan has no tasks\n"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_json_constant_is_a_yaml_string(self, workspace, capsys, constant):
        # YAML 1.1 reads these as strings, so a plan reads them so too
        out = generated(workspace)
        text = out.read_text()
        assert '"beta_inter": 12500000000.0' in text
        out.write_text(text.replace('"beta_inter": 12500000000.0', f'"beta_inter": {constant}'))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        assert one_error_line(capsys, "parse") == (
            f"error: [parse] beta_inter: expected int or float, got '{constant}'\n"
        )

    @pytest.mark.parametrize("command", ["validate", "allocate", "simulate"])
    def test_deep_nesting_exits_1(self, tmp_path, command):
        # JSON text too deep for `json.loads` goes to the YAML reader too
        path = tmp_path / "deep.yaml"
        path.write_text("[" * 100_000 + "]" * 100_000)
        proc = run_process([command, str(path)])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: [parse] invalid YAML: maximum recursion depth")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "no-libyaml"])
    @pytest.mark.parametrize("style", sorted(DEEP))
    @pytest.mark.parametrize(
        "carrier", ["meta", "line_counts", "validate", "allocate", "simulate"]
    )
    def test_deep_yaml_exits_1(self, workspace, carrier, style, libyaml):
        meta = workspace / "meta.yaml"
        if carrier == "meta":
            meta.write_text(META_YAML + "curriculum: " + DEEP[style] + "\n")
            args, stage = ["generate", str(meta)], "meta"
        elif carrier == "line_counts":
            meta.write_text(META_YAML + "line_counts: counts.yaml\n")
            (workspace / "counts.yaml").write_text("train_bg-de: " + DEEP[style] + "\n")
            args, stage = ["generate", str(meta)], "meta"
        else:
            plan = workspace / "deep.yaml"
            plan.write_text("enc_layers: " + DEEP[style] + "\n")
            args, stage = [carrier, str(plan)], "parse"
        proc = run_process(args, libyaml)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: [{stage}] invalid YAML")
        assert ": maximum recursion depth exceeded" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_task_list_instead_of_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text(
            "enc_layers: [2]\ndec_layers: [2]\nn_nodes: 1\n"
            "n_gpus_per_node: 1\nn_slots_per_gpu: 2\ntasks: [1, 2]\n"
        )
        assert main(["validate", str(path)]) == 1
        one_error_line(capsys, "parse")

    @pytest.mark.parametrize(
        "meta_text, stage, message",
        [
            pytest.param(
                META_YAML.replace("train.{src_lang}", "train.{source}"),
                "templates",
                "variables ['source'] not allowed in directional mode "
                "(template '{lang_pair}/train.{source}')",
                id="templates-unknown-variable",
            ),
            pytest.param(
                META_YAML.replace('"{lang_pair}/train.{src_lang}"', '"{lang_pair"'),
                "templates",
                "expected '}' before end of string",
                id="templates-unbalanced-brace",
            ),
            pytest.param(
                META_YAML.replace("pattern: FULL", "pattern: GROUP"),
                "meta",
                "distance_matrix: required where a sharing pattern or adapter uses groups",
                id="clustering-no-matrix",
            ),
            pytest.param(
                META_YAML_ALL_KEYS.replace("distances.txt", "two_langs.txt"),
                "clustering",
                "distance matrix lacks languages: ['en']",
                id="clustering-matrix-lacks-language",
            ),
            pytest.param(
                META_YAML_ALL_KEYS.replace("distances.txt", "nope.txt"),
                "clustering",
                "[Errno 2] No such file or directory: 'ROOT/nope.txt'",
                id="clustering-missing-matrix-file",
            ),
            pytest.param(
                META_YAML + "line_counts: {train_bg-de: 0}\n",
                "weighting",
                "line counts must be >= 1",
                id="weighting-zero-lines",
            ),
            pytest.param(
                META_YAML.replace("langs: [bg, de, en]", "langs: [bg, en]")
                + "line_counts: {train_bg-en: 1000, train_en-gb: 1000}\n",
                "weighting",
                "line_counts for tasks not discovered: train_en-gb",
                id="weighting-unknown-task",
            ),
            pytest.param(
                "- " + "\n  ".join(META_YAML.splitlines()) + "\n",
                "meta",
                "meta-configuration must be a mapping",
                id="meta-top-level-list",
            ),
        ],
    )
    def test_generate_stage_error(self, workspace, capsys, meta_text, stage, message):
        (workspace / "two_langs.txt").write_text("bg de\n0 0.2\n0.2 0\n")
        meta = workspace / "meta.yaml"
        meta.write_text(meta_text)
        assert main(["generate", str(meta), "-o", str(workspace / "full.yaml")]) == 1
        message = message.replace("ROOT", str(workspace))
        assert one_error_line(capsys, stage) == f"error: [{stage}] {message}\n"
        assert not (workspace / "full.yaml").exists()

    def test_repeated_adapter_name(self, workspace, capsys):
        # a plan lists each task's adapters by name, so a second `da` would
        # silently replace the first
        meta = workspace / "meta.yaml"
        meta.write_text(
            META_YAML_ALL_KEYS.replace(
                "adapters:\n",
                "adapters:\n  - {name: da, side: encoder, positions: [0], pattern: LANGUAGE}\n",
            )
        )
        assert main(["generate", str(meta)]) == 1
        assert one_error_line(capsys, "meta") == "error: [meta] adapters: duplicate name da\n"

    def test_no_languages(self, workspace, capsys):
        meta = workspace / "meta.yaml"
        meta.write_text(META_YAML.replace("langs: [bg, de, en]", "langs: []"))
        assert main(["generate", str(meta)]) == 1
        assert one_error_line(capsys, "meta") == (
            "error: [meta] langs: at least one language code\n"
        )


def test_cli_import_does_not_import_numpy():
    # only `simulate` needs numpy; it imports the simulator itself
    code = (
        "import sys\n"
        "import mmtplan.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


# Replacement values for mutated lines: YAML 1.1 traps (no, 2:0), wrong
# types and empty values.  Integers stay small so that no mutation asks
# for a huge topology.
FUZZ_VALUES = [
    "~", "no", "yes", "2:0", "0:1", "-1", "0", "1", "3", "1.5", "''", "x",
    "[]", "{}", "[1, 2]", "{a: 1}", "[bg, de]", "'1:0'", "- x", ": :", "[",
]


LINE_EDITS = ["value", "delete", "duplicate", "insert"]
BYTE_EDITS = ["flip", "truncate", "brackets", "surrogate"]


@st.composite
def mutated(draw, text):
    """`text` with one to three edits.  A line edit replaces a line's value,
    or deletes, repeats or inserts a line; a byte edit flips one of the low
    seven bits of a character, truncates the text, inserts a run of up to
    600 `[` or `{` (deeper than the YAML composer reaches), or puts the six
    ASCII characters `\\ud800` inside a double-quoted string."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(LINE_EDITS + BYTE_EDITS))
        if op in BYTE_EDITS:
            at = draw(st.integers(0, len(text)))
            if op == "flip" and at < len(text):
                flipped = chr(ord(text[at]) ^ 1 << draw(st.integers(0, 6)))
                text = text[:at] + flipped + text[at + 1:]
            elif op == "truncate":
                text = text[:at]
            elif op == "brackets":
                run = draw(st.sampled_from("[{")) * draw(st.integers(1, 600))
                text = text[:at] + run + text[at:]
            elif op == "surrogate":
                # every other quote opens a string
                opening = [m.end() for m in re.finditer('"', text)][::2]
                if opening:
                    at = draw(st.sampled_from(opening))
                    text = text[:at] + "\\ud800" + text[at:]
            continue
        lines = text.splitlines() or [""]
        i = draw(st.integers(0, len(lines) - 1))
        value = draw(st.sampled_from(FUZZ_VALUES))
        if op == "value":
            head, sep, _ = lines[i].partition(":")
            lines[i] = f"{head}: {value}" if sep else f"{head} {value}"
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, value)
        text = "\n".join(lines) + "\n"
    return text


def run_cli(argv):
    """Exit code of `main`; a failure must print one tagged stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 1:
        line = err.getvalue()
        assert line.startswith("error: [") and line.count("\n") == 1
        assert not EXCEPTION_REPR.search(line), line
    return code


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    root = make_workspace(tmp_path_factory.mktemp("fuzz"))
    assert main(["generate", str(root / "meta.yaml"), "-o", str(root / "full.yaml")]) == 0
    return root


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestFuzz:
    """Every input ends in exit 0, 1 or 2; no exception escapes `main`."""

    @FUZZ
    @given(data=st.data())
    def test_mutated_full_config(self, fuzz_workspace, data):
        text = data.draw(mutated((fuzz_workspace / "full.yaml").read_text()))
        path = fuzz_workspace / "mutated_full.yaml"
        path.write_text(text)
        for argv in (["validate"], ["allocate"], ["simulate", "--steps", "1"]):
            assert run_cli([*argv, str(path)]) in (0, 1, 2)

    @FUZZ
    @given(data=st.data())
    def test_mutated_meta(self, fuzz_workspace, data):
        path = fuzz_workspace / "mutated_meta.yaml"
        path.write_text(data.draw(mutated(META_YAML)))
        out = fuzz_workspace / "mutated_out.yaml"
        assert run_cli(["generate", str(path), "-o", str(out)]) in (0, 1, 2)

    @FUZZ
    @given(data=st.data())
    def test_mutated_meta_all_keys(self, fuzz_workspace, data):
        path = fuzz_workspace / "mutated_meta.yaml"
        path.write_text(data.draw(mutated(META_YAML_ALL_KEYS)))
        out = fuzz_workspace / "mutated_out.yaml"
        assert run_cli(["generate", str(path), "-o", str(out)]) in (0, 1, 2)


class TestAllocate:
    def test_reports_cost_and_never_worsens(self, workspace, capsys):
        out = workspace / "full.yaml"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out)])
        assert main(["allocate", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        before = float(lines[0].split(":")[1])
        after = float(lines[1].split(":")[1])
        assert after <= before


    @pytest.mark.parametrize("device", ["0:-1", "1:0"])
    def test_device_outside_topology_exits_1(self, workspace, capsys, device):
        out = workspace / "full.yaml"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out)])
        doc = yaml.safe_load(out.read_text())
        doc["tasks"]["train_bg-de"]["node_gpu"] = device
        out.write_text(yaml.safe_dump(doc))
        result = workspace / "reallocated.yaml"
        capsys.readouterr()
        assert main(["allocate", str(out), "-o", str(result)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [validation] task train_bg-de: device ")
        assert captured.err.count("\n") == 1
        assert not result.exists()

    def test_negative_budget_is_usage_error(self, workspace):
        out = generated(workspace)
        with pytest.raises(SystemExit) as exc:
            main(["allocate", str(out), "--budget", "-4"])
        assert exc.value.code == 2

    @staticmethod
    def printed_costs(capsys):
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["cost before", "cost after"]
        return [line.split()[-1] for line in lines]

    @staticmethod
    def span_cost(path):
        cfg = load_full_config(str(path))
        tasks = list(cfg.tasks.values())
        a = Assignment({t.id: t.device for t in tasks})
        return f"{comm_cost(a, tasks, enumerate_modules(tasks), cfg.topology).total:.6g}"

    def test_budget_zero_writes_its_input(self, workspace, capsys):
        plan = generated(workspace)
        out = workspace / "same.yaml"
        capsys.readouterr()
        assert main(["allocate", str(plan), "--budget", "0", "-o", str(out)]) == 0
        before, after = self.printed_costs(capsys)
        assert before == after == self.span_cost(plan)
        assert out.read_bytes() == plan.read_bytes()

    def test_printed_costs_are_those_of_the_plans(self, workspace, capsys):
        # the generated plan with its tasks dealt alternately to the two
        # devices, which local search then improves
        plan = generated(workspace)
        doc = yaml.safe_load(plan.read_text())
        for i, tid in enumerate(sorted(doc["tasks"])):
            doc["tasks"][tid]["node_gpu"] = f"0:{i % 2}"
        plan.write_text(yaml.safe_dump(doc))
        out = workspace / "searched.yaml"
        capsys.readouterr()
        assert main(["allocate", str(plan), "-o", str(out)]) == 0
        before, after = self.printed_costs(capsys)
        assert before == self.span_cost(plan) and after == self.span_cost(out)
        assert float(after) < float(before)

    def test_task_without_device(self, workspace, capsys):
        plan = generated(workspace)
        doc = yaml.safe_load(plan.read_text())
        del doc["tasks"]["train_de-en"]["node_gpu"]
        plan.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        assert main(["allocate", str(plan)]) == 1
        assert one_error_line(capsys, "parse") == (
            "error: [parse] task train_de-en: node_gpu: required key is missing\n"
        )


class TestSimulate:
    def test_report_files(self, workspace):
        out = workspace / "full.yaml"
        report = workspace / "report"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out)])
        rc = main(
            ["simulate", str(out), "--steps", "3", "--seed", "1", "--report", str(report)]
        )
        assert rc == 0
        assert (report / "ledger.tsv").exists()
        summary = json.loads((report / "summary.json").read_text())
        assert summary["steps"] == 3
        assert summary["tasks"] == 6

    def test_zero_steps(self, workspace):
        out = workspace / "full.yaml"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out)])
        assert main(["simulate", str(out), "--steps", "0"]) == 0

    @pytest.mark.parametrize("flag", [["--steps", "-5"], ["--accum-count", "0"]])
    def test_bad_counts_are_usage_errors(self, workspace, flag):
        out = workspace / "full.yaml"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out)])
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(out), *flag])
        assert exc.value.code == 2

    def test_deterministic(self, workspace, capsys):
        out = workspace / "full.yaml"
        main(["generate", str(workspace / "meta.yaml"), "-o", str(out)])
        main(["simulate", str(out), "--steps", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", str(out), "--steps", "3", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "x.yaml", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--w-intra", "--w-inter"])
    def test_span_weights_are_not_options(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["allocate", "x.yaml", flag, "1"])
        assert exc.value.code == 2
