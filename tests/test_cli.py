import contextlib
import io
import json
import os

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from mmtplan.cli import main
from mmtplan.configgen import load_full_config

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


def make_workspace(root):
    (root / "meta.yaml").write_text(META_YAML)
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


def one_error_line(capsys, stage):
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{stage}] "), err
    assert err.count("\n") == 1 and "Traceback" not in err
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
                "introduce_at_training_step: 0", "introduce_at_training_step: 3"
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
        # YAML 1.1 reads an unquoted 2:0 as the base-60 integer 120
        out = generated(workspace)
        text = out.read_text()
        assert "node_gpu: 0:1" in text
        out.write_text(text.replace("node_gpu: 0:1", "node_gpu: 2:0", 1))
        capsys.readouterr()
        assert main(["validate", str(out)]) == 1
        err = one_error_line(capsys, "parse")
        assert "node_gpu 120" in err and "quote" in err

    def test_task_list_instead_of_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text(
            "enc_layers: [2]\ndec_layers: [2]\nn_nodes: 1\n"
            "n_gpus_per_node: 1\nn_slots_per_gpu: 2\ntasks: [1, 2]\n"
        )
        assert main(["validate", str(path)]) == 1
        one_error_line(capsys, "parse")


# Replacement values for mutated lines: YAML 1.1 traps (no, 2:0), wrong
# types and empty values.  Integers stay small so that no mutation asks
# for a huge topology.
FUZZ_VALUES = [
    "~", "no", "yes", "2:0", "0:1", "-1", "0", "1", "3", "1.5", "''", "x",
    "[]", "{}", "[1, 2]", "{a: 1}", "[bg, de]", "'1:0'", "- x", ": :", "[",
]


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["value", "delete", "duplicate", "insert"]))
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
    return "\n".join(lines) + "\n"


def run_cli(argv):
    """Exit code of `main`; a failure must print one tagged stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 1:
        assert err.getvalue().startswith("error: [") and err.getvalue().count("\n") == 1
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
