import json
import os

import pytest
import yaml

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


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "meta.yaml").write_text(META_YAML)
    corpus = tmp_path / "corpus"
    for src in ["bg", "de", "en"]:
        for tgt in ["bg", "de", "en"]:
            if src == tgt:
                continue
            pair = corpus / f"{src}-{tgt}"
            pair.mkdir(parents=True, exist_ok=True)
            (pair / f"train.{src}").write_text("x\n")
            (pair / f"train.{tgt}").write_text("x\n")
    return tmp_path


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
