import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hazlab
from hazlab.cli import main
from hazlab.datasets import read_dataset


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("--definitely-not-a-flag") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_config_is_io_error(self, tmp_path):
        assert run("run", "--config", str(tmp_path / "missing.json")) == 2

    def test_bad_model_file_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.hzmd"
        bad.write_bytes(b"not a checkpoint")
        pool = tmp_path / "p.hzds"
        assert run("gen", "--task", "flood", "--n", "2", "--size", "16",
                   "--out", str(pool)) == 0
        assert run("adapt", "--model", str(bad), "--pool", str(pool),
                   "--k", "1", "--out", str(tmp_path / "o.hzmd")) == 2

    def test_contract_violation_is_exit_one(self, tmp_path):
        assert run("gen", "--task", "flood", "--n", "0",
                   "--out", str(tmp_path / "x.hzds")) == 1


RESULTS_HEADER = ("task,variant,k,seed,mean_balanced_accuracy,p_vs_uniform_noise,"
                  "significant_vs_uniform_noise,p_vs_random_unet,significant_vs_random_unet")
RESULTS_ROW = "flood,residual,0,0,0.6,0.001,True,0.002,True"

# (name, text written to tmp_path / "in" or None, argv with {in}/{tmp} placeholders, exit code)
MALFORMED_INPUTS = [
    ("unknown_config_key", json.dumps({"bogus": 1}), ["run", "--config", "{in}"], 1),
    ("unknown_nested_key", json.dumps({"stop": {"bogus": 1}}), ["run", "--config", "{in}"], 1),
    ("unknown_variant", json.dumps({"variants": ["nope"]}), ["run", "--config", "{in}"], 1),
    ("short_results_row", f"{RESULTS_HEADER}\nflood,residual,0\n",
     ["report", "--results", "{in}", "--out", "{tmp}/rep"], 2),
    ("wrong_results_header", f"a,b,c,d,e,f,g,h,i\n{RESULTS_ROW}\n",
     ["report", "--results", "{in}", "--out", "{tmp}/rep"], 2),
    ("buildings_smaller_than_a_building", None,
     ["gen", "--task", "buildings", "--size", "8", "--out", "{tmp}/b.hzds"], 1),
]


@pytest.mark.parametrize("content,argv,code", [c[1:] for c in MALFORMED_INPUTS],
                         ids=[c[0] for c in MALFORMED_INPUTS])
def test_malformed_input_exit_code(tmp_path, content, argv, code):
    """A malformed input ends with its exit code and one stderr line, never a traceback."""
    if content is not None:
        (tmp_path / "in").write_text(content)
    argv = [a.format(**{"in": tmp_path / "in", "tmp": tmp_path}) for a in argv]
    src = str(Path(hazlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "hazlab.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


class TestGen:
    def test_writes_readable_dataset(self, tmp_path):
        out = tmp_path / "d.hzds"
        assert run("gen", "--task", "landslide", "--n", "4", "--size", "16",
                   "--seed", "9", "--out", str(out)) == 0
        samples = read_dataset(out)
        assert len(samples) == 4
        assert samples[0].image.shape == (3, 16, 16)


class TestPipeline:
    def test_pretrain_adapt_eval(self, tmp_path):
        tr, va = tmp_path / "tr.hzds", tmp_path / "va.hzds"
        assert run("gen", "--task", "buildings", "--n", "12", "--size", "16",
                   "--seed", "1", "--out", str(tr)) == 0
        assert run("gen", "--task", "buildings", "--n", "4", "--size", "16",
                   "--seed", "2", "--out", str(va)) == 0
        model = tmp_path / "m.hzmd"
        assert run("pretrain", "--train", str(tr), "--val", str(va),
                   "--depth", "1", "--base-channels", "4", "--epochs", "1",
                   "--out", str(model)) == 0
        pool = tmp_path / "pool.hzds"
        assert run("gen", "--task", "flood", "--n", "6", "--size", "16",
                   "--seed", "3", "--out", str(pool)) == 0
        adapted = tmp_path / "ma.hzmd"
        assert run("adapt", "--model", str(model), "--pool", str(pool),
                   "--k", "3", "--out", str(adapted)) == 0
        ev = tmp_path / "ev.hzds"
        assert run("gen", "--task", "flood", "--n", "6", "--size", "16",
                   "--seed", "4", "--out", str(ev)) == 0
        out = tmp_path / "eval_out"
        assert run("eval", "--model", str(adapted), "--data", str(ev),
                   "--out", str(out)) == 0
        assert (out / "records.csv").exists()
        assert (out / "significance.csv").exists()

    def test_run_and_report(self, tmp_path):
        cfg = {"out_dir": str(tmp_path / "exp"), "n_seeds": 1, "variants": ["residual"],
               "pretask_samples": 12, "eval_set_size": 6, "unlabeled_pool_size": 6,
               "depth": 1, "base_channels": 4, "k_sweep": [0, 1],
               "stop": {"max_epochs": 1, "patience": 1}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("run", "--config", str(cfg_path)) == 0
        rep = tmp_path / "rep"
        assert run("report", "--results", str(tmp_path / "exp" / "results.csv"),
                   "--significance", str(tmp_path / "exp" / "significance.csv"),
                   "--out", str(rep)) == 0
        assert (rep / "plot_flood.svg").exists()


class TestVerificationCommands:
    def test_gradcheck_passes_and_prints_error(self, capsys):
        assert run("gradcheck") == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert "FAIL" not in out

    def test_selftest_passes(self, capsys):
        assert run("selftest") == 0
        assert "passed" in capsys.readouterr().out
