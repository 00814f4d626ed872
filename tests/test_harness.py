import json

import numpy as np
import pytest

from hazlab import harness
from hazlab.errors import ContractError
from hazlab.evaluation import significance_to_csv, wilcoxon_one_tailed
from hazlab.harness import (POOLED_KEY, ExperimentConfig, ResultRow, ResultsTable,
                            parse_significance_csv, render_report, render_task_svg,
                            run_experiment, summary_csv_for_task, _sub_seed)
from hazlab.training import EarlyStopConfig
from hazlab.unet import ALL_VARIANTS, BackboneVariant


def _tiny_cfg(out_dir, **kw):
    base = dict(out_dir=str(out_dir), master_seed=5, n_seeds=1,
                variants=(BackboneVariant.RESIDUAL,),
                pretask_samples=16, eval_set_size=8, unlabeled_pool_size=8,
                depth=1, base_channels=4,
                stop=EarlyStopConfig(max_epochs=1, patience=1),
                k_sweep=(0, 1))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, n_seeds=3, k_sweep=(0, 2, 7), quantile=0.9)
        blob = json.dumps(cfg.to_dict())
        assert ExperimentConfig.from_dict(json.loads(blob)) == cfg

    def test_k_sweep_must_start_at_zero_ascending(self, tmp_path):
        with pytest.raises(ContractError):
            _tiny_cfg(tmp_path, k_sweep=(1, 5)).validate()
        with pytest.raises(ContractError):
            _tiny_cfg(tmp_path, k_sweep=(0, 5, 1)).validate()

    def test_k_cannot_exceed_pool(self, tmp_path):
        with pytest.raises(ContractError):
            _tiny_cfg(tmp_path, k_sweep=(0, 99)).validate()

    def test_n_seeds_positive(self, tmp_path):
        with pytest.raises(ContractError):
            _tiny_cfg(tmp_path, n_seeds=0).validate()


class TestSubSeed:
    def test_deterministic(self):
        assert _sub_seed(3, "a", 1) == _sub_seed(3, "a", 1)

    def test_distinct_across_tags_and_masters(self):
        seeds = {_sub_seed(m, tag, i) for m in (0, 1) for tag in ("a", "b") for i in range(5)}
        assert len(seeds) == 20


class TestRunExperiment:
    def test_minimal_run_row_count(self, tmp_path):
        """1 seed, 1 variant, k_sweep (0,1): exactly 2 rows per task."""
        table = run_experiment(_tiny_cfg(tmp_path / "a"))
        per_task = {}
        for r in table.rows:
            per_task[r.task] = per_task.get(r.task, 0) + 1
        assert per_task == {"flood": 2, "fracture": 2, "landslide": 2}

    def test_rerun_byte_identical(self, tmp_path):
        run_experiment(_tiny_cfg(tmp_path / "r1"))
        run_experiment(_tiny_cfg(tmp_path / "r2"))
        for name in ("results.csv", "aggregates.csv", "significance.csv", "trend.csv",
                     "plot_flood.svg", "plot_fracture.svg", "plot_landslide.svg"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_aggregates_match_two_pass_oracle(self, tmp_path):
        table = run_experiment(_tiny_cfg(tmp_path / "agg", n_seeds=2))
        groups = {}
        for r in table.rows:
            groups.setdefault((r.task, r.variant, r.k), []).append(r.mean_balanced_accuracy)
        for task, variant, k, mean, std in table.aggregates():
            vals = groups[(task, variant, k)]
            m = sum(vals) / len(vals)
            v = sum((x - m) ** 2 for x in vals) / len(vals)
            assert abs(mean - m) < 1e-12
            assert abs(std - v ** 0.5) < 1e-12

    def test_expected_artifacts_written(self, tmp_path):
        out = tmp_path / "art"
        run_experiment(_tiny_cfg(out))
        for name in ("results.csv", "aggregates.csv", "significance.csv", "trend.csv",
                     "diagnostics.csv", "manifest.json", "summary_flood.csv", "plot_flood.svg",
                     "checkpoints/residual_seed0.hzmd", "per_image/flood_residual_k0_seed0.csv"):
            assert (out / name).exists(), name

    def test_manifest_lists_every_tunable(self, tmp_path):
        out = tmp_path / "man"
        run_experiment(_tiny_cfg(out))
        man = json.loads((out / "manifest.json").read_text())
        cfg = man["config"]
        for key in ("loss", "optim", "stop", "k_sweep", "quantile", "master_seed",
                    "batch_size", "depth", "base_channels"):
            assert key in cfg, key
        for key in ("gamma", "alpha", "w_focal", "w_dice", "dice_eps"):
            assert key in cfg["loss"], key
        assert man["bn_update_mode"] == "reset_recompute"
        assert "threshold_convention" in man

    def test_failed_cell_recorded_not_fatal(self, tmp_path, monkeypatch):
        out = tmp_path / "diag"
        real = harness.generate

        def boom(cfg, with_meta=False):
            if cfg.kind.value == "fracture":
                raise RuntimeError("synthetic failure")
            return real(cfg, with_meta)

        monkeypatch.setattr(harness, "generate", boom)
        table = run_experiment(_tiny_cfg(out))
        assert {r.task for r in table.rows} == {"flood", "landslide"}
        diag = (out / "diagnostics.csv").read_text()
        assert "fracture" in diag and "synthetic failure" in diag

    def test_csv_round_trip(self, tmp_path):
        table = run_experiment(_tiny_cfg(tmp_path / "rt"))
        again = ResultsTable.from_csv(table.to_csv())
        assert again == table

    def test_threads_match_serial(self, tmp_path):
        t1 = run_experiment(_tiny_cfg(tmp_path / "s1", n_seeds=2))
        t2 = run_experiment(_tiny_cfg(tmp_path / "s2", n_seeds=2), threads=2)
        assert t1.to_csv() == t2.to_csv()


def _row(task, variant, k, seed, ba):
    return ResultRow(task, variant, k, seed, ba, 0.5, False, 0.5, False)


class TestReport:
    def test_single_series_polyline_five_points(self, tmp_path):
        rows = [_row("flood", "residual", k, 0, 0.5 + 0.01 * i)
                for i, k in enumerate((0, 1, 5, 10, 50))]
        svg = render_task_svg(ResultsTable(rows), "flood")
        assert svg.count("<polyline") == 1
        points = svg.split('polyline points="')[1].split('"')[0]
        assert len(points.split()) == 5

    def test_marker_iff_both_pvalues_below_alpha(self):
        rows = [_row("flood", "residual", 0, 0, 0.6), _row("flood", "residual", 1, 0, 0.62)]
        table = ResultsTable(rows)
        both = {("flood", "residual", 0, "uniform_noise"): True,
                ("flood", "residual", 0, "random_unet"): True}
        assert "***" in render_task_svg(table, "flood", both)
        one = dict(both)
        one[("flood", "residual", 0, "random_unet")] = False
        assert "***" not in render_task_svg(table, "flood", one)
        assert "***" not in render_task_svg(table, "flood", None)

    def test_summary_table_fixture(self):
        """Four-variant k=0 fixture renders the expected 4-decimal row."""
        means = dict(zip([v.value for v in ALL_VARIANTS],
                         [0.5278, 0.5120, 0.5468, 0.6147]))
        rows = [_row("flood", v, 0, 0, ba) for v, ba in means.items()]
        csv = summary_csv_for_task(ResultsTable(rows), "flood")
        lines = csv.strip().split("\n")
        assert lines[0] == "k,residual,squeeze_excite,grouped_se,dual_path"
        assert lines[1] == "0,0.5278,0.5120,0.5468,0.6147"

    def test_render_report_writes_per_task_files(self, tmp_path):
        rows = [_row(t, "residual", k, 0, 0.55) for t in ("flood", "fracture")
                for k in (0, 1)]
        render_report(ResultsTable(rows), tmp_path)
        for t in ("flood", "fracture"):
            assert (tmp_path / f"summary_{t}.csv").exists()
            assert (tmp_path / f"plot_{t}.svg").read_text().startswith("<svg")

    def test_summary_unknown_task_raises(self):
        with pytest.raises(ContractError):
            summary_csv_for_task(ResultsTable([_row("flood", "residual", 0, 0, 0.5)]), "nope")


class TestTrend:
    def test_trend_reports_not_enforces(self):
        rows = [_row("flood", "residual", 0, 0, 0.60), _row("flood", "residual", 50, 0, 0.58),
                _row("flood", "dual_path", 0, 0, 0.55), _row("flood", "dual_path", 50, 0, 0.57)]
        csv = ResultsTable(rows).trend_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "task,variant,ba_k0,ba_kmax,improved_or_equal"
        body = "\n".join(lines[1:])
        assert "flood,dual_path,0.55,0.57,True" in body
        assert "flood,residual,0.6,0.58,False" in body


def test_significance_csv_round_trip():
    """The pooled significance writer and the report's reader agree on every flag."""
    results = {("flood", "residual", 0, "uniform_noise"): wilcoxon_one_tailed(range(1, 9)),
               ("flood", "residual", 0, "random_unet"): wilcoxon_one_tailed([1.0, -2.0]),
               ("landslide", "dual_path", 50, "random_unet"): wilcoxon_one_tailed([])}
    text = significance_to_csv(results, POOLED_KEY)
    assert text.split("\n")[0] == ("task,variant,k,opponent,statistic,n_effective,p_value,"
                                   "method,significant")
    assert parse_significance_csv(text) == {key: r.significant for key, r in results.items()}
