"""Experiment runner: pretrain per seed, sweep k-shot adaptation across the
downstream tasks, test significance against both random baselines, and render
summary tables and SVG plots.

All randomness is derived from a single master seed, all tabular output is
CSV, and plots are hand-emitted SVG, so a rerun with the same config is
byte-identical.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import time
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from ._formats import config_from_dict, config_to_dict, read_rows, write_rows
from .adaptation import ThresholdPolicy, adapt_bn, select_unlabeled, threshold_batch
from .datasets import (DOWNSTREAM_TASKS, GeneratorConfig, TaskKind, aligned_images, generate,
                       write_dataset)
from .errors import ContractError, FormatError
from .evaluation import (SIGNIFICANCE_FIELDS, BaselineKind, baseline_masks, evaluate_masks,
                         paired_significance, records_to_csv, significance_to_csv, summarize,
                         wilcoxon_one_tailed)
from .tensor import Tensor
from .training import AdamWConfig, EarlyStopConfig, LossConfig, history_to_csv, pretrain
from .unet import ALL_VARIANTS, BackboneVariant, UNetConfig, build, predict_probs, save_checkpoint


@dataclasses.dataclass
class ExperimentConfig:
    out_dir: str = "runs/experiment"
    master_seed: int = 0
    n_seeds: int = 5
    variants: tuple[BackboneVariant, ...] = ALL_VARIANTS
    # data
    pretask_samples: int = 512
    image_size: int = 32
    eval_set_size: int = 64
    unlabeled_pool_size: int = 64
    val_fraction: float = 0.125
    # model/training
    depth: int = 3
    base_channels: int = 8
    in_channels: int = 3
    loss: LossConfig = dataclasses.field(default_factory=LossConfig)
    optim: AdamWConfig = dataclasses.field(default_factory=AdamWConfig)
    # desk-scale epoch budget; the separable pre-task converges in a handful
    # of epochs and the 50-epoch ceiling would blow the CPU time budget
    stop: EarlyStopConfig = dataclasses.field(
        default_factory=lambda: EarlyStopConfig(max_epochs=6, patience=3))
    batch_size: int = 8
    # adaptation/evaluation
    k_sweep: tuple[int, ...] = (0, 1, 5, 10, 50)
    quantile: float = 0.95
    save_datasets: bool = False

    def validate(self) -> None:
        if self.n_seeds < 1:
            raise ContractError("ExperimentConfig: n_seeds must be >= 1")
        if list(self.k_sweep) != sorted(self.k_sweep) or (self.k_sweep and self.k_sweep[0] != 0):
            raise ContractError("ExperimentConfig: k_sweep must be ascending and start at 0")
        if max(self.k_sweep) > self.unlabeled_pool_size:
            raise ContractError("ExperimentConfig: max k exceeds unlabeled pool size")
        if not self.variants:
            raise ContractError("ExperimentConfig: no variants selected")

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Raises ContractError on an unknown key or variant or a mistyped value."""
        return config_from_dict(cls, d)


@dataclasses.dataclass
class ResultRow:
    task: str
    variant: str
    k: int
    seed: int
    mean_balanced_accuracy: float
    p_vs_uniform_noise: float
    significant_vs_uniform_noise: bool
    p_vs_random_unet: float
    significant_vs_random_unet: bool


RESULTS_HEADER = tuple(f.name for f in dataclasses.fields(ResultRow))
# key columns of the pooled significance.csv
POOLED_KEY = ("task", "variant", "k", "opponent")


@dataclasses.dataclass
class ResultsTable:
    rows: list[ResultRow]

    def sort(self) -> None:
        self.rows.sort(key=lambda r: (r.task, r.variant, r.k, r.seed))

    def aggregates(self) -> list[tuple[str, str, int, float, float]]:
        """(task, variant, k, mean over seeds, std over seeds), recomputed from rows."""
        groups: dict[tuple[str, str, int], list[float]] = {}
        for r in self.rows:
            groups.setdefault((r.task, r.variant, r.k), []).append(r.mean_balanced_accuracy)
        out = []
        for (task, variant, k), vals in sorted(groups.items()):
            arr = np.asarray(vals)
            out.append((task, variant, k, float(arr.mean()), float(arr.std())))
        return out

    def to_csv(self) -> str:
        return write_rows(RESULTS_HEADER, [dataclasses.astuple(r) for r in self.rows])

    @classmethod
    def from_csv(cls, text: str) -> "ResultsTable":
        """Raises FormatError on a wrong header, a short or long row, or a bad number."""
        try:
            return cls([ResultRow(r["task"], r["variant"], int(r["k"]), int(r["seed"]),
                                  float(r["mean_balanced_accuracy"]),
                                  float(r["p_vs_uniform_noise"]),
                                  r["significant_vs_uniform_noise"] == "True",
                                  float(r["p_vs_random_unet"]),
                                  r["significant_vs_random_unet"] == "True")
                        for r in read_rows(text, RESULTS_HEADER)])
        except ValueError as e:
            raise FormatError(f"results CSV: {e}") from e

    def aggregates_csv(self) -> str:
        return write_rows(("task", "variant", "k", "mean_balanced_accuracy",
                           "std_balanced_accuracy"), self.aggregates())

    def trend_csv(self) -> str:
        """Reports (not enforces) whether mean BA at max k >= its k=0 value."""
        agg = {(t, v, k): m for t, v, k, m, _ in self.aggregates()}
        ks = sorted({r.k for r in self.rows})
        k0, kmax = ks[0], ks[-1]
        rows = [(t, v, agg[(t, v, k0)], agg[(t, v, kmax)], agg[(t, v, kmax)] >= agg[(t, v, k0)])
                for (t, v, k) in sorted(agg) if k == k0]
        return write_rows(("task", "variant", "ba_k0", "ba_kmax", "improved_or_equal"), rows)


def _sub_seed(master: int, *tags) -> int:
    parts = [master] + [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0] % (2 ** 63))


def _unet_config(cfg: ExperimentConfig, variant: BackboneVariant, seed: int) -> UNetConfig:
    return UNetConfig(in_channels=cfg.in_channels, base_channels=cfg.base_channels,
                      depth=cfg.depth, variant=variant, seed=seed)


def _run_seed_cell(cfg: ExperimentConfig, seed_index: int, out: Path):
    """Everything for one seed: pretrain each variant, evaluate every
    (task, k) cell. Returns rows, per-image BA pairs for pooled testing, and
    diagnostics for any failed cell (completed cells stay valid)."""
    policy = ThresholdPolicy(cfg.quantile)
    ms = cfg.master_seed
    pre = generate(GeneratorConfig(TaskKind.BUILDINGS, n_samples=cfg.pretask_samples,
                                   size=cfg.image_size, seed=_sub_seed(ms, "pretask", seed_index)))
    n_val = max(1, int(len(pre) * cfg.val_fraction))
    train, val = pre[:-n_val], pre[-n_val:]

    models = {}
    for variant in cfg.variants:
        model = build(_unet_config(cfg, variant, _sub_seed(ms, "init", seed_index, variant.value)))
        model, hist = pretrain(model, train, val, loss_cfg=cfg.loss, optim_cfg=cfg.optim,
                               stop_cfg=cfg.stop, batch_size=cfg.batch_size,
                               seed=_sub_seed(ms, "shuffle", seed_index, variant.value))
        models[variant] = model
        (out / "history").mkdir(parents=True, exist_ok=True)
        (out / "history" / f"{variant.value}_seed{seed_index}.csv").write_text(history_to_csv(hist))
        (out / "checkpoints").mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, out / "checkpoints" / f"{variant.value}_seed{seed_index}.hzmd",
                        meta={"seed_index": seed_index, "stage": "pretrained"})

    rows: list[ResultRow] = []
    pooled: dict[tuple, list[float]] = {}
    diagnostics: list[tuple[int, str, str]] = []
    for task in DOWNSTREAM_TASKS:
        try:
            _run_task_cell(cfg, seed_index, out, task, models, policy, rows, pooled)
        except Exception as e:  # cell failure must not poison completed cells
            diagnostics.append((seed_index, task.value, f"{type(e).__name__}: {e}"))
    return rows, pooled, diagnostics


def _run_task_cell(cfg, seed_index, out, task, models, policy, rows, pooled):
    ms = cfg.master_seed
    eval_set = generate(GeneratorConfig(task, n_samples=cfg.eval_set_size, size=cfg.image_size,
                                        seed=_sub_seed(ms, "eval", seed_index, task.value)))
    pool = generate(GeneratorConfig(task, n_samples=cfg.unlabeled_pool_size, size=cfg.image_size,
                                    seed=_sub_seed(ms, "pool", seed_index, task.value)))
    eval_ids = {s.sample_id for s in eval_set}
    if eval_ids & {s.sample_id for s in pool}:
        raise ContractError(f"unlabeled pool and eval set share sample ids for {task.value}")
    if cfg.save_datasets:
        (out / "datasets").mkdir(parents=True, exist_ok=True)
        write_dataset(eval_set, out / "datasets" / f"{task.value}_eval_seed{seed_index}.hzds")
        write_dataset(pool, out / "datasets" / f"{task.value}_pool_seed{seed_index}.hzds")
    imgs = aligned_images(eval_set, cfg.in_channels)
    stack = Tensor(np.stack(imgs))
    noise_masks = baseline_masks(BaselineKind.UNIFORM_NOISE, imgs,
                                 seed=_sub_seed(ms, "noise", seed_index, task.value),
                                 policy=policy)
    noise_recs = evaluate_masks(noise_masks, eval_set)

    for variant in cfg.variants:
        runet_masks = baseline_masks(
            BaselineKind.RANDOM_INIT_UNET, imgs,
            seed=_sub_seed(ms, "runet", seed_index, task.value, variant.value),
            policy=policy, unet_config=_unet_config(cfg, variant, 0))
        runet_recs = evaluate_masks(runet_masks, eval_set)
        for k in cfg.k_sweep:
            if k == 0:
                adapted = models[variant]
            else:
                chosen = select_unlabeled(pool, k,
                                          _sub_seed(ms, "select", seed_index, task.value, k))
                adapted = adapt_bn(models[variant], aligned_images(chosen, cfg.in_channels))
            masks = threshold_batch(predict_probs(adapted, stack), policy)
            recs = evaluate_masks(masks, eval_set)
            sig_u = paired_significance(recs, noise_recs)
            sig_r = paired_significance(recs, runet_recs)
            rows.append(ResultRow(task.value, variant.value, k, seed_index,
                                  summarize(recs)["mean_balanced_accuracy"],
                                  sig_u.p_value, sig_u.significant,
                                  sig_r.p_value, sig_r.significant))
            for opponent, base in (("uniform_noise", noise_recs), ("random_unet", runet_recs)):
                key = (task.value, variant.value, k, opponent)
                pooled.setdefault(key, []).extend(
                    m.balanced_accuracy - b.balanced_accuracy
                    for m, b in zip(recs, base)
                    if m.balanced_accuracy is not None and b.balanced_accuracy is not None)
            per_dir = out / "per_image"
            per_dir.mkdir(parents=True, exist_ok=True)
            (per_dir / f"{task.value}_{variant.value}_k{k}_seed{seed_index}.csv").write_text(
                records_to_csv(recs))


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ResultsTable:
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    rows: list[ResultRow] = []
    pooled: dict[tuple, list[float]] = {}
    if threads > 1 and cfg.n_seeds > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool_exec:
            futures = [pool_exec.submit(_run_seed_cell, cfg, s, out) for s in range(cfg.n_seeds)]
            results = [f.result() for f in futures]
    else:
        results = [_run_seed_cell(cfg, s, out) for s in range(cfg.n_seeds)]
    diagnostics: list[tuple[int, str, str]] = []
    for cell_rows, cell_pooled, cell_diag in results:
        rows.extend(cell_rows)
        diagnostics.extend(cell_diag)
        for key, diffs in cell_pooled.items():
            pooled.setdefault(key, []).extend(diffs)

    table = ResultsTable(rows)
    table.sort()
    (out / "results.csv").write_text(table.to_csv())
    (out / "aggregates.csv").write_text(table.aggregates_csv())
    (out / "trend.csv").write_text(table.trend_csv())
    # signed-rank tests on per-image differences pooled across seeds; the
    # source of the report's *** markers
    pooled_sig = {key: wilcoxon_one_tailed(diffs) for key, diffs in pooled.items()}
    (out / "significance.csv").write_text(significance_to_csv(pooled_sig, POOLED_KEY))
    (out / "diagnostics.csv").write_text(
        write_rows(("seed", "task", "diagnostic"), sorted(diagnostics)))
    manifest = {
        "package_version": __version__,
        "config": cfg.to_dict(),
        "threshold_convention": "nearest-rank, strictly-greater",
        "bn_update_mode": "reset_recompute",
        "bn_variance_convention": "biased",
        "checkpoint_format": "HZMD v1",
        "dataset_format": "HZDS v1",
        "wall_seconds": round(time.perf_counter() - t0, 3),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    render_report(table, out, {key: r.significant for key, r in pooled_sig.items()})
    return table


# ---------------------------------------------------------------------------
# report rendering


def parse_significance_csv(text: str) -> dict[tuple, bool]:
    """The `significant` flag of each row of a pooled significance CSV, keyed
    by (task, variant, k, opponent); raises FormatError on a malformed table."""
    try:
        return {(r["task"], r["variant"], int(r["k"]), r["opponent"]): r["significant"] == "True"
                for r in read_rows(text, POOLED_KEY + SIGNIFICANCE_FIELDS)}
    except ValueError as e:
        raise FormatError(f"significance CSV: {e}") from e


def _variant_order(names) -> list[str]:
    """Known variants in ALL_VARIANTS order, then any others by name."""
    known = [v.value for v in ALL_VARIANTS]
    return sorted(set(names), key=lambda v: (known.index(v) if v in known else len(known), v))


def summary_csv_for_task(table: ResultsTable, task: str) -> str:
    """Per-task summary sub-table: rows = k, columns = variants, 4-decimal means."""
    agg = {(t, v, k): m for t, v, k, m, _ in table.aggregates() if t == task}
    if not agg:
        raise ContractError(f"summary: no rows for task '{task}'")
    variants = _variant_order(v for (_, v, _) in agg)
    ks = sorted({k for (_, _, k) in agg})
    return write_rows(["k", *variants],
                      [[k, *(f"{agg[(task, v, k)]:.4f}" for v in variants)] for k in ks])


_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_task_svg(table: ResultsTable, task: str,
                    sig_flags: dict[tuple, bool] | None = None) -> str:
    """One SVG line chart: x = k, y = mean balanced accuracy with a +-std band."""
    agg = [(v, k, m, s) for t, v, k, m, s in table.aggregates() if t == task]
    if not agg:
        raise ContractError(f"render: no rows for task '{task}'")
    variants = _variant_order(v for v, _, _, _ in agg)
    ks = sorted({k for _, k, _, _ in agg})
    width, height = 560, 360
    ml, mr, mt, mb = 60, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    ys = [m for _, _, m, _ in agg] + [m + s for _, _, m, s in agg] + [m - s for _, _, m, s in agg]
    ymin = min(0.45, min(ys) - 0.02)
    ymax = max(ys) + 0.02

    def xpos(k):
        return ml + pw * (ks.index(k) / max(len(ks) - 1, 1))

    def ypos(v):
        return mt + ph * (1.0 - (v - ymin) / (ymax - ymin))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{ml + pw / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
             f'font-family="sans-serif">{task}: balanced accuracy vs k</text>']
    # axes
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>')
    for k in ks:
        parts.append(f'<text x="{xpos(k):.1f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{k}</text>')
    step = (ymax - ymin) / 5
    for i in range(6):
        yv = ymin + i * step
        parts.append(f'<line x1="{ml - 4}" y1="{ypos(yv):.1f}" x2="{ml}" y2="{ypos(yv):.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{ypos(yv) + 4:.1f}" text-anchor="end" font-size="10" '
                     f'font-family="sans-serif">{yv:.3f}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">k unlabeled target images</text>')

    for idx, variant in enumerate(variants):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        series = sorted([(k, m, s) for v, k, m, s in agg if v == variant])
        band_top = " ".join(f"{xpos(k):.1f},{ypos(m + s):.1f}" for k, m, s in series)
        band_bot = " ".join(f"{xpos(k):.1f},{ypos(m - s):.1f}" for k, m, s in reversed(series))
        parts.append(f'<polygon points="{band_top} {band_bot}" fill="{color}" opacity="0.15"/>')
        pts = " ".join(f"{xpos(k):.1f},{ypos(m):.1f}" for k, m, _ in series)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for k, m, _ in series:
            parts.append(f'<circle cx="{xpos(k):.1f}" cy="{ypos(m):.1f}" r="3" fill="{color}"/>')
        k0, m0, _ = series[0]
        if sig_flags is not None and sig_flags.get((task, variant, k0, "uniform_noise")) \
                and sig_flags.get((task, variant, k0, "random_unet")):
            parts.append(f'<text x="{xpos(k0) + 6:.1f}" y="{ypos(m0) - 6:.1f}" font-size="12" '
                         f'font-family="sans-serif" fill="{color}">***</text>')
        ly = mt + 18 * idx
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly}" x2="{ml + pw + 30}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 36}" y="{ly + 4}" font-size="11" '
                     f'font-family="sans-serif">{variant}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(table: ResultsTable, out_dir,
                  sig_flags: dict[tuple, bool] | None = None) -> None:
    """Per-task summary CSVs and SVG plots; `sig_flags` (as returned by
    `parse_significance_csv`) places the *** markers."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for task in sorted({r.task for r in table.rows}):
        (out / f"summary_{task}.csv").write_text(summary_csv_for_task(table, task))
        (out / f"plot_{task}.svg").write_text(render_task_svg(table, task, sig_flags))
