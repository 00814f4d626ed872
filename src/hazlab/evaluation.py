"""Segmentation metrics, random baselines, and one-tailed Wilcoxon testing.

Balanced accuracy is the reporting metric; IoU and F1 are computed alongside
but never drive acceptance. Significance uses the paired signed-rank test on
per-image balanced accuracies, exact by sign-assignment enumeration for small
samples and a tie-corrected normal approximation beyond that.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from ._formats import write_rows
from .adaptation import ThresholdPolicy, threshold_batch
from .errors import ContractError
from .tensor import Tensor
from .unet import UNetConfig, build, predict_probs

ALPHA = 0.01
EXACT_LIMIT = 25


@dataclasses.dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclasses.dataclass
class MetricsRecord:
    sample_id: int
    balanced_accuracy: float | None  # None when gt lacks one of the classes
    iou: float
    f1: float
    counts: ConfusionCounts


@dataclasses.dataclass
class SignificanceResult:
    statistic: float  # signed-rank sum W+
    n_effective: int
    p_value: float
    method: str  # "exact" or "normal_approx"
    significant: bool


SIGNIFICANCE_FIELDS = tuple(f.name for f in dataclasses.fields(SignificanceResult))


def confusion(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    """Exact pixel counts; hazard (1) is the positive class."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ContractError(f"confusion: shape mismatch {pred.shape} vs {gt.shape}")
    for name, m in (("pred", pred), ("gt", gt)):
        if not np.all((m == 0) | (m == 1)):
            raise ContractError(f"confusion: {name} mask is not binary")
    p = pred.astype(bool)
    g = gt.astype(bool)
    return ConfusionCounts(
        tp=int(np.sum(p & g)),
        fp=int(np.sum(p & ~g)),
        tn=int(np.sum(~p & ~g)),
        fn=int(np.sum(~p & g)),
    )


def metrics(counts: ConfusionCounts, sample_id: int = 0) -> MetricsRecord:
    pos = counts.tp + counts.fn
    neg = counts.tn + counts.fp
    if pos == 0 or neg == 0:
        ba = None
    else:
        ba = 0.5 * (counts.tp / pos + counts.tn / neg)
    denom_iou = counts.tp + counts.fp + counts.fn
    iou = 1.0 if denom_iou == 0 else counts.tp / denom_iou
    denom_f1 = 2 * counts.tp + counts.fp + counts.fn
    f1 = 1.0 if denom_f1 == 0 else 2 * counts.tp / denom_f1
    return MetricsRecord(sample_id, ba, iou, f1, counts)


def evaluate_masks(pred_masks, samples) -> list[MetricsRecord]:
    """Per-image metrics for predicted masks against a labeled dataset."""
    if len(pred_masks) != len(samples):
        raise ContractError("evaluate_masks: prediction/dataset length mismatch")
    if len(samples) == 0:
        raise ContractError("evaluate_masks: empty dataset")
    records = []
    for pred, s in zip(pred_masks, samples):
        sid = getattr(s, "sample_id", None)
        mask = getattr(s, "mask", s)
        records.append(metrics(confusion(pred, mask), sample_id=sid if sid is not None else 0))
    return records


def summarize(records: list[MetricsRecord]) -> dict:
    """Mean/std of defined balanced accuracies plus exclusion counts."""
    defined = [r.balanced_accuracy for r in records if r.balanced_accuracy is not None]
    n = len(defined)
    mean = float(np.mean(defined)) if n else float("nan")
    std = float(np.std(defined)) if n else float("nan")
    return {"mean_balanced_accuracy": mean, "std_balanced_accuracy": std,
            "n_defined": n, "n_undefined": len(records) - n}


# ---------------------------------------------------------------------------
# random baselines


class BaselineKind(enum.Enum):
    UNIFORM_NOISE = "uniform_noise"
    RANDOM_INIT_UNET = "random_init_unet"


def baseline_masks(kind: BaselineKind, images: list[np.ndarray], seed: int,
                   policy: ThresholdPolicy = ThresholdPolicy(),
                   unet_config: UNetConfig | None = None) -> np.ndarray:
    """Score maps from a random source, thresholded exactly like real models."""
    if not images:
        raise ContractError("baseline_masks: no images")
    if kind == BaselineKind.UNIFORM_NOISE:
        rng = np.random.default_rng(np.random.PCG64(seed))
        # one [N,H,W] draw yields the same stream as N draws of [H,W]
        scores = rng.random((len(images),) + images[0].shape[-2:])
    elif kind == BaselineKind.RANDOM_INIT_UNET:
        if unet_config is None:
            raise ContractError("baseline_masks: RandomInitUNet needs a UNetConfig")
        model = build(dataclasses.replace(unet_config, seed=seed))
        scores = predict_probs(model, Tensor(np.stack(images)))
    else:
        raise ContractError(f"unknown baseline kind {kind}")
    return threshold_batch(scores, policy)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank, one-tailed (alternative: differences > 0)


def _ranks_with_ties(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) of values, ties sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sorted_vals = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_upper_tail(double_ranks: np.ndarray, w2_obs: int) -> float:
    """P(W+ >= obs) under the sign-flip null, by dynamic programming over the
    distribution of doubled-rank sums (equivalent to full 2^n enumeration)."""
    total = int(double_ranks.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in double_ranks:
        r = int(r)
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:total + 1 - r]
        counts = counts + shifted
    return float(counts[w2_obs:].sum() / 2.0 ** len(double_ranks))


def wilcoxon_one_tailed(differences) -> SignificanceResult:
    """Paired signed-rank test of H1: differences tend to be positive.

    Zeros are dropped; |d| ties get average ranks. Exact when the effective
    sample is at most 25, otherwise a continuity-corrected normal
    approximation with tie-corrected variance.
    """
    d = np.asarray(differences, dtype=np.float64)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return SignificanceResult(0.0, 0, 1.0, "exact", False)
    ranks = _ranks_with_ties(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= EXACT_LIMIT:
        double_ranks = np.round(2.0 * ranks).astype(int)
        w2 = int(round(2.0 * w_plus))
        p = _exact_upper_tail(double_ranks, w2)
        method = "exact"
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
        if var <= 0:
            return SignificanceResult(w_plus, n, 1.0, "normal_approx", False)
        z = (w_plus - mu - 0.5) / math.sqrt(var)
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
        method = "normal_approx"
    p = min(max(p, 0.0), 1.0)
    return SignificanceResult(w_plus, n, p, method, p < ALPHA)


def paired_significance(model_records: list[MetricsRecord],
                        baseline_records: list[MetricsRecord]) -> SignificanceResult:
    """Signed-rank test on per-image balanced-accuracy differences.

    Records are paired by position (identical evaluation order); images where
    either side's balanced accuracy is undefined are excluded from pairing.
    """
    if len(model_records) != len(baseline_records):
        raise ContractError("paired_significance: record count mismatch")
    diffs = [m.balanced_accuracy - b.balanced_accuracy
             for m, b in zip(model_records, baseline_records)
             if m.balanced_accuracy is not None and b.balanced_accuracy is not None]
    return wilcoxon_one_tailed(diffs)


# ---------------------------------------------------------------------------
# CSV export


def records_to_csv(records: list[MetricsRecord]) -> str:
    """Per-image table; an undefined balanced accuracy is an empty field."""
    return write_rows(("sample_id", "tp", "fp", "tn", "fn", "balanced_accuracy", "iou", "f1"),
                      [(r.sample_id, r.counts.tp, r.counts.fp, r.counts.tn, r.counts.fn,
                        r.balanced_accuracy, r.iou, r.f1) for r in records])


def significance_to_csv(results: dict[tuple, SignificanceResult], key_header) -> str:
    """One row per test, sorted by key: the key columns named by `key_header`,
    then SIGNIFICANCE_FIELDS."""
    return write_rows(tuple(key_header) + SIGNIFICANCE_FIELDS,
                      [key + dataclasses.astuple(r) for key, r in sorted(results.items())])
