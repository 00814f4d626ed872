"""Output checks that do not trust the code they check.

Each check takes plain arrays or files and returns a list of error strings,
empty when the output is correct. The references are computed here: the
focal+dice loss, central differences, pixel counts, the nearest-rank
threshold, an HZDS reader and the CSV parsing. scipy supplies the Wilcoxon
reference.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

PROB_CLAMP = 1e-7
EXACT_LIMIT = 25  # the README's documented switch from exact to normal approximation


# ---------------------------------------------------------------------------
# pretrain


def focal_dice_loss(logits: np.ndarray, masks: np.ndarray, w_focal=1.0, w_dice=1.0,
                    gamma=2.0, alpha=0.25, dice_eps=1.0) -> float:
    """Weighted focal+dice loss of one [N,1,H,W] batch, in plain numpy."""
    p = 1.0 / (1.0 + np.exp(-np.clip(logits, -709.0, 709.0)))
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    t = masks
    pt = pc * t + (1.0 - pc) * (1.0 - t)
    at = alpha * t + (1.0 - alpha) * (1.0 - t)
    focal = np.mean(-(at * (1.0 - pt) ** gamma * np.log(pt)))
    inter = np.sum(p * t, axis=(1, 2, 3))
    denom = np.sum(p, axis=(1, 2, 3)) + np.sum(t, axis=(1, 2, 3))
    dice = np.mean(1.0 - (2.0 * inter + dice_eps) / (denom + dice_eps))
    return float(w_focal * focal + w_dice * dice)


def dataset_loss(logits_of, images: np.ndarray, masks: np.ndarray, batch_size: int) -> float:
    """Sample-weighted mean of the batch losses, batched as training batches it."""
    total = 0.0
    for i in range(0, len(images), batch_size):
        x, y = images[i:i + batch_size], masks[i:i + batch_size]
        total += focal_dice_loss(logits_of(x), y) * len(x)
    return total / len(images)


def check_val_loss(recomputed: float, history_val_losses: list[float]) -> list[str]:
    best = min(history_val_losses)
    if not math.isclose(recomputed, best, rel_tol=1e-10, abs_tol=0.0):
        return [f"validation loss of the returned model {recomputed!r} != best history "
                f"val_loss {best!r}"]
    return []


def central_difference(f, arr: np.ndarray, i: int, base_pattern, steps=(1e-6, 1e-7)):
    """(f(a + h e_i) - f(a - h e_i)) / 2h along flat index i of `arr`, which is
    restored; None when every step crosses a kink.

    f() returns (value, pattern), where the pattern says on which side of
    each kink the evaluation lies. A difference counts only when a - h, a and
    a + h share `base_pattern`, the pattern at a: f is smooth between them.
    """
    flat = arr.reshape(-1)
    orig = flat[i]
    try:
        for h in steps:
            flat[i] = orig + h
            fp, pp = f()
            flat[i] = orig - h
            fm, pm = f()
            if pp == base_pattern == pm:
                return (fp - fm) / (2.0 * h)
    finally:
        flat[i] = orig
    return None


def check_gradients(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray],
                    tol: float = 1e-4) -> list[str]:
    errors = []
    for name, num in numeric.items():
        ana = analytic[name]
        rel = np.abs(ana - num) / np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-8)
        if not np.all(rel < tol):
            errors.append(f"gradient of {name}: max relative error {rel.max():.3e} >= {tol}")
    return errors


# ---------------------------------------------------------------------------
# sweep


def check_bn_equivalence(train_logits: np.ndarray, eval_logits: np.ndarray,
                         tol: float = 1e-10) -> list[str]:
    gap = float(np.max(np.abs(train_logits - eval_logits)))
    if not gap <= tol:
        return [f"eval-after-adapt logits differ from train-mode logits by {gap:.3e}"]
    return []


def check_masks(probs: np.ndarray, masks: np.ndarray, q: float) -> list[str]:
    """Per image: positives are the pixels strictly above the ceil(q*n)-th
    smallest value; n - ceil(q*n) of them without a tie at that value, at
    most that many with one."""
    errors = []
    for i, (p, m) in enumerate(zip(probs.reshape(len(probs), -1), masks.reshape(len(masks), -1))):
        n = p.size
        rank = math.ceil(Fraction(repr(q)) * n)
        t = np.sort(p)[rank - 1]
        positives = int(np.count_nonzero(m))
        tied = np.count_nonzero(p == t) > 1
        if positives > n - rank or (not tied and positives != n - rank):
            errors.append(f"image {i}: {positives} positives, expected "
                          f"{'at most ' if tied else ''}{n - rank}")
        if not np.array_equal(m.astype(bool), p > t):
            errors.append(f"image {i}: mask is not the pixels above the nearest-rank threshold")
    return errors


def pixel_counts(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int, int, int]:
    p, g = pred.astype(bool), gt.astype(bool)
    return (int(np.count_nonzero(p & g)), int(np.count_nonzero(p & ~g)),
            int(np.count_nonzero(~p & ~g)), int(np.count_nonzero(~p & g)))


def balanced_accuracy(tp: int, fp: int, tn: int, fn: int) -> float | None:
    pos, neg = tp + fn, tn + fp
    if pos == 0 or neg == 0:
        return None
    return 0.5 * (tp / pos + tn / neg)


def recount_ba(masks: np.ndarray, gts: np.ndarray) -> list[float | None]:
    return [balanced_accuracy(*pixel_counts(m, g)) for m, g in zip(masks, gts)]


def check_ba(recounted: list[float | None], reported: list[float | None]) -> list[str]:
    errors = []
    for i, (a, b) in enumerate(zip(recounted, reported)):
        if (a is None) != (b is None) or (a is not None and abs(a - b) > 1e-12):
            errors.append(f"image {i}: balanced accuracy {b!r}, recounted {a!r}")
    if len(recounted) != len(reported):
        errors.append(f"{len(reported)} records for {len(recounted)} images")
    return errors


def _exact_tail_with_ties(d: np.ndarray) -> float:
    """P(W+ >= observed) over all 2^n sign flips of scipy's average ranks,
    counted by convolution over doubled ranks (ties make them half-integers)."""
    from scipy.stats import rankdata
    ranks2 = np.rint(2.0 * rankdata(np.abs(d))).astype(np.int64)
    w2 = int(ranks2[d > 0].sum())
    counts = np.zeros(int(ranks2.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in ranks2:
        counts[r:] = counts[r:] + counts[:len(counts) - r]
    return int(counts[w2:].sum()) / 2 ** len(d)


def wilcoxon_reference(diffs, method: str) -> tuple[int, float]:
    """(n effective, p) for H1 'differences > 0' from scipy, zeros dropped.

    scipy's exact distribution assumes untied ranks; with tied |d| the exact
    p-value is counted here over the tied ranks instead.
    """
    import warnings
    from scipy.stats import wilcoxon
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    if len(d) == 0:
        return 0, 1.0
    if method == "exact" and len(np.unique(np.abs(d))) < len(d):
        return len(d), _exact_tail_with_ties(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = wilcoxon(d, alternative="greater", zero_method="wilcox", correction=True,
                       method="exact" if method == "exact" else "approx")
    return len(d), float(res.pvalue)


def check_significance(model_ba, base_ba, n_effective: int, p_value: float,
                       method: str) -> list[str]:
    diffs = [m - b for m, b in zip(model_ba, base_ba) if m is not None and b is not None]
    n = sum(d != 0.0 for d in diffs)
    expected = "exact" if n <= EXACT_LIMIT else "normal_approx"
    n, p = wilcoxon_reference(diffs, expected)
    errors = []
    if method != expected:
        errors.append(f"method {method} for {n} nonzero differences, expected {expected}")
    if n != n_effective:
        errors.append(f"n_effective {n_effective}, reference {n}")
    if not math.isclose(p, p_value, rel_tol=1e-9, abs_tol=1e-15):
        errors.append(f"{method} p-value {p_value!r}, reference {p!r}")
    return errors


# ---------------------------------------------------------------------------
# protocol


def read_hzds(path) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(sample id, [C,H,W] image, [H,W] mask) per sample of an HZDS file."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"HZDS" or len(blob) < 18:
        raise ValueError(f"{path}: not an HZDS file")
    _, n, c, h, w = struct.unpack_from("<IIHHH", blob, 4)
    step = 8 + c * h * w * 8 + h * w
    if len(blob) != 18 + n * step:
        raise ValueError(f"{path}: {len(blob)} bytes for {n} samples of {c}x{h}x{w}")
    out = []
    for i in range(n):
        off = 18 + i * step
        (sid,) = struct.unpack_from("<Q", blob, off)
        img = np.frombuffer(blob, "<f8", c * h * w, off + 8).reshape(c, h, w)
        mask = np.frombuffer(blob, np.uint8, h * w, off + 8 + c * h * w * 8).reshape(h, w)
        out.append((sid, img, mask))
    return out


def _rows(path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(Path(path).read_text())))


def protocol_cells(out: Path) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
    """(results.csv rows, diagnostics.csv rows) of a `hazlab run` output."""
    results = _rows(out / "results.csv") if (out / "results.csv").exists() else []
    diags = _rows(out / "diagnostics.csv") if (out / "diagnostics.csv").exists() else []
    return results, diags


def check_protocol(out: Path, tasks, variants, ks, seeds) -> list[str]:
    """results.csv has at most one row per cell, each mean BA matches its
    per-image counts, and each eval set's positives match tp + fn per image.
    Missing rows are failed cells, which the caller counts."""
    errors = []
    results, _ = protocol_cells(out)
    keys = [(r["task"], r["variant"], int(r["k"]), int(r["seed"])) for r in results]
    expected = set(itertools.product(tasks, variants, ks, seeds))
    if len(set(keys)) != len(keys) or not set(keys) <= expected:
        errors.append(f"results.csv rows are not one per (task, variant, k, seed): "
                      f"{sorted(set(keys) - expected)[:3]} unexpected, {len(keys)} rows")
    positives = {}
    for task, seed in itertools.product(tasks, seeds):
        path = out / "datasets" / f"{task}_eval_seed{seed}.hzds"
        if not path.exists():
            errors.append(f"missing {path.name}")
            continue
        positives[(task, seed)] = [(sid, int(np.count_nonzero(m))) for sid, _, m in read_hzds(path)]
    for r, (task, variant, k, seed) in zip(results, keys):
        path = out / "per_image" / f"{task}_{variant}_k{k}_seed{seed}.csv"
        if not path.exists():
            errors.append(f"missing {path.name}")
            continue
        per_image = _rows(path)
        bas = [balanced_accuracy(int(p["tp"]), int(p["fp"]), int(p["tn"]), int(p["fn"]))
               for p in per_image]
        defined = [b for b in bas if b is not None]
        mean = float(np.mean(defined)) if defined else float("nan")
        if not math.isclose(mean, float(r["mean_balanced_accuracy"]), rel_tol=1e-12):
            errors.append(f"{path.name}: mean BA {r['mean_balanced_accuracy']} in results.csv, "
                          f"{mean!r} from the per-image counts")
        got = [(int(p["sample_id"]), int(p["tp"]) + int(p["fn"])) for p in per_image]
        if (task, seed) in positives and got != positives[(task, seed)]:
            errors.append(f"{path.name}: tp + fn per image differ from the eval set's positives")
    return errors
