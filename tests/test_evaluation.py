import itertools

import numpy as np
import pytest
from scipy.stats import rankdata

from hazlab import evaluation
from hazlab.adaptation import ThresholdPolicy
from hazlab.errors import ContractError
from hazlab.evaluation import (BaselineKind, ConfusionCounts, baseline_masks, confusion, metrics,
                               paired_significance, records_to_csv,
                               summarize, wilcoxon_one_tailed)
from hazlab.unet import BackboneVariant, UNetConfig


def brute_force_counts(pred, gt):
    tp = fp = tn = fn = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            if pred[i, j] == 1 and gt[i, j] == 1:
                tp += 1
            elif pred[i, j] == 1 and gt[i, j] == 0:
                fp += 1
            elif pred[i, j] == 0 and gt[i, j] == 0:
                tn += 1
            else:
                fn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def brute_force_wilcoxon_p(diffs):
    """Full 2^n enumeration with scipy average ranks (independent path)."""
    d = np.asarray([x for x in diffs if x != 0.0])
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(d)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w >= w_obs - 1e-12:
            hits += 1
    return hits / 2 ** len(d)


class TestConfusion:
    def test_perfect_prediction(self):
        gt = (np.random.default_rng(0).random((8, 8)) > 0.5).astype(int)
        c = confusion(gt, gt)
        assert c.fp == 0 and c.fn == 0
        assert c.total == 64

    def test_inversion(self):
        gt = (np.random.default_rng(1).random((8, 8)) > 0.5).astype(int)
        c = confusion(1 - gt, gt)
        assert c.tp == 0 and c.tn == 0

    def test_matches_per_pixel_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = (rng.random((16, 16)) > 0.7).astype(int)
            gt = (rng.random((16, 16)) > 0.8).astype(int)
            assert confusion(pred, gt) == brute_force_counts(pred, gt)

    def test_non_binary_raises(self):
        with pytest.raises(ContractError):
            confusion(np.full((2, 2), 2), np.zeros((2, 2)))


class TestMetrics:
    def test_all_background_on_mixed_gt_is_chance(self):
        gt = np.zeros((4, 4), dtype=int)
        gt[0, 0] = 1
        rec = metrics(confusion(np.zeros((4, 4), dtype=int), gt))
        assert rec.balanced_accuracy == 0.5

    def test_perfect_prediction_all_ones(self):
        gt = (np.random.default_rng(3).random((6, 6)) > 0.5).astype(int)
        rec = metrics(confusion(gt, gt))
        assert rec.balanced_accuracy == 1.0 and rec.iou == 1.0 and rec.f1 == 1.0

    def test_hand_arithmetic(self):
        rec = metrics(ConfusionCounts(tp=3, fp=1, tn=10, fn=2))
        assert abs(rec.balanced_accuracy - (3 / 5 + 10 / 11) / 2) < 1e-15
        assert rec.iou == 0.5
        assert abs(rec.f1 - 2 / 3) < 1e-15

    def test_undefined_when_single_class_gt(self):
        rec = metrics(confusion(np.zeros((3, 3), dtype=int), np.zeros((3, 3), dtype=int)))
        assert rec.balanced_accuracy is None
        assert rec.iou == 1.0 and rec.f1 == 1.0  # empty-vs-empty convention

    def test_empty_gt_nonempty_pred(self):
        pred = np.zeros((3, 3), dtype=int)
        pred[1, 1] = 1
        rec = metrics(confusion(pred, np.zeros((3, 3), dtype=int)))
        assert rec.balanced_accuracy is None
        assert rec.iou == 0.0 and rec.f1 == 0.0

    def test_class_swap_symmetry(self):
        rng = np.random.default_rng(4)
        pred = (rng.random((8, 8)) > 0.6).astype(int)
        gt = (rng.random((8, 8)) > 0.5).astype(int)
        ba = metrics(confusion(pred, gt)).balanced_accuracy
        ba_swapped = metrics(confusion(1 - pred, 1 - gt)).balanced_accuracy
        assert abs(ba - ba_swapped) < 1e-15


class TestWilcoxon:
    def test_n8_all_positive(self):
        r = wilcoxon_one_tailed([1, 2, 3, 4, 5, 6, 7, 8])
        assert r.statistic == 36.0
        assert r.n_effective == 8
        assert r.p_value == 1 / 256
        assert r.method == "exact"
        assert r.significant

    def test_symmetric_differences(self):
        r = wilcoxon_one_tailed([1.5, -1.5, 0.7, -0.7, 2.2, -2.2])
        assert r.p_value >= 0.5

    def test_all_zero_differences(self):
        r = wilcoxon_one_tailed([0.0, 0.0, 0.0])
        assert r.p_value == 1.0 and not r.significant and r.n_effective == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_exact_matches_full_enumeration(self, n):
        rng = np.random.default_rng(n)
        for trial in range(4):
            d = np.round(rng.normal(size=n), 1)  # rounding provokes ties and zeros
            r = wilcoxon_one_tailed(d)
            if r.n_effective == 0:
                continue
            assert abs(r.p_value - brute_force_wilcoxon_p(d)) < 1e-12, (n, trial, d)

    @pytest.mark.parametrize("n", [20, 22, 25])
    def test_normal_approx_close_to_exact(self, n):
        rng = np.random.default_rng(100 + n)
        d = rng.normal(loc=0.3, size=n)
        exact = wilcoxon_one_tailed(d)
        assert exact.method == "exact"
        # force the approximation path on the same data
        old = evaluation.EXACT_LIMIT
        evaluation.EXACT_LIMIT = 0
        try:
            approx = wilcoxon_one_tailed(d)
        finally:
            evaluation.EXACT_LIMIT = old
        assert approx.method == "normal_approx"
        assert abs(approx.p_value - exact.p_value) < 0.01

    def test_boundary_not_significant(self):
        # p exactly at alpha must not flag
        from hazlab.evaluation import SignificanceResult
        assert not wilcoxon_one_tailed([1.0]).significant  # p = 0.5
        r = SignificanceResult(0.0, 5, 0.01, "exact", 0.01 < 0.01)
        assert not r.significant


class TestBaselines:
    def _images(self, n, size=16, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.random((3, size, size)) for _ in range(n)]

    def test_determinism(self):
        imgs = self._images(4)
        cfg = UNetConfig(base_channels=4, depth=1, variant=BackboneVariant.RESIDUAL)
        for kind in BaselineKind:
            m1 = baseline_masks(kind, imgs, seed=9, unet_config=cfg)
            m2 = baseline_masks(kind, imgs, seed=9, unet_config=cfg)
            assert np.array_equal(m1, m2), kind

    def test_uniform_noise_flags_exact_fraction(self):
        imgs = self._images(10, size=20)
        masks = baseline_masks(BaselineKind.UNIFORM_NOISE, imgs, seed=3)
        # 400 pixels, q=0.95: 400 - 380 = 20 hazard pixels per image
        assert np.all(masks.sum(axis=(1, 2)) == 20)

    def test_random_unet_needs_config(self):
        with pytest.raises(ContractError):
            baseline_masks(BaselineKind.RANDOM_INIT_UNET, self._images(2), seed=0)


class TestEvaluatePipeline:
    def test_identical_masks_give_p_one(self):
        rng = np.random.default_rng(6)
        gts = [(rng.random((8, 8)) > 0.7).astype(np.uint8) for _ in range(10)]

        class S:
            def __init__(self, i, m):
                self.sample_id = i
                self.mask = m

        samples = [S(i, m) for i, m in enumerate(gts)]
        preds = [m.copy() for m in gts]
        recs = evaluation.evaluate_masks(preds, samples)
        r = paired_significance(recs, recs)
        assert r.p_value == 1.0

    def test_summary_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        recs = []
        for i in range(50):
            pred = (rng.random((8, 8)) > 0.6).astype(int)
            gt = (rng.random((8, 8)) > 0.5).astype(int)
            recs.append(metrics(confusion(pred, gt), sample_id=i))
        s = summarize(recs)
        vals = [r.balanced_accuracy for r in recs if r.balanced_accuracy is not None]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(s["mean_balanced_accuracy"] - mean) < 1e-12
        assert abs(s["std_balanced_accuracy"] - var ** 0.5) < 1e-12
        assert s["n_defined"] + s["n_undefined"] == 50

    def test_records_csv_shape(self):
        recs = [metrics(ConfusionCounts(1, 2, 3, 4), sample_id=7)]
        csv = records_to_csv(recs)
        lines = csv.strip().split("\n")
        assert lines[0] == "sample_id,tp,fp,tn,fn,balanced_accuracy,iou,f1"
        assert lines[1].startswith("7,1,2,3,4,")
