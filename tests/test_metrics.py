import math

import numpy as np
import pytest

from zok.core_io import rgb_to_lab
from zok.metrics import (class_accuracy, confusion, depth_metrics,
                         iou_per_class, majority_labels, mean_iou, oracle_labels,
                         pixel_accuracy)
from zok.slic import SlicParams, run_slic
from zok.synth import SyntheticSpec, generate_dataset


class TestConfusion:
    def test_perfect_prediction_diagonal(self):
        labels = np.array([[0, 1], [2, 1]])
        cm = confusion(labels, labels, 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_all_ignore_zero_matrix(self):
        gt = np.full((3, 3), 255)
        cm = confusion(np.zeros((3, 3), dtype=int), gt, 4)
        assert cm.sum() == 0

    def test_hand_2x2(self):
        gt = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        cm = confusion(pred, gt, 2)
        assert np.array_equal(cm, [[1, 1], [0, 2]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((2, 2)), np.zeros((2, 3)), 2)

    def test_pred_out_of_range(self):
        with pytest.raises(ValueError):
            confusion(np.full((2, 2), 7), np.zeros((2, 2)), 2)

    def test_total_counts_evaluated_pixels(self):
        rng = np.random.default_rng(0)
        gt = rng.integers(0, 3, size=(10, 10))
        gt[0, :5] = 255
        pred = rng.integers(0, 3, size=(10, 10))
        cm = confusion(pred, gt, 3)
        assert cm.sum() == (gt != 255).sum()


class TestIoU:
    def test_perfect_prediction(self):
        labels = np.array([[0, 1, 2]])
        cm = confusion(labels, labels, 3)
        assert np.allclose(iou_per_class(cm), 1.0)
        assert mean_iou(cm) == 1.0

    def test_disjoint_sets_zero(self):
        gt = np.zeros((2, 2), dtype=int)
        pred = np.ones((2, 2), dtype=int)
        cm = confusion(pred, gt, 2)
        assert np.allclose(iou_per_class(cm), 0.0)

    def test_hand_union(self):
        # gt has 3 pixels of class 1, pred has 2, overlap 1 -> 1/(3+2-1)
        gt = np.array([[1, 1, 1, 0, 0, 0]])
        pred = np.array([[1, 0, 0, 1, 0, 0]])
        cm = confusion(pred, gt, 2)
        assert iou_per_class(cm)[1] == pytest.approx(0.25)

    def test_absent_class_excluded_from_mean(self):
        gt = np.zeros((2, 2), dtype=int)
        cm = confusion(gt, gt, 5)
        per = iou_per_class(cm)
        assert per[0] == 1.0 and np.isnan(per[1:]).all()
        assert mean_iou(cm) == 1.0

    def test_jaccard_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, size=(12, 12))
        b = rng.integers(0, 4, size=(12, 12))
        iou_ab = iou_per_class(confusion(b, a, 4))
        iou_ba = iou_per_class(confusion(a, b, 4))
        assert np.allclose(iou_ab, iou_ba, equal_nan=True)


class TestAccuracies:
    def test_identity_cases(self):
        labels = np.array([[0, 1], [2, 2]])
        cm = confusion(labels, labels, 3)
        assert pixel_accuracy(cm) == 1.0
        assert class_accuracy(cm) == 1.0
        assert mean_iou(cm) == 1.0

    def test_single_class_fully_wrong(self):
        gt = np.zeros((2, 2), dtype=int)
        pred = np.ones((2, 2), dtype=int)
        cm = confusion(pred, gt, 2)
        assert pixel_accuracy(cm) == 0.0
        assert class_accuracy(cm) == 0.0
        assert mean_iou(cm) == 0.0

    def test_hand_three_class(self):
        gt = np.array([[0, 0, 1, 1, 2, 2]])
        pred = np.array([[0, 1, 1, 1, 2, 0]])
        cm = confusion(pred, gt, 3)
        assert pixel_accuracy(cm) == pytest.approx(4 / 6)
        assert class_accuracy(cm) == pytest.approx((0.5 + 1.0 + 0.5) / 3)
        # per-class IoU: 0: 1/(2+2-1)=1/3, 1: 2/(2+3-2)=2/3, 2: 1/(2+1-1)=1/2
        assert mean_iou(cm) == pytest.approx((1 / 3 + 2 / 3 + 1 / 2) / 3)


class TestOracleLabels:
    def test_constant_per_superpixel_is_exact(self):
        gt = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
        sp = np.array([[0, 0, 1, 1], [0, 0, 1, 1]], dtype=np.int32)
        out = oracle_labels(gt, sp)
        assert np.array_equal(out, gt)
        assert mean_iou(confusion(out, gt, 2)) == 1.0

    def test_majority_vote(self):
        gt = np.array([[2, 2, 2, 5, 5]])
        sp = np.zeros((1, 5), dtype=np.int32)
        assert np.all(oracle_labels(gt, sp) == 2)

    def test_tie_resolves_to_smaller_label(self):
        ys, xs = np.mgrid[0:4, 0:4]
        gt = ((ys + xs) % 2).astype(np.int64) + 3   # labels 3 and 4
        sp = ((ys // 2) * 2 + xs // 2).astype(np.int32)  # 2x2 blocks
        assert np.all(oracle_labels(gt, sp) == 3)

    def test_all_ignore_superpixel_stays_ignore(self):
        gt = np.array([[255, 255], [1, 1]])
        sp = np.array([[0, 0], [1, 1]], dtype=np.int32)
        out = oracle_labels(gt, sp)
        assert np.all(out[0] == 255) and np.all(out[1] == 1)

    def test_ignore_pixels_do_not_vote(self):
        gt = np.array([[255, 255, 7]])
        sp = np.zeros((1, 3), dtype=np.int32)
        assert np.all(oracle_labels(gt, sp) == 7)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        gt = rng.integers(0, 4, size=(8, 8))
        gt[rng.random((8, 8)) < 0.1] = 255
        sp = (rng.integers(0, 3, size=(8, 8))).astype(np.int32)
        once = oracle_labels(gt, sp)
        assert np.array_equal(oracle_labels(once, sp), once)


class TestDepthMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(0.5, 10.0, size=(5, 5))
        scores = depth_metrics(gt, gt)
        assert scores["rmse_lin"] == 0.0 and scores["rmse_log"] == 0.0
        assert scores["abs_rel"] == 0.0 and scores["sqr_rel"] == 0.0
        assert scores["delta_1"] == 1.0 and scores["delta_3"] == 1.0

    def test_scaled_prediction_hand_values(self):
        rng = np.random.default_rng(4)
        gt = rng.uniform(1.0, 5.0, size=(6, 6))
        pred = 1.2 * gt
        scores = depth_metrics(pred, gt)
        assert scores["delta_1"] == 1.0        # max ratio 1.2 < 1.25
        assert scores["rmse_log"] == pytest.approx(math.log(1.2), abs=1e-12)
        assert scores["rmse_log"] == pytest.approx(0.18232, abs=1e-4)
        # literal formula divides by the prediction: |y - 1.2y| / (1.2y)
        assert scores["abs_rel"] == pytest.approx(1 / 6, abs=1e-9)
        assert scores["sqr_rel"] == pytest.approx((0.04 / 1.2) * gt.mean(), rel=1e-9)

    def test_gt_denominator_variant(self):
        gt = np.full((2, 2), 2.0)
        pred = np.full((2, 2), 2.4)
        assert depth_metrics(pred, gt, rel_denominator="gt")["abs_rel"] == \
            pytest.approx(0.2)

    def test_deltas_monotone(self):
        rng = np.random.default_rng(5)
        gt = rng.uniform(0.5, 8.0, size=(10, 10))
        pred = gt * rng.uniform(0.5, 2.0, size=(10, 10))
        s = depth_metrics(pred, gt)
        assert s["delta_1"] <= s["delta_2"] <= s["delta_3"]

    def test_invalid_pixels_masked(self):
        gt = np.array([[0.0, 2.0], [3.0, -1.0]])
        pred = np.array([[5.0, 2.0], [3.0, 4.0]])
        scores = depth_metrics(pred, gt)
        assert scores["rmse_lin"] == 0.0  # only the two valid pixels count

    def test_unknown_denominator_rejected(self):
        with pytest.raises(ValueError, match="rel_denominator"):
            depth_metrics(np.ones((2, 2)), np.ones((2, 2)), rel_denominator="bogus")

    def test_no_valid_pixels(self):
        with pytest.raises(ValueError):
            depth_metrics(np.zeros((2, 2)), np.zeros((2, 2)))


def reference_first_label_per_superpixel(label_map, spmap):
    """The (K,) read-back of an oracle_labels map that the pipeline used
    before majority_labels: the label of each superpixel's first pixel."""
    k = int(spmap.max()) + 1
    first_idx = np.full(k, label_map.size, dtype=np.int64)
    np.minimum.at(first_idx, spmap.ravel(), np.arange(label_map.size))
    return label_map.ravel()[first_idx].astype(np.int64)


class TestMajorityLabels:
    def test_matches_reference_bytes_on_noisy_blobs(self):
        spec = SyntheticSpec(size=64, num_classes=4, kind="blobs", noise_sigma=8.0)
        rng = np.random.default_rng(6)
        for img, gt in generate_dataset(spec, 6, 4):
            gt = gt.copy()
            gt[rng.random(gt.shape) < 0.1] = 255
            spmap = run_slic(rgb_to_lab(img), SlicParams(k=64)).spmap
            got = majority_labels(gt, spmap)
            ref = reference_first_label_per_superpixel(oracle_labels(gt, spmap), spmap)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_all_ignore_superpixel_matches_reference(self):
        gt = np.array([[255, 255, 1], [255, 255, 2], [0, 2, 2]])
        sp = np.array([[0, 0, 1], [0, 0, 1], [2, 2, 2]], dtype=np.int32)
        got = majority_labels(gt, sp)
        assert got.tolist() == [255, 1, 2]
        ref = reference_first_label_per_superpixel(oracle_labels(gt, sp), sp)
        assert got.tobytes() == ref.tobytes()
