"""Segmentation and depth evaluation.

Segmentation scores come from a (C, C) confusion matrix with ground truth
on rows; per-class IoU is intersection over union, mIoU is its mean over
classes present in prediction or ground truth, and class accuracy is the
mean per-class recall.  Pixels labeled with the ignore value in the
ground truth are excluded everywhere.

Depth errors follow the standard five measures (RMSE linear/log,
absolute/squared relative difference, thresholded accuracy at 1.25^k).
The relative measures divide by the *predicted* depth as printed in the
source material; pass rel_denominator="gt" for the conventional variant.
Only pixels with positive depth in both maps are evaluated.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class DepthScores:
    rmse_lin: float
    rmse_log: float
    abs_rel: float
    sqr_rel: float
    delta_1: float
    delta_2: float
    delta_3: float


def confusion(pred, gt, num_classes, ignore=255):
    """(C, C) counts; rows are ground truth, columns prediction."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    keep = gt != ignore
    p = pred[keep].astype(np.int64)
    g = gt[keep].astype(np.int64)
    if p.size and (p.max() >= num_classes or p.min() < 0):
        raise ValueError("prediction value out of class range")
    if g.size and g.max() >= num_classes:
        raise ValueError("ground-truth value out of class range")
    counts = np.bincount(g * num_classes + p, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def iou_per_class(cm):
    """Per-class intersection over union; NaN where the union is empty."""
    cm = np.asarray(cm, dtype=np.float64)
    inter = np.diag(cm)
    union = cm.sum(axis=1) + cm.sum(axis=0) - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, inter / union, np.nan)


def mean_iou(cm):
    """Mean IoU over classes with nonempty union."""
    return float(np.nanmean(iou_per_class(cm)))


def pixel_accuracy(cm):
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    return float(np.diag(cm).sum() / total) if total else float("nan")


def class_accuracy(cm):
    """Mean per-class recall over classes present in the ground truth."""
    cm = np.asarray(cm, dtype=np.float64)
    row = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        recall = np.where(row > 0, np.diag(cm) / row, np.nan)
    return float(np.nanmean(recall))


def majority_labels(gt, spmap, ignore=255):
    """(K,) majority ground-truth class of every superpixel.

    Ignore pixels do not vote; an all-ignore superpixel gets ignore.
    Modal ties go to the smallest label.
    """
    gt = np.asarray(gt)
    spmap = np.asarray(spmap)
    if gt.shape != spmap.shape:
        raise ValueError(f"shape mismatch {gt.shape} vs {spmap.shape}")
    k = int(spmap.max()) + 1
    keep = gt != ignore
    flat_sp = spmap[keep].astype(np.int64)
    flat_gt = gt[keep].astype(np.int64)
    num_classes = int(flat_gt.max()) + 1 if flat_gt.size else 1
    votes = np.bincount(flat_sp * num_classes + flat_gt, minlength=k * num_classes)
    votes = votes.reshape(k, num_classes)
    winner = np.argmax(votes, axis=1)  # first maximum = smallest label
    return np.where(votes.sum(axis=1) > 0, winner, ignore)


def oracle_labels(gt, spmap, ignore=255):
    """Label every pixel with its superpixel's majority_labels class."""
    return majority_labels(gt, spmap, ignore)[spmap].astype(np.asarray(gt).dtype)


def depth_metrics(pred, gt, rel_denominator="pred"):
    """Five depth error measures over jointly valid (> 0) pixels."""
    if rel_denominator not in ("pred", "gt"):
        raise ValueError(f"rel_denominator must be 'pred' or 'gt', got {rel_denominator!r}")
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    valid = (pred > 0) & (gt > 0)
    if not valid.any():
        raise ValueError("no jointly valid pixels")
    y = gt[valid]
    yhat = pred[valid]
    denom = yhat if rel_denominator == "pred" else y
    ratio = np.maximum(y / yhat, yhat / y)
    return DepthScores(
        rmse_lin=float(np.sqrt(((y - yhat) ** 2).mean())),
        rmse_log=float(np.sqrt(((np.log(y) - np.log(yhat)) ** 2).mean())),
        abs_rel=float((np.abs(y - yhat) / denom).mean()),
        sqr_rel=float(((y - yhat) ** 2 / denom).mean()),
        delta_1=float((ratio < 1.25).mean()),
        delta_2=float((ratio < 1.25**2).mean()),
        delta_3=float((ratio < 1.25**3).mean()),
    )
