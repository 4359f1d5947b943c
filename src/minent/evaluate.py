"""Detection and evaluation metrics.

Detection is a plain forward pass (no score feedback): joint softmax
probabilities over every (proposal, class) cell of a bag, a score floor,
and per-class greedy NMS.  Metrics cover ranked-detection AP/mAP, CorLoc
(top proposal vs. ground truth at IoU 0.5, meant for the training set),
pointing accuracy (top proposal's center inside ground truth), and the
probability-weighted overlap mean/variance used as training diagnostics.

The joint softmax matters: it ranks proposals by their class score, so a
background row with a lopsided but tiny score pair cannot outrank a
confident object row the way a per-row class softmax would let it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Bag, Dataset
from .entropy import EPS
from .geometry import Box, iou_matrix, nms
from .model import ModelParams, forward

DEFAULT_NMS_IOU = 0.4
DEFAULT_SCORE_FLOOR = 1e-3


@dataclass(frozen=True)
class Detection:
    bag_id: str
    cls: int
    box: Box
    score: float


@dataclass
class MetricsReport:
    per_class_ap: list[float]
    mean_ap: float
    per_class_corloc: list[float | None]
    mean_corloc: float
    pointing: float
    loc_acc: float
    loc_var: float

    def to_dict(self) -> dict:
        return {
            "per_class_ap": [float(v) for v in self.per_class_ap],
            "mAP": float(self.mean_ap),
            "per_class_corloc": [None if v is None else float(v) for v in self.per_class_corloc],
            "mean_corloc": float(self.mean_corloc),
            "pointing": float(self.pointing),
            "localization_accuracy": float(self.loc_acc),
            "localization_variance": float(self.loc_var),
        }


def head_probs(params: ModelParams, features: np.ndarray, head) -> np.ndarray:
    """Joint (proposal, class) probability table for the selected head.

    One softmax over the entire score matrix: entries sum to 1 across the
    whole bag, so ``probs[:, cls]`` is proportional to the model's
    distribution over proposals for that class.
    """
    scores = forward(params, features, head)
    shifted = np.exp(scores - scores.max())
    return shifted / max(float(shifted.sum()), EPS)


def detect(
    params: ModelParams,
    bag: Bag,
    nms_iou: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    head=None,
) -> list[Detection]:
    """Per-class NMS over softmax scores; ``head`` defaults to the final
    localization branch."""
    if head is None:
        head = params.branches - 1
    probs = head_probs(params, bag.feature_matrix(), head)
    boxes = bag.box_array()
    out: list[Detection] = []
    for cls in range(params.num_classes):
        scores = probs[:, cls]
        keep = np.flatnonzero(scores >= score_floor)
        if keep.size == 0:
            continue
        for i in nms(boxes[keep], scores[keep], nms_iou):
            idx = int(keep[i])
            out.append(
                Detection(
                    bag_id=bag.id,
                    cls=cls,
                    box=Box(*boxes[idx]),
                    score=float(scores[idx]),
                )
            )
    return out


def average_precision(
    detections: list[Detection],
    gts: dict[str, list[Box]],
    iou_threshold: float = 0.5,
) -> float:
    """All-points-interpolated AP for one class.

    Detections are ranked by descending score (stable under ties); each
    matches the highest-IoU still-unmatched ground truth of its bag at
    IoU >= ``iou_threshold``, else counts as a false positive.  Duplicates
    on an already-matched ground truth are false positives.
    """
    npos = sum(len(v) for v in gts.values())
    if npos == 0:
        if not detections:
            warnings.warn("average_precision: no ground truths and no detections; AP := 0")
        return 0.0
    if not detections:
        return 0.0

    order = np.argsort(-np.array([d.score for d in detections]), kind="stable")
    matched: dict[str, np.ndarray] = {
        bag_id: np.zeros(len(boxes), dtype=bool) for bag_id, boxes in gts.items()
    }
    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, di in enumerate(order):
        det = detections[int(di)]
        cand = gts.get(det.bag_id, [])
        best_iou, best_j = 0.0, -1
        if cand:
            table = iou_matrix(
                np.array([det.box.as_list()]), np.array([b.as_list() for b in cand])
            )[0]
            for j in range(len(cand)):
                if matched[det.bag_id][j]:
                    continue
                if table[j] >= iou_threshold and table[j] > best_iou:
                    best_iou, best_j = float(table[j]), j
        if best_j >= 0:
            matched[det.bag_id][best_j] = True
            tp[rank] = 1.0
        else:
            fp[rank] = 1.0

    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(fp)
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)

    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def _gt_boxes(bag: Bag, cls: int) -> list[Box]:
    if not bag.ground_truth:
        return []
    return [box for c, box in bag.ground_truth if c == cls]


def _top_proposal(params: ModelParams, bag: Bag, cls: int, head) -> int:
    probs = head_probs(params, bag.feature_matrix(), head)
    return int(np.argmax(probs[:, cls]))


def corloc(params: ModelParams, ds: Dataset, head=None) -> tuple[list[float | None], float]:
    """Fraction of positive bags whose top-scored proposal hits ground
    truth at IoU >= 0.5, per class and averaged over non-empty classes."""
    if head is None:
        head = params.branches - 1
    per_class: list[float | None] = []
    for cls in range(ds.num_classes):
        correct = total = 0
        for bag in ds.bags:
            if bag.labels[cls] != 1:
                continue
            gt = _gt_boxes(bag, cls)
            if not gt:
                continue
            total += 1
            top = _top_proposal(params, bag, cls, head)
            table = iou_matrix(
                bag.box_array()[top : top + 1], np.array([b.as_list() for b in gt])
            )
            if table.max() >= 0.5:
                correct += 1
        if total == 0:
            warnings.warn(f"corloc: class {cls} has no positive bags with ground truth")
            per_class.append(None)
        else:
            per_class.append(correct / total)
    scored = [v for v in per_class if v is not None]
    return per_class, (float(np.mean(scored)) if scored else 0.0)


def pointing(params: ModelParams, ds: Dataset, head=None) -> float:
    """Fraction of positive (bag, class) pairs whose top proposal's center
    falls inside some ground-truth box of that class."""
    if head is None:
        head = params.branches - 1
    correct = total = 0
    for bag in ds.bags:
        for cls in bag.positive_classes():
            gt = _gt_boxes(bag, int(cls))
            if not gt:
                continue
            total += 1
            top = _top_proposal(params, bag, int(cls), head)
            cx, cy = Box(*bag.box_array()[top]).center
            if any(b.x1 <= cx <= b.x2 and b.y1 <= cy <= b.y2 for b in gt):
                correct += 1
    if total == 0:
        warnings.warn("pointing: no positive bags with ground truth")
        return 0.0
    return correct / total


def localization_stats(
    class_probs: np.ndarray, boxes: np.ndarray, gt_boxes: list[Box]
) -> tuple[float, float]:
    """Probability-weighted mean and variance of proposal-vs-ground-truth
    overlaps for one class in one bag."""
    if not gt_boxes:
        raise ValueError("localization_stats requires at least one ground truth box")
    probs = np.asarray(class_probs, dtype=float)
    overlaps = iou_matrix(
        np.asarray(boxes, dtype=float), np.array([b.as_list() for b in gt_boxes])
    ).max(axis=1)
    total = float(probs.sum())
    if total <= 0.0:
        warnings.warn("localization_stats: all-zero probabilities; using uniform weights")
        w = np.full(len(probs), 1.0 / len(probs))
    else:
        w = probs / total
    acc = float((w * overlaps).sum())
    var = float((w * (overlaps - acc) ** 2).sum())
    return acc, var


def dataset_loc_stats(params: ModelParams, ds: Dataset, head=None) -> tuple[float, float]:
    """Mean localization accuracy/variance over all positive (bag, class)
    pairs that carry ground truth."""
    if head is None:
        head = params.branches - 1
    accs, variances = [], []
    for bag in ds.bags:
        positives = bag.positive_classes()
        if positives.size == 0:
            continue
        probs = head_probs(params, bag.feature_matrix(), head)
        boxes = bag.box_array()
        for cls in positives:
            gt = _gt_boxes(bag, int(cls))
            if not gt:
                continue
            a, v = localization_stats(probs[:, int(cls)], boxes, gt)
            accs.append(a)
            variances.append(v)
    if not accs:
        return 0.0, 0.0
    return float(np.mean(accs)), float(np.mean(variances))


def evaluate(
    params: ModelParams,
    ds: Dataset,
    head=None,
    nms_iou: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    iou_threshold: float = 0.5,
) -> MetricsReport:
    if head is None:
        head = params.branches - 1
    dets_by_class: list[list[Detection]] = [[] for _ in range(ds.num_classes)]
    gts_by_class: list[dict[str, list[Box]]] = [{} for _ in range(ds.num_classes)]
    for bag in ds.bags:
        for d in detect(params, bag, nms_iou=nms_iou, score_floor=score_floor, head=head):
            dets_by_class[d.cls].append(d)
        if bag.ground_truth:
            for cls, box in bag.ground_truth:
                gts_by_class[cls].setdefault(bag.id, []).append(box)

    per_class_ap = [
        average_precision(dets_by_class[c], gts_by_class[c], iou_threshold)
        for c in range(ds.num_classes)
    ]
    per_class_corloc, mean_corloc = corloc(params, ds, head=head)
    point = pointing(params, ds, head=head)
    loc_acc, loc_var = dataset_loc_stats(params, ds, head=head)
    return MetricsReport(
        per_class_ap=per_class_ap,
        mean_ap=float(np.mean(per_class_ap)) if per_class_ap else 0.0,
        per_class_corloc=per_class_corloc,
        mean_corloc=mean_corloc,
        pointing=point,
        loc_acc=loc_acc,
        loc_var=loc_var,
    )


def mean_ap_over_thresholds(
    params: ModelParams,
    ds: Dataset,
    head=None,
    thresholds=None,
    nms_iou: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_SCORE_FLOOR,
) -> float:
    """mAP averaged over a sweep of IoU thresholds (default .5:.05:.95)."""
    if thresholds is None:
        thresholds = [0.5 + 0.05 * i for i in range(10)]
    values = [
        evaluate(params, ds, head=head, nms_iou=nms_iou,
                 score_floor=score_floor, iou_threshold=t).mean_ap
        for t in thresholds
    ]
    return float(np.mean(values))
