"""Detection and evaluation metrics, read from one pass over the bags.

``evaluate`` computes each bag's probability table once (``head_probs``,
a joint softmax over every (proposal, class) cell) and feeds it to two
readers: detection (a score floor and per-class greedy NMS, no score
feedback, ranked into AP/mAP), and ``_bag_pairs``, which gives one row per
positive (bag, class) pair with ground truth: the CorLoc hit (top proposal
vs. ground truth at ``HIT_IOU``, meant for the training set), the pointing hit
(top proposal's center inside ground truth), and the probability-weighted
mean and variance of every proposal's best IoU with ground truth.
``corloc`` and ``pointing`` aggregate those rows, and ``dataset_loc_stats``
computes only the localization figures from the same IoU tables, so each
alone equals what ``evaluate`` reports.

Detection reads the boxes and scores NMS keeps as Python lists, once per
(bag, class), and AP matches a class's detections in a bag from one IoU
table against that bag's ground truth, not one table per detection.

The joint softmax matters: it ranks proposals by their class score, so a
background row with a lopsided but tiny score pair cannot outrank a
confident object row the way a per-row class softmax would let it.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import Bag, Dataset
from .entropy import EPS
from .geometry import Box, iou_matrix, nms
from .model import ModelParams, forward

DEFAULT_NMS_IOU = 0.4
DEFAULT_SCORE_FLOOR = 1e-3
# a detection (AP) or a bag's top proposal (CorLoc) hits a ground-truth box
# when their IoU is at least this
HIT_IOU = 0.5


@dataclass(frozen=True, slots=True)
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


# what one positive (bag, class) pair with ground truth scores
_Pair = namedtuple("_Pair", "cls corloc_hit pointing_hit loc_acc loc_var")


def head_probs(params: ModelParams, features: np.ndarray, head=None) -> np.ndarray:
    """Joint (proposal, class) probability table for the selected head;
    ``head`` defaults to the final localization branch.

    One softmax over the entire score matrix: entries sum to 1 across the
    whole bag, so ``probs[:, cls]`` is proportional to the model's
    distribution over proposals for that class.
    """
    if head is None:
        head = params.branches - 1
    scores = forward(params, features, head)
    shifted = np.exp(scores - scores.max())
    return shifted / max(float(shifted.sum()), EPS)


def _detections(
    bag: Bag, probs: np.ndarray, nms_iou: float, score_floor: float
) -> list[Detection]:
    """Per-class NMS over the table's cells at or above the score floor.
    The survivors' boxes and scores are read as Python lists once per
    class, so no detection holds a numpy scalar."""
    boxes = bag.box_array()
    out: list[Detection] = []
    for cls in range(probs.shape[1]):
        scores = probs[:, cls]
        keep = np.flatnonzero(scores >= score_floor)
        if keep.size == 0:
            continue
        kept = keep[nms(boxes[keep], scores[keep], nms_iou)]
        for box, score in zip(boxes[kept].tolist(), scores[kept].tolist()):
            out.append(Detection(bag.id, cls, Box(*box), score))
    return out


def detect(
    params: ModelParams,
    bag: Bag,
    nms_iou: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    head=None,
) -> list[Detection]:
    """One bag's detections: its probability table, a score floor and
    per-class NMS."""
    return _detections(bag, head_probs(params, bag.feature_matrix(), head), nms_iou, score_floor)


def average_precision(detections: list[Detection], gts: dict[str, list[Box]]) -> float:
    """All-points-interpolated AP for one class.

    Detections are ranked by descending score (stable under ties); each
    matches the highest-IoU still-unmatched ground truth of its bag at
    IoU >= ``HIT_IOU``, else counts as a false positive.  Duplicates
    on an already-matched ground truth are false positives.
    """
    npos = sum(len(v) for v in gts.values())
    if npos == 0:
        if not detections:
            warnings.warn("average_precision: no ground truths and no detections; AP := 0")
        return 0.0
    if not detections:
        return 0.0

    # which ground truth a detection takes depends only on the detections of
    # its bag ranked above it, so each bag is matched on its own, in rank
    # order, from one IoU table read as Python floats
    order = np.argsort(-np.array([d.score for d in detections]), kind="stable")
    ranked_by_bag: dict[str, list[int]] = {}
    for i in order.tolist():
        ranked_by_bag.setdefault(detections[i].bag_id, []).append(i)
    hits = [0.0] * len(detections)
    for bag_id, ranked in ranked_by_bag.items():
        gt = gts.get(bag_id)
        if not gt:
            continue  # every detection of the bag is a false positive
        table = iou_matrix(np.array([detections[i].box.as_list() for i in ranked]),
                           np.array([b.as_list() for b in gt]))
        taken = [False] * len(gt)
        for i, row in zip(ranked, table.tolist()):
            best_iou, best_j = 0.0, -1
            for j, v in enumerate(row):
                if not taken[j] and v >= HIT_IOU and v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0:
                taken[best_j] = True
                hits[i] = 1.0

    tp = np.array(hits)[order]
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)  # every unmatched detection is a false positive
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)

    mrec = np.concatenate(([0.0], recall, [1.0]))
    # the precision envelope: the best precision at this rank or any later one
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def localization_stats(
    class_probs: np.ndarray, boxes: np.ndarray, gt_boxes: list[Box]
) -> tuple[float, float]:
    """Probability-weighted mean and variance of proposal-vs-ground-truth
    overlaps for one class in one bag."""
    if not gt_boxes:
        raise ValueError("localization_stats requires at least one ground truth box")
    overlaps = iou_matrix(
        np.asarray(boxes, dtype=float), np.array([b.as_list() for b in gt_boxes])
    )
    return _weighted_overlap_stats(class_probs, overlaps.max(axis=1))


def _weighted_overlap_stats(class_probs: np.ndarray, overlaps: np.ndarray) -> tuple[float, float]:
    """``localization_stats`` given each proposal's best ground-truth IoU."""
    probs = np.asarray(class_probs, dtype=float)
    total = float(probs.sum())
    if total <= 0.0:
        warnings.warn("localization_stats: all-zero probabilities; using uniform weights")
        w = np.full(len(probs), 1.0 / len(probs))
    else:
        w = probs / total
    acc = float((w * overlaps).sum())
    var = float((w * (overlaps - acc) ** 2).sum())
    return acc, var


def _pair_tables(bag: Bag) -> list[tuple[int, list[Box], np.ndarray]]:
    """Each positive class of the bag that has ground truth, in class order,
    with those ground-truth boxes and their (P, G) IoU table with the
    proposals, cut from one table per bag.  This is the one place that
    decides which pairs count."""
    positive = bag.positive_classes().tolist()
    gt = [(c, box) for c, box in bag.ground_truth or () if c in positive]
    if not gt:
        return []
    table = iou_matrix(bag.box_array(), np.array([box.as_list() for _, box in gt]))
    tables = []
    for cls in positive:
        cols = [j for j, (c, _) in enumerate(gt) if c == cls]
        if cols:
            tables.append((cls, [gt[j][1] for j in cols], table[:, cols]))
    return tables


def _bag_pairs(bag: Bag, probs: np.ndarray) -> list[_Pair]:
    """One row per positive class of the bag that has ground truth."""
    boxes = bag.box_array()
    tops = probs.argmax(axis=0).tolist()  # each class's top proposal
    pairs: list[_Pair] = []
    for cls, gt, table in _pair_tables(bag):
        top = tops[cls]
        best = table.max(axis=1)
        cx, cy = Box(*boxes[top].tolist()).center
        pairs.append(_Pair(
            cls,
            bool(best[top] >= HIT_IOU),
            any(b.x1 <= cx <= b.x2 and b.y1 <= cy <= b.y2 for b in gt),
            *_weighted_overlap_stats(probs[:, cls], best),
        ))
    return pairs


def _dataset_pairs(params: ModelParams, ds: Dataset, head) -> list[_Pair]:
    pairs: list[_Pair] = []
    for bag in ds.bags:
        if bag.positive_classes().size:  # else no pairs, so no forward pass either
            pairs += _bag_pairs(bag, head_probs(params, bag.feature_matrix(), head))
    return pairs


def _corloc_of(pairs: list[_Pair], num_classes: int) -> tuple[list[float | None], float]:
    per_class: list[float | None] = []
    for cls in range(num_classes):
        hits = [p.corloc_hit for p in pairs if p.cls == cls]
        if not hits:
            warnings.warn(f"corloc: class {cls} has no positive bags with ground truth")
        per_class.append(sum(hits) / len(hits) if hits else None)
    scored = [v for v in per_class if v is not None]
    return per_class, (float(np.mean(scored)) if scored else 0.0)


def _pointing_of(pairs: list[_Pair]) -> float:
    if not pairs:
        warnings.warn("pointing: no positive bags with ground truth")
        return 0.0
    return sum(p.pointing_hit for p in pairs) / len(pairs)


def _loc_stats_of(stats: list[tuple[float, float]]) -> tuple[float, float]:
    if not stats:
        return 0.0, 0.0
    acc, var = zip(*stats)
    return float(np.mean(acc)), float(np.mean(var))


def corloc(params: ModelParams, ds: Dataset, head=None) -> tuple[list[float | None], float]:
    """Fraction of positive bags whose top-scored proposal hits ground
    truth at IoU >= ``HIT_IOU``, per class and averaged over non-empty classes."""
    return _corloc_of(_dataset_pairs(params, ds, head), ds.num_classes)


def pointing(params: ModelParams, ds: Dataset, head=None) -> float:
    """Fraction of positive (bag, class) pairs whose top proposal's center
    falls inside some ground-truth box of that class."""
    return _pointing_of(_dataset_pairs(params, ds, head))


def best_gt_overlaps(ds: Dataset) -> list[tuple[Bag, list[tuple[int, np.ndarray]]]]:
    """For each bag with a positive (bag, class) pair that carries ground
    truth: per pair, the class and every proposal's best IoU with that
    class's ground truth.  Boxes do not change, so a caller that scores
    the same bags many times can compute this once."""
    found = []
    for bag in ds.bags:
        rows = [(cls, table.max(axis=1)) for cls, _, table in _pair_tables(bag)]
        if rows:
            found.append((bag, rows))
    return found


def dataset_loc_stats(
    params: ModelParams, ds: Dataset, head=None, overlaps=None
) -> tuple[float, float]:
    """Mean localization accuracy/variance over all positive (bag, class)
    pairs that carry ground truth.  ``overlaps`` is ``best_gt_overlaps(ds)``,
    if the caller keeps it."""
    if overlaps is None:
        overlaps = best_gt_overlaps(ds)
    stats = []
    for bag, rows in overlaps:
        probs = head_probs(params, bag.feature_matrix(), head)
        stats += [_weighted_overlap_stats(probs[:, cls], best) for cls, best in rows]
    return _loc_stats_of(stats)


def evaluate(
    params: ModelParams,
    ds: Dataset,
    head=None,
    nms_iou: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_SCORE_FLOOR,
) -> MetricsReport:
    """Every metric from one pass: each bag's probability table is computed
    once and feeds both its detections and its pair rows."""
    dets_by_class: list[list[Detection]] = [[] for _ in range(ds.num_classes)]
    gts_by_class: list[dict[str, list[Box]]] = [{} for _ in range(ds.num_classes)]
    pairs: list[_Pair] = []
    for bag in ds.bags:
        probs = head_probs(params, bag.feature_matrix(), head)
        for d in _detections(bag, probs, nms_iou, score_floor):
            dets_by_class[d.cls].append(d)
        pairs += _bag_pairs(bag, probs)
        for cls, box in bag.ground_truth or ():
            gts_by_class[cls].setdefault(bag.id, []).append(box)

    per_class_ap = [average_precision(dets_by_class[c], gts_by_class[c])
                    for c in range(ds.num_classes)]
    per_class_corloc, mean_corloc = _corloc_of(pairs, ds.num_classes)
    loc_acc, loc_var = _loc_stats_of([(p.loc_acc, p.loc_var) for p in pairs])
    return MetricsReport(
        per_class_ap=per_class_ap,
        mean_ap=float(np.mean(per_class_ap)) if per_class_ap else 0.0,
        per_class_corloc=per_class_corloc,
        mean_corloc=mean_corloc,
        pointing=_pointing_of(pairs),
        loc_acc=loc_acc,
        loc_var=loc_var,
    )
