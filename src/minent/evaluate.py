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

Each bag has two overlap tables: every class's NMS cuts its sub-table from
one bool table of which pairs it keeps, over the proposals that pass the
score floor in some class, and the pair rows and AP matching read a float
IoU table of the proposals against all ground truth.
NMS gives a class's survivors by descending score, ties to the lower
index, and they are matched in that order; a stable sort over the bags'
survivors ranks them the same way, so a detection is a (score, hit) pair.

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
from .entropy import joint_softmax
from .geometry import Box, iou_matrix, nms, self_iou_table
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
    return joint_softmax(forward(params, features, head))


def _survivors(boxes: np.ndarray, probs: np.ndarray, nms_iou: float, score_floor: float):
    """(class, proposal indices) of each class's NMS survivors among its
    cells at or above the score floor, in NMS order, with every class's
    ``nms`` table cut from one over the proposals that pass in some class."""
    passing = probs >= score_floor
    cand = np.flatnonzero(passing.any(axis=1))
    if cand.size == 0:
        return []
    cand_boxes, passing = boxes[cand], passing[cand]
    table = self_iou_table(cand_boxes, nms_iou, np.less_equal)
    out = []
    for cls in range(probs.shape[1]):
        keep = np.flatnonzero(passing[:, cls])
        if keep.size:
            keeps = table if keep.size == cand.size else table[keep][:, keep]
            idx = cand[keep]
            out.append((cls, idx[nms(cand_boxes[keep], probs[idx, cls], nms_iou, keeps)]))
    return out


def detect(params: ModelParams, bag: Bag, nms_iou: float = DEFAULT_NMS_IOU,
           score_floor: float = DEFAULT_SCORE_FLOOR, head=None) -> list[Detection]:
    """One bag's detections: its probability table, a score floor and
    per-class NMS."""
    probs = head_probs(params, bag.feature_matrix(), head)
    boxes = bag.box_array()
    return [Detection(bag.id, cls, Box(*box), score)
            for cls, kept in _survivors(boxes, probs, nms_iou, score_floor)
            for box, score in zip(boxes[kept].tolist(), probs[kept, cls].tolist())]


def _match(table: np.ndarray) -> list[float]:
    """The hits of one bag's detections of a class, ranked down the rows of
    their IoU table with that class's ground truth: each takes the
    highest-IoU ground truth not yet taken at IoU >= ``HIT_IOU``."""
    taken = [False] * table.shape[1]
    hits = []
    for row in table.tolist():
        best_iou, best_j = 0.0, -1
        for j, v in enumerate(row):
            if not taken[j] and v >= HIT_IOU and v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0:
            taken[best_j] = True
        hits.append(1.0 if best_j >= 0 else 0.0)
    return hits


def average_precision(detections: list[Detection], gts: dict[str, list[Box]]) -> float:
    """All-points-interpolated AP for one class.

    Detections are ranked by descending score (stable under ties); each
    matches the highest-IoU still-unmatched ground truth of its bag at
    IoU >= ``HIT_IOU``, else counts as a false positive.  Duplicates
    on an already-matched ground truth are false positives.
    """
    # which ground truth a detection takes depends only on the detections of
    # its bag ranked above it: each bag is matched in rank order on its own
    scores = [d.score for d in detections]
    ranked_by_bag: dict[str, list[int]] = {}
    for i in np.argsort(-np.array(scores), kind="stable").tolist():
        ranked_by_bag.setdefault(detections[i].bag_id, []).append(i)
    hits = [0.0] * len(detections)
    for bag_id, ranked in ranked_by_bag.items():
        gt = gts.get(bag_id)
        if gt:  # else every detection of the bag is a false positive
            table = iou_matrix(np.array([detections[i].box.as_list() for i in ranked]),
                               np.array([b.as_list() for b in gt]))
            for i, hit in zip(ranked, _match(table)):
                hits[i] = hit
    return _ap(scores, hits, sum(len(v) for v in gts.values()))


def _ap(scores: list[float], hits: list[float], npos: int) -> float:
    """``average_precision`` of detections given as (score, hit) pairs,
    ranked by a stable sort on descending score."""
    if not (npos or scores):
        warnings.warn("average_precision: no ground truths and no detections; AP := 0")
    if not (npos and scores):
        return 0.0
    tp = np.array(hits)[np.argsort(-np.array(scores), kind="stable")]
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)  # every unmatched detection is a false positive
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)

    mrec = np.concatenate(([0.0], recall, [1.0]))
    # the precision envelope: the best precision at this rank or any later one
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def _weighted_overlap_stats(class_probs: np.ndarray, overlaps: np.ndarray) -> tuple[float, float]:
    """Probability-weighted mean and variance of ``overlaps``, each
    proposal's best IoU with one class's ground truth in one bag."""
    probs = np.asarray(class_probs, dtype=float)
    total = float(probs.sum())
    if total <= 0.0:
        warnings.warn("localization: all-zero probabilities; using uniform weights")
        w = np.full(len(probs), 1.0 / len(probs))
    else:
        w = probs / total
    acc = float((w * overlaps).sum())
    var = float((w * (overlaps - acc) ** 2).sum())
    return acc, var


def _ground_truth(bag: Bag) -> tuple[np.ndarray | None, dict[int, list[int]]]:
    """The bag's one (P, G) IoU table of its proposals with all its ground
    truth (None if it has none), and each class's columns of it."""
    gt = bag.ground_truth or []
    cols: dict[int, list[int]] = {}
    for j, (cls, _) in enumerate(gt):
        cols.setdefault(cls, []).append(j)
    table = iou_matrix(bag.box_array(), np.array([box.as_list() for _, box in gt])) if gt else None
    return table, cols


def _pair_tables(bag: Bag, table, cols) -> list[tuple[int, list[Box], np.ndarray]]:
    """Each positive class of the bag with ground truth, with those boxes and
    their columns of ``table``: the one place that decides which pairs count."""
    return [(cls, [bag.ground_truth[j][1] for j in cols[cls]], table[:, cols[cls]])
            for cls in bag.positive_classes().tolist() if cls in cols]


def _bag_pairs(bag: Bag, probs: np.ndarray, table, cols) -> list[_Pair]:
    """One row per positive class of the bag that has ground truth; ``table``
    and ``cols`` are the bag's ``_ground_truth``."""
    boxes = bag.box_array()
    tops = probs.argmax(axis=0).tolist()  # each class's top proposal
    pairs: list[_Pair] = []
    for cls, gt, class_table in _pair_tables(bag, table, cols):
        top = tops[cls]
        best = class_table.max(axis=1)
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
            pairs += _bag_pairs(bag, head_probs(params, bag.feature_matrix(), head),
                                *_ground_truth(bag))
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
    return [(bag, [(cls, t.max(axis=1)) for cls, _, t in _pair_tables(bag, *_ground_truth(bag))])
            for bag in ds.bags if any(bag.labels[c] == 1 for c, _ in bag.ground_truth or ())]


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


def evaluate(params: ModelParams, ds: Dataset, head=None, nms_iou: float = DEFAULT_NMS_IOU,
             score_floor: float = DEFAULT_SCORE_FLOOR) -> MetricsReport:
    """Every metric from one pass: each bag's probability table and its
    ground-truth table are computed once and feed both its detections and
    its pair rows."""
    # each class's detections as (score, hit) pairs, in bag and NMS order
    scores: list[list[float]] = [[] for _ in range(ds.num_classes)]
    hits: list[list[float]] = [[] for _ in range(ds.num_classes)]
    npos = [0] * ds.num_classes
    pairs: list[_Pair] = []
    for bag in ds.bags:
        probs = head_probs(params, bag.feature_matrix(), head)
        table, cols = _ground_truth(bag)
        pairs += _bag_pairs(bag, probs, table, cols)
        for cls, kept in _survivors(bag.box_array(), probs, nms_iou, score_floor):
            scores[cls] += probs[kept, cls].tolist()
            hits[cls] += _match(table[kept][:, cols[cls]]) if cls in cols else [0.0] * len(kept)
        for cls, js in cols.items():
            npos[cls] += len(js)

    per_class_ap = [_ap(scores[c], hits[c], npos[c]) for c in range(ds.num_classes)]
    per_class_corloc, mean_corloc = _corloc_of(pairs, ds.num_classes)
    loc_acc, loc_var = _loc_stats_of([(p.loc_acc, p.loc_var) for p in pairs])
    mean_ap = float(np.mean(per_class_ap)) if per_class_ap else 0.0
    return MetricsReport(per_class_ap=per_class_ap, mean_ap=mean_ap,
                         per_class_corloc=per_class_corloc, mean_corloc=mean_corloc,
                         pointing=_pointing_of(pairs), loc_acc=loc_acc, loc_var=loc_var)
