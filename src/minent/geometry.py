"""Axis-aligned box arithmetic: IoU, pairwise overlap tables, and greedy NMS.

Coordinates are continuous; areas are plain (x2-x1)*(y2-y1) with no
pixel +1 convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with strictly positive area."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2}): "
                "requires x1 < x2 and y1 < y2"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]

    @classmethod
    def from_list(cls, coords) -> "Box":
        if len(coords) != 4:
            raise ValueError(f"box needs 4 coordinates, got {len(coords)}")
        return cls(*(float(v) for v in coords))


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def boxes_to_array(boxes) -> np.ndarray:
    """Stack Box objects into an (n, 4) float array."""
    if len(boxes) == 0:
        return np.zeros((0, 4))
    return np.array([b.as_list() for b in boxes], dtype=float)


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of two broadcastable (..., 4) corner-format arrays, cell for cell:
    ``box_iou(boxes, box)`` scores every row of ``boxes`` against one box."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / np.maximum(area_a + area_b - inter, 1e-300)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (n, 4) / (m, 4) corner-format arrays."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    return box_iou(a[:, None], b[None, :])


def nms(boxes, scores, iou_threshold: float) -> list[int]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-scored remaining box and discards every
    remaining box whose IoU with it exceeds ``iou_threshold``.  Score ties
    are broken by lower original index.  Returns kept indices in descending
    score order.
    """
    n = len(boxes)
    if n != len(scores):
        raise ValueError(f"{n} boxes but {len(scores)} scores")
    if n == 0:
        return []
    arr = boxes if isinstance(boxes, np.ndarray) else boxes_to_array(boxes)
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    table = iou_matrix(arr, arr)
    kept: list[int] = []
    alive = np.ones(n, dtype=bool)
    for i in order:
        if not alive[i]:
            continue
        kept.append(int(i))
        alive &= table[i] <= iou_threshold
    return kept
