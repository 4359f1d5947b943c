"""Axis-aligned boxes, pairwise IoU tables, and greedy NMS.

Coordinates are continuous; areas are plain (x2-x1)*(y2-y1) with no
pixel +1 convention.  A box set's overlaps with itself are wanted only
against a threshold, so ``self_iou_table`` keeps them as bits and never
holds more than ``IOU_BLOCK`` rows of floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IOU_BLOCK = 128  # rows of floats per block of a self-overlap table


@dataclass(frozen=True, slots=True)
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
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]

    @classmethod
    def from_list(cls, coords) -> "Box":
        if len(coords) != 4:
            raise ValueError(f"box needs 4 coordinates, got {len(coords)}")
        return cls(*(float(v) for v in coords))


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
    """Pairwise IoU between two (n, 4) / (m, 4) corner-format arrays.

    Each cell has the bits of ``box_iou(a[:, None], b[None, :])``: the same
    operations on the same operands, in the same order, done in place in
    the (n, m) table and one scratch array (the y overlap's lower edges
    need one more table for a moment), not in about thirteen temporaries.
    """
    ax1, ay1, ax2, ay2 = np.asarray(a, dtype=float).reshape(-1, 4).T
    bx1, by1, bx2, by2 = np.asarray(b, dtype=float).reshape(-1, 4).T
    table = np.minimum.outer(ax2, bx2)
    scratch = np.maximum.outer(ax1, bx1)
    table -= scratch
    np.maximum(table, 0.0, out=table)
    np.minimum.outer(ay2, by2, out=scratch)
    scratch -= np.maximum.outer(ay1, by1)
    np.maximum(scratch, 0.0, out=scratch)
    table *= scratch  # the intersections
    np.add.outer((ax2 - ax1) * (ay2 - ay1), (bx2 - bx1) * (by2 - by1), out=scratch)
    scratch -= table
    np.maximum(scratch, 1e-300, out=scratch)
    table /= scratch
    return table


def self_iou_table(boxes, threshold: float, compare) -> np.ndarray:
    """The (n, n) bool table ``compare(iou_matrix(boxes, boxes), threshold)``.

    Each block of ``IOU_BLOCK`` rows is scored against itself and the boxes
    after it, and mirrored below the diagonal: a cell's IoU has the same
    bits in either order, so every cell equals the full table's, and a NaN
    cell is what ``compare`` makes of NaN.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    table = np.empty((len(boxes), len(boxes)), dtype=bool)
    for start in range(0, len(boxes), IOU_BLOCK):
        rows = slice(start, start + IOU_BLOCK)
        block = compare(iou_matrix(boxes[rows], boxes[start:]), threshold)
        table[rows, start:] = block
        table[start:, rows] = block.T
    return table


def nms(boxes, scores, iou_threshold: float, keeps=None) -> list[int]:
    """Greedy non-maximum suppression of an (n, 4) corner-format array-like.

    Repeatedly keeps the highest-scored remaining box and discards every
    remaining box whose IoU with it exceeds ``iou_threshold``.  Score ties
    are broken by lower original index.  Returns kept indices in descending
    score order.  ``keeps``, if given, is ``self_iou_table(boxes,
    iou_threshold, np.less_equal)``, cut by a caller that suppresses the
    same boxes for several score columns.

    The pass reads no array per candidate: bit ``j`` of the Python int
    ``alive`` says whether box ``j`` survives, and keeping box ``i`` ands in
    row ``i`` of ``keeps``, packed as bits.
    """
    n = len(boxes)
    if n != len(scores):
        raise ValueError(f"{n} boxes but {len(scores)} scores")
    if n == 0:
        return []
    if keeps is None:
        keeps = self_iou_table(boxes, iou_threshold, np.less_equal)
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable").tolist()
    width = (n + 7) // 8  # bytes per row of bits
    rows = np.packbits(keeps, axis=1, bitorder="little").tobytes()
    alive = (1 << n) - 1
    kept: list[int] = []
    for i in order:
        if alive >> i & 1:
            kept.append(i)
            alive &= int.from_bytes(rows[i * width : (i + 1) * width], "little")
    return kept
