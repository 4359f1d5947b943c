import tracemalloc

import numpy as np
import pytest

from minent.entropy import tau_graph
from minent.geometry import IOU_BLOCK, Box, box_iou, iou_matrix, nms, self_iou_table


def scalar_iou(a: Box, b: Box) -> float:
    """Independent oracle: the IoU of two boxes, one pair at a time."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter)


def pair_iou(a: Box, b: Box) -> float:
    """The one cell of ``iou_matrix`` for a single pair of boxes."""
    return float(iou_matrix(np.array([a.as_list()]), np.array([b.as_list()]))[0, 0])


def test_box_rejects_degenerate():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Box(0, 0, 1, 0)
    with pytest.raises(ValueError):
        Box(2, 0, 1, 1)


def test_box_from_list_roundtrip():
    b = Box.from_list([1, 2, 3, 5])
    assert b.as_list() == [1.0, 2.0, 3.0, 5.0]
    assert b.center == (2.0, 3.5)
    with pytest.raises(ValueError):
        Box.from_list([1, 2, 3])


def test_iou_identity():
    b = Box(0, 0, 10, 10)
    assert pair_iou(b, b) == 1.0


def test_iou_disjoint():
    assert pair_iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0


def test_iou_touching_edge_is_zero():
    assert pair_iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0


def test_iou_known_value():
    # unit overlap 1, union 4 + 4 - 1 = 7
    a = Box(0, 0, 2, 2)
    b = Box(1, 1, 3, 3)
    assert pair_iou(a, b) == pytest.approx(1.0 / 7.0)


def test_iou_contained():
    outer = Box(0, 0, 4, 4)
    inner = Box(1, 1, 3, 3)
    assert pair_iou(outer, inner) == pytest.approx(4.0 / 16.0)


def test_iou_symmetry_and_range_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x1, y1 = rng.uniform(0, 50, size=2)
        a = Box(x1, y1, x1 + rng.uniform(1, 20), y1 + rng.uniform(1, 20))
        x1, y1 = rng.uniform(0, 50, size=2)
        b = Box(x1, y1, x1 + rng.uniform(1, 20), y1 + rng.uniform(1, 20))
        v = pair_iou(a, b)
        assert v == pair_iou(b, a)
        assert 0.0 <= v <= 1.0


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    boxes = []
    for _ in range(12):
        x1, y1 = rng.uniform(0, 30, size=2)
        boxes.append(Box(x1, y1, x1 + rng.uniform(1, 15), y1 + rng.uniform(1, 15)))
    arr = np.array([b.as_list() for b in boxes])
    table = iou_matrix(arr, arr)
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            np.testing.assert_allclose(table[i, j], scalar_iou(a, b), atol=1e-12)
    np.testing.assert_allclose(np.diag(table), 1.0)


def clip_form_iou_matrix(a, b):
    """``iou_matrix`` as it was written with ``np.clip(x, 0.0, None)``."""
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return inter / np.maximum(union, 1e-300)


def test_iou_matrix_bytes_match_the_clip_form():
    # the generator's accept decisions and eval's NMS read these cells, so
    # the table must keep every bit, the sign of a zero included
    boxes = np.array([
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 2.0, 1.0],  # touches the first along an edge
        [1.0, 1.0, 2.0, 2.0],  # touches it at a corner
        [5.0, 5.0, 6.0, 7.0],  # disjoint from all others
        [0.25, 0.25, 0.5, 0.75],  # nested in the first
        [-2.0, -3.0, -0.0, -0.0],  # negative coordinates; its -0.0 corner touches the first
        [-1.5, -2.5, -0.5, -0.5],  # nested in the one before
        [-0.5, -0.5, 0.5, 0.5],  # straddles the origin
    ])
    rng = np.random.default_rng(24)
    corners = rng.uniform(-3, 3, size=(40, 2)).round(1)
    rand = np.hstack([corners, corners + rng.uniform(0.1, 2, size=(40, 2)).round(1)])
    for a, b in ((boxes, boxes), (rand, rand), (boxes, rand)):
        want = clip_form_iou_matrix(a, b)
        assert iou_matrix(a, b).tobytes() == want.tobytes()
        for j in range(len(b)):
            assert box_iou(a, b[j]).tobytes() == want[:, j].tobytes()


def test_iou_matrix_empty():
    arr = np.zeros((0, 4))
    other = np.array([[0.0, 0.0, 1.0, 1.0]])
    assert iou_matrix(arr, other).shape == (0, 1)
    assert iou_matrix(other, arr).shape == (1, 0)


def test_nms_empty():
    assert nms([], [], 0.5) == []


def test_nms_single():
    assert nms([[0, 0, 1, 1]], [0.3], 0.5) == [0]


def test_nms_suppresses_heavy_overlap():
    boxes = np.array([[0, 0, 10, 10], [1, 1, 10.5, 10.5], [20, 20, 30, 30]])
    kept = nms(boxes, [0.9, 0.8, 0.7], 0.5)
    assert kept == [0, 2]


def test_nms_keeps_light_overlap():
    boxes = np.array([[0, 0, 10, 10], [8, 8, 18, 18]])
    kept = nms(boxes, [0.5, 0.9], 0.5)
    assert kept == [1, 0]


def test_nms_tie_breaks_by_lower_index():
    boxes = np.array([[0, 0, 10, 10], [0.5, 0.5, 10, 10]])
    kept = nms(boxes, [0.7, 0.7], 0.3)
    assert kept == [0]


def test_nms_descending_and_disjoint_survival():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        boxes = []
        for k in range(n):
            # spread far apart on a diagonal: all pairwise disjoint
            o = 100.0 * k
            boxes.append([o, o, o + rng.uniform(1, 5), o + rng.uniform(1, 5)])
        scores = rng.uniform(0, 1, size=n)
        kept = nms(boxes, scores, 0.5)
        # nothing overlaps, so everything survives, in score order
        assert sorted(kept) == list(range(n))
        kept_scores = [scores[i] for i in kept]
        assert kept_scores == sorted(kept_scores, reverse=True)


def test_nms_threshold_boundary_is_strict():
    # IoU exactly at threshold is NOT suppressed (strictly-greater rule)
    boxes = [[0, 0, 2, 2], [1, 1, 3, 3]]  # IoU = 1/7
    kept = nms(boxes, [1.0, 0.5], 1.0 / 7.0)
    assert kept == [0, 1]


def test_nms_length_mismatch():
    with pytest.raises(ValueError):
        nms([[0, 0, 1, 1]], [0.5, 0.6], 0.5)


def test_iou_matrix_bits_equal_box_iou_broadcast():
    # one table in place must give each cell box_iou's bits, zeros' signs included
    unit = [0.0, 0.0, 1.0, 1.0]
    cases = {
        "disjoint": ([unit], [[3.0, 3.0, 4.0, 5.0], [-2.0, -2.0, -1.0, -1.5]]),
        "touching": ([unit], [[1.0, 0.0, 2.0, 1.0], [1.0, 1.0, 2.0, 2.0], [-1.0, -1.0, -0.0, -0.0]]),
        "nested": ([unit, [0.25, 0.25, 0.75, 0.5]], [[0.25, 0.25, 0.75, 0.5], [-1.0, -1.0, 2.0, 2.0]]),
        "identical": ([unit, [0.1, 0.2, 0.7, 0.9]], [unit, [0.1, 0.2, 0.7, 0.9]]),
        "no boxes": (np.zeros((0, 4)), [unit]),
    }
    for name, (a, b) in cases.items():
        a, b = np.array(a), np.array(b)
        for x, y in ((a, b), (b, a), (a, a)):
            want, got = box_iou(x[:, None], y[None, :]), iou_matrix(x, y)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    rng = np.random.default_rng(26)
    for _ in range(200):
        n, m = rng.integers(0, 20, size=2)
        corners = rng.uniform(-2, 2, size=(n + m, 2)).round(int(rng.integers(0, 3)))
        boxes = np.hstack([corners, corners + rng.uniform(0.1, 2, size=(n + m, 2)).round(1)])
        a, b = boxes[:n], boxes[n:]
        assert iou_matrix(a, b).tobytes() == box_iou(a[:, None], b[None, :]).tobytes()


def reference_nms(boxes, scores, iou_threshold):
    """``nms`` as it was written with one numpy mask read per candidate."""
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    table = iou_matrix(boxes, boxes)
    kept, alive = [], np.ones(len(boxes), dtype=bool)
    for i in order:
        if alive[i]:
            kept.append(int(i))
            alive &= table[i] <= iou_threshold
    return kept


def test_nms_equals_reference_on_random_cases():
    # boxes on a half-unit grid hit IoU 1/2, 1/3 and 1/4 exactly, and few
    # distinct scores tie often
    rng = np.random.default_rng(27)
    at_threshold = 0
    for case in range(300):
        n = int(rng.integers(1, 40)) if case % 10 else 200  # survivor bits past 64
        corners = rng.integers(0, 6, size=(n, 2)) / 2
        boxes = np.hstack([corners, corners + rng.integers(1, 4, size=(n, 2)) / 2])
        scores = rng.integers(0, 5, size=n) / 4
        threshold = [0.5, 1 / 3, 0.25, 0.4, 0.0, 1.0][case % 6]
        at_threshold += int((iou_matrix(boxes, boxes) == threshold).sum())
        assert nms(boxes, scores, threshold) == reference_nms(boxes, scores, threshold), case
    assert at_threshold > 1000


def self_overlap_boxes(rng, n):
    """``n`` boxes on a half-unit grid, whose pairs hit IoU 1/2, 1/3 and 1/4
    exactly, with duplicates, a NaN box and boxes on signed zeros."""
    corners = rng.integers(0, 6, size=(n, 2)) / 2
    boxes = np.hstack([corners, corners + rng.integers(1, 4, size=(n, 2)) / 2])
    special = [[-0.0, -0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [-0.0, 0.0, 0.5, 1.0],
               [np.nan, 0.0, 1.0, 1.0]]
    for i, box in zip(rng.permutation(n)[:len(special)].tolist(), special):
        boxes[i] = box
    if n > 5:
        boxes[rng.integers(0, n, size=n // 5)] = boxes[rng.integers(0, n, size=n // 5)]
    return boxes


def test_self_iou_table_equals_the_full_table():
    rng = np.random.default_rng(37)
    at_threshold = 0
    for n in (0, 1, 2, 127, 128, 129, 257, 300):
        boxes = self_overlap_boxes(rng, n)
        full = iou_matrix(boxes, boxes)
        for threshold in (0.5, 1 / 3, 0.25, 0.0, 1.0, 0.7):
            at_threshold += int((full == threshold).sum())
            for compare in (np.greater, np.less_equal):
                table = self_iou_table(boxes, threshold, compare)
                assert table.dtype == bool and table.shape == (n, n)
                assert np.array_equal(table, compare(full, threshold)), (n, threshold, compare)
    assert at_threshold > 10000
    # the NaN box's cells are neither above nor at most the threshold
    nan_box = np.array([[np.nan, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    assert not self_iou_table(nan_box, 0.5, np.greater)[0].any()
    assert not self_iou_table(nan_box, 0.5, np.less_equal)[0].any()
    assert IOU_BLOCK == 128  # the sizes above straddle one and two blocks


def test_nms_and_tau_graph_hold_no_full_float_table():
    # 1000 boxes: a full (P, P) float table is 8 MB, and the one-shot IoU
    # table and its temporaries peaked near 23 MB
    rng = np.random.default_rng(38)
    corners = rng.uniform(0, 10, size=(1000, 2))
    boxes = np.hstack([corners, corners + rng.uniform(0.5, 3, size=(1000, 2))])
    scores = rng.uniform(size=1000)
    for build in (lambda: tau_graph(boxes, 0.7), lambda: nms(boxes, scores, 0.4)):
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak
