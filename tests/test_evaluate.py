import itertools
import warnings

import numpy as np
import pytest

import minent.evaluate as evaluate_module
import minent.geometry as geometry_module
from minent.data import Bag, Dataset, SynthConfig, generate_synthetic
from minent.evaluate import (
    Detection,
    average_precision,
    corloc,
    dataset_loc_stats,
    detect,
    evaluate,
    pointing,
)
from minent.geometry import Box, iou_matrix
from minent.model import init_params


def det(bag_id, score, box, cls=0):
    return Detection(bag_id=bag_id, cls=cls, box=box, score=score)


BOX_A = Box(0.0, 0.0, 1.0, 1.0)
BOX_A_NEAR = Box(0.05, 0.0, 1.05, 1.0)  # IoU ~ 0.9 with BOX_A
BOX_FAR = Box(3.0, 3.0, 4.0, 4.0)


def brute_force_ap(flags, npos):
    """Independent AP oracle: each true positive at rank k contributes
    (1/npos) * max precision over ranks >= k (all-points envelope)."""
    if npos == 0:
        return 0.0
    tp_cum = np.cumsum(flags)
    ranks = np.arange(1, len(flags) + 1)
    prec = tp_cum / ranks
    total = 0.0
    for k, is_tp in enumerate(flags):
        if is_tp:
            total += prec[k:].max() / npos
    return total


class TestAveragePrecision:
    def test_single_hit(self):
        dets = [det("b", 0.9, Box(0.0, 0.0, 1.0, 1.1))]  # IoU ~ 0.9
        assert average_precision(dets, {"b": [BOX_A]}) == pytest.approx(1.0)

    def test_single_miss(self):
        dets = [det("b", 0.9, Box(0.0, 0.0, 0.4, 1.0))]  # IoU 0.4
        assert average_precision(dets, {"b": [BOX_A]}) == pytest.approx(0.0)

    def test_hit_threshold_is_half(self):
        assert evaluate_module.HIT_IOU == 0.5
        at_half = det("b", 0.9, Box(0.0, 0.0, 0.5, 1.0))  # IoU exactly 0.5
        below = det("b", 0.9, Box(0.0, 0.0, 0.49, 1.0))
        assert average_precision([at_half], {"b": [BOX_A]}) == pytest.approx(1.0)
        assert average_precision([below], {"b": [BOX_A]}) == 0.0

    def test_hand_computed_tp_fp_tp(self):
        gts = {"b1": [BOX_A], "b2": [BOX_A]}
        dets = [
            det("b1", 0.9, BOX_A),        # TP
            det("b1", 0.8, BOX_FAR),      # FP
            det("b2", 0.7, BOX_A),        # TP
        ]
        assert average_precision(dets, gts) == pytest.approx(1.0 * 0.5 + (2 / 3) * 0.5, abs=1e-9)

    def test_duplicate_detection_is_fp(self):
        gts = {"b": [BOX_A]}
        dets = [det("b", 0.9, BOX_A), det("b", 0.8, BOX_A_NEAR)]
        # second hit on the same (already matched) gt counts as FP
        assert average_precision(dets, gts) == pytest.approx(1.0)
        flags = [1, 0]
        assert average_precision(dets, gts) == pytest.approx(brute_force_ap(flags, 1))

    def test_empty_everything_warns(self):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            assert average_precision([], {}) == 0.0
        assert any("no ground truths" in str(x.message) for x in w)

    def test_score_rank_only(self):
        gts = {"b1": [BOX_A], "b2": [BOX_A]}
        dets = [det("b1", 0.9, BOX_A), det("b1", 0.5, BOX_FAR), det("b2", 0.1, BOX_A)]
        base = average_precision(dets, gts)
        squashed = [det(d.bag_id, d.score**3 + 1.0, d.box) for d in dets]
        assert average_precision(squashed, gts) == pytest.approx(base)

    def test_matches_brute_force_on_all_small_patterns(self):
        # every TP/FP pattern up to 4 detections, against the rank oracle
        for n in range(1, 5):
            for flags in itertools.product([0, 1], repeat=n):
                npos = max(sum(flags), 1)
                gts = {f"b{i}": [BOX_A] for i, f in enumerate(flags) if f}
                dets = []
                for i, f in enumerate(flags):
                    score = 1.0 - i * 0.1
                    if f:
                        dets.append(det(f"b{i}", score, BOX_A))
                    else:
                        dets.append(det("bx", score, BOX_FAR))
                got = average_precision(dets, gts)
                want = brute_force_ap(list(flags), npos)
                assert got == pytest.approx(want, abs=1e-12), flags

    def test_all_matched_gives_one(self):
        gts = {"b1": [BOX_A], "b2": [BOX_A], "b3": [BOX_A]}
        dets = [det(b, 0.9 - i * 0.1, BOX_A) for i, b in enumerate(["b1", "b2", "b3"])]
        assert average_precision(dets, gts) == pytest.approx(1.0)


def reference_average_precision(detections, gts):
    """``average_precision`` as it was written before it cut one IoU table
    per bag: a 1 x G table and a fresh ground-truth array per detection,
    and the precision envelope as a Python loop."""
    npos = sum(len(v) for v in gts.values())
    if npos == 0 or not detections:
        return 0.0
    order = np.argsort(-np.array([d.score for d in detections]), kind="stable")
    matched = {bag_id: np.zeros(len(boxes), dtype=bool) for bag_id, boxes in gts.items()}
    tp = np.zeros(len(order))
    for rank, di in enumerate(order):
        d = detections[int(di)]
        cand = gts.get(d.bag_id, [])
        best_iou, best_j = 0.0, -1
        if cand:
            table = iou_matrix(np.array([d.box.as_list()]),
                               np.array([b.as_list() for b in cand]))[0]
            for j in range(len(cand)):
                if not matched[d.bag_id][j] and table[j] >= 0.5 and table[j] > best_iou:
                    best_iou, best_j = float(table[j]), j
        if best_j >= 0:
            matched[d.bag_id][best_j] = True
            tp[rank] = 1.0
    tp_cum, fp_cum = np.cumsum(tp), np.cumsum(1.0 - tp)
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def grid_box(rng):
    """A box on a half-unit grid, so that IoUs of exactly 0.5 (a 1 x 1 box
    and its 1 x 0.5 half, say) come up often."""
    x, y = rng.integers(0, 6, size=2) / 2
    w, h = rng.integers(1, 4, size=2) / 2
    return Box(x, y, x + w, y + h)


class TestAveragePrecisionOracle:
    def test_equals_reference_on_random_cases(self):
        rng = np.random.default_rng(15)
        at_half = 0
        for case in range(400):
            bag_ids = [f"b{i}" for i in range(int(rng.integers(1, 5)))]
            # some bags have no entry in gts, and some an empty list
            gts = {b: [grid_box(rng) for _ in range(int(rng.integers(0, 4)))]
                   for b in bag_ids if rng.random() < 0.8}
            dets = []
            for _ in range(int(rng.integers(0, 12))):
                bag_id = bag_ids[int(rng.integers(len(bag_ids)))]
                gt = gts.get(bag_id)
                if gt and rng.random() < 0.5:  # near a ground-truth box
                    g = gt[int(rng.integers(len(gt)))]
                    box = Box(g.x1, g.y1, g.x2, g.y1 + (g.y2 - g.y1) * rng.choice([0.5, 1.0]))
                else:
                    box = grid_box(rng)
                # few distinct scores: many ties
                dets.append(det(bag_id, float(rng.integers(0, 4)) / 4, box))
            at_half += sum(any(iou_matrix(np.array([d.box.as_list()]), np.array([g.as_list()]))[0, 0]
                               == 0.5 for g in gts.get(d.bag_id, [])) for d in dets)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = average_precision(dets, gts)
            assert got == reference_average_precision(dets, gts), case
        assert at_half > 100

    def test_one_table_per_bag(self, monkeypatch):
        shapes = []
        real = evaluate_module.iou_matrix

        def counted(a, b):
            shapes.append((len(a), len(b)))
            return real(a, b)

        monkeypatch.setattr(evaluate_module, "iou_matrix", counted)
        gts = {"b1": [BOX_A, BOX_FAR], "b2": [BOX_A], "empty": []}
        dets = [det("b1", 0.9, BOX_A), det("b2", 0.8, BOX_A), det("b1", 0.7, BOX_A_NEAR),
                det("empty", 0.6, BOX_A), det("missing", 0.5, BOX_A), det("b1", 0.4, BOX_FAR)]
        assert average_precision(dets, gts) == reference_average_precision(dets, gts)
        assert shapes == [(3, 2), (1, 1)]


def linear_bag(bag_id, boxes, features, labels, gt=None):
    return Bag(id=bag_id, labels=labels, features=features,
               boxes=[b.as_list() for b in boxes], ground_truth=gt)


def pick_params(num_classes=2, feature_dim=2, branches=1):
    """Linear params whose head copies feature coordinates to class scores."""
    p = init_params(feature_dim, num_classes, branches, scale=0.0)
    for k in range(branches):
        for c in range(num_classes):
            p.loc_w[k][c, c] = 5.0
    for c in range(num_classes):
        p.disc_w[c, c] = 5.0
    return p


class TestDetect:
    def test_single_proposal_single_detection(self):
        bag = linear_bag("b", [BOX_A], [[2.0, 0.0]], [1, 0])
        dets = detect(pick_params(), bag)
        classes = {d.cls for d in dets}
        assert 0 in classes
        d0 = [d for d in dets if d.cls == 0][0]
        assert d0.box == BOX_A and d0.bag_id == "b"

    def test_identical_boxes_collapse_to_one_per_class(self):
        bag = linear_bag("b", [BOX_A, BOX_A], [[2.0, 0.0], [2.0, 0.0]], [1, 0])
        dets = detect(pick_params(), bag)
        per_class = {}
        for d in dets:
            per_class.setdefault(d.cls, []).append(d)
        for cls, lst in per_class.items():
            assert len(lst) == 1

    def test_infinite_floor_empty(self):
        bag = linear_bag("b", [BOX_A], [[2.0, 0.0]], [1, 0])
        assert detect(pick_params(), bag, score_floor=float("inf")) == []

    def test_head_selection(self):
        p = pick_params(branches=2)
        p.loc_w[1][:, :] = 0.0
        p.loc_w[1][0, 1] = 5.0  # branch 1 maps coordinate 0 to class 1
        bag = linear_bag("b", [BOX_A, BOX_FAR], [[3.0, 0.0], [0.0, 0.0]], [1, 1])
        d_final = detect(p, bag)  # default: final branch (index 1)
        top_final = max((d for d in d_final if d.cls == 1), key=lambda d: d.score)
        assert top_final.box == BOX_A
        d_disc = detect(p, bag, head="disc")
        top_disc = max((d for d in d_disc if d.cls == 0), key=lambda d: d.score)
        assert top_disc.box == BOX_A


NO_CLASS_1 = "corloc: class 1 has no positive bags with ground truth"


class TestCorlocPointing:
    def make_ds(self, top_feature):
        # two proposals: the gt box and a far box; features decide the top one
        bags = [
            linear_bag(
                "b0",
                [BOX_A, BOX_FAR],
                top_feature,
                [1, 0],
                gt=[(0, BOX_A)],
            )
        ]
        return Dataset(classes=["x", "y"], feature_dim=2, bags=bags)

    def test_corloc_correct(self):
        ds = self.make_ds([[3.0, 0.0], [0.0, 0.0]])
        with pytest.warns(UserWarning, match=NO_CLASS_1):
            per_class, mean = corloc(pick_params(), ds)
        assert per_class[0] == 1.0
        assert per_class[1] is None  # no positive bags for class 1
        assert mean == 1.0

    def test_corloc_incorrect(self):
        ds = self.make_ds([[0.0, 0.0], [3.0, 0.0]])  # far box scores higher
        with pytest.warns(UserWarning, match=NO_CLASS_1):
            per_class, mean = corloc(pick_params(), ds)
        assert per_class[0] == 0.0

    def test_corloc_two_bags_half(self):
        good = linear_bag("g", [BOX_A, BOX_FAR], [[3.0, 0.0], [0.0, 0.0]], [1, 0], gt=[(0, BOX_A)])
        bad = linear_bag("b", [BOX_A, BOX_FAR], [[0.0, 0.0], [3.0, 0.0]], [1, 0], gt=[(0, BOX_A)])
        ds = Dataset(classes=["x", "y"], feature_dim=2, bags=[good, bad])
        with pytest.warns(UserWarning, match=NO_CLASS_1):
            per_class, _ = corloc(pick_params(), ds)
        assert per_class[0] == 0.5

    def test_corloc_threshold_is_half(self):
        # top proposal at IoU just below 0.5 is wrong
        near_miss = Box(0.0, 0.0, 0.49, 1.0)
        bag = linear_bag("b", [near_miss, BOX_FAR], [[3.0, 0.0], [0.0, 0.0]], [1, 0], gt=[(0, BOX_A)])
        ds = Dataset(classes=["x", "y"], feature_dim=2, bags=[bag])
        with pytest.warns(UserWarning, match=NO_CLASS_1):
            per_class, _ = corloc(pick_params(), ds)
        assert per_class[0] == 0.0

    def test_pointing_inside_and_outside(self):
        ds = self.make_ds([[3.0, 0.0], [0.0, 0.0]])
        assert pointing(pick_params(), ds) == 1.0
        ds_far = self.make_ds([[0.0, 0.0], [3.0, 0.0]])
        assert pointing(pick_params(), ds_far) == 0.0

    def test_pointing_covering_box_counts(self):
        # top proposal strictly contains the gt; its center lies inside the gt
        cover = Box(-0.5, -0.5, 1.5, 1.5)
        bag = linear_bag("b", [cover, BOX_FAR], [[3.0, 0.0], [0.0, 0.0]], [1, 0], gt=[(0, BOX_A)])
        ds = Dataset(classes=["x", "y"], feature_dim=2, bags=[bag])
        assert pointing(pick_params(), ds) == 1.0


class TestLocalizationStats:
    """The probability-weighted mean and variance of each proposal's best
    overlap with ground truth, read from ``dataset_loc_stats`` on one bag
    whose class-0 probabilities follow each proposal's first feature."""

    @staticmethod
    def stats(boxes, first_features, *others):
        bag = linear_bag("b", boxes, [[f, 0.0] for f in first_features], [1, 0], gt=[(0, BOX_A)])
        ds = Dataset(classes=["x", "y"], feature_dim=2, bags=[bag, *others])
        return dataset_loc_stats(pick_params(), ds)

    def test_point_mass(self):
        acc, var = self.stats([BOX_A, BOX_FAR], [200.0, 0.0])
        assert acc == pytest.approx(1.0)
        assert var == pytest.approx(0.0)

    def test_uniform_weights(self):
        acc, var = self.stats([BOX_A, BOX_FAR], [0.0, 0.0])
        assert acc == pytest.approx(0.5)
        assert var == pytest.approx(0.25)

    def test_single_proposal_zero_variance(self):
        acc, var = self.stats([BOX_A], [0.8])
        assert acc == pytest.approx(1.0)
        assert var == 0.0

    def test_all_zero_probs_fall_back_to_uniform(self):
        # class 0's cells underflow to 0.0 beside class 1's
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            acc, _ = self.stats([BOX_A, BOX_FAR], [-200.0, -200.0])
        assert acc == pytest.approx(0.5)
        assert any("uniform" in str(x.message) for x in w)

    def test_requires_ground_truth(self):
        # a positive bag without ground truth is no pair: it moves nothing
        no_gt = linear_bag("n", [BOX_FAR, BOX_A], [[200.0, 0.0], [0.0, 0.0]], [1, 0])
        alone = self.stats([BOX_A, BOX_FAR], [0.0, 1.0])
        assert self.stats([BOX_A, BOX_FAR], [0.0, 1.0], no_gt) == alone
        only = Dataset(classes=["x", "y"], feature_dim=2, bags=[no_gt])
        assert dataset_loc_stats(pick_params(), only) == (0.0, 0.0)

    def test_variance_zero_iff_constant_overlap(self):
        boxes = [BOX_A, BOX_A, BOX_FAR]
        # weight only the two identical boxes: overlap constant -> var 0
        _, var = self.stats(boxes, [1.0, 1.2, -200.0])
        assert var == pytest.approx(0.0)
        # spread weight across different overlaps -> var > 0
        _, var2 = self.stats(boxes, [1.0, 0.5, 1.0])
        assert var2 > 0


class TestEvaluate:
    def make_ds(self):
        good = linear_bag("g", [BOX_A, BOX_FAR], [[3.0, 0.0], [0.0, 0.0]], [1, 0], gt=[(0, BOX_A)])
        other = linear_bag(
            "o", [BOX_A, BOX_FAR], [[0.0, 0.0], [0.0, 3.0]], [0, 1], gt=[(1, BOX_FAR)]
        )
        return Dataset(classes=["x", "y"], feature_dim=2, bags=[good, other])

    def test_report_structure_and_ranges(self):
        report = evaluate(pick_params(), self.make_ds())
        d = report.to_dict()
        assert set(d) == {
            "per_class_ap", "mAP", "per_class_corloc", "mean_corloc",
            "pointing", "localization_accuracy", "localization_variance",
        }
        assert 0.0 <= d["mAP"] <= 1.0
        assert 0.0 <= d["mean_corloc"] <= 1.0
        assert d["per_class_ap"][0] == pytest.approx(1.0)

    def test_perfect_model_full_marks(self):
        report = evaluate(pick_params(), self.make_ds())
        assert report.mean_corloc == pytest.approx(1.0)
        assert report.pointing == pytest.approx(1.0)

    def test_dataset_loc_stats_aggregates(self):
        acc, var = dataset_loc_stats(pick_params(), self.make_ds())
        assert 0.0 <= acc <= 1.0
        assert var >= 0.0


class TestOnePass:
    """``evaluate`` reads every metric from one probability table per bag,
    and each lone metric agrees with it."""

    def make_ds(self):
        boxes = [BOX_A, BOX_FAR, BOX_A_NEAR]
        bags = [
            linear_bag("neg", boxes, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                       [0, 0, 0]),
            linear_bag("no-gt", boxes, [[3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                       [1, 0, 0]),
            # class 0's top box hits its ground truth; class 1's misses
            linear_bag("two", boxes, [[3.0, 3.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                       [1, 1, 0], gt=[(0, BOX_A), (1, BOX_FAR)]),
            linear_bag("one", boxes, [[0.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 1.0, 0.0]],
                       [0, 1, 0], gt=[(1, BOX_FAR)]),
        ]
        return Dataset(classes=["x", "y", "z"], feature_dim=3, bags=bags)

    def test_head_probs_runs_once_per_bag(self, monkeypatch):
        calls = []
        real = evaluate_module.head_probs

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, "head_probs", counted)
        ds = self.make_ds()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evaluate(pick_params(3, 3), ds)
        assert len(calls) == len(ds.bags)

    @pytest.mark.parametrize("head, want_corloc, want_pointing", [
        # the default head, branch 1, scores nothing: every tie goes to BOX_A
        (None, [1.0, 0.0, None], 1 / 3),
        (0, [1.0, 0.5, None], 2 / 3),
        ("disc", [1.0, 0.5, None], 2 / 3),
    ])
    def test_report_equals_lone_metrics(self, head, want_corloc, want_pointing):
        p, ds = pick_params(3, 3, branches=2), self.make_ds()
        p.loc_w[1][:, :] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = evaluate(p, ds, head=head)
            per_class, mean = corloc(p, ds, head=head)
            point = pointing(p, ds, head=head)
            stats = dataset_loc_stats(p, ds, head=head)
        assert report.per_class_corloc == per_class
        assert report.mean_corloc == mean
        assert report.pointing == point
        assert (report.loc_acc, report.loc_var) == stats
        # the pairs that count: ("two", 0), ("two", 1) and ("one", 1)
        assert [str(w.message) for w in caught].count(
            "corloc: class 2 has no positive bags with ground truth") == 2
        assert per_class == want_corloc
        assert point == want_pointing


class TestArrayPath:
    """``evaluate`` ranks detections as (score, hit) pairs: it builds no
    ``Detection``, one ``Box`` per pair (its top proposal's center), and
    two IoU tables per bag, one for NMS and one with ground truth."""

    def test_objects_and_tables_per_bag(self, monkeypatch):
        built = {"Detection": 0, "Box": 0}
        for name in built:
            def counted(*args, _name=name, _real=getattr(evaluate_module, name)):
                built[_name] += 1
                return _real(*args)
            monkeypatch.setattr(evaluate_module, name, counted)
        events = []
        real_head_probs, real_iou = evaluate_module.head_probs, evaluate_module.iou_matrix
        real_self_iou = geometry_module.self_iou_table

        def marked_head_probs(*args, **kwargs):
            events.append("bag")
            return real_head_probs(*args, **kwargs)

        def counted_iou(a, b):
            events.append("nms" if a is b else "gt")
            return real_iou(a, b)

        def counted_self_iou(*args):
            events.append("nms")
            return real_self_iou(*args)

        monkeypatch.setattr(evaluate_module, "head_probs", marked_head_probs)
        monkeypatch.setattr(evaluate_module, "iou_matrix", counted_iou)
        # a table that nms builds for itself, or one per class, counts too
        monkeypatch.setattr(evaluate_module, "self_iou_table", counted_self_iou)
        monkeypatch.setattr(geometry_module, "self_iou_table", counted_self_iou)
        ds = generate_synthetic(SynthConfig(num_classes=3, bags_per_class=3, negatives=2,
                                            proposals_per_bag=12, feature_dim=9, seed=1))
        params = init_params(9, 3, branches=2, seed=2, scale=1.0)
        report = evaluate(params, ds, score_floor=0.0)

        assert built["Detection"] == 0
        pairs = sum(bag.labels[c] == 1 for bag in ds.bags
                    for c in {c for c, _ in bag.ground_truth or ()})
        assert 0 < built["Box"] <= pairs
        per_bag = " ".join(events).split("bag")[1:]
        assert len(per_bag) == len(ds.bags)
        for bag, tables in zip(ds.bags, per_bag):
            # at a zero floor every bag has candidates
            assert tables.split() == (["gt", "nms"] if bag.ground_truth else ["nms"])
        assert 0.0 < report.mean_ap < 1.0
