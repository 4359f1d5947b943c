import itertools
import warnings

import numpy as np
import pytest

import minent.evaluate as evaluate_module
from minent.data import Bag, Dataset
from minent.evaluate import (
    Detection,
    average_precision,
    corloc,
    dataset_loc_stats,
    detect,
    evaluate,
    localization_stats,
    pointing,
)
from minent.geometry import Box
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
    def test_point_mass(self):
        boxes = np.array([BOX_A.as_list(), BOX_FAR.as_list()])
        acc, var = localization_stats(np.array([1.0, 0.0]), boxes, [BOX_A])
        assert acc == pytest.approx(1.0)
        assert var == pytest.approx(0.0)

    def test_uniform_weights(self):
        boxes = np.array([BOX_A.as_list(), BOX_FAR.as_list()])
        acc, var = localization_stats(np.array([0.5, 0.5]), boxes, [BOX_A])
        assert acc == pytest.approx(0.5)
        assert var == pytest.approx(0.25)

    def test_single_proposal_zero_variance(self):
        acc, var = localization_stats(np.array([0.8]), np.array([BOX_A.as_list()]), [BOX_A])
        assert acc == pytest.approx(1.0)
        assert var == 0.0

    def test_all_zero_probs_fall_back_to_uniform(self):
        boxes = np.array([BOX_A.as_list(), BOX_FAR.as_list()])
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            acc, _ = localization_stats(np.zeros(2), boxes, [BOX_A])
        assert acc == pytest.approx(0.5)
        assert any("uniform" in str(x.message) for x in w)

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            localization_stats(np.array([1.0]), np.array([BOX_A.as_list()]), [])

    def test_variance_zero_iff_constant_overlap(self):
        rng = np.random.default_rng(0)
        boxes = np.array([BOX_A.as_list(), BOX_A.as_list(), BOX_FAR.as_list()])
        # weight only the two identical boxes: overlap constant -> var 0
        _, var = localization_stats(np.array([0.4, 0.6, 0.0]), boxes, [BOX_A])
        assert var == pytest.approx(0.0)
        # spread weight across different overlaps -> var > 0
        _, var2 = localization_stats(np.array([0.4, 0.1, 0.5]), boxes, [BOX_A])
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
