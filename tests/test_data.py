import json

import numpy as np
import pytest

from minent.data import (
    Bag,
    DataError,
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from minent.geometry import Box, iou_matrix


def tiny_dataset():
    bag = Bag(
        id="b0",
        labels=np.array([1]),
        features=[[1.0, 2.0, 3.0]],
        boxes=[[0.1, 0.1, 0.5, 0.5]],
        ground_truth=[(0, Box(0.1, 0.1, 0.5, 0.5))],
    )
    return Dataset(classes=["thing"], feature_dim=3, bags=[bag])


class TestSchema:
    def test_minimal_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "ds.json"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert back.classes == ["thing"]
        assert back.feature_dim == 3
        assert len(back.bags) == 1
        assert back.bags[0].id == "b0"
        np.testing.assert_array_equal(back.bags[0].labels, [1])
        np.testing.assert_allclose(back.bags[0].features, [[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(back.bags[0].boxes, [[0.1, 0.1, 0.5, 0.5]])
        cls, box = back.bags[0].ground_truth[0]
        assert cls == 0
        assert box == Box(0.1, 0.1, 0.5, 0.5)

    def test_save_is_byte_stable(self, tmp_path):
        ds = tiny_dataset()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(ds, str(a))
        save_dataset(ds, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_feature_length_mismatch_names_bag(self, tmp_path):
        ds = tiny_dataset()
        ds.bags[0].features = np.ones((1, 2))
        with pytest.raises(DataError, match="b0"):
            save_dataset(ds, str(tmp_path / "x.json"))

    def test_load_rejects_bad_feature_length(self, tmp_path):
        path = tmp_path / "ds.json"
        doc = {
            "classes": ["a"],
            "feature_dim": 3,
            "bags": [
                {
                    "id": "bagX",
                    "labels": [1],
                    "proposals": [{"box": [0, 0, 1, 1], "feature": [1.0, 2.0]}],
                }
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="bagX"):
            load_dataset(str(path))

    def test_load_rejects_bad_labels_length(self, tmp_path):
        path = tmp_path / "ds.json"
        doc = {
            "classes": ["a", "b"],
            "feature_dim": 1,
            "bags": [
                {"id": "bagY", "labels": [1], "proposals": [{"box": [0, 0, 1, 1], "feature": [0.5]}]}
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="bagY"):
            load_dataset(str(path))

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"classes": ["a"], "bags": []}))
        with pytest.raises(DataError, match="feature_dim"):
            load_dataset(str(path))

    def test_empty_dataset_rejected_before_write(self, tmp_path):
        ds = Dataset(classes=["a"], feature_dim=2, bags=[])
        target = tmp_path / "never.json"
        with pytest.raises(DataError):
            save_dataset(ds, str(target))
        assert not target.exists()

    def test_bag_without_proposals_rejected(self):
        ds = Dataset(
            classes=["a"],
            feature_dim=2,
            bags=[Bag(id="e", labels=np.array([0]), features=np.zeros((0, 2)),
                      boxes=np.zeros((0, 4)))],
        )
        with pytest.raises(DataError, match="'e'"):
            validate_dataset(ds)

    def test_duplicate_bag_id_rejected(self):
        ds = tiny_dataset()
        ds.bags.append(ds.bags[0])
        with pytest.raises(DataError, match="duplicate"):
            validate_dataset(ds)

    def test_gt_class_out_of_range(self):
        ds = tiny_dataset()
        ds.bags[0].ground_truth = [(3, Box(0, 0, 1, 1))]
        with pytest.raises(DataError, match="out of range"):
            validate_dataset(ds)

    def test_training_view_strips_ground_truth(self):
        ds = tiny_dataset()
        view = ds.training_view()
        assert view.bags[0].ground_truth is None
        assert ds.bags[0].ground_truth is not None  # original untouched
        assert view.bags[0].features is ds.bags[0].features
        assert view.bags[0].boxes is ds.bags[0].boxes

    def test_bag_helpers(self):
        ds = tiny_dataset()
        bag = ds.bags[0]
        assert bag.feature_matrix().shape == (1, 3)
        assert bag.box_array().shape == (1, 4)
        np.testing.assert_array_equal(bag.positive_classes(), [0])

    def test_bag_arrays_are_stored_read_only(self):
        features = np.array([[1.0, 2.0, 3.0]])
        bag = Bag(id="b", labels=[1], features=features, boxes=[[0.1, 0.1, 0.5, 0.5]])
        assert bag.feature_matrix() is bag.feature_matrix()
        assert bag.box_array() is bag.box_array()
        assert np.shares_memory(bag.feature_matrix(), features)
        assert features.flags.writeable  # the caller's array is left as it was
        for arr in (bag.feature_matrix(), bag.box_array()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 9.0

    @pytest.mark.parametrize("proposals", [
        [],
        [{"box": [0, 0, 1, 1], "feature": [1.0]}, {"box": [0, 0, 1, 1], "feature": [1.0, 2.0]}],
        [{"box": [0, 0, 1, 1], "feature": [1.0, float("inf")]}],
        [{"box": [0.5, 0, 0.2, 1], "feature": [1.0, 2.0]}],
        [{"box": [0, 0, 1], "feature": [1.0, 2.0]}],
        [{"feature": [1.0, 2.0]}],
    ])
    def test_load_rejects_bad_proposals_naming_bag(self, tmp_path, proposals):
        path = tmp_path / "ds.json"
        doc = {"classes": ["a"], "feature_dim": 2,
               "bags": [{"id": "bagZ", "labels": [1], "proposals": proposals}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="bagZ"):
            load_dataset(str(path))

    def test_bag_by_id(self):
        ds = tiny_dataset()
        assert ds.bag_by_id("b0") is ds.bags[0]
        with pytest.raises(KeyError):
            ds.bag_by_id("nope")


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_classes": 0},
            {"bags_per_class": 0},
            {"negatives": -1},
            {"proposals_per_bag": 2},
            {"feature_dim": 5, "num_classes": 2},
            {"part_fraction": 1.5},
            {"noise_sigma": -0.1},
        ],
    )
    def test_invalid_configs(self, kw):
        with pytest.raises(DataError):
            SynthConfig(**kw).validate()


class TestGenerator:
    def test_minimal_bag(self):
        cfg = SynthConfig(num_classes=1, bags_per_class=1, negatives=0, feature_dim=6)
        ds = generate_synthetic(cfg)
        assert len(ds.bags) == 1
        bag = ds.bags[0]
        np.testing.assert_array_equal(bag.labels, [1])
        assert len(bag.ground_truth) == 1
        assert bag.num_proposals == cfg.proposals_per_bag

    def test_determinism(self):
        cfg = SynthConfig(num_classes=2, bags_per_class=3, negatives=2, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert [bag.id for bag in a.bags] == [bag.id for bag in b.bags]
        for ba, bb in zip(a.bags, b.bags):
            np.testing.assert_array_equal(ba.feature_matrix(), bb.feature_matrix())
            np.testing.assert_array_equal(ba.box_array(), bb.box_array())

    def test_boxes_inside_unit_canvas(self):
        ds = generate_synthetic(SynthConfig(num_classes=2, bags_per_class=5, negatives=3, seed=3))
        for bag in ds.bags:
            arr = bag.box_array()
            assert (arr >= 0.0).all() and (arr <= 1.0).all()

    def test_labels_match_ground_truth(self):
        ds = generate_synthetic(SynthConfig(num_classes=3, bags_per_class=4, negatives=2, seed=5, feature_dim=18))
        for bag in ds.bags:
            gt_classes = {cls for cls, _ in (bag.ground_truth or [])}
            for c in range(ds.num_classes):
                assert (bag.labels[c] == 1) == (c in gt_classes)

    def test_proposal_band_structure(self):
        cfg = SynthConfig(num_classes=1, bags_per_class=3, negatives=0, seed=9, feature_dim=6)
        ds = generate_synthetic(cfg)
        for bag in ds.bags:
            gt_box = bag.ground_truth[0][1]
            ious = iou_matrix(bag.box_array(), [gt_box.as_list()])[:, 0]
            near = ious >= 0.6
            part = (ious >= 0.2) & (ious < 0.5)
            bg = ious < 0.2
            assert near.sum() >= 1
            assert part.sum() >= 1
            assert bg.sum() >= 1
            assert (near | part | bg).all()  # nothing in the dead zone [0.5, 0.6)

    def test_part_fraction_zero_removes_parts(self):
        cfg = SynthConfig(num_classes=1, bags_per_class=4, negatives=0, part_fraction=0.0, seed=2, feature_dim=6)
        ds = generate_synthetic(cfg)
        for bag in ds.bags:
            gt_box = bag.ground_truth[0][1]
            ious = iou_matrix(bag.box_array(), [gt_box.as_list()])[:, 0]
            assert not ((0.2 <= ious) & (ious < 0.5)).any()

    def test_negative_bags_have_no_gt_and_zero_labels(self):
        ds = generate_synthetic(SynthConfig(num_classes=2, bags_per_class=1, negatives=4, seed=1))
        negs = [b for b in ds.bags if b.id.startswith("neg-")]
        assert len(negs) == 4
        for bag in negs:
            assert bag.ground_truth is None
            assert bag.labels.sum() == 0

    def test_generated_dataset_roundtrips(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_classes=2, bags_per_class=2, negatives=1, seed=4))
        path = tmp_path / "g.json"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert back.feature_dim == ds.feature_dim
        for ba, bb in zip(ds.bags, back.bags):
            assert ba.id == bb.id
            np.testing.assert_array_equal(ba.feature_matrix(), bb.feature_matrix())
            np.testing.assert_array_equal(ba.box_array(), bb.box_array())
