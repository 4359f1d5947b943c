import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import shutil
import signal
import stat
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from minent import data as data_module
from minent import jsonio as jsonio_module
from minent.cli import main
from minent.data import (
    Bag,
    DataError,
    Dataset,
    GenerationError,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from minent.geometry import Box, iou_matrix
from minent.jsonio import TWIN_SUFFIX, dumps_canonical, write_json

# mutual-IoU floor of a near or part group: one clique under the default
# overlap threshold 0.7, with a margin
GROUP_COHESION = 0.72


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
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(feature_dim=None),
        lambda d: d.update(feature_dim=[8]),
        lambda d: d.update(feature_dim=8.9),
        lambda d: d.update(bags=5),
        lambda d: d.update(bags=[5]),
        lambda d: d["bags"][0].update(labels=[0.5, 1]),
        lambda d: d["bags"][0].update(labels=[True, False]),
        lambda d: d["bags"][0]["ground_truth"][0].update({"class": 1.7}),
        lambda d: d["bags"][0]["proposals"][0]["feature"].__setitem__(0, "0.5"),
        lambda d: d["bags"][0]["proposals"][0]["feature"].__setitem__(0, True),
        lambda d: d["bags"][0]["proposals"][0]["feature"].__setitem__(0, None),
        lambda d: d["bags"][0]["proposals"][0].update(box=[0, 0, True, 1]),
        lambda d: d["bags"][-1]["proposals"][1].update(box=[False, 0.1, 0.5, 0.5]),
        lambda d: d["bags"][0]["ground_truth"][0].update(box=[0, 0, True, 1]),
        lambda d: d["bags"][0]["ground_truth"][0].update(box=["0", "0", "1", "1"]),
        lambda d: d["bags"][0]["ground_truth"][0]["box"].__setitem__(2, float("inf")),
        lambda d: d["bags"][0]["ground_truth"][0]["box"].__setitem__(0, float("-inf")),
    ], ids=["feature_dim-null", "feature_dim-list", "feature_dim-float", "bags-number",
            "bags-of-numbers", "labels-float", "labels-bool", "gt-class-float",
            "feature-string", "feature-bool", "feature-null", "box-bool", "box-false",
            "gt-box-bool", "gt-box-strings", "gt-box-infinity", "gt-box-minus-infinity"])
    def test_train_rejects_bad_value_at_load(self, tmp_path, capsys, edit):
        path = tmp_path / "ds.json"
        save_dataset(generate_synthetic(SynthConfig(
            num_classes=2, bags_per_class=1, negatives=1, proposals_per_bag=4, feature_dim=8,
        )), str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_dataset(str(path))
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["train", "--data", str(path), "--out-checkpoint", str(out / "ck.json"),
                   "--epochs", "1", "--csv", str(out / "epochs.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_eval_rejects_infinite_ground_truth_naming_bag(self, tmp_path, capsys):
        path = tmp_path / "ds.json"
        save_dataset(generate_synthetic(SynthConfig(
            num_classes=2, bags_per_class=1, negatives=1, proposals_per_bag=4, feature_dim=8,
        )), str(path))
        ck = tmp_path / "ck.json"
        assert main(["train", "--data", str(path), "--out-checkpoint", str(ck),
                     "--epochs", "1"]) == 0
        doc = json.loads(path.read_text())
        doc["bags"][0]["ground_truth"][0]["box"][2] = float("inf")
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        capsys.readouterr()
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--data", str(path), "--checkpoint", str(ck), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: bag 'pos-c0-0000': ground_truth 0 box must be finite\n"
        assert not out.exists()

    def test_bag_by_id(self):
        ds = tiny_dataset()
        assert ds.bag_by_id("b0") is ds.bags[0]
        with pytest.raises(KeyError):
            ds.bag_by_id("nope")


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()
        assert not hasattr(SynthConfig, "validate")

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
            {"seed": -1},
        ],
    )
    def test_invalid_configs(self, kw):
        with pytest.raises(DataError):
            SynthConfig(**kw)


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


# ---------------------------------------------------------------------------
# The binary sidecar: loading through it gives what parsing the JSON gives,
# and anything but a current, well-formed sidecar falls back to the JSON.
# ---------------------------------------------------------------------------

def _small(seed=0, classes=2, proposals=6, negatives=2):
    return generate_synthetic(SynthConfig(
        num_classes=classes, bags_per_class=2, negatives=negatives,
        proposals_per_bag=proposals, feature_dim=3 * classes, seed=seed,
    ))


def _sidecar(path):
    return str(path) + TWIN_SUFFIX


def _json_only(path, tmp_path):
    """``load_dataset`` of a copy of ``path`` that has no sidecar."""
    bare = tmp_path / "bare"
    bare.mkdir(exist_ok=True)
    copy = bare / os.path.basename(str(path))
    shutil.copyfile(path, copy)
    return load_dataset(str(copy))


def _members(path) -> dict:
    with np.load(_sidecar(path), allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def _rewrite_sidecar(path, **changes):
    members = {**_members(path), **changes}
    with open(_sidecar(path), "wb") as f:
        np.savez(f, **{k: v for k, v in members.items() if v is not None})


def _assert_same(a: Dataset, b: Dataset):
    assert a.classes == b.classes and a.feature_dim == b.feature_dim
    assert [bag.id for bag in a.bags] == [bag.id for bag in b.bags]
    for x, y in zip(a.bags, b.bags):
        assert x.labels.dtype == y.labels.dtype and np.array_equal(x.labels, y.labels)
        for u, v in ((x.features, y.features), (x.boxes, y.boxes)):
            assert u.dtype == v.dtype == np.float64 and u.shape == v.shape
            assert np.array_equal(u, v) and u.tobytes() == v.tobytes()
            assert not u.flags.writeable and not v.flags.writeable
            assert u.flags.c_contiguous and v.flags.c_contiguous
        assert (x.ground_truth is None) == (y.ground_truth is None)
        for (ca, ba), (cb, bb) in zip(x.ground_truth or [], y.ground_truth or []):
            assert ca == cb and type(ca) is type(cb)
            assert ba.as_list() == bb.as_list()


@pytest.fixture
def parses(monkeypatch):
    """Counts the dataset JSON parses ``load_dataset`` makes."""
    calls = []
    real = data_module.read_json

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(data_module, "read_json", counting)
    return calls


class TestSidecar:
    @pytest.mark.parametrize("seed, classes, proposals, negatives", [
        (0, 1, 3, 2), (7, 2, 3, 0), (0, 2, 300, 1), (7, 1, 300, 3),
    ])
    def test_equals_the_json_path(self, tmp_path, parses, seed, classes, proposals, negatives):
        path = tmp_path / "ds.json"
        ds = _small(seed, classes, proposals, negatives)
        save_dataset(ds, str(path))
        assert os.path.isfile(_sidecar(path))
        via_sidecar = load_dataset(str(path))
        assert parses == []
        via_json = _json_only(path, tmp_path)
        assert len(parses) == 1
        _assert_same(via_sidecar, via_json)
        _assert_same(via_sidecar, ds)

    def test_bags_are_views_of_one_loaded_pair(self, tmp_path, monkeypatch):
        # the data sits in memory once: each bag's arrays are read-only
        # slices of the sidecar's features and boxes, in bag order, and the
        # malloc-threshold step runs once per load, also from the JSON alone
        path = tmp_path / "ds.json"
        ds = _small(proposals=5)
        save_dataset(ds, str(path))
        primed = []
        real = data_module._raise_malloc_thresholds
        monkeypatch.setattr(data_module, "_raise_malloc_thresholds",
                            lambda: primed.append(1) or real())

        def owner(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr

        for loads in (1, 2):
            loaded = load_dataset(str(path))
            assert len(primed) == loads
            _assert_same(loaded, ds)
            wholes = []
            for name in ("features", "boxes"):
                arrays = [getattr(bag, name) for bag in loaded.bags]
                whole = owner(arrays[0])
                assert all(owner(arr) is whole for arr in arrays)
                assert not any(arr.flags.writeable for arr in arrays)
                assert whole.nbytes == sum(arr.nbytes for arr in arrays)
                assert np.array_equal(whole.reshape(-1, arrays[0].shape[1]),
                                      np.concatenate(arrays))
                wholes.append(whole)
            assert not np.shares_memory(*wholes)
        _assert_same(_json_only(path, tmp_path), ds)
        assert len(primed) == 3

    def test_dataset_without_ground_truth(self, tmp_path, parses):
        path = tmp_path / "ds.json"
        save_dataset(_small(seed=1).training_view(), str(path))
        via_sidecar = load_dataset(str(path))
        assert parses == []
        assert not via_sidecar.has_ground_truth()
        _assert_same(via_sidecar, _json_only(path, tmp_path))

    def test_sidecar_holds_the_json_hash_and_arrays(self, tmp_path):
        path = tmp_path / "ds.json"
        ds = _small(proposals=5)
        save_dataset(ds, str(path))
        z = _members(path)
        assert set(z) == {"sha256", "doc", "counts", "features", "boxes"}
        assert str(z["sha256"]) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert z["counts"].tolist() == [5] * len(ds.bags)
        assert z["features"].dtype == z["boxes"].dtype == np.float64
        assert np.array_equal(z["features"], np.concatenate([b.features for b in ds.bags]))
        assert np.array_equal(z["boxes"], np.concatenate([b.boxes for b in ds.bags]))
        doc = json.loads(z["doc"].tobytes())
        assert all("proposals" not in rec for rec in doc["bags"])
        full = json.loads(path.read_text())
        for rec in full["bags"]:
            rec.pop("proposals")
        assert doc == full

    def test_load_writes_nothing(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(_small(), str(path))

        def listing():
            return sorted((p.name, p.stat().st_mtime_ns, p.stat().st_size)
                          for p in tmp_path.iterdir())

        before = listing()
        load_dataset(str(path))  # hit
        assert listing() == before
        path.write_text(path.read_text().replace('"labels":[1', '"labels":[0', 1))
        before = listing()
        load_dataset(str(path))  # stale
        assert listing() == before and len(before) == 2
        os.unlink(_sidecar(path))
        before = listing()
        load_dataset(str(path))  # no sidecar
        assert listing() == before and len(before) == 1

    def test_stale_after_resave_with_another_seed(self, tmp_path, parses):
        path = tmp_path / "ds.json"
        save_dataset(_small(seed=0), str(path))
        old = tmp_path / "old.npz"
        shutil.copyfile(_sidecar(path), old)
        save_dataset(_small(seed=1), str(path))
        shutil.copyfile(old, _sidecar(path))
        loaded = load_dataset(str(path))
        assert len(parses) == 1
        _assert_same(loaded, _json_only(path, tmp_path))
        _assert_same(loaded, _small(seed=1))

    def test_stale_after_one_byte_edit(self, tmp_path, parses):
        path = tmp_path / "ds.json"
        save_dataset(_small(), str(path))
        text = path.read_text()
        edited = text.replace('"labels":[1', '"labels":[0', 1)
        assert len(edited) == len(text) and edited != text
        path.write_text(edited)
        loaded = load_dataset(str(path))
        assert len(parses) == 1
        assert loaded.bags[0].labels.tolist() == [0, 0]
        _assert_same(loaded, _json_only(path, tmp_path))

    def test_stale_sidecar_gives_the_json_error(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(_small(), str(path))
        path.write_text(path.read_text().replace('"labels":[1', '"labels":[2', 1))
        with pytest.raises(DataError) as with_sidecar:
            load_dataset(str(path))
        with pytest.raises(DataError) as bare:
            _json_only(path, tmp_path)
        assert str(with_sidecar.value) == str(bare.value)
        assert "labels must be 0 or 1" in str(bare.value)

    @pytest.mark.parametrize("spoil", [
        lambda path: _truncate(_sidecar(path)),
        lambda path: Path(_sidecar(path)).write_bytes(b"not a zip file"),
        lambda path: _rewrite_sidecar(path, boxes=None),
        lambda path: _rewrite_sidecar(path, counts=None),
        lambda path: _rewrite_sidecar(
            path, doc=np.array([json.loads(_members(path)["doc"].tobytes())], dtype=object)),
        lambda path: _rewrite_sidecar(path, features=_nan_first(_members(path)["features"])),
        lambda path: _rewrite_sidecar(path, doc=_duplicate_first_id(_members(path)["doc"])),
        lambda path: _rewrite_sidecar(path, counts=_members(path)["counts"][:-1]),
        lambda path: _rewrite_sidecar(path, features=_members(path)["features"].astype(np.float32)),
    ], ids=["truncated", "not-a-zip", "no-boxes", "no-counts", "pickled-doc", "nan-feature",
            "duplicate-id", "short-counts", "float32-features"])
    def test_malformed_sidecar_falls_back(self, tmp_path, parses, spoil):
        path = tmp_path / "ds.json"
        save_dataset(_small(), str(path))
        spoil(path)
        loaded = load_dataset(str(path))
        assert len(parses) == 1
        _assert_same(loaded, _json_only(path, tmp_path))
        _assert_same(loaded, _small())

    def test_sidecar_without_json_is_never_read(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(_small(), str(path))
        os.unlink(path)
        with pytest.raises(FileNotFoundError):
            load_dataset(str(path))

    @pytest.mark.parametrize("spoil", [
        lambda path: None,
        lambda path: path.write_text(path.read_text().replace('"labels":[1', '"labels":[0', 1)),
        lambda path: Path(_sidecar(path)).write_bytes(b"not a zip file"),
        lambda path: os.unlink(_sidecar(path)),
        lambda path: os.unlink(path),
    ], ids=["current", "stale", "malformed", "no-sidecar", "no-json"])
    def test_no_thread_outlives_the_load(self, tmp_path, spoil):
        path = tmp_path / "ds.json"
        save_dataset(_small(), str(path))
        spoil(path)
        before = threading.enumerate()
        if path.exists():
            _assert_same(load_dataset(str(path)), _json_only(path, tmp_path))
        else:
            with pytest.raises(FileNotFoundError):
                load_dataset(str(path))
        assert threading.enumerate() == before


class _SlowSha256:
    """``hashlib.sha256`` whose first update sleeps 50 ms, so the hashing
    thread is still running when the sidecar's dataset is ready."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self._slept = False

    def update(self, data):
        if not self._slept:
            self._slept = True
            time.sleep(0.05)
        self._digest.update(data)

    def hexdigest(self):
        return self._digest.hexdigest()


class TestSlowHash:
    """The sidecar's dataset is used or dropped only once the JSON's hash is
    complete, and a sidecar without its JSON is never opened."""

    @pytest.fixture
    def opened(self, tmp_path, monkeypatch):
        """Saves ``_small()`` to ``tmp_path / "ds.json"``, slows the hash
        ``load_dataset`` makes, and counts the archives it opens."""
        save_dataset(_small(), str(tmp_path / "ds.json"))
        monkeypatch.setattr(jsonio_module, "hashlib", SimpleNamespace(sha256=_SlowSha256))
        calls = []
        real = np.load

        def counting(file, *args, **kwargs):
            calls.append(file)
            return real(file, *args, **kwargs)

        monkeypatch.setattr(jsonio_module.np, "load", counting)
        return calls

    def test_current_sidecar_is_used(self, tmp_path, parses, opened):
        loaded = load_dataset(str(tmp_path / "ds.json"))
        assert parses == [] and len(opened) == 1
        _assert_same(loaded, _small())

    def test_one_byte_edit_falls_back(self, tmp_path, parses, opened):
        path = tmp_path / "ds.json"
        path.write_text(path.read_text().replace('"labels":[1', '"labels":[0', 1))
        loaded = load_dataset(str(path))
        assert len(parses) == 1 and len(opened) == 1
        assert loaded.bags[0].labels.tolist() == [0, 0]

    def test_sidecar_without_json_is_never_opened(self, tmp_path, opened):
        path = tmp_path / "ds.json"
        os.unlink(path)
        with pytest.raises(FileNotFoundError):
            load_dataset(str(path))
        assert opened == []
        assert os.path.isfile(_sidecar(path))


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_outputs_are_created_with_the_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        save_dataset(_small(), str(tmp_path / "ds.json"))
        write_json({"a": 1}, str(tmp_path / "m.json"))
    finally:
        os.umask(previous)
    names = ["ds.json", "ds.json" + TWIN_SUFFIX, "m.json"]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask


def _truncate(name):
    with open(name, "r+b") as f:
        f.truncate(os.path.getsize(name) // 2)


def _nan_first(features):
    features = features.copy()
    features[0, 0] = np.nan
    return features


def _duplicate_first_id(doc_bytes):
    doc = json.loads(doc_bytes.tobytes())
    doc["bags"][1]["id"] = doc["bags"][0]["id"]
    return np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8)


# ---------------------------------------------------------------------------
# The one-try-at-a-time generator, kept as the reference for the block
# sampler: each try draws its own uniforms and is tested with the scalar
# ``_ref_iou`` before the next try is drawn.
# ---------------------------------------------------------------------------

def _ref_iou(a, b):
    """Intersection-over-union of two ``Box``es, one pair at a time."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter)


def _ref_array(boxes):
    return np.array([b.as_list() for b in boxes], dtype=float)


def _ref_jittered(rng, anchor):
    jitter = data_module._JITTER
    w = anchor.x2 - anchor.x1
    h = anchor.y2 - anchor.y1
    dx1, dx2 = rng.uniform(-jitter, jitter, size=2) * w
    dy1, dy2 = rng.uniform(-jitter, jitter, size=2) * h
    x1, y1 = anchor.x1 + dx1, anchor.y1 + dy1
    x2, y2 = anchor.x2 + dx2, anchor.y2 + dy2
    if x1 < 0 or y1 < 0 or x2 > 1 or y2 > 1 or x1 >= x2 or y1 >= y2:
        return None
    return Box(x1, y1, x2, y2)


def _ref_group(rng, anchor, count, accept, bag_id, kind):
    group = []
    for _ in range(count):
        for _try in range(data_module._MAX_TRIES):
            b = _ref_jittered(rng, anchor)
            if b is None or not accept(b):
                continue
            if all(_ref_iou(b, other) > GROUP_COHESION for other in group):
                group.append(b)
                break
        else:
            raise GenerationError(f"bag '{bag_id}': could not place {kind} box {len(group)}")
    return group


def _ref_background(rng, obj, bag_id):
    for _try in range(data_module._MAX_TRIES):
        w, h = rng.uniform(0.08, 0.25, size=2)
        x1 = rng.uniform(0.0, 1.0 - w)
        y1 = rng.uniform(0.0, 1.0 - h)
        b = Box(x1, y1, x1 + w, y1 + h)
        if obj is None or _ref_iou(b, obj) < 0.2:
            return b
    raise GenerationError(f"bag '{bag_id}': could not place background box")


def _reference_bags(cfg):
    """(boxes, features) of every bag, in dataset order."""
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.num_classes, cfg.feature_dim
    block = d // n
    sub = max(1, block // 3)
    n_near, n_part, n_bg = data_module._proposal_counts(cfg)
    out = []
    for cls in range(n):
        lo = cls * block
        for i in range(cfg.bags_per_class):
            bag_id = f"pos-c{cls}-{i:04d}"
            w, h = rng.uniform(0.25, 0.6, size=2)
            x1 = rng.uniform(0.0, 1.0 - w)
            y1 = rng.uniform(0.0, 1.0 - h)
            obj = Box(x1, y1, x1 + w, y1 + h)
            scale = data_module._PART_SCALE
            part_anchor = Box(x1, y1, x1 + scale * w, y1 + scale * h)
            nears = [obj] + _ref_group(
                rng, obj, n_near - 1, lambda b: _ref_iou(b, obj) >= 0.7, bag_id, "near"
            )
            parts = _ref_group(
                rng, part_anchor, n_part, lambda b: 0.2 <= _ref_iou(b, obj) < 0.5, bag_id, "part"
            )
            bgs = [_ref_background(rng, obj, bag_id) for _ in range(n_bg)]
            features = cfg.noise_sigma * rng.standard_normal((cfg.proposals_per_bag, d))
            features[:n_near, lo : lo + block] += data_module._NEAR_AMPLITUDE
            features[n_near : n_near + n_part, lo : lo + sub] += data_module._PART_AMPLITUDE
            out.append((_ref_array(nears + parts + bgs), features))
    for i in range(cfg.negatives):
        bag_id = f"neg-{i:04d}"
        boxes, features = [], []
        for _ in range(cfg.proposals_per_bag):
            boxes.append(_ref_background(rng, None, bag_id))
            features.append(cfg.noise_sigma * rng.standard_normal(d))
        out.append((_ref_array(boxes), np.array(features)))
    return out


def _byte_config(seed, proposals, part_fraction, classes):
    return SynthConfig(
        num_classes=classes,
        bags_per_class=2 if proposals == 300 else 4,
        negatives=1 if proposals == 300 else 2,
        proposals_per_bag=proposals,
        part_fraction=part_fraction,
        feature_dim=6 * classes,
        seed=seed,
    )


BYTE_CONFIGS = [
    (seed, proposals, part_fraction, classes)
    for seed in (0, 7, 31)
    for proposals in (3, 30, 300)
    for part_fraction in (0.0, 0.4, 1.0)
    for classes in (1, 2)
]


class TestBlockSampler:
    def assert_matches_reference(self, cfg):
        try:
            ref = _reference_bags(cfg)
        except GenerationError as failed:
            with pytest.raises(GenerationError) as err:
                generate_synthetic(cfg)
            assert str(err.value) == str(failed)
            return
        ds = generate_synthetic(cfg)
        assert len(ds.bags) == len(ref)
        for bag, (boxes, features) in zip(ds.bags, ref):
            assert np.array_equal(bag.boxes, boxes), bag.id
            assert np.array_equal(bag.features, features), bag.id
            if bag.ground_truth:
                assert bag.ground_truth[0][1].as_list() == boxes[0].tolist()

    @pytest.mark.parametrize("seed, proposals, part_fraction, classes", BYTE_CONFIGS)
    def test_bitwise_equal_to_one_try_at_a_time(self, seed, proposals, part_fraction, classes):
        self.assert_matches_reference(_byte_config(seed, proposals, part_fraction, classes))


class TestGroupCohesion:
    """The generator tests no cohesion: the jitter bound alone keeps each
    near group and each part group one clique."""

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("proposals, part_fraction", [
        (30, 0.4), (30, 1.0), (300, 0.4), (300, 1.0),
    ])
    def test_groups_are_pairwise_tight(self, seed, proposals, part_fraction):
        cfg = _byte_config(seed, proposals, part_fraction, 2)
        n_near, n_part, _ = data_module._proposal_counts(cfg)
        for bag in generate_synthetic(cfg).bags:
            if not bag.ground_truth:
                continue
            # rows: the object, the other near boxes, then the parts
            for group in (bag.boxes[:n_near], bag.boxes[n_near : n_near + n_part]):
                assert (iou_matrix(group, group) > GROUP_COHESION).all(), bag.id

    def test_corner_jitters_of_one_anchor_are_tight(self):
        # the extremes of the jitter: every corner moved by +-_JITTER x side
        jitter = data_module._JITTER
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
        rng = np.random.default_rng(0)
        for _ in range(200):
            x1, y1 = rng.uniform(0.0, 0.5, size=2)
            w, h = rng.uniform(0.02, 0.5, size=2)
            anchor = np.array([x1, y1, x1 + w, y1 + h])
            corners = anchor + signs * jitter * np.array([w, h, w, h])
            assert (iou_matrix(corners, corners) > GROUP_COHESION).all()


# (max tries, seed, part fraction, the bag and box that cannot be placed)
FAILING_RUNS = [
    (3, 5, 0.0, "bag 'pos-c0-0001': could not place near box 8"),
    (3, 51, 0.4, "bag 'pos-c0-0001': could not place part box 7"),
    (3, 21, 1.0, "bag 'pos-c0-0001': could not place part box 27"),
    (2, 52, 1.0, "bag 'pos-c0-0000': could not place part box 21"),
    (5, 204, 1.0, "bag 'pos-c0-0002': could not place part box 13"),
    (3, 6, 0.4, "bag 'pos-c0-0002': could not place background box"),
]


class TestGenerationError:
    @pytest.mark.parametrize("max_tries, seed, part_fraction, message", FAILING_RUNS)
    def test_same_message_as_reference(self, monkeypatch, max_tries, seed, part_fraction, message):
        monkeypatch.setattr(data_module, "_MAX_TRIES", max_tries)
        cfg = SynthConfig(num_classes=1, bags_per_class=3, negatives=0,
                          part_fraction=part_fraction, feature_dim=6, seed=seed)
        for generate in (generate_synthetic, _reference_bags):
            with pytest.raises(GenerationError) as err:
                generate(cfg)
            assert str(err.value) == message

    def test_gen_exits_1_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(data_module, "_MAX_TRIES", 1)
        out = tmp_path / "ds.json"
        assert main(["gen", "--seed", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: bag '")
        assert "could not place" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # neither the JSON nor its sidecar


def _odd_dataset(bags=7, seed=0) -> Dataset:
    """Bags of unequal sizes, ids with quotes and non-ASCII characters,
    positive bags with ground truth, negatives without, and one positive
    bag without."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(bags):
        p = 1 + (i * 5) % 9
        xy = rng.uniform(0.0, 0.5, size=(p, 2))
        positive = i % 3 != 2
        out.append(Bag(
            id=f'b"{i}\u00e9\u4e2d' if i % 2 else f"bag-{i}",
            labels=[int(positive), 0],
            features=rng.standard_normal((p, 4)) * 10.0 ** rng.integers(-8, 8, size=(p, 4)),
            boxes=np.hstack([xy, xy + rng.uniform(0.01, 0.5, size=(p, 2))]),
            ground_truth=[(0, Box(0.1, 0.2, 0.3, 0.4 + i))] if positive and i != 4 else None,
        ))
    return Dataset(classes=["c\"0", "c1"], feature_dim=4, bags=out)


def _reference_bytes(ds: Dataset) -> bytes:
    """``dumps_canonical`` of the whole dataset document, built here."""
    records = []
    for b in ds.bags:
        rec = {"id": b.id, "labels": b.labels.tolist(), "proposals": [
            {"box": box, "feature": feat}
            for box, feat in zip(b.boxes.tolist(), b.features.tolist())]}
        if b.ground_truth is not None:
            rec["ground_truth"] = [{"class": c, "box": box.as_list()}
                                   for c, box in b.ground_truth]
        records.append(rec)
    doc = {"bags": records, "classes": ds.classes, "feature_dim": ds.feature_dim}
    return dumps_canonical(doc).encode()


def _cpus(monkeypatch, n):
    monkeypatch.setattr(data_module, "_usable_cpus", lambda: n)


def _fails_in_worker(monkeypatch, action):
    """Make ``_encode_bag`` run ``action()`` in encoding workers only."""
    parent, real = os.getpid(), data_module._encode_bag

    def encode(bag):
        if os.getpid() != parent:
            action()
        return real(bag)

    monkeypatch.setattr(data_module, "_encode_bag", encode)


def _logged(monkeypatch, name, log, before=lambda caller: None):
    """Make ``data.<name>`` append its process id to the file ``log`` on each
    call, after ``before(caller)``, where ``caller`` is whether it runs in
    this process; returns the ids read back."""
    parent, real = os.getpid(), getattr(data_module, name)

    def logged(*args):
        before(os.getpid() == parent)
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(data_module, name, logged)
    return lambda: [int(line) for line in Path(log).read_text().split()]


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _raise():
    raise MemoryError("out of memory in the worker")


def _exit_silently():
    os._exit(0)


def _killed():
    os._exit(9)


WORKER_FAILURES = [
    (_raise, "dataset encoding worker 1 failed: MemoryError: out of memory in the worker"),
    (_exit_silently, "dataset encoding worker 1 failed: exit code 0, nothing sent"),
    (_killed, "dataset encoding worker 1 failed: exit code 9, nothing sent"),
]


class TestParallelEncoder:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 7, 50])
    def test_bytes_equal_one_dumps_of_the_document(self, monkeypatch, tmp_path, cpus):
        ds = _odd_dataset()
        _cpus(monkeypatch, cpus)
        path = tmp_path / "ds.json"
        save_dataset(ds, str(path))
        assert path.read_bytes() == _reference_bytes(ds)
        assert str(_members(path)["sha256"]) == hashlib.sha256(path.read_bytes()).hexdigest()
        _assert_same(load_dataset(str(path)), ds)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_generated_dataset_is_identical_whatever_the_cpu_count(
        self, monkeypatch, tmp_path, cpus
    ):
        ds = _small(seed=3, proposals=9, negatives=3)
        _cpus(monkeypatch, 1)
        save_dataset(ds, str(tmp_path / "one.json"))
        _cpus(monkeypatch, cpus)
        save_dataset(ds, str(tmp_path / "many.json"))
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "many.json").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == _reference_bytes(ds)

    def test_single_bag(self, monkeypatch, tmp_path):
        ds = _odd_dataset(bags=1)
        _cpus(monkeypatch, 4)
        save_dataset(ds, str(tmp_path / "ds.json"))
        assert (tmp_path / "ds.json").read_bytes() == _reference_bytes(ds)

    # with no more bags than CPUs, each process encodes only the bag it starts with
    @pytest.mark.parametrize("cpus, bags", [(2, 7), (2, 2), (3, 3), (50, 2)])
    @pytest.mark.parametrize("action, message", WORKER_FAILURES)
    def test_failed_worker_raises_one_line_and_writes_nothing(
        self, monkeypatch, tmp_path, action, message, cpus, bags
    ):
        _cpus(monkeypatch, cpus)
        _fails_in_worker(monkeypatch, action)
        with pytest.raises(RuntimeError) as err:
            save_dataset(_odd_dataset(bags=bags), str(tmp_path / "ds.json"))
        assert str(err.value) == message
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_failed_worker_makes_gen_exit_1(self, monkeypatch, tmp_path, capsys):
        _cpus(monkeypatch, 3)
        _fails_in_worker(monkeypatch, _raise)
        out = tmp_path / "ds.json"
        assert main(["gen", "--bags", "4", "--negatives", "2", "--seed", "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: dataset encoding worker 1 failed: " \
                      "MemoryError: out of memory in the worker\n"
        assert list(tmp_path.iterdir()) == []

    def test_failure_in_the_caller_stops_every_worker(self, monkeypatch, tmp_path):
        _cpus(monkeypatch, 3)
        parent, real = os.getpid(), data_module._encode_bag

        def encode(bag):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(bag)

        monkeypatch.setattr(data_module, "_encode_bag", encode)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(_odd_dataset(), str(tmp_path / "ds.json"))
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("slow", ["caller", "workers"])
    def test_the_faster_end_encodes_more_bags(self, monkeypatch, tmp_path, cpus, slow):
        """A slow caller leaves most bags to the workers, and slow workers
        leave most to the caller; every process encodes at least one, and
        the bytes stay those of one ``dumps_canonical``."""
        ds = _odd_dataset(bags=12)
        _cpus(monkeypatch, cpus)

        def pause(caller):
            if caller == (slow == "caller"):
                time.sleep(0.1)

        calls = _logged(monkeypatch, "_encode_bag", tmp_path / "calls", pause)
        path = tmp_path / "ds.json"
        save_dataset(ds, str(path))
        assert path.read_bytes() == _reference_bytes(ds)
        pids = calls()
        by_caller = pids.count(os.getpid())
        assert len(pids) == len(ds.bags) and len(set(pids)) == cpus and by_caller >= 1
        assert (by_caller < len(pids) - by_caller) == (slow == "caller")

    def test_more_workers_than_cores_encode_each_bag_once(self, monkeypatch, tmp_path):
        """Eight processes race for 200 small bags: a claim lost between two
        of them would encode a bag twice, or leave one out of the file."""
        ds = _odd_dataset(bags=200)
        _cpus(monkeypatch, 8)
        calls = _logged(monkeypatch, "_encode_bag", tmp_path / "calls")
        with _within(60):
            save_dataset(ds, str(tmp_path / "ds.json"))
        assert (tmp_path / "ds.json").read_bytes() == _reference_bytes(ds)
        assert len(calls()) == len(ds.bags) and len(set(calls())) == 8

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_dumps_per_bag(self, monkeypatch, tmp_path, cpus):
        """Each bag's record is one ``dumps_canonical`` call of its own; one
        more gives the end of the document."""
        ds = _odd_dataset(bags=9)
        _cpus(monkeypatch, cpus)
        calls = _logged(monkeypatch, "dumps_canonical", tmp_path / "calls")
        save_dataset(ds, str(tmp_path / "ds.json"))
        assert len(calls()) == len(ds.bags) + 1
        assert (tmp_path / "ds.json").read_bytes() == _reference_bytes(ds)

    def test_worker_failure_after_part_of_the_file_is_written(self, monkeypatch, tmp_path):
        """The caller writes its bags while a slow worker encodes its first;
        the worker's failure then removes the partly written file."""
        _cpus(monkeypatch, 2)
        written, real = [], data_module.write_twin

        def write_twin(path, pieces, *rest):
            def counted():
                for piece in pieces:
                    written.append(piece)
                    yield piece
            return real(path, counted(), *rest)

        def fail_late():
            time.sleep(0.2)
            _raise()

        monkeypatch.setattr(data_module, "write_twin", write_twin)
        _fails_in_worker(monkeypatch, fail_late)
        ds = _odd_dataset(bags=12)
        with pytest.raises(RuntimeError) as err:
            save_dataset(ds, str(tmp_path / "ds.json"))
        assert str(err.value) == WORKER_FAILURES[0][1]
        # the opening and at least the caller's first record
        assert len(written) >= 2
        assert b"".join(written) == _reference_bytes(ds)[: len(b"".join(written))]
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_failed_write_stops_every_worker(self, monkeypatch, tmp_path):
        _cpus(monkeypatch, 3)
        _fails_in_worker(monkeypatch, lambda: time.sleep(5))
        alive = []

        def write_twin(path, pieces, *rest):
            next(pieces), next(pieces)  # the opening and the first record
            alive.extend(multiprocessing.active_children())
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(data_module, "write_twin", write_twin)
        start = time.monotonic()
        with pytest.raises(OSError, match="No space left on device"):
            save_dataset(_odd_dataset(bags=12), str(tmp_path / "ds.json"))
        assert len(alive) == 2 and time.monotonic() - start < 4
        assert multiprocessing.active_children() == []

    def test_worker_dead_inside_its_claim_does_not_hang_gen(self, monkeypatch, tmp_path, capsys):
        """A worker that dies holding the claim lock leaves it free: the
        caller takes every bag the worker did not, and gen exits 1 with one
        line."""
        _cpus(monkeypatch, 2)
        parent, real = os.getpid(), os.lockf

        def lockf(fd, command, length):
            real(fd, command, length)
            if command == os.F_LOCK and os.getpid() != parent:
                os._exit(3)

        monkeypatch.setattr(os, "lockf", lockf)
        calls = _logged(monkeypatch, "_encode_bag", tmp_path / "calls",
                        lambda caller: time.sleep(0.05) if caller else None)
        out = tmp_path / "out" / "ds.json"
        out.parent.mkdir()
        with _within(30):
            rc = main(["gen", "--bags", "4", "--negatives", "2", "--seed", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "error: dataset encoding worker 1 failed: exit code 3, nothing sent\n")
        pids = calls()
        assert len(pids) == 6 and pids.count(os.getpid()) == 5
        assert list(out.parent.iterdir()) == []
        assert multiprocessing.active_children() == []
