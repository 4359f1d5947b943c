import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from minent import cli
from minent import data as data_module
from minent import jsonio as jsonio_module
from minent import trainer as trainer_module
from minent.cli import main
from minent.data import Bag, Dataset, load_dataset, save_dataset
from minent.geometry import Box
from minent.jsonio import TWIN_SUFFIX
from minent.trainer import csv_header, load_checkpoint
from test_data import _SlowSha256

GEN = [
    "gen", "--classes", "2", "--bags", "6", "--negatives", "3",
    "--proposals", "10", "--dim", "8", "--seed", "7",
]

METRIC_KEYS = {
    "per_class_ap", "mAP", "per_class_corloc", "mean_corloc",
    "pointing", "localization_accuracy", "localization_variance",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a short training run, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds.json"
    ck = root / "ck.json"
    assert main(GEN + ["--out", str(ds)]) == 0
    rc = main([
        "train", "--data", str(ds), "--out-checkpoint", str(ck),
        "--epochs", "2", "--seed", "0",
    ])
    assert rc == 0
    return root


class TestGen:
    def test_writes_loadable_dataset(self, workspace):
        ds = load_dataset(str(workspace / "ds.json"))
        # --bags counts total positives, split across the two classes
        assert len(ds.bags) == 6 + 3
        assert ds.feature_dim == 8
        assert ds.num_classes == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(GEN + ["--out", str(a)]) == 0
        assert main(GEN + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_is_usage_error(self):
        assert main(GEN) == 2

    def test_invalid_values_are_usage_errors(self, tmp_path):
        out = str(tmp_path / "x.json")
        assert main(["gen", "--classes", "0", "--out", out]) == 2
        assert main(["gen", "--proposals", "2", "--out", out]) == 2
        # total positives must divide evenly across classes
        assert main(["gen", "--classes", "2", "--bags", "5", "--out", out]) == 2

    def test_dim_defaults_to_twelve_per_class(self, tmp_path):
        out = tmp_path / "d.json"
        rc = main(["gen", "--classes", "3", "--bags", "3", "--negatives", "0",
                   "--proposals", "8", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert load_dataset(str(out)).feature_dim == 36

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bags_per_class": 2, "negatives": 0}))
        out = tmp_path / "d.json"
        rc = main(["gen", "--config", str(cfg), "--bags", "6",
                   "--proposals", "8", "--dim", "8", "--seed", "1", "--out", str(out)])
        assert rc == 0
        # --bags beats the config file; negatives comes from the file
        assert len(load_dataset(str(out)).bags) == 6 + 0

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bags": 2}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.json")]) == 2


class TestTrain:
    def test_checkpoint_reflects_run(self, workspace):
        state = load_checkpoint(str(workspace / "ck.json"))
        assert state.epoch == 2
        assert state.config.epochs == 2
        assert state.config.seed == 0

    def test_epochs_zero_is_usage_error(self, workspace):
        rc = main([
            "train", "--data", str(workspace / "ds.json"),
            "--out-checkpoint", str(workspace / "junk.json"), "--epochs", "0",
        ])
        assert rc == 2

    @pytest.mark.parametrize("message", [
        "Unable to allocate 74.5 GiB for an array with shape (100000000, 100)", ""])
    def test_out_of_memory_is_one_error_line(self, workspace, tmp_path, capsys, monkeypatch,
                                             message):
        # what a --hidden-dim too wide to allocate raises, without allocating it
        def no_memory(**kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(trainer_module, "init_params", no_memory)
        out = tmp_path / "ck.json"
        assert main(["train", "--data", str(workspace / "ds.json"), "--out-checkpoint", str(out),
                     "--hidden-dim", "100000000"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory" + (f": {message}" if message else "") + "\n"
        assert captured.out == "" and not out.exists()

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        rc = main([
            "train", "--data", str(tmp_path / "absent.json"),
            "--out-checkpoint", str(tmp_path / "ck.json"),
        ])
        assert rc == 1

    def test_csv_has_epoch_header(self, workspace, tmp_path):
        csv = tmp_path / "ep.csv"
        rc = main([
            "train", "--data", str(workspace / "ds.json"),
            "--out-checkpoint", str(tmp_path / "ck.json"),
            "--epochs", "1", "--seed", "0", "--csv", str(csv),
        ])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("epoch,disc_loss,loc_loss_1")
        assert len(lines) == 2

    def test_stop_and_resume_matches_single_run(self, workspace, tmp_path):
        ds = str(workspace / "ds.json")
        solid = tmp_path / "solid.json"
        rc = main(["train", "--data", ds, "--out-checkpoint", str(solid),
                   "--epochs", "3", "--seed", "0"])
        assert rc == 0
        half = tmp_path / "half.json"
        rc = main(["train", "--data", ds, "--out-checkpoint", str(half),
                   "--epochs", "3", "--seed", "0", "--stop-after", "2"])
        assert rc == 0
        assert load_checkpoint(str(half)).epoch == 2
        done = tmp_path / "done.json"
        rc = main(["train", "--data", ds, "--resume", str(half),
                   "--out-checkpoint", str(done)])
        assert rc == 0
        assert solid.read_bytes() == done.read_bytes()

    def test_hidden_layer_stop_and_resume_matches_single_run(self, workspace, tmp_path):
        ds = str(workspace / "ds.json")
        run = ["train", "--data", ds, "--epochs", "3", "--ablation", "l-arl",
               "--hidden-dim", "8"]
        solid, half, done = tmp_path / "solid.json", tmp_path / "half.json", tmp_path / "done.json"
        solid_csv, split_csv = tmp_path / "solid.csv", tmp_path / "split.csv"
        assert main(run + ["--out-checkpoint", str(solid), "--csv", str(solid_csv)]) == 0
        assert main(run + ["--out-checkpoint", str(half), "--csv", str(split_csv),
                           "--stop-after", "1"]) == 0
        assert main(["train", "--data", ds, "--resume", str(half), "--out-checkpoint",
                     str(done), "--csv", str(split_csv)]) == 0
        assert solid.read_bytes() == done.read_bytes()

        def without_seconds(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert without_seconds(solid_csv) == without_seconds(split_csv)
        assert len(without_seconds(solid_csv)) == 1 + 3
        assert load_checkpoint(str(done)).params.hidden_dim == 8
        assert main(["eval", "--data", ds, "--checkpoint", str(done)]) == 0

    @pytest.mark.parametrize("config", [
        {"shared_hidden": False, "hidden_dim": 8},
        {"shared_hidden": "no"},
        {"shared_hidden": []},
        {"batch_size": 1},
    ], ids=json.dumps)
    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "ck.json"
        rc = main(["train", "--data", str(workspace / "ds.json"), "--out-checkpoint", str(out),
                   "--epochs", "1", "--config", str(cfg)])
        assert rc == 2
        key = next(k for k in config if k in ("shared_hidden", "batch_size"))
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert err == [f"error: unknown config key(s) in {cfg}: {key}"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, change", [
        (["--hidden-dim", "8"], "hidden_dim from 0 to 8"),
        (["--branches", "5"], "branches from 3 to 5"),
        (["--ablation", "clique"], "ablation from l-arl to clique"),
        (["--seed", "3"], "seed from 0 to 3"),
    ])
    def test_resume_rejects_shape_change(self, workspace, tmp_path, capsys, monkeypatch, flag,
                                         change):
        # the rule is checked before the dataset is read
        monkeypatch.setattr(cli, "load_dataset", lambda path: pytest.fail("dataset loaded"))
        out, csv = tmp_path / "ck.json", tmp_path / "ep.csv"
        rc = main(["train", "--data", str(workspace / "ds.json"), "--resume",
                   str(workspace / "ck.json"), "--out-checkpoint", str(out),
                   "--epochs", "3", "--csv", str(csv), *flag])
        assert rc == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: --resume cannot change {change}"
        ]
        assert not out.exists() and not csv.exists()

    def test_resume_accepts_the_checkpoints_own_values(self, workspace, tmp_path):
        ds = str(workspace / "ds.json")
        solid, half, done = tmp_path / "solid.json", tmp_path / "half.json", tmp_path / "done.json"
        assert main(["train", "--data", ds, "--out-checkpoint", str(solid),
                     "--epochs", "3", "--seed", "0", "--ablation", "clique"]) == 0
        assert main(["train", "--data", ds, "--out-checkpoint", str(half),
                     "--epochs", "3", "--seed", "0", "--ablation", "clique",
                     "--stop-after", "1"]) == 0
        assert main(["train", "--data", ds, "--resume", str(half), "--out-checkpoint",
                     str(done), "--seed", "0", "--ablation", "clique"]) == 0
        assert solid.read_bytes() == done.read_bytes()

    def test_resume_with_fewer_epochs_than_the_checkpoint(self, workspace, tmp_path, capsys):
        out, csv = tmp_path / "ck.json", tmp_path / "ep.csv"
        resume = ["train", "--data", str(workspace / "ds.json"), "--resume",
                  str(workspace / "ck.json"), "--out-checkpoint", str(out), "--csv", str(csv)]
        capsys.readouterr()
        assert main(resume + ["--epochs", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot train to epoch 1: the checkpoint is at epoch 2\n"
        )
        assert not out.exists() and not csv.exists()
        assert main(resume + ["--epochs", "2"]) == 0
        assert "nothing to train: checkpoint already at epoch 2 of 2" in capsys.readouterr().out
        assert out.read_bytes() == (workspace / "ck.json").read_bytes()

    def test_csv_header_mismatch_is_runtime_error(self, workspace, tmp_path, capsys):
        csv = tmp_path / "ep.csv"
        base = ["train", "--data", str(workspace / "ds.json"),
                "--out-checkpoint", str(tmp_path / "ck.json"), "--epochs", "1",
                "--csv", str(csv)]
        assert main(base) == 0
        before = csv.read_text()
        capsys.readouterr()
        assert main(base + ["--branches", "2"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert csv.read_text() == before

    def _diverges(self, capsys, argv):
        """Run ``argv``, which diverges: exit 1 with one stderr line and no
        numpy warning; returns that line."""
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        return err

    def test_divergence_is_runtime_error(self, workspace, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        self._diverges(capsys, [
            "train", "--data", str(workspace / "ds.json"), "--out-checkpoint", str(ck),
            "--epochs", "1", "--lr", "1e150", "--seed", "0",
        ])
        assert not ck.exists()

    def test_divergence_on_the_last_update(self, tmp_path, capsys):
        # the last visit's update overflows, which no per-visit check sees
        ds, ck, csv = tmp_path / "ds.json", tmp_path / "ck.json", tmp_path / "e.csv"
        assert main(["gen", "--classes", "2", "--bags", "2", "--negatives", "0",
                     "--proposals", "5", "--seed", "3", "--out", str(ds)]) == 0
        err = self._diverges(capsys, [
            "train", "--data", str(ds), "--out-checkpoint", str(ck),
            "--lr", "1e300", "--epochs", "1", "--csv", str(csv),
        ])
        assert err == "error: model state non-finite at epoch 1\n"
        assert not ck.exists()
        assert csv.read_text() == csv_header(3) + "\n"  # no row for the diverged epoch


class TestEval:
    def run(self, workspace, capsys, *extra):
        rc = main([
            "eval", "--data", str(workspace / "ds.json"),
            "--checkpoint", str(workspace / "ck.json"), *extra,
        ])
        out = capsys.readouterr().out
        return rc, out

    def test_stdout_json_keys(self, workspace, capsys):
        rc, out = self.run(workspace, capsys)
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == METRIC_KEYS
        assert len(doc["per_class_ap"]) == 2

    def test_repeat_runs_are_identical(self, workspace, capsys):
        _, first = self.run(workspace, capsys)
        _, second = self.run(workspace, capsys)
        assert first == second

    def test_out_file_matches_stdout(self, workspace, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        rc, out = self.run(workspace, capsys, "--out", str(out_path))
        assert rc == 0
        assert out_path.read_text() == out

    def test_csv_is_one_row(self, workspace, capsys, tmp_path):
        csv = tmp_path / "m.csv"
        rc, _ = self.run(workspace, capsys, "--csv", str(csv))
        assert rc == 0
        header, row = csv.read_text().splitlines()
        assert header.split(",")[0] == "mAP"
        assert len(header.split(",")) == len(row.split(","))

    def test_csv_bytes_and_mode(self, workspace, capsys, tmp_path):
        out, csv = tmp_path / "m.json", tmp_path / "m.csv"
        rc, _ = self.run(workspace, capsys, "--out", str(out), "--csv", str(csv))
        assert rc == 0
        doc = json.loads(out.read_text())
        cols = [("mAP", doc["mAP"]), *((f"ap_{i}", v) for i, v in enumerate(doc["per_class_ap"])),
                ("mean_corloc", doc["mean_corloc"]),
                *((f"corloc_{i}", v) for i, v in enumerate(doc["per_class_corloc"])),
                ("pointing", doc["pointing"]),
                ("localization_accuracy", doc["localization_accuracy"]),
                ("localization_variance", doc["localization_variance"])]
        want = (",".join(name for name, _ in cols) + "\n"
                + ",".join("" if v is None else repr(float(v)) for _, v in cols) + "\n")
        assert csv.read_bytes() == want.encode()
        umask = os.umask(0)
        os.umask(umask)
        assert csv.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.json"]

    def test_library_warning_is_one_stderr_line(self, workspace, tmp_path):
        # in process, pytest turns the warning into an error, so run the CLI as a user would
        doc = json.loads((workspace / "ds.json").read_text())
        for rec in doc["bags"]:
            if "ground_truth" in rec:
                rec["ground_truth"] = [g for g in rec["ground_truth"] if g["class"] != 1]
        data, out = tmp_path / "no-gt-1.json", tmp_path / "metrics.json"
        data.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "minent.cli", "eval", "--data", str(data),
             "--checkpoint", str(workspace / "ck.json"), "--out", str(out)],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr.decode().splitlines() == [
            "warning: corloc: class 1 has no positive bags with ground truth"]
        assert proc.stdout == out.read_bytes()

    def test_missing_ground_truth_is_runtime_error(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "ds.json").read_text())
        for rec in doc["bags"]:
            rec.pop("ground_truth", None)
        stripped = tmp_path / "nogt.json"
        stripped.write_text(json.dumps(doc))
        rc = main(["eval", "--data", str(stripped),
                   "--checkpoint", str(workspace / "ck.json")])
        assert rc == 1
        assert "ground-truth" in capsys.readouterr().err

    def test_feature_dim_mismatch_is_runtime_error(self, workspace, tmp_path):
        other = tmp_path / "wide.json"
        assert main(["gen", "--classes", "2", "--bags", "2", "--negatives", "0",
                     "--proposals", "8", "--dim", "12", "--seed", "1",
                     "--out", str(other)]) == 0
        rc = main(["eval", "--data", str(other),
                   "--checkpoint", str(workspace / "ck.json")])
        assert rc == 1

    def test_other_bag_ids_evaluate(self, workspace, tmp_path, capsys):
        # score states are per training bag; evaluation reads only the params
        doc = json.loads((workspace / "ds.json").read_text())
        for rec in doc["bags"]:
            rec["id"] = "held-out-" + rec["id"]
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        rc = main(["eval", "--data", str(other), "--checkpoint", str(workspace / "ck.json")])
        assert rc == 0
        assert set(json.loads(capsys.readouterr().out)) == METRIC_KEYS

    def test_nms_iou_out_of_range_is_usage_error(self, workspace):
        rc = main(["eval", "--data", str(workspace / "ds.json"),
                   "--checkpoint", str(workspace / "ck.json"), "--nms-iou", "1.5"])
        assert rc == 2


class TestInspect:
    def run(self, workspace, capsys, bag):
        rc = main([
            "inspect", "--data", str(workspace / "ds.json"),
            "--checkpoint", str(workspace / "ck.json"), "--bag", bag,
        ])
        return rc, capsys.readouterr().out

    def test_positive_bag_structure(self, workspace, capsys):
        rc, out = self.run(workspace, capsys, "pos-c0-0000")
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"bag", "labels", "cliques", "selected", "disc_loss", "branches"}
        assert doc["labels"] == [1, 0]
        members = [m for c in doc["cliques"] for m in c["members"]]
        assert sorted(members) == list(range(10))
        assert all(len(c["boxes"]) == len(c["members"]) and len(c["mean_scores"]) == 2
                   for c in doc["cliques"])
        clique = doc["cliques"][doc["selected"]["0"]]["members"]
        # the default tier trains three branches; each scores the discovery
        # anchor of the selected clique first, then its predecessors' picks
        assert len(doc["branches"]) == 3
        anchors = [branch["anchors"] for branch in doc["branches"]]
        assert len({a["h"] for a in anchors[0]}) == len(anchors[0]) == 1
        assert all(branch[0]["h"] == anchors[0][0]["h"] for branch in anchors)
        assert anchors[0][0]["h"] in clique
        for branch in anchors:
            for a in branch:
                assert a["class"] == 0 and a["h"] in a["members"]
                assert a["members"] in [c["members"] for c in doc["cliques"]]
                w = np.array(a["weights"])
                assert w.shape == (len(a["members"]),)
                assert np.isfinite(w).all() and (w >= 0).all()
                assert math.isfinite(a["loss"]) and a["loss"] >= 0

    def test_negative_bag_has_no_selection(self, workspace, capsys):
        # training builds no partition for a bag without a positive class
        rc, out = self.run(workspace, capsys, "neg-0000")
        assert rc == 0
        doc = json.loads(out)
        assert doc["labels"] == [0, 0]
        assert doc["cliques"] == []
        assert doc["selected"] == {}
        assert doc["branches"] == []
        assert doc["disc_loss"] > 0

    def test_unknown_bag_is_runtime_error(self, workspace, capsys):
        rc, _ = self.run(workspace, capsys, "no-such-bag")
        assert rc == 1

    def test_single_proposal_bag_is_its_own_clique(self, workspace, tmp_path, capsys):
        solo = Bag(
            id="solo",
            labels=np.array([1, 0]),
            features=0.1 * np.ones((1, 8)),
            boxes=[[0.2, 0.2, 0.8, 0.8]],
            ground_truth=[(0, Box(0.2, 0.2, 0.8, 0.8))],
        )
        path = tmp_path / "solo.json"
        save_dataset(Dataset(classes=["a", "b"], feature_dim=8, bags=[solo]), str(path))
        rc = main(["inspect", "--data", str(path),
                   "--checkpoint", str(workspace / "ck.json"), "--bag", "solo"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["cliques"]) == 1
        assert doc["cliques"][0]["members"] == [0]
        assert doc["selected"] == {"0": 0}
        assert [[(a["h"], a["members"], a["weights"]) for a in branch["anchors"]]
                for branch in doc["branches"]] == [[(0, [0], [1.0])]] * 3

    def test_branchless_tier_prints_no_branches(self, workspace, tmp_path, capsys):
        data = str(workspace / "ds.json")
        ck = tmp_path / "clique.json"
        assert main(["train", "--data", data, "--out-checkpoint", str(ck),
                     "--epochs", "1", "--ablation", "clique"]) == 0
        capsys.readouterr()
        assert main(["inspect", "--data", data, "--checkpoint", str(ck),
                     "--bag", "pos-c1-0000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["labels"] == [0, 1]
        assert set(doc["selected"]) == {"1"} and doc["cliques"]
        # no training path of a tier without branches scores an anchor
        assert doc["branches"] == []


@pytest.fixture(scope="module")
def hidden_run(workspace, tmp_path_factory):
    """A directory whose ``ck.json`` is one epoch on the workspace dataset
    with a 3-wide hidden layer: 8 features, 2 classes, 3 branches."""
    root = tmp_path_factory.mktemp("hidden")
    assert main(["train", "--data", str(workspace / "ds.json"), "--out-checkpoint",
                 str(root / "ck.json"), "--epochs", "1", "--hidden-dim", "3"]) == 0
    return root


class TestCorruptCheckpoint:
    def edited(self, workspace, tmp_path, edit):
        """``workspace``'s ``ck.json``, edited, as JSON without a twin."""
        doc = json.loads((workspace / "ck.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def assert_every_command_rejects(self, ck, data, tmp_path, capsys):
        for argv in (
            ["train", "--data", data, "--resume", ck, "--epochs", "3",
             "--out-checkpoint", str(tmp_path / "out.json")],
            ["eval", "--data", data, "--checkpoint", ck],
            ["inspect", "--data", data, "--checkpoint", ck, "--bag", "neg-0000"],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: corrupt checkpoint") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d["buffers"].pop("disc_w"),
        lambda d: d["buffers"].update(extra=[0.0]),
        lambda d: d["buffers"].update(disc_b=[0.0]),
        lambda d: d["params"].update(disc_b=[0.0]),
        lambda d: d["s_h"].update({"neg-0000": [[1.0]]}),
        lambda d: d["s_h"].update({"neg-0000": [1.0, float("nan")]}),
        lambda d: d["config"].update(branches=2),
        lambda d: d.update(s_h=[]),
        lambda d: d.update(epoch=-3),
        lambda d: d["config"].update(top_k=2.5),
        lambda d: d.update(epoch=True),
        lambda d: d.update(rng_state=np.random.default_rng(1).bit_generator.state),
        lambda d: d.update(rng_state="junk"),
        lambda d: d["config"].update(shared_hidden=False),
        lambda d: d["config"].update(shared_hidden="no"),
        lambda d: d["config"].update(shared_hidden=1),
        lambda d: d["config"].update(batch_size=2),
        lambda d: d["config"].update(batch_size=True),
        lambda d: d["config"].pop("shared_hidden"),
        lambda d: d["config"].pop("batch_size"),
        lambda d: d["params"].update(disc_b=[True, False]),
        lambda d: d["params"].update(disc_b=["0.5", "1e-3"]),
        lambda d: d["params"].update(disc_b=[True, 0.5]),
        lambda d: d["params"]["disc_w"][0].__setitem__(0, True),
        lambda d: d["buffers"].update(disc_b=[None, 0.5]),
        lambda d: d["buffers"]["disc_b"].__setitem__(0, float("nan")),
        lambda d: d["s_h"].update({"neg-0000": [True] * 10}),
        lambda d: d.update(feature_dim=8.0),
        lambda d: d.update(num_classes=2.0),
        lambda d: d.update(hidden_dim=False),
        lambda d: d["rng_state"].update(has_uint32=False),
        lambda d: d["params"].update(extra=[0.0]),
        lambda d: d.update(epoch=3),
        lambda d: d["config"].update(init_scale=1e308),
    ], ids=["no-buffer", "extra-buffer", "buffer-shape", "param-shape", "s_h-matrix",
            "s_h-nan", "config-branches", "s_h-list", "epoch", "config-type", "epoch-bool",
            "rng_state-other-seed", "rng_state-junk", "shared_hidden-false",
            "shared_hidden-string", "shared_hidden-one", "batch_size-two", "batch_size-bool",
            "no-shared_hidden", "no-batch_size", "param-bools", "param-strings",
            "param-mixed-bool", "param-matrix-bool", "buffer-null", "buffer-nan", "s_h-bools",
            "feature_dim-float", "num_classes-float", "hidden_dim-bool", "rng_state-bool",
            "extra-param", "epoch-past-config", "init_scale-overflows"])
    def test_every_command_rejects_it(self, workspace, tmp_path, capsys, edit):
        ck = self.edited(workspace, tmp_path, edit)
        self.assert_every_command_rejects(ck, str(workspace / "ds.json"), tmp_path, capsys)

    @pytest.mark.parametrize("rank", [0, 1, 3])
    @pytest.mark.parametrize("name", ["hidden_w", "hidden_b", "disc_w", "disc_b", "loc_w.0",
                                      "loc_b.0", "loc_w.1", "loc_b.1", "loc_w.2", "loc_b.2"])
    def test_every_command_rejects_a_parameter_of_another_rank(
            self, workspace, hidden_run, tmp_path, capsys, name, rank):
        # no side of any parameter is 4, so the array fits no parameter
        bad = np.full((4,) * rank, 0.1).tolist()
        ck = self.edited(hidden_run, tmp_path, lambda d: d["params"].update({name: bad}))
        self.assert_every_command_rejects(ck, str(workspace / "ds.json"), tmp_path, capsys)

    def test_score_state_length_must_match_bag(self, workspace, tmp_path, capsys):
        ck = self.edited(workspace, tmp_path, lambda d: d["s_h"].update({"pos-c0-0000": [1.0]}))
        rc = main(["train", "--data", str(workspace / "ds.json"), "--resume", ck,
                   "--epochs", "3", "--out-checkpoint", str(tmp_path / "out.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "pos-c0-0000" in err and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()


class TestBadValues:
    """Every bad flag or config value is one ``error:`` line and exit 2,
    before any epoch runs or any file is written."""

    @pytest.mark.parametrize("argv, config", [
        (["train", "--lr", "nan"], None),
        (["train", "--lr-late", "nan"], None),
        (["train", "--kernel-a", "nan"], None),
        (["train", "--init-scale", "nan"], None),
        (["train", "--init-scale", "-1"], None),
        (["train", "--init-scale", "1e308"], None),
        (["train"], {"init_scale": 1e308}),
        (["train"], {"epochs": 2.5}),
        (["train"], {"top_k": True}),
        (["train"], {"momentum": "0.9"}),
        (["gen", "--noise-sigma", "nan"], None),
        (["gen"], {"bags_per_class": 2.5}),
        (["gen"], {"num_classes": None}),
        (["gen", "--classes", "0", "--bags", "6"], None),
        (["eval", "--score-floor", "nan"], None),
        (["eval", "--nms-iou", "inf"], None),
        (["eval"], {"score_floor": "abc"}),
        (["eval"], {"nms_iou": None}),
    ], ids=json.dumps)
    def test_exits_two_with_one_error_line(self, workspace, tmp_path, capsys, argv, config):
        out = tmp_path / "out" / "result.json"
        data, ck = str(workspace / "ds.json"), str(workspace / "ck.json")
        argv = argv + {
            "gen": ["--out", str(out)],
            "train": ["--data", data, "--out-checkpoint", str(out),
                      "--csv", str(tmp_path / "out" / "epochs.csv")],
            "eval": ["--data", data, "--checkpoint", ck, "--out", str(out),
                     "--csv", str(tmp_path / "out" / "metrics.csv")],
        }[argv[0]]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        (tmp_path / "out").mkdir()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["gen", "train"])
    @pytest.mark.parametrize("how, seed", [("flag", -1), ("config", -3)])
    def test_exits_two_naming_the_seed(self, workspace, tmp_path, capsys, command, how, seed):
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "gen": ["gen", "--out", str(out / "ds.json")],
            "train": ["train", "--data", str(workspace / "ds.json"),
                      "--out-checkpoint", str(out / "ck.json"), "--csv", str(out / "ep.csv")],
        }[command]
        if how == "flag":
            argv += ["--seed", str(seed)]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"error: seed must be >= 0, got {seed}"
        assert list(out.iterdir()) == []


class TestUnwritableOutput:
    """A path that cannot be written is exit 1 with one ``error:`` line that
    names that path and nothing on stdout, before any dataset is generated
    or any file is loaded, and leaves no file behind."""

    KINDS = ["directory", "missing parent", "file parent", "empty"]

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for name in ("generate_synthetic", "load_checkpoint", "load_dataset", "open_dataset"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} called"))

    def _tree(self, root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    def _target(self, tmp_path, kind):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        return {"directory": tmp_path / "adir", "missing parent": tmp_path / "absent" / "x.json",
                "file parent": tmp_path / "afile" / "x.json", "empty": ""}[kind]

    def _one_error_naming(self, capsys, path):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(str(path)) in err and ".tmp" not in err

    @pytest.mark.parametrize("kind", ["directory", "missing parent"])
    def test_gen_writes_no_dataset_and_no_sidecar(self, tmp_path, capsys, kind):
        out = tmp_path / "d.json"
        if kind == "directory":
            out.mkdir()
        else:
            out = tmp_path / "absent" / "d.json"
        before = self._tree(tmp_path)
        assert main(GEN + ["--out", str(out)]) == 1
        self._one_error_naming(capsys, out)
        assert self._tree(tmp_path) == before

    def test_gen_to_empty_path_writes_nothing(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(GEN + ["--out", ""]) == 1
        self._one_error_naming(capsys, "")
        assert self._tree(tmp_path) == ["work"]

    def test_train_names_the_checkpoint(self, workspace, tmp_path, capsys):
        out = tmp_path / "absent" / "ck.json"
        assert main(["train", "--data", str(workspace / "ds.json"),
                     "--out-checkpoint", str(out), "--epochs", "1"]) == 1
        self._one_error_naming(capsys, out)
        assert self._tree(tmp_path) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_checks_the_checkpoint_before_training(self, workspace, tmp_path, capsys, kind):
        # the target is checked before the dataset loads, so no epoch runs
        # and the CSV gets no row; a rerun would otherwise append them again
        out = self._target(tmp_path, kind)
        before = self._tree(tmp_path)
        csv = tmp_path / "ep.csv"
        assert main(["train", "--data", str(workspace / "ds.json"), "--out-checkpoint", str(out),
                     "--epochs", "5", "--csv", str(csv)]) == 1
        self._one_error_naming(capsys, out)
        assert self._tree(tmp_path) == before

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_checks_the_csv_before_any_load(self, workspace, tmp_path, capsys, kind):
        csv = self._target(tmp_path, kind)
        before = self._tree(tmp_path)
        assert main(["train", "--data", str(workspace / "ds.json"),
                     "--out-checkpoint", str(tmp_path / "ck.json"),
                     "--resume", str(workspace / "ck.json"), "--csv", str(csv)]) == 1
        self._one_error_naming(capsys, csv)
        assert self._tree(tmp_path) == before

    def test_eval_names_the_metrics_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "absent" / "metrics.json"
        assert main(["eval", "--data", str(workspace / "ds.json"),
                     "--checkpoint", str(workspace / "ck.json"), "--out", str(out)]) == 1
        self._one_error_naming(capsys, out)
        assert self._tree(tmp_path) == []

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_checks_its_outputs_before_any_load(self, workspace, tmp_path, capsys, flag,
                                                     kind):
        target = self._target(tmp_path, kind)
        before = self._tree(tmp_path)
        assert main(["eval", "--data", str(workspace / "ds.json"),
                     "--checkpoint", str(workspace / "ck.json"), flag, str(target)]) == 1
        self._one_error_naming(capsys, target)
        assert self._tree(tmp_path) == before


class TestOutputNamesAnInput:
    """An output that is the file of an input flag or of another output is
    exit 1 with one ``error:`` line naming both flags and nothing on stdout,
    before any work, so every file stays as it was; ``train`` may write the
    checkpoint it resumes."""

    EVAL = ["eval", "--data", "ds.json", "--checkpoint", "ck.json"]
    TRAIN = ["train", "--data", "ds.json"]

    @pytest.fixture
    def files(self, workspace, tmp_path, monkeypatch):
        for name in ("ds.json", "ck.json"):
            for path in (name, name + TWIN_SUFFIX):
                shutil.copy(workspace / path, tmp_path / path)
        (tmp_path / "c.json").write_text('{"seed": 7}')
        (tmp_path / "c.npz").write_text('{"seed": 7}')
        os.symlink("ds.json", tmp_path / "link.json")
        os.link(tmp_path / "ck.json", tmp_path / "hard.json")
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("argv, flags", [
        (TRAIN + ["--out-checkpoint", "ds.json"], ("--out-checkpoint", "--data")),
        (TRAIN + ["--out-checkpoint", "sub/../ds.json"], ("--out-checkpoint", "--data")),
        (TRAIN + ["--out-checkpoint", "link.json"], ("--out-checkpoint", "--data")),
        (TRAIN + ["--out-checkpoint", "x.json", "--csv", "x.json"], ("--csv", "--out-checkpoint")),
        (TRAIN + ["--resume", "ck.json", "--out-checkpoint", "x.json", "--csv", "hard.json"],
         ("--csv", "--resume")),
        (TRAIN + ["--config", "c.json", "--out-checkpoint", "c.json"],
         ("--out-checkpoint", "--config")),
        (EVAL + ["--out", "ds.json"], ("--out", "--data")),
        (EVAL + ["--out", "ck.json"], ("--out", "--checkpoint")),
        (EVAL + ["--csv", "link.json"], ("--csv", "--data")),
        (EVAL + ["--out", "m.json", "--csv", "m.json"], ("--csv", "--out")),
        (GEN + ["--config", "c.json", "--out", "c.json"], ("--out", "--config")),
    ], ids=["train-data", "train-data-spelled", "train-data-symlink", "train-csv-checkpoint",
            "train-csv-resume-hardlink", "train-config", "eval-data", "eval-checkpoint",
            "eval-csv-data-symlink", "eval-csv-out", "gen-config"])
    def test_collision_changes_no_file(self, files, capsys, argv, flags):
        self.assert_refused(files, capsys, argv, flags)

    @pytest.mark.parametrize("argv, flags, message", [
        (TRAIN + ["--out-checkpoint", "ds.json.npz"], ("--out-checkpoint", "--data"),
         "names the same file as the twin of"),
        (TRAIN + ["--out-checkpoint", "sub/../ds.json.npz"], ("--out-checkpoint", "--data"),
         "names the same file as the twin of"),
        (TRAIN + ["--resume", "ck.json", "--out-checkpoint", "ck.json.npz"],
         ("--out-checkpoint", "--resume"), "names the same file as the twin of"),
        (TRAIN + ["--resume", "ck.json.npz", "--out-checkpoint", "ck.json"],
         ("--out-checkpoint", "--resume"), "writes its twin 'ck.json.npz' over"),
        (["train", "--data", "ds.json.npz", "--out-checkpoint", "ds.json"],
         ("--out-checkpoint", "--data"), "writes its twin 'ds.json.npz' over"),
        (TRAIN + ["--out-checkpoint", "x.json", "--csv", "x.json.npz"],
         ("--csv", "--out-checkpoint"), "names the same file as the twin of"),
        (EVAL + ["--out", "ck.json.npz"], ("--out", "--checkpoint"),
         "names the same file as the twin of"),
        (EVAL + ["--out", "m.json", "--csv", "ds.json.npz"], ("--csv", "--data"),
         "names the same file as the twin of"),
        (GEN + ["--config", "c.npz", "--out", "c"], ("--out", "--config"),
         "writes its twin 'c.npz' over"),
    ], ids=["train-data-twin", "train-data-twin-spelled", "train-resume-twin",
            "train-twin-resume", "train-twin-data", "train-csv-checkpoint-twin",
            "eval-checkpoint-twin", "eval-csv-data-twin", "gen-twin-config"])
    def test_twin_collision_changes_no_file(self, files, capsys, argv, flags, message):
        err = self.assert_refused(files, capsys, argv, flags)
        assert err.endswith(f" {message} {flags[1]}\n")

    @staticmethod
    def assert_refused(files, capsys, argv, flags) -> str:
        """Run ``argv``: exit 1, one ``error:`` line naming ``flags``, an
        empty stdout and every file as it was; returns the line."""
        before = {p: p.read_bytes() for p in files.rglob("*") if p.is_file()}
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {flags[0]} ") and err.endswith(f" {flags[1]}\n")
        assert {p: p.read_bytes() for p in files.rglob("*") if p.is_file()} == before
        return err

    def test_resume_may_write_its_checkpoint(self, files, capsys):
        assert main(self.TRAIN + ["--epochs", "3", "--stop-after", "1",
                                  "--out-checkpoint", "ck.json"]) == 0
        assert main(self.TRAIN + ["--epochs", "3", "--resume", "ck.json",
                                  "--out-checkpoint", "ck.json"]) == 0
        assert main(self.TRAIN + ["--epochs", "3", "--out-checkpoint", "full.json"]) == 0
        for suffix in ("", TWIN_SUFFIX):
            assert (files / f"ck.json{suffix}").read_bytes() == \
                (files / f"full.json{suffix}").read_bytes()


class TestLoadOrder:
    """``eval`` and ``inspect`` open the checkpoint before the dataset."""

    @pytest.fixture
    def loads(self, monkeypatch):
        """The paths that ``load_dataset`` and ``open_dataset`` are called with."""
        calls = []
        for name in ("load_dataset", "open_dataset"):
            def counting(path, *args, real=getattr(cli, name), **kwargs):
                calls.append(path)
                return real(path, *args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        return calls

    @staticmethod
    def argv(command, data, ck):
        extra = ["--bag", "neg-0000"] if command == "inspect" else []
        return [command, "--data", data, "--checkpoint", ck, *extra]

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_bad_checkpoint_fails_before_any_dataset_load(
            self, workspace, tmp_path, capsys, loads, command):
        data = str(workspace / "ds.json")
        missing = str(tmp_path / "missing.json")
        assert main(self.argv(command, data, missing)) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read checkpoint {missing}: "
            f"[Errno 2] No such file or directory: '{missing}'\n"
        )
        doc = json.loads((workspace / "ck.json").read_text())
        doc["params"]["disc_b"] = [0.0]
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(json.dumps(doc))
        assert main(self.argv(command, data, str(corrupt))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt checkpoint") and err.count("\n") == 1
        assert loads == []

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_bad_dataset_message_is_unchanged(
            self, workspace, tmp_path, capsys, loads, command):
        ck = str(workspace / "ck.json")
        missing = str(tmp_path / "absent.json")
        assert main(self.argv(command, missing, ck)) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read dataset {missing}: "
            f"[Errno 2] No such file or directory: '{missing}'\n"
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"classes": ["a"], "bags": []}))
        assert main(self.argv(command, str(bad), ck)) == 1
        assert capsys.readouterr().err == "error: dataset file missing 'feature_dim'\n"
        assert loads == [missing, str(bad)]


class TestUnreadableDataset:
    """A dataset file that is not JSON exits 1 with one ``error:`` line that
    names it as the dataset, and nothing on stdout."""

    @pytest.mark.parametrize("content", [b"not json\n", b'{"classes":["a"],"bags":[', b"\xff\xfe"],
                             ids=["text", "truncated", "not utf-8"])
    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    def test_error_names_the_dataset(self, workspace, tmp_path, capsys, command, content):
        data = tmp_path / "ds.json"
        data.write_bytes(content)
        ck = str(workspace / "ck.json")
        rest = {"train": ["--out-checkpoint", str(tmp_path / "out.json")],
                "eval": ["--checkpoint", ck],
                "inspect": ["--checkpoint", ck, "--bag", "neg-0000"]}[command]
        assert main([command, "--data", str(data), *rest]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: unreadable dataset {data}: ")
        assert not (tmp_path / "out.json").exists()


class TestStaleTwin:
    """A stale dataset or checkpoint twin gives ``train``, ``train --resume``
    and ``inspect`` the same bytes as no twin."""

    @pytest.mark.parametrize("stale", ["dataset", "checkpoint"])
    def test_stale_twin_equals_no_twin(self, tmp_path, capsys, stale):
        ds, ck, out = tmp_path / "ds.json", tmp_path / "ck.json", tmp_path / "out"
        assert main(GEN + ["--out", str(ds)]) == 0
        assert main(["train", "--data", str(ds), "--out-checkpoint", str(ck), "--epochs", "2",
                     "--stop-after", "1", "--seed", "0"]) == 0
        capsys.readouterr()

        def run():
            """Each command's stdout, checkpoint, and CSV lines less ``seconds``."""
            outputs = []
            for command, *rest in (["train", "--epochs", "2"], ["train", "--resume", str(ck)],
                                   ["inspect", "--checkpoint", str(ck), "--bag", "pos-c0-0000"]):
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
                if command == "train":
                    rest += ["--out-checkpoint", str(out / "ck.json"), "--csv", str(out / "ep.csv")]
                assert main([command, "--data", str(ds), *rest]) == 0
                written = None
                if command == "train":  # seconds is the CSV's last column
                    written = (out / "ck.json").read_bytes(), [
                        line.rsplit(",", 1)[0] for line in (out / "ep.csv").read_text().splitlines()]
                outputs.append((capsys.readouterr().out, written))
            return outputs

        fresh = run()
        if stale == "dataset":  # a same-length label edit
            target = ds
            ds.write_text(ds.read_text().replace('"labels":[1', '"labels":[0', 1))
        else:
            target, doc = ck, json.loads(ck.read_text())
            doc["params"]["disc_b"][0] += 1.0
            ck.write_text(json.dumps(doc))
        with_twin = run()
        os.unlink(str(target) + TWIN_SUFFIX)
        assert with_twin == run()
        # the edit shows in every output that reads the edited file
        changed = [a != b for a, b in zip(with_twin, fresh)]
        assert changed == [stale == "dataset", True, True]


class TestSidecarByteIdentity:
    """Every output is the same whether the dataset loads through its
    sidecar or through its JSON, and loading writes nothing."""

    @pytest.mark.parametrize("tier", [
        ["--ablation", "clique"],
        ["--ablation", "l-arl"],
        ["--ablation", "l-arl", "--hidden-dim", "8"],
    ], ids=" ".join)
    def test_outputs_equal_without_sidecar(self, tmp_path, capsys, monkeypatch, tier):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        ds = data_dir / "ds.json"
        assert main(GEN + ["--out", str(ds)]) == 0
        parses = []
        real = data_module.read_json

        def counting(path):
            parses.append(path)
            return real(path)

        monkeypatch.setattr(data_module, "read_json", counting)

        def listing():
            return sorted((p.name, p.stat().st_mtime_ns) for p in data_dir.iterdir())

        def run(out):
            out.mkdir()
            ck, csv, metrics = out / "ck.json", out / "epochs.csv", out / "metrics.json"
            assert main(["train", "--data", str(ds), "--out-checkpoint", str(ck),
                         "--csv", str(csv), "--epochs", "2", "--seed", "0", *tier]) == 0
            assert main(["eval", "--data", str(ds), "--checkpoint", str(ck),
                         "--out", str(metrics)]) == 0
            capsys.readouterr()
            assert main(["inspect", "--data", str(ds), "--checkpoint", str(ck),
                         "--bag", "pos-c1-0001"]) == 0
            inspected = capsys.readouterr().out
            rows = [line.split(",") for line in csv.read_text().splitlines()]
            col = rows[0].index("seconds")
            rows = [row[:col] + row[col + 1:] for row in rows]
            return ck.read_bytes(), rows, metrics.read_bytes(), inspected

        before = listing()
        assert [name for name, _ in before] == ["ds.json", "ds.json" + TWIN_SUFFIX]
        with_sidecar = run(tmp_path / "with")
        assert listing() == before
        assert parses == []
        os.unlink(str(ds) + TWIN_SUFFIX)
        before = listing()
        without = run(tmp_path / "without")
        assert listing() == before
        assert parses == [str(ds)] * 3
        assert with_sidecar == without


class TestCheckpointTwinByteIdentity:
    """``eval``, ``inspect`` and ``train --resume`` give the same bytes
    whether the checkpoint loads through its twin or its JSON, parse the
    checkpoint's JSON only when the twin is gone, and write nothing beside
    the checkpoint."""

    @pytest.mark.parametrize("tier", [
        ["--ablation", "clique"],
        ["--ablation", "l-arl"],
        ["--ablation", "l-arl", "--hidden-dim", "8"],
    ], ids=" ".join)
    def test_outputs_equal_without_twin(self, tmp_path, capsys, monkeypatch, tier):
        ds = tmp_path / "ds.json"
        assert main(GEN + ["--out", str(ds)]) == 0
        ck_dir = tmp_path / "ck"
        ck_dir.mkdir()
        ck = ck_dir / "ck.json"
        assert main(["train", "--data", str(ds), "--out-checkpoint", str(ck), "--epochs", "2",
                     "--stop-after", "1", "--seed", "0", *tier]) == 0
        parses = []
        real = trainer_module.read_json
        monkeypatch.setattr(trainer_module, "read_json",
                            lambda path: parses.append(path) or real(path))

        def listing():
            return sorted((p.name, p.stat().st_mtime_ns) for p in ck_dir.iterdir())

        def run(out):
            out.mkdir()
            metrics, csv, resumed = out / "metrics.json", out / "m.csv", out / "resumed.json"
            assert main(["eval", "--data", str(ds), "--checkpoint", str(ck),
                         "--out", str(metrics), "--csv", str(csv)]) == 0
            capsys.readouterr()
            assert main(["inspect", "--data", str(ds), "--checkpoint", str(ck),
                         "--bag", "pos-c1-0001"]) == 0
            inspected = capsys.readouterr().out
            assert main(["train", "--data", str(ds), "--resume", str(ck),
                         "--out-checkpoint", str(resumed)]) == 0
            return metrics.read_bytes(), csv.read_bytes(), inspected, resumed.read_bytes()

        before = listing()
        assert [name for name, _ in before] == ["ck.json", "ck.json" + TWIN_SUFFIX]
        with_twin = run(tmp_path / "with")
        assert listing() == before
        assert parses == []
        os.unlink(str(ck) + TWIN_SUFFIX)
        before = listing()
        without = run(tmp_path / "without")
        assert listing() == before
        assert parses == [str(ck)] * 3
        assert with_twin == without


class TestDeferredDatasetHash:
    """``eval`` scores a dataset twin while the JSON's hash still runs and
    checks the hash before it prints or writes; a stale twin's pass is
    discarded and the JSON scored, so every outcome equals that of ``eval``
    without the twin, and no thread or file stays open."""

    @pytest.fixture
    def data(self, workspace, tmp_path):
        """A copy of the workspace dataset with its twin."""
        for name in ("ds.json", "ds.json" + TWIN_SUFFIX):
            shutil.copyfile(workspace / name, tmp_path / name)
        return tmp_path / "ds.json"

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every file that ``jsonio`` opens."""
        files = []

        def tracking(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(jsonio_module, "open", tracking, raising=False)
        return files

    @staticmethod
    def run(capsys, workspace, data):
        rc = main(["eval", "--data", str(data), "--checkpoint", str(workspace / "ck.json")])
        return (rc, *capsys.readouterr())

    def without_twin(self, capsys, workspace, data):
        os.unlink(str(data) + TWIN_SUFFIX)
        return self.run(capsys, workspace, data)

    def test_scoring_starts_before_the_hash_ends(self, workspace, data, capsys, monkeypatch):
        monkeypatch.setattr(jsonio_module, "hashlib", SimpleNamespace(sha256=_SlowSha256))
        threads, hashing, real = threading.active_count(), [], cli.evaluate

        def evaluate(*args, **kwargs):
            hashing.append(threading.active_count() == threads + 1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", evaluate)
        with_twin = self.run(capsys, workspace, data)
        assert hashing == [True] and threading.active_count() == threads
        assert with_twin == self.without_twin(capsys, workspace, data)
        assert with_twin[0] == 0 and with_twin[2] == ""

    @pytest.mark.parametrize("case", ["current", "stale", "malformed twin", "missing JSON",
                                      "other feature_dim", "no ground truth", "evaluate raises",
                                      "scoring interrupted"])
    def test_no_thread_or_file_stays_open(self, workspace, data, capsys, monkeypatch, opened,
                                          case):
        scored = []
        if case == "stale":
            data.write_text(data.read_text().replace('"labels":[1', '"labels":[0', 1))
        elif case == "malformed twin":
            Path(str(data) + TWIN_SUFFIX).write_bytes(b"not an archive")
        elif case == "missing JSON":
            os.unlink(data)
        elif case == "other feature_dim":
            assert main(["gen", "--classes", "2", "--bags", "2", "--negatives", "0",
                         "--proposals", "8", "--dim", "12", "--seed", "1",
                         "--out", str(data)]) == 0
        elif case == "no ground truth":
            save_dataset(load_dataset(str(data)).training_view(), str(data))
        elif case == "evaluate raises":
            def evaluate(*args, **kwargs):
                raise ValueError("evaluate failed")

            monkeypatch.setattr(cli, "evaluate", evaluate)
        elif case == "scoring interrupted":  # while the slowed hash still runs
            def evaluate(*args, **kwargs):
                scored.append(1)
                raise KeyboardInterrupt

            monkeypatch.setattr(cli, "evaluate", evaluate)
            monkeypatch.setattr(jsonio_module, "hashlib", SimpleNamespace(sha256=_SlowSha256))
        capsys.readouterr()
        opened.clear()
        threads = threading.active_count()
        try:
            rc, out, err = self.run(capsys, workspace, data)
        except KeyboardInterrupt:  # at once: no JSON pass follows
            rc, out, err = None, *capsys.readouterr()
            assert scored == [1]
        ok = {"current": 0, "stale": 0, "malformed twin": 0, "scoring interrupted": None}
        assert rc == ok.get(case, 1)
        assert (out == "") == (rc != 0) and err.count("error:") == (rc == 1)
        assert threading.active_count() == threads
        names, read = [f.name for f in opened], case != "missing JSON"
        assert opened and all(f.closed for f in opened)
        assert (str(data) in names) == (str(data) + TWIN_SUFFIX in names) == read

    def test_stale_twin_costs_one_build_and_one_hash(self, workspace, data, capsys, monkeypatch):
        ck = data.parent / "ck.json"
        shutil.copyfile(workspace / "ck.json", ck)  # no twin, so every hash is the dataset's
        data.write_text(data.read_text().replace('"labels":[1', '"labels":[0', 1))
        builds, hashes = [], []
        build = data_module._dataset_from_twin
        monkeypatch.setattr(data_module, "_dataset_from_twin",
                            lambda *args: builds.append(1) or build(*args))
        monkeypatch.setattr(jsonio_module, "hashlib", SimpleNamespace(
            sha256=lambda: hashes.append(1) or hashlib.sha256()))
        assert main(["eval", "--data", str(data), "--checkpoint", str(ck)]) == 0
        assert (len(builds), len(hashes)) == (1, 1)

    @pytest.mark.parametrize("edit", ['"labels":[0', '"labels":[2'])
    def test_stale_twin_equals_no_twin(self, workspace, data, capsys, edit):
        current = self.run(capsys, workspace, data)
        data.write_text(data.read_text().replace('"labels":[1', edit, 1))
        stale = self.run(capsys, workspace, data)
        assert stale == self.without_twin(capsys, workspace, data)
        if edit == '"labels":[0':  # metrics change
            assert stale[0] == 0 and stale[1] != current[1] and stale[2] == ""
        else:  # the JSON's DataError, and nothing of the twin's pass
            assert stale[:2] == (1, "") and stale[2].startswith("error: bag 'pos-c0-0000'")

    def test_stale_twin_pass_warns_nothing(self, workspace, data, capsys):
        def warned(path):  # eval as a user runs it: a warning prints, not raises
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                return self.run(capsys, workspace, path)

        full = data.read_bytes()
        doc = json.loads(full)
        for rec in doc["bags"]:
            if "ground_truth" in rec:
                rec["ground_truth"] = [g for g in rec["ground_truth"] if g["class"] != 1]
        data.write_text(json.dumps(doc))
        os.unlink(str(data) + TWIN_SUFFIX)
        save_dataset(load_dataset(str(data)), str(data))  # twin and JSON without class 1's boxes
        bare = data.parent / "bare" / "ds.json"
        bare.parent.mkdir()
        shutil.copyfile(data, bare)
        current = warned(data)
        assert current == warned(bare)
        assert current[2] == "warning: corloc: class 1 has no positive bags with ground truth\n"
        data.write_bytes(full)  # the twin's pass would warn, the JSON's does not
        stale = warned(data)
        os.unlink(str(data) + TWIN_SUFFIX)
        assert stale == warned(data)
        assert stale[0] == 0 and stale[2] == ""


class TestMain:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out
