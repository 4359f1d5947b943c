import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from minent import cli
from minent import data as data_module
from minent.cli import main
from minent.data import SIDECAR_SUFFIX, Bag, Dataset, load_dataset, save_dataset
from minent.entropy import Clique, localization_loss, row_softmax
from minent.geometry import Box
from minent.model import forward
from minent.trainer import csv_header, load_checkpoint

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
    def test_resume_rejects_shape_change(self, workspace, tmp_path, capsys, flag, change):
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
        assert {"cliques", "selected", "h_star", "weights", "hard_negatives"} <= set(doc)
        assert doc["labels"] == [1, 0]
        members = {m for c in doc["cliques"] for m in c["members"]}
        assert members == set(range(10))
        ci = doc["selected"]["0"]
        clique = doc["cliques"][ci]
        assert doc["h_star"]["0"] in clique["members"]
        w = np.array(doc["weights"]["0"])
        assert w.shape == (len(clique["members"]),)
        assert np.isfinite(w).all() and (w >= 0).all()
        assert doc["h_star"]["0"] not in doc["hard_negatives"]["0"]

    def test_negative_bag_has_no_selection(self, workspace, capsys):
        rc, out = self.run(workspace, capsys, "neg-0000")
        assert rc == 0
        doc = json.loads(out)
        assert doc["cliques"]
        assert doc["selected"] == {}
        assert doc["h_star"] == {}
        assert doc["weights"] == {}

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
        assert doc["h_star"] == {"0": 0}
        assert doc["weights"]["0"] == [1.0]

    def test_branchless_tier_weights_come_from_discovery(self, workspace, tmp_path, capsys):
        data = str(workspace / "ds.json")
        ck = tmp_path / "clique.json"
        assert main(["train", "--data", data, "--out-checkpoint", str(ck),
                     "--epochs", "1", "--ablation", "clique"]) == 0
        capsys.readouterr()
        assert main(["inspect", "--data", data, "--checkpoint", str(ck),
                     "--bag", "pos-c1-0000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["labels"] == [0, 1]
        members = doc["cliques"][doc["selected"]["1"]]["members"]
        h = doc["h_star"]["1"]
        assert h in members
        # a tier without branches weighs the clique by discovery probabilities
        state = load_checkpoint(str(ck))
        bag = load_dataset(data).bag_by_id("pos-c1-0000")
        q_disc = row_softmax(forward(state.params, bag.features, "disc"))
        clique = Clique(tuple(members))
        out, _ = localization_loss(clique, h, q_disc, bag.boxes, state.config.kernel_a, 1)
        assert doc["weights"]["1"] == [float(v) for v in out.soft_weights]


class TestCorruptCheckpoint:
    def edited(self, workspace, tmp_path, edit):
        doc = json.loads((workspace / "ck.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

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
    ], ids=["no-buffer", "extra-buffer", "buffer-shape", "param-shape", "s_h-matrix",
            "s_h-nan", "config-branches", "s_h-list", "epoch", "config-type", "epoch-bool",
            "rng_state-other-seed", "rng_state-junk", "shared_hidden-false",
            "shared_hidden-string", "shared_hidden-one", "batch_size-two", "batch_size-bool",
            "no-shared_hidden", "no-batch_size", "param-bools", "param-strings",
            "param-mixed-bool", "param-matrix-bool", "buffer-null", "buffer-nan", "s_h-bools",
            "feature_dim-float", "num_classes-float", "hidden_dim-bool", "rng_state-bool",
            "extra-param", "epoch-past-config"])
    def test_every_command_rejects_it(self, workspace, tmp_path, capsys, edit):
        ck = self.edited(workspace, tmp_path, edit)
        data = str(workspace / "ds.json")
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
    names that path, and leaves no file behind."""

    def _tree(self, root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    def _one_error_naming(self, capsys, path):
        err = capsys.readouterr().err
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

    @pytest.mark.parametrize("kind", ["directory", "missing parent", "file parent", "empty"])
    def test_train_checks_the_checkpoint_before_training(
            self, workspace, tmp_path, monkeypatch, capsys, kind):
        # the target is checked before the dataset loads, so no epoch runs
        # and the CSV gets no row; a rerun would otherwise append them again
        out = {"directory": tmp_path / "adir", "missing parent": tmp_path / "absent" / "ck.json",
               "file parent": tmp_path / "afile" / "ck.json", "empty": ""}[kind]
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        before = self._tree(tmp_path)
        monkeypatch.setattr(cli, "load_dataset", lambda path: pytest.fail("dataset loaded"))
        csv = tmp_path / "ep.csv"
        assert main(["train", "--data", str(workspace / "ds.json"), "--out-checkpoint", str(out),
                     "--epochs", "5", "--csv", str(csv)]) == 1
        self._one_error_naming(capsys, out)
        assert self._tree(tmp_path) == before

    def test_eval_names_the_metrics_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "absent" / "metrics.json"
        assert main(["eval", "--data", str(workspace / "ds.json"),
                     "--checkpoint", str(workspace / "ck.json"), "--out", str(out)]) == 1
        self._one_error_naming(capsys, out)
        assert self._tree(tmp_path) == []


class TestLoadOrder:
    """``eval`` and ``inspect`` open the checkpoint before the dataset."""

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []
        real = cli.load_dataset

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli, "load_dataset", counting)
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
        assert [name for name, _ in before] == ["ds.json", "ds.json" + SIDECAR_SUFFIX]
        with_sidecar = run(tmp_path / "with")
        assert listing() == before
        assert parses == []
        os.unlink(str(ds) + SIDECAR_SUFFIX)
        before = listing()
        without = run(tmp_path / "without")
        assert listing() == before
        assert parses == [str(ds)] * 3
        assert with_sidecar == without


class TestMain:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out
