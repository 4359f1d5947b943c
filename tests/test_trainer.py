import json
from dataclasses import asdict, fields
from functools import reduce

import numpy as np
import pytest

from minent import evaluate as evaluate_module
from minent import model as model_module
from minent import trainer as trainer_module
from minent.data import SynthConfig, generate_synthetic
from minent.evaluate import dataset_loc_stats, evaluate
from minent.geometry import Box
from minent.model import init_params
from minent.trainer import (
    ABLATION_TIERS,
    CheckpointError,
    EpochReport,
    TrainConfig,
    TrainingDiverged,
    csv_header,
    init_state,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    tier_switches,
    train,
)


def small_ds(seed=3):
    return generate_synthetic(
        SynthConfig(
            num_classes=2,
            bags_per_class=4,
            negatives=2,
            proposals_per_bag=8,
            feature_dim=6,
            seed=seed,
        )
    )


def mixed_pairs_ds():
    """``small_ds`` with a bag positive for both classes, each with ground
    truth, a positive bag without ground truth, and a negative bag with
    ground truth."""
    ds = small_ds()
    both = ds.bags[0]
    both.labels = np.array([1, 1])
    both.ground_truth = both.ground_truth + [(1, Box(*both.boxes[-1]))]
    ds.bags[1].ground_truth = None
    ds.bags[-1].ground_truth = [(0, Box(*ds.bags[-1].boxes[0]))]  # a negative bag
    return ds


def small_cfg(**kw):
    base = dict(epochs=2, branches=2, seed=1, top_k=8)
    base.update(kw)
    return TrainConfig(**base)


def params_equal(a, b):
    for (na, xa), (nb, xb) in zip(a.named_arrays(), b.named_arrays()):
        if na != nb or not np.array_equal(xa, xb):
            return False
    return True


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()
        assert not hasattr(TrainConfig, "validate")

    @pytest.mark.parametrize("kw", [
        {"epochs": 0},
        {"lr": -1e-3},
        {"momentum": -0.1},
        {"weight_decay": -1.0},
        {"tau": 0.0},
        {"tau": 1.0},
        {"top_k": 0},
        {"kernel_a": 0.0},
        {"loc_weight": -0.5},
        {"branches": 0},
        {"ablation": "everything"},
        {"hidden_dim": -2},
        {"init_scale": -1.0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_lr_schedule_default_split(self):
        cfg = TrainConfig(epochs=20)
        assert [cfg.lr_for_epoch(e) for e in range(1, 16)] == [5e-3] * 15
        assert [cfg.lr_for_epoch(e) for e in range(16, 21)] == [5e-4] * 5

    def test_lr_schedule_scales_with_epochs(self):
        cfg = TrainConfig(epochs=4)
        assert [cfg.lr_for_epoch(e) for e in (1, 2, 3)] == [5e-3] * 3
        assert cfg.lr_for_epoch(4) == 5e-4

    def test_lr_schedule_single_epoch_uses_early_rate(self):
        assert TrainConfig(epochs=1).lr_for_epoch(1) == 5e-3

    @pytest.mark.parametrize("kw", [{"batch_size": 2}, {"shared_hidden": False}])
    def test_removed_knobs_are_not_settable(self, kw):
        with pytest.raises(TypeError):
            TrainConfig(**kw)

    def test_batch_size_is_a_constant(self):
        names = {f.name for f in fields(TrainConfig)}
        assert len(names) == 14
        assert not names & {"batch_size", "shared_hidden"}
        assert TrainConfig().batch_size == 1


class TestTierSwitches:
    def test_mapping(self):
        rows = {
            "base": (False, False, 0, "disc"),
            "clique": (True, False, 0, "disc"),
            "d": (True, False, 1, "disc"),
            "l": (True, False, 1, 0),
            "l-rl": (True, True, 1, 0),
            "l-arl": (True, True, 3, 2),
        }
        for tier, want in rows.items():
            s = tier_switches(TrainConfig(ablation=tier, branches=3))
            got = (s.use_cliques, s.use_feedback, s.active_branches, s.detect_head)
            assert got == want, tier

    def test_resolved_once_per_run(self, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return tier_switches(cfg)

        monkeypatch.setattr(trainer_module, "tier_switches", counting)
        cfg = small_cfg(epochs=2, ablation="clique")
        train(small_ds(), cfg)
        assert calls == [cfg]


class TestSgdStep:
    # sgd_step updates flat vectors in place; a parameter without a gradient
    # holds -0.0 in the gradient vector
    NO_GRAD = np.array([-0.0])

    def test_plain_gradient_descent(self):
        x, buf = np.array([1.0]), np.zeros(1)
        sgd_step(x, np.array([0.5]), buf, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert x[0] == pytest.approx(0.95)

    def test_zero_grad_zero_buffer_no_motion(self):
        x, buf = np.array([2.0]), np.zeros(1)
        sgd_step(x, self.NO_GRAD, buf, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert x[0] == 2.0

    def test_momentum_two_steps_match_hand_sequence(self):
        # quadratic f(x) = x^2/2, grad = x, x0 = 1, lr = 0.1, momentum = 0.9:
        # step 1: buf = 1.0, x = 0.9; step 2: buf = 0.9 + 0.9 = 1.8, x = 0.72
        x, buf = np.array([1.0]), np.zeros(1)
        sgd_step(x, x.copy(), buf, 0.1, 0.9, 0.0)
        assert x[0] == pytest.approx(0.9)
        sgd_step(x, x.copy(), buf, 0.1, 0.9, 0.0)
        assert x[0] == pytest.approx(0.72)

    def test_weight_decay_shrinks(self):
        x, buf = np.array([1.0]), np.zeros(1)
        sgd_step(x, self.NO_GRAD, buf, lr=1.0, momentum=0.0, weight_decay=0.1)
        assert x[0] == pytest.approx(0.9)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_no_gradient_is_weight_decay_to_the_bit(self, weight_decay):
        # the per-array update of a head without gradient was wd*param, with
        # no gradient term at all; -0.0 + wd*param is that, signed zeros too
        rng = np.random.default_rng(0)
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324], rng.normal(size=60)])
        buf = np.concatenate([[0.0, -0.0, -0.0, 0.0], rng.normal(size=60)])
        want_x, want_buf = x.copy(), buf.copy()
        update = weight_decay * want_x
        want_buf *= 0.9
        want_buf += update
        want_x -= 0.1 * want_buf
        sgd_step(x, np.full_like(x, -0.0), buf, 0.1, 0.9, weight_decay)
        assert x.tobytes() == want_x.tobytes() and buf.tobytes() == want_buf.tobytes()


class TestTrain:
    def test_runs_and_reports(self):
        ds = small_ds()
        state, reports = train(ds, small_cfg())
        assert state.epoch == 2
        assert len(reports) == 2
        for r in reports:
            assert np.isfinite(r.disc_loss)
            assert len(r.loc_losses) == 2
            assert all(np.isfinite(v) for v in r.loc_losses)
            assert np.isfinite(r.global_entropy)
            assert r.seconds >= 0

    def test_zero_lr_keeps_params(self):
        ds = small_ds()
        cfg = small_cfg(epochs=1, lr=0.0, lr_late=0.0)
        fresh = init_state(ds, cfg)
        init_copy = {n: a.copy() for n, a in fresh.params.named_arrays()}
        state, _ = train(ds, cfg)
        for name, arr in state.params.named_arrays():
            np.testing.assert_array_equal(arr, init_copy[name])
        # feedback tier still refreshed the per-bag scores on positive bags
        changed = [
            bag.id for bag in ds.bags
            if bag.labels.sum() and not np.all(state.s_h[bag.id] == 1.0)
        ]
        assert changed

    def test_deterministic_given_seed(self):
        ds = small_ds()
        s1, r1 = train(ds, small_cfg())
        s2, r2 = train(ds, small_cfg())
        assert [r.key() for r in r1] == [r.key() for r in r2]
        assert params_equal(s1.params, s2.params)

    def test_seed_changes_trajectory(self):
        ds = small_ds()
        _, r1 = train(ds, small_cfg(seed=1))
        _, r2 = train(ds, small_cfg(seed=2))
        assert [r.key() for r in r1] != [r.key() for r in r2]

    def test_s_h_range_and_negative_bags_untouched(self):
        ds = small_ds()
        state, _ = train(ds, small_cfg())
        for bag in ds.bags:
            s = state.s_h[bag.id]
            assert (s >= 0).all() and (s <= 1).all()
            if bag.labels.sum() == 0:
                np.testing.assert_array_equal(s, 1.0)

    def test_no_feedback_tiers_keep_s_h_at_one(self):
        ds = small_ds()
        state, _ = train(ds, small_cfg(ablation="l"))
        for bag in ds.bags:
            np.testing.assert_array_equal(state.s_h[bag.id], 1.0)

    def test_loc_loss_zero_when_not_trained(self):
        ds = small_ds()
        _, reports = train(ds, small_cfg(ablation="clique"))
        for r in reports:
            assert r.loc_losses == (0.0, 0.0)
            assert r.local_entropy == 0.0

    def test_arl_single_branch_equals_rl(self):
        ds = small_ds()
        _, r_rl = train(ds, small_cfg(ablation="l-rl", branches=1))
        _, r_arl = train(ds, small_cfg(ablation="l-arl", branches=1))
        assert [r.key() for r in r_rl] == [r.key() for r in r_arl]

    def test_all_negative_dataset_trains_discovery_only(self):
        cfg = SynthConfig(num_classes=2, bags_per_class=1, negatives=3,
                          proposals_per_bag=6, feature_dim=6, seed=0)
        ds = generate_synthetic(cfg)
        ds.bags = [b for b in ds.bags if b.labels.sum() == 0]
        state, reports = train(ds, small_cfg(epochs=1))
        assert reports[0].loc_losses == (0.0, 0.0)
        assert reports[0].global_entropy == 0.0
        assert reports[0].disc_loss > 0

    def test_divergence_aborts_with_context(self):
        ds = small_ds()
        bad = ds.bags[0]
        features = bad.features.copy()
        features[0] = np.inf
        bad.features = features
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(ds, small_cfg(epochs=1))

    def test_csv_written(self, tmp_path):
        ds = small_ds()
        path = tmp_path / "log.csv"
        train(ds, small_cfg(), csv_path=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == csv_header(2)
        assert lines[0].split(",") == [
            "epoch", "disc_loss", "loc_loss_1", "loc_loss_2",
            "global_entropy", "local_entropy", "loc_acc", "loc_var", "seconds",
        ]
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"

    @pytest.mark.parametrize("ablation, per_positive_bag", [("base", 0), ("clique", 1), ("l-arl", 1)])
    def test_adjacency_built_once_per_positive_bag(self, monkeypatch, ablation, per_positive_bag):
        # each positive bag's tau-graph (adjacency and components) is built
        # once per train() call and read on every visit; base partitions nothing
        built, graphs = [], []
        original, partition = trainer_module.tau_graph, trainer_module.partition_cliques

        def counted(boxes, tau):
            built.append(original(boxes, tau))
            return built[-1]

        def recorded(*args):
            graphs.append(args[4])
            return partition(*args)

        monkeypatch.setattr(trainer_module, "tau_graph", counted)
        monkeypatch.setattr(trainer_module, "partition_cliques", recorded)
        ds = small_ds()
        positive_bags = sum(bool(bag.labels.sum()) for bag in ds.bags)
        assert 0 < positive_bags < len(ds.bags)
        state, _ = train(ds, small_cfg(epochs=3, ablation=ablation), stop_after=2)
        assert len(built) == per_positive_bag * positive_bags
        assert len(graphs) == 2 * per_positive_bag * positive_bags
        assert {id(g) for g in graphs} == {id(g) for g in built}
        train(ds, small_cfg(epochs=3, ablation=ablation), state=state)
        assert len(built) == 2 * per_positive_bag * positive_bags
        assert {id(g) for g in graphs[-positive_bags * per_positive_bag:]} == {
            id(g) for g in built[positive_bags * per_positive_bag:]}

    @pytest.mark.parametrize("classes", [1, 2])
    def test_training_builds_no_clique(self, built_cliques, monkeypatch, classes):
        # partitions, anchors and losses are read as arrays on every tier
        ds = generate_synthetic(SynthConfig(num_classes=classes, bags_per_class=4, negatives=2,
                                            proposals_per_bag=8, feature_dim=6, seed=3))
        scored, terms = [], trainer_module.localization_terms
        monkeypatch.setattr(trainer_module, "localization_terms",
                            lambda *args: scored.append(args[0]) or terms(*args))
        for tier in ABLATION_TIERS:
            train(ds, small_cfg(ablation=tier))
            assert built_cliques == [], tier
        assert scored  # the localization tiers scored their anchors' cliques

    def test_hidden_gradient_sums_every_head_in_order(self, monkeypatch):
        # the shared hidden layer's gradient is the discovery head's plus each
        # branch's, added in head order, bit for bit; each head's own gradient
        # is what its call computed, and a head without one holds -0.0
        events = []
        backward, step = trainer_module.backward_head, trainer_module.sgd_step

        def recorded_backward(params, features, head, upstream, **kwargs):
            grads = backward(params, features, head, upstream, **kwargs)
            events.append(("backward", head, {k: v.copy() for k, v in grads.items()}))
            return grads

        def recorded_step(params, grads, *args):
            events.append(("step", None, grads.copy()))
            return step(params, grads, *args)

        monkeypatch.setattr(trainer_module, "backward_head", recorded_backward)
        monkeypatch.setattr(trainer_module, "sgd_step", recorded_step)
        state, _ = train(small_ds(), small_cfg(epochs=1, branches=3, hidden_dim=5))
        visits, calls = 0, []
        for kind, head, grads in events:
            if kind == "backward":
                calls.append((head, grads))
                continue
            flat = dict(state.params.on(grads).named_arrays())
            assert calls[0][0] == "disc"
            for name in ("hidden_w", "hidden_b"):
                want = reduce(np.add, [g[name] for _, g in calls])
                assert flat[name].tobytes() == want.tobytes()
            own = {name: g[name] for _, g in calls for name in g if not name.startswith("hidden")}
            for name, got in flat.items():
                if not name.startswith("hidden"):
                    want = own.get(name, np.full_like(got, -0.0))
                    assert got.tobytes() == want.tobytes(), name
            visits += [h for h, _ in calls] == ["disc", 0, 1, 2]
            calls = []
        assert visits == 8  # every positive bag trains all three branches

    def test_overlaps_computed_once_per_anchor_per_visit(self, monkeypatch):
        # every branch scores the same anchors against the same boxes, so
        # each visit computes an anchor's member overlaps and their Gaussian
        # kernel once, and passes the kernel to every branch's terms
        events = []
        overlaps, kernel, terms, step = (
            trainer_module.member_overlaps,
            trainer_module.anchor_kernel,
            trainer_module.localization_terms,
            trainer_module.sgd_step,
        )

        def counted_overlaps(members, h_star, boxes):
            ious = overlaps(members, h_star, boxes)
            events.append(("overlaps", (h_star, id(ious))))
            return ious

        def counted_kernel(ious, a):
            out = kernel(ious, a)
            events.append(("kernel", (id(ious), id(out))))
            return out

        def counted_terms(members, kernel, *args):
            events.append(("loss", id(kernel)))
            return terms(members, kernel, *args)

        def counted_step(*args, **kwargs):
            events.append(("step", None))
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "member_overlaps", counted_overlaps)
        monkeypatch.setattr(trainer_module, "anchor_kernel", counted_kernel)
        monkeypatch.setattr(trainer_module, "localization_terms", counted_terms)
        monkeypatch.setattr(trainer_module, "sgd_step", counted_step)
        train(small_ds(), small_cfg(branches=3))
        visits, current = [], {"overlaps": [], "kernel": [], "loss": []}
        for kind, value in events:
            if kind == "step":
                visits.append(current)
                current = {"overlaps": [], "kernel": [], "loss": []}
            else:
                current[kind].append(value)
        assert sum(len(v["loss"]) for v in visits) > sum(len(v["kernel"]) for v in visits) > 0
        for visit in visits:
            anchors = [h_star for h_star, _ in visit["overlaps"]]
            assert len(anchors) == len(set(anchors))  # no anchor computed twice
            # one kernel per anchor, of that anchor's overlaps; every loss
            # reads a kernel computed in this visit, and all are read
            assert [ious for ious, _ in visit["kernel"]] == [ious for _, ious in visit["overlaps"]]
            assert {out for _, out in visit["kernel"]} == set(visit["loss"])

    @pytest.mark.parametrize("ablation", ["base", "l-arl"])
    def test_hidden_layer_runs_once_per_visit_before_sgd(self, monkeypatch, ablation):
        # every head scored or differentiated before the update reuses one
        # hidden pass; only the score feedback, after the update, runs another
        visits = []
        hidden, step, visit = (
            model_module.hidden_layer, trainer_module.sgd_step, trainer_module._bag_step
        )

        def counted_hidden(*args):
            if visits and visits[-1][-1] != "done":
                visits[-1].append("hidden")
            return hidden(*args)

        def counted_step(*args):
            visits[-1].append("step")
            return step(*args)

        def counted_visit(state, cfg, switches, bag, *args):
            visits.append([bool(bag.labels.any())])
            visit(state, cfg, switches, bag, *args)
            visits[-1].append("done")

        for module in (model_module, trainer_module):
            monkeypatch.setattr(module, "hidden_layer", counted_hidden)
        monkeypatch.setattr(trainer_module, "sgd_step", counted_step)
        monkeypatch.setattr(trainer_module, "_bag_step", counted_visit)
        ds = small_ds()
        train(ds, small_cfg(epochs=1, branches=3, hidden_dim=5, ablation=ablation))
        assert len(visits) == len(ds.bags) and any(v[0] for v in visits)
        for positive, *events, _ in visits:
            feedback = ["hidden"] if positive and ablation == "l-arl" else []
            assert events == ["hidden", "step"] + feedback

    def test_ground_truth_overlaps_built_once_per_positive_bag(self, monkeypatch):
        built = []
        original = evaluate_module.iou_matrix

        def counted(a, b):
            built.append(len(a))
            return original(a, b)

        monkeypatch.setattr(evaluate_module, "iou_matrix", counted)
        ds = mixed_pairs_ds()
        with_pairs = sum(
            any(bag.labels[c] for c, _ in bag.ground_truth or ()) for bag in ds.bags
        )
        assert 0 < with_pairs < len(ds.bags)
        state, _ = train(ds, small_cfg(epochs=3), stop_after=2)
        assert len(built) == with_pairs
        train(ds, small_cfg(epochs=3), state=state)
        assert len(built) == 2 * with_pairs

    @pytest.mark.parametrize("ablation", ["clique", "l-arl"])
    def test_epoch_loc_stats_equal_uncached(self, ablation):
        ds = mixed_pairs_ds()
        cfg = small_cfg(epochs=3, ablation=ablation)
        head = tier_switches(cfg).detect_head
        state = None
        for epoch in range(1, cfg.epochs + 1):
            state, [report] = train(ds, cfg, state=state, stop_after=epoch)
            expected = dataset_loc_stats(state.params, ds, head=head)
            assert (report.loc_acc, report.loc_var) == expected
            metrics = evaluate(state.params, ds, head=head)
            assert (metrics.loc_acc, metrics.loc_var) == expected

    def test_empty_dataset_rejected(self):
        ds = small_ds()
        ds.bags = []
        with pytest.raises(ValueError):
            train(ds, small_cfg())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        ds = small_ds()
        state, _ = train(ds, small_cfg())
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        back = load_checkpoint(str(path))
        assert back.epoch == state.epoch
        assert back.config == state.config
        assert params_equal(back.params, state.params)
        for name in state.buffers:
            np.testing.assert_array_equal(back.buffers[name], state.buffers[name])
        for bag_id in state.s_h:
            np.testing.assert_array_equal(back.s_h[bag_id], state.s_h[bag_id])
        # format v1 keeps the key; it holds the seed's state, since the
        # visit order is recomputed from the seed
        saved = json.loads(path.read_text())
        assert saved["rng_state"] == np.random.default_rng(state.config.seed).bit_generator.state
        # format v1 also keeps two fixed config keys for settings that are gone
        assert set(saved["config"]) == {f.name for f in fields(TrainConfig)} | {
            "batch_size", "shared_hidden"
        }
        assert saved["config"] == {**asdict(state.config), "batch_size": 1, "shared_hidden": True}

    def test_save_is_byte_stable(self, tmp_path):
        ds = small_ds()
        state, _ = train(ds, small_cfg(epochs=1))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(state, str(a))
        save_checkpoint(state, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        ds = small_ds()
        cfg = small_cfg(epochs=4)
        _, full = train(ds, cfg)

        half_state, first = train(ds, cfg, stop_after=2)
        path = tmp_path / "half.json"
        save_checkpoint(half_state, str(path))
        resumed_state, rest = train(ds, cfg, state=load_checkpoint(str(path)))

        assert [r.key() for r in first + rest] == [r.key() for r in full]
        full_state, _ = train(ds, cfg)
        assert params_equal(resumed_state.params, full_state.params)

    @pytest.mark.parametrize("change", [
        {"ablation": "clique"},
        {"seed": 5},
        {"epochs": 3},
        {"epochs": 4, "ablation": "clique", "seed": 5},
    ], ids=json.dumps)
    def test_resume_saves_the_config_it_trained_with(self, tmp_path, change):
        ds = small_ds()
        state, _ = train(ds, small_cfg(epochs=2))
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        cfg = small_cfg(**change)
        resumed, reports = train(ds, cfg, state=load_checkpoint(str(path)))
        assert resumed.config == cfg
        assert [r.epoch for r in reports] == list(range(3, cfg.epochs + 1))
        save_checkpoint(resumed, str(path))
        back = load_checkpoint(str(path))
        assert back.config == cfg and back.epoch == cfg.epochs

    def test_resume_that_fails_its_checks_keeps_the_config(self, tmp_path):
        ds = small_ds()
        state, _ = train(ds, small_cfg(epochs=3), stop_after=1)
        csv = tmp_path / "ep.csv"
        csv.write_text("not,a,header\n")
        with pytest.raises(ValueError, match="header"):
            train(ds, small_cfg(epochs=3, seed=5), state=state, csv_path=str(csv))
        assert state.config == small_cfg(epochs=3) and state.epoch == 1

    @pytest.mark.parametrize("change", [{"branches": 5}, {"branches": 1}, {"hidden_dim": 4}],
                             ids=json.dumps)
    def test_resume_rejects_a_shape_change(self, tmp_path, monkeypatch, change):
        ds, base = small_ds(), dict(epochs=2, branches=3)
        state, _ = train(ds, small_cfg(**base), stop_after=1)
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))

        def no_visit(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(trainer_module, "_bag_step", no_visit)
        csv = tmp_path / "ep.csv"
        loaded = load_checkpoint(str(path))
        name = next(iter(change))
        with pytest.raises(CheckpointError, match=f"config {name}"):
            train(ds, small_cfg(**{**base, **change}), state=loaded, csv_path=str(csv))
        assert not csv.exists()
        assert loaded.epoch == 1 and loaded.config == small_cfg(**base)
        assert params_equal(loaded.params, state.params)

    def test_resume_past_the_configs_epochs_is_rejected(self, tmp_path):
        ds = small_ds()
        state, _ = train(ds, small_cfg(epochs=3))
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        loaded, csv = load_checkpoint(str(path)), tmp_path / "ep.csv"
        with pytest.raises(CheckpointError, match="the checkpoint is at epoch 3"):
            train(ds, small_cfg(epochs=2), state=loaded, csv_path=str(csv))
        assert not csv.exists()
        assert loaded.epoch == 3 and loaded.config == small_cfg(epochs=3)
        # at the checkpoint's own epoch there is nothing to train
        same, reports = train(ds, small_cfg(epochs=3), state=loaded)
        assert reports == [] and same.epoch == 3

    def test_checkpoint_past_its_configs_epochs_is_corrupt(self, tmp_path):
        state, _ = train(small_ds(), small_cfg(epochs=2))
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        doc = json.loads(path.read_text())
        doc["config"]["epochs"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="corrupt checkpoint .*epoch 2 is past"):
            load_checkpoint(str(path))

    def test_feature_dim_mismatch_rejected(self, tmp_path):
        ds = small_ds()
        state, _ = train(ds, small_cfg(epochs=1))
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        other = generate_synthetic(
            SynthConfig(num_classes=2, bags_per_class=2, negatives=0,
                        proposals_per_bag=6, feature_dim=8, seed=0)
        )
        with pytest.raises(CheckpointError, match="feature_dim"):
            train(other, small_cfg(), state=load_checkpoint(str(path)))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(str(path))
        path.write_text('{"format": "minent-checkpoint", "version": 99}')
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))


class TestEpochReport:
    def test_key_excludes_wall_time(self):
        a = EpochReport(1, 0.5, (0.1,), 0.2, 0.3, 0.4, 0.05, seconds=1.0)
        b = EpochReport(1, 0.5, (0.1,), 0.2, 0.3, 0.4, 0.05, seconds=9.9)
        assert a.key() == b.key()

    def test_csv_row_full_precision(self):
        r = EpochReport(3, 1 / 3, (2 / 3,), 0.1, 0.2, 0.3, 0.4, seconds=0.5)
        row = r.csv_row().split(",")
        assert row[0] == "3"
        assert float(row[1]) == 1 / 3
        assert row[1] == repr(1 / 3)
