import hashlib
import json
import os
import shutil
from dataclasses import asdict, fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from minent import evaluate as evaluate_module
from minent import jsonio as jsonio_module
from minent import model as model_module
from minent import trainer as trainer_module
from minent.cli import main
from minent.data import Bag, SynthConfig, generate_synthetic, save_dataset
from minent.entropy import tau_graph
from minent.evaluate import dataset_loc_stats, evaluate
from minent.geometry import Box
from minent.jsonio import TWIN_SUFFIX
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
from test_data import _shapes_in_doc, _undeclare


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


def one_proposal_bag_ds():
    """``small_ds`` with its last bag, a negative, cut to its first proposal."""
    ds = small_ds()
    last = ds.bags[-1]
    assert not last.labels.any()
    ds.bags[-1] = Bag(id=last.id, labels=last.labels, features=last.features[:1],
                      boxes=last.boxes[:1], ground_truth=last.ground_truth)
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
        {"init_scale": 1e308},  # uniform(-scale, scale) cannot draw over inf
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

    @pytest.mark.parametrize("lr, momentum, weight_decay", [
        (0.1, 0.9, 5e-4), (0.0, 0.9, 5e-4), (0.1, 0.0, 5e-4), (0.1, 0.9, 0.0), (0.0, 0.0, 0.0),
    ])
    def test_update_has_the_bits_of_its_formula(self, lr, momentum, weight_decay):
        # buf = m*buf + (grad + wd*param); param -= lr*buf, bit for bit, with
        # signed zeros and subnormals in every operand; grads stay unchanged
        rng = np.random.default_rng(1)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308])
        for trial in range(20):
            x, grads, buf = rng.normal(size=(3, 200)) * 10.0 ** rng.uniform(-310, 2, (3, 200))
            for arr in (x, grads, buf):
                hit = rng.random(200) < 0.3
                arr[hit] = rng.choice(special, size=int(hit.sum()))
            want_x, want_buf, kept = x.copy(), buf.copy(), grads.copy()
            update = grads + weight_decay * want_x
            want_buf *= momentum
            want_buf += update
            want_x -= lr * want_buf
            sgd_step(x, grads, buf, lr, momentum, weight_decay)
            assert x.tobytes() == want_x.tobytes() and buf.tobytes() == want_buf.tobytes()
            assert grads.tobytes() == kept.tobytes()


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
    def test_training_builds_no_clique(self, built_cliques, monkeypatch, tmp_path, capsys,
                                       classes):
        # partitions, anchors and losses are read as arrays on every tier,
        # by training and by inspect of every bag at its checkpoint
        ds = generate_synthetic(SynthConfig(num_classes=classes, bags_per_class=4, negatives=2,
                                            proposals_per_bag=8, feature_dim=6, seed=3))
        data, ck = str(tmp_path / "ds.json"), str(tmp_path / "ck.json")
        save_dataset(ds, data)
        scored, terms = [], trainer_module.localization_terms
        monkeypatch.setattr(trainer_module, "localization_terms",
                            lambda rows, *args: scored.append(rows.shape) or terms(rows, *args))
        for tier in ABLATION_TIERS:
            state, _ = train(ds, small_cfg(ablation=tier))
            save_checkpoint(state, ck)
            for bag in ds.bags:
                assert main(["inspect", "--data", data, "--checkpoint", ck, "--bag", bag.id]) == 0
                assert json.loads(capsys.readouterr().out)["bag"] == bag.id
            assert built_cliques == [], tier
        # the localization tiers scored their anchors' homes as (branches,
        # members, classes) blocks of probability rows
        assert scored and all(len(shape) == 3 and shape[2] == classes for shape in scored)
        assert max(shape[0] for shape in scored) == 2  # l-arl: one block, both branches

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

    def test_overlaps_computed_once_per_anchor_per_run(self, monkeypatch):
        # boxes are fixed for a run, so each anchor's overlaps with its
        # tau-graph component, and their kernel, are computed on the first
        # visit that scores it; every visit cuts its clique's kernel from
        # them, once for all branches and classes, and a new run starts over
        events = []
        overlaps, kernel, terms, visit = (
            trainer_module.box_iou,
            trainer_module.anchor_kernel,
            trainer_module.localization_terms,
            trainer_module._bag_step,
        )

        def counted_overlaps(members, anchor):
            ious = overlaps(members, anchor)
            events.append(("overlaps", (members.tolist(), anchor.tolist(), id(ious))))
            return ious

        def counted_kernel(ious, a):
            events.append(("kernel", id(ious)))
            return kernel(ious, a)

        def counted_terms(rows, home_kernel, cls):
            events.append(("block", (rows.shape, len(home_kernel))))
            return terms(rows, home_kernel, cls)

        def counted_visit(state, cfg, switches, bag, *args):
            events.append(("visit", bag))
            return visit(state, cfg, switches, bag, *args)

        monkeypatch.setattr(trainer_module, "box_iou", counted_overlaps)
        monkeypatch.setattr(trainer_module, "anchor_kernel", counted_kernel)
        monkeypatch.setattr(trainer_module, "localization_terms", counted_terms)
        monkeypatch.setattr(trainer_module, "_bag_step", counted_visit)
        ds, cfg = small_ds(), small_cfg(branches=3, epochs=3)
        for run in range(2):
            events.clear()
            train(ds, cfg)
            computed, bag = [], None
            for kind, value in events:
                if kind == "visit":
                    bag = value
                elif kind == "overlaps":
                    members, anchor, ious = value
                    h = bag.boxes.tolist().index(anchor)
                    graph = tau_graph(bag.boxes, cfg.tau)
                    component = np.flatnonzero(graph.component == graph.component[h])
                    assert members == bag.boxes[component].tolist()
                    computed.append((bag.id, h))
                    last_ious = ious
                elif kind == "kernel":
                    assert value == last_ious  # each kernel is of the overlaps just computed
                else:
                    (branches, length, classes), kernel_length = value
                    assert kernel_length == length and classes == ds.num_classes
            assert len(computed) == len(set(computed)) > 0  # no anchor computed twice in a run
            assert len(computed) < sum(kind == "block" for kind, _ in events)
            assert max(value[0][0] for kind, value in events if kind == "block") == 3
            if run == 0:
                first_run = computed
        assert computed == first_run

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
            report = visit(state, cfg, switches, bag, *args)
            visits[-1].append("done")
            return report

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

    @pytest.mark.parametrize("top_k", [8, 5])
    def test_singleton_partition_is_built_once_per_run_when_the_pool_is_whole(
            self, monkeypatch, top_k):
        # with top_k >= P the base tier's pool is every proposal, one per
        # clique, whatever the objectness: it is built once per positive bag
        # per train call; with top_k < P, once per visit; either way every
        # visit's partition is a fresh one of its own objectness
        built, visits = [], []
        singletons, bag_step = trainer_module.singleton_partition, trainer_module._bag_step

        def recorded_step(state, cfg, switches, bag, *args):
            seen = bag_step(state, cfg, switches, bag, *args)
            visits.append((bag, seen))
            return seen

        monkeypatch.setattr(trainer_module, "singleton_partition",
                            lambda *args: built.append(args) or singletons(*args))
        monkeypatch.setattr(trainer_module, "_bag_step", recorded_step)
        ds = small_ds()
        cfg = small_cfg(ablation="base", hidden_dim=5, top_k=top_k)
        positive = sum(bool(bag.labels.any()) for bag in ds.bags)
        assert {bag.num_proposals for bag in ds.bags} == {8}
        for run in (1, 2):
            train(ds, cfg)
            assert len(built) == run * positive * (1 if top_k >= 8 else cfg.epochs)
        for bag, seen in visits:
            if not bag.labels.any():
                assert seen.partition is None
                continue
            fresh = singletons(seen.probs[0][:, bag.labels == 1].max(axis=1), cfg.top_k)
            for field in fields(fresh):
                got, want = getattr(seen.partition, field.name), getattr(fresh, field.name)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.array_equal(got, want), field.name

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
        {"lr": 0.01},
        {"tau": 0.6},
        {"epochs": 3},
        {"epochs": 4, "tau": 0.6, "lr": 0.01},
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
            train(ds, small_cfg(epochs=3, lr=0.01), state=state, csv_path=str(csv))
        assert state.config == small_cfg(epochs=3) and state.epoch == 1

    @pytest.mark.parametrize("change", [{"branches": 5}, {"branches": 1}, {"hidden_dim": 4},
                                        {"ablation": "clique"}, {"seed": 5}], ids=json.dumps)
    def test_resume_rejects_a_shape_change(self, tmp_path, monkeypatch, change):
        # and a change of tier or seed: a resume keeps all four settings
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
        with pytest.raises(CheckpointError, match=f"cannot change {name}"):
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


# ---------------------------------------------------------------------------
# The checkpoint's binary twin: a current twin gives the state that parsing
# the JSON gives, bit for bit, and anything else falls back to the JSON.
# ---------------------------------------------------------------------------

@pytest.fixture
def ckpt_parses(monkeypatch):
    """Counts the checkpoint JSON parses ``load_checkpoint`` makes."""
    calls = []
    real = jsonio_module.read_json
    monkeypatch.setattr(jsonio_module, "read_json", lambda path: calls.append(path) or real(path))
    return calls


def _twin(path):
    return str(path) + TWIN_SUFFIX


def _ckpt_json_only(path, tmp_path):
    """``load_checkpoint`` of a copy of ``path`` that has no twin."""
    bare = tmp_path / "bare"
    bare.mkdir(exist_ok=True)
    copy = bare / os.path.basename(str(path))
    shutil.copyfile(path, copy)
    return load_checkpoint(str(copy))


def _twin_members(path) -> dict:
    with np.load(_twin(path), allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def _truncate(name):
    with open(name, "r+b") as f:
        f.truncate(os.path.getsize(name) // 2)


def _rewrite_twin(path, **changes):
    """Rewrite the twin with ``changes`` to its members, keeping its hash;
    a member changed to None is dropped."""
    members = {**_twin_members(path), **changes}
    with open(_twin(path), "wb") as f:
        np.savez(f, **{k: v for k, v in members.items() if v is not None})


def _assert_same_state(a, b):
    assert a.epoch == b.epoch and type(a.epoch) is type(b.epoch)
    assert a.config == b.config
    pairs = list(zip(a.params.named_arrays(), b.params.named_arrays()))
    for table in ("buffers", "s_h"):
        x, y = getattr(a, table), getattr(b, table)
        assert sorted(x) == sorted(y)
        pairs += [((name, x[name]), (name, y[name])) for name in x]
    for (na, u), (nb, v) in pairs:
        assert na == nb
        assert u.dtype == v.dtype == np.float64 and u.shape == v.shape
        assert u.tobytes() == v.tobytes()


def _edit_one_param_digit(path):
    """Change the leading nonzero digit of the first ``disc_b`` parameter,
    keeping the file's length."""
    text = Path(path).read_text()
    at = text.index('"disc_b":[', text.index('"params":')) + len('"disc_b":[')
    while text[at] in "-0.":
        at += 1
    edited = text[:at] + ("8" if text[at] == "9" else str(int(text[at]) + 1)) + text[at + 1:]
    assert len(edited) == len(text) and edited != text
    Path(path).write_text(edited)


class TestCheckpointTwin:
    @pytest.mark.parametrize("hidden_dim", [0, 8])
    @pytest.mark.parametrize("tier", ABLATION_TIERS)
    def test_equals_the_json_path(self, tmp_path, ckpt_parses, tier, hidden_dim):
        state, _ = train(small_ds(), small_cfg(ablation=tier, hidden_dim=hidden_dim))
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        assert os.path.isfile(_twin(path))
        via_twin = load_checkpoint(str(path))
        assert ckpt_parses == []
        via_json = _ckpt_json_only(path, tmp_path)
        assert len(ckpt_parses) == 1
        _assert_same_state(via_twin, via_json)
        _assert_same_state(via_twin, state)
        for table in ("buffers", "s_h"):
            assert list(getattr(via_twin, table)) == list(getattr(via_json, table))

    def test_twin_holds_the_json_hash_and_flat_arrays(self, tmp_path):
        state, _ = train(small_ds(), small_cfg(hidden_dim=4))
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        z = _twin_members(path)
        assert set(z) == {"sha256", "doc", "tables", "params", "buffers", "s_h"}
        assert str(z["sha256"]) == hashlib.sha256(path.read_bytes()).hexdigest()
        full = json.loads(path.read_text())
        doc, shapes = (json.loads(z[key].tobytes()) for key in ("doc", "tables"))
        for key in ("params", "buffers", "s_h"):
            table = full.pop(key)
            assert shapes.pop(key) == {name: list(np.shape(v)) for name, v in table.items()}
            flat = np.concatenate([np.ravel(table[name]) for name in sorted(table)])
            assert z[key].dtype == np.float64 and z[key].tobytes() == flat.tobytes()
        assert doc == full and shapes == {}

    @pytest.mark.parametrize("spoil", [
        lambda path: _edit_one_param_digit(path),
        lambda path: _truncate(_twin(path)),
        lambda path: Path(_twin(path)).write_bytes(b"not a zip file"),
        lambda path: _rewrite_twin(path, params=_twin_members(path)["params"].astype(np.float32)),
        lambda path: _rewrite_twin(path, s_h=_twin_members(path)["s_h"][:-1]),
        lambda path: _rewrite_twin(path, buffers=None),
        lambda path: _rewrite_twin(path, s_h=None),
        lambda path: _undeclare(path, "s_h"),
        lambda path: _rewrite_twin(path, extra=np.zeros(3)),
        lambda path: _shapes_in_doc(path),
    ], ids=["stale", "truncated", "not-a-zip", "float32-params", "short-s_h", "no-buffers",
            "no-s_h", "no-s_h-table", "undeclared-member", "shapes-in-doc"])
    def test_spoiled_twin_gives_the_json_state(self, tmp_path, ckpt_parses, spoil):
        # a one-proposal bag: a twin's shape map read as its s(h) would be [1.],
        # of the length a resume checks
        state, _ = train(one_proposal_bag_ds(), small_cfg())
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        spoil(path)
        loaded = load_checkpoint(str(path))
        assert ckpt_parses == [str(path)]
        _assert_same_state(loaded, _ckpt_json_only(path, tmp_path))

    def test_one_digit_edit_is_read_from_the_json(self, tmp_path):
        state, _ = train(small_ds(), small_cfg())
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        _edit_one_param_digit(path)
        loaded = load_checkpoint(str(path))
        assert loaded.params.disc_b[0] != state.params.disc_b[0]
        assert loaded.params.disc_b[0] == json.loads(path.read_text())["params"]["disc_b"][0]

    @pytest.mark.parametrize("spoil", ["stale", "truncated", "not-a-zip"])
    def test_spoiled_twin_gives_the_json_error(self, tmp_path, spoil):
        state, _ = train(small_ds(), small_cfg(epochs=2))
        path = tmp_path / "ck.json"
        save_checkpoint(state, str(path))
        if spoil == "truncated":
            _truncate(_twin(path))
        elif spoil == "not-a-zip":
            Path(_twin(path)).write_bytes(b"not a zip file")
        # a same-length edit that makes the JSON's epoch past its config's
        path.write_text(path.read_text().replace('"epoch":2', '"epoch":3', 1))
        with pytest.raises(CheckpointError) as with_twin:
            load_checkpoint(str(path))
        with pytest.raises(CheckpointError) as bare:
            _ckpt_json_only(path, tmp_path)
        assert str(with_twin.value) == str(bare.value).replace("bare" + os.sep, "")
        assert "epoch 3 is past" in str(bare.value)

    @pytest.mark.parametrize("fault", ["nan-param", "path-is-a-directory"])
    def test_failed_write_leaves_no_twin(self, tmp_path, fault):
        state, _ = train(small_ds(), small_cfg(epochs=1))
        path = tmp_path / "ck.json"
        if fault == "nan-param":
            state.params.disc_w[0, 0] = np.nan
        else:
            path.mkdir()
        with pytest.raises((ValueError, OSError)):
            save_checkpoint(state, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ([] if fault == "nan-param" else ["ck.json"])

    def test_failed_rewrite_keeps_the_current_pair(self, tmp_path, ckpt_parses):
        good, _ = train(small_ds(), small_cfg(epochs=1))
        path = tmp_path / "ck.json"
        save_checkpoint(good, str(path))
        bad, _ = train(small_ds(), small_cfg(epochs=1))
        bad.params.disc_b[0] = np.inf
        with pytest.raises(ValueError):
            save_checkpoint(bad, str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json", "ck.json" + TWIN_SUFFIX]
        _assert_same_state(load_checkpoint(str(path)), good)
        assert ckpt_parses == []


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
