"""Exact oracles for the array-shaped bag visit and eval.

A visit scores every head from one table, cuts each anchor's kernel from
its kernel over the anchor's tau-graph component (computed once per run),
runs one localization block per (anchor, class) over all the branches
that score that anchor, and reads the discovery loss's class axis as rows.
Each of these must give the bits of the loops they replaced, which are
kept here as references: one ``localization_terms`` call per branch and
anchor on that branch's own softmax, one kernel per anchor and visit over
its clique's overlaps, and one column at a time per class.

A bag's tau-graph keeps each component's own adjacency block, not the
P x P table; the partition it gives must be the one a full table gives,
which is kept here as a reference.

Eval ranks detections as (score, hit) pairs, matched per bag in NMS
order from one ground-truth table; it must report what the object path
did, one ``Box`` and one ``Detection`` per survivor ranked into
``average_precision``, which is kept here too.
"""

import itertools
import json
import warnings

import numpy as np
import pytest

from minent import trainer as trainer_module
from minent.cli import main
from minent.data import Bag, Dataset, SynthConfig, generate_synthetic, save_dataset

from minent.entropy import (
    EPS,
    CliquePartition,
    _components,
    anchor_kernel,
    clique_class_probs,
    clique_weights,
    discovery_loss,
    localization_terms,
    partition_cliques,
    row_max,
    row_softmax,
    select_object,
    singleton_partition,
    tau_graph,
)
from minent.evaluate import (
    HIT_IOU,
    Detection,
    MetricsReport,
    _corloc_of,
    _loc_stats_of,
    _Pair,
    _pointing_of,
    _weighted_overlap_stats,
    evaluate,
    head_probs,
)
from minent.geometry import Box, box_iou, iou_matrix, nms
from minent.model import forward, forward_heads, hidden_layer, init_params
from minent.trainer import BagRun, TrainConfig, _localization, save_checkpoint, train

HOME_SIZES = (1, 7, 8, 130)


def bits(a):
    """The float64 bit patterns of ``a``, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def random_boxes(rng, n):
    x1, y1 = rng.uniform(0, 0.7, size=(2, n))
    w, h = rng.uniform(0.05, 0.3, size=(2, n))
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


# ---------------------------------------------------------------------------
# the loops the array paths replaced
# ---------------------------------------------------------------------------

def reference_anchor_kernel(ious, a):
    """One anchor's kernel and its floored sum."""
    g = np.exp(-a * (1.0 - np.asarray(ious, dtype=float)) ** 2)
    return g, max(float(g.sum()), EPS)


def reference_localization_terms(members, kernel, proposal_probs, cls, grad):
    """One head's localization terms over one anchor's home: adds the
    gradient to ``grad``'s member rows, returns (soft weights, loss)."""
    member_probs = np.maximum(proposal_probs[members, cls], EPS)
    g, g_sum = kernel
    w = float((g * member_probs).sum()) / (member_probs * g_sum)
    kappa = w * member_probs
    loss = float(-(kappa * np.log(member_probs)).sum())
    rows = proposal_probs[members]
    rows[:, cls] -= 1.0
    grad[members] += kappa[:, None] * rows
    return w, loss


def reference_localization(kernel_a, partition, selected, probs, positives, boxes):
    """A visit's localization, branch after branch: each branch scores each
    class's anchors on its own softmax, one call per anchor, then adds its
    own pick to the anchors of the branches after it.  Returns each
    branch's (class, anchor, home, soft weights, loss) in scoring order,
    and the branches' gradients."""
    n_branches = len(probs) - 1
    pool = np.flatnonzero(partition.label >= 0)
    first = {y: select_object(partition.clique_members(selected[y]), probs[0], y)
             for y in positives.tolist()}
    inherited = {y: [] for y in first}
    homes, grads, anchors = {}, [], []
    for k in range(n_branches):
        probs_k = probs[1 + k].copy()
        branch_grad = np.zeros_like(probs_k)
        anchors.append([])
        for y, top in first.items():
            for h_star in [top] + [h for h in inherited[y] if h != top]:
                if h_star not in homes:
                    home = partition.clique_members(partition.label[h_star])
                    kernel = reference_anchor_kernel(box_iou(boxes[home], boxes[h_star]),
                                                     kernel_a)
                    homes[h_star] = home, kernel
                home, kernel = homes[h_star]
                w, loss = reference_localization_terms(home, kernel, probs_k, y, branch_grad)
                anchors[k].append((y, h_star, home, w, loss))
            own = int(pool[np.argmax(probs_k[pool, y])])
            if own not in inherited[y]:
                inherited[y].append(own)
        grads.append(branch_grad)
    return anchors, np.array(grads)


def reference_discovery_loss(labels, partition, scores):
    """The discovery loss with one loop per positive class and one per
    negative class, each reading its class's column."""
    scores = np.asarray(scores, dtype=float)
    positives = np.flatnonzero(labels == 1)
    loss = 0.0
    grad = np.zeros_like(scores)
    selected, entropies = {}, {}
    if positives.size:
        probs = clique_class_probs(partition, scores)
        weights = clique_weights(probs)
        gm = np.zeros_like(probs)
        for y in positives.tolist():
            u = weights[:, y] * probs[:, y]
            a = max(float(u.sum()), EPS)
            selected[y], entropies[y] = int(np.argmax(u)), float(-np.log(a))
            loss += entropies[y]
            gm += (u[:, None] / a) * weights + probs
            gm[:, y] -= 2.0 * u / a
        grad[partition.members] += np.repeat(gm / partition.sizes[:, None], partition.sizes, axis=0)
    negatives = np.flatnonzero(labels == 0)
    if negatives.size:
        q = row_softmax(scores)
        g_q = np.zeros_like(q)
        for y in negatives:
            comp = np.maximum(1.0 - q[:, y], EPS)
            loss += float(-np.log(comp).sum())
            g_q[:, y] = 1.0 / comp
        grad += q * (g_q - (g_q * q).sum(axis=1, keepdims=True))
    return loss, grad, selected, entropies


# ---------------------------------------------------------------------------
# random visits
# ---------------------------------------------------------------------------

def clustered_boxes(rng, sizes):
    """Boxes in far-apart groups of ``sizes``: each group a blob of
    near-copies, which chains at tau = 0.7 whatever the pool keeps of it, or
    a row of boxes each shifted a tenth of a width from the last, which
    only neighbours chain, so a pool that drops a member can split it."""
    groups = []
    for i, n in enumerate(sizes):
        x, y = 40.0 * i, 0.0
        if rng.random() < 0.5:
            jitter = rng.uniform(-0.003, 0.003, size=(n, 4))
            groups.append(np.array([x, y, x + 0.1, y + 0.1]) + jitter)
        else:
            shift = 0.01 * np.arange(n)[:, None]
            groups.append(np.array([x, y, x + 0.1, y + 0.1]) + shift * [1, 0, 1, 0])
    return rng.permutation(np.concatenate(groups))


def random_bag(rng):
    """Boxes with groups of 1, 7, 8 and 130 members among others, their
    tau-graph, and positive classes out of 1 to 4."""
    sizes = [int(s) for s in rng.choice(HOME_SIZES, size=int(rng.integers(1, 4)))]
    sizes += [int(s) for s in rng.integers(1, 12, size=int(rng.integers(0, 5)))]
    boxes = clustered_boxes(rng, sizes)
    num_classes = int(rng.integers(1, 5))
    positives = np.sort(rng.choice(num_classes, size=int(rng.integers(1, num_classes + 1)),
                                   replace=False))
    return boxes, tau_graph(boxes, 0.7), num_classes, positives


def random_visit(rng, trial, boxes, graph, num_classes, positives):
    """One visit of a bag: its partition over a pool that may cut groups, a
    (1 + branches, P, N) softmax table, and each positive class's
    discovered clique, some shared between classes."""
    num = len(boxes)
    top_k = num if trial % 3 == 0 else int(rng.integers(1, num + 1))
    partition = partition_cliques(boxes, rng.uniform(size=num), 0.7, top_k, graph)
    branches = 1 + trial % 4
    scores = rng.normal(size=(1 + branches, num, num_classes)) * rng.choice([0.5, 3.0, 30.0])
    if trial % 5 == 0:
        scores = np.round(scores)  # equal probabilities: the picks' ties
    cliques = len(partition.sizes)
    shared = int(rng.integers(0, cliques))
    selected = {int(y): shared if rng.random() < 0.5 else int(rng.integers(0, cliques))
                for y in positives}
    return partition, row_softmax(scores), selected


def reference_partition(boxes, objectness, tau, top_k):
    """``partition_cliques`` over the bag's full P x P adjacency: each
    component the pool cuts is searched again in that table."""
    adjacency = iou_matrix(boxes, boxes) > tau
    np.fill_diagonal(adjacency, False)
    component = _components(adjacency)
    sizes = np.bincount(component)
    order = np.argsort(-objectness, kind="stable")[:top_k]
    key = component[order]
    pooled = np.bincount(key, minlength=len(sizes))
    fresh = len(sizes)
    for cut in np.flatnonzero((pooled > 0) & (pooled < sizes)).tolist():
        at = np.flatnonzero(key == cut)
        nodes = order[at]
        key[at] = fresh + _components(adjacency[np.ix_(nodes, nodes)])
        fresh += len(nodes)
    seeds = {}
    clique = np.array([seeds.setdefault(k, len(seeds)) for k in key.tolist()], dtype=int)
    return order[np.lexsort((order, clique))], np.bincount(clique)


def test_component_blocks_partition_as_the_full_adjacency():
    rng = np.random.default_rng(37)
    seen = {"pair_to_one": 0, "several_cut": 0, "kept_whole": 0, "top_1": 0}
    for trial in range(300):
        groups = [int(n) for n in rng.choice([1, 2, 2, 3, 5, 9], size=int(rng.integers(1, 7)))]
        boxes = clustered_boxes(rng, groups)
        if trial % 4 == 0:  # loose boxes that may chain across the groups
            boxes = np.concatenate([boxes, random_boxes(rng, int(rng.integers(1, 20))) * 40])
        num = len(boxes)
        tau = 0.7 if trial % 2 else float(rng.uniform(0.3, 0.8))
        graph = tau_graph(boxes, tau)
        for top_k in (num, 1, int(rng.integers(1, num + 1))):
            obj = rng.uniform(size=num)
            part = partition_cliques(boxes, obj, tau, top_k, graph)
            members, sizes = reference_partition(boxes, obj, tau, top_k)
            assert np.array_equal(part.members, members)
            assert np.array_equal(part.sizes, sizes)
            pooled = np.bincount(graph.component[np.argsort(-obj, kind="stable")[:top_k]],
                                 minlength=len(graph.sizes))
            cut = (pooled > 0) & (pooled < graph.sizes)
            seen["pair_to_one"] += bool((cut & (graph.sizes == 2)).any())
            seen["several_cut"] += int(cut.sum()) >= 2
            seen["kept_whole"] += top_k == num and len(graph.blocks) > 0
            seen["top_1"] += top_k == 1 and bool(cut.any())
    assert all(count > 30 for count in seen.values()), seen


def test_dense_bag_graph_keeps_few_block_cells():
    ds = generate_synthetic(SynthConfig(num_classes=4, bags_per_class=1, negatives=0,
                                        proposals_per_bag=300, seed=7))
    for bag in ds.bags:
        graph = tau_graph(bag.boxes, TrainConfig().tau)
        num = bag.num_proposals
        assert sum(block.size for _, block in graph.blocks.values()) < num * num / 4
        assert sorted(graph.blocks) == np.flatnonzero(graph.sizes > 1).tolist()
        for c, (members, block) in graph.blocks.items():
            assert members.tolist() == np.flatnonzero(graph.component == c).tolist()
            full = iou_matrix(bag.boxes[members], bag.boxes[members]) > graph.tau
            np.fill_diagonal(full, False)
            assert np.array_equal(block, full)


def records(anchors):
    """Each branch's (class, anchor, home, soft weights, loss) entries, with
    the home as a list and the weights as their bit patterns."""
    return [[(y, h, home.tolist(), bits(w).tolist(), loss) for y, h, home, w, loss in branch]
            for branch in anchors]


def test_visit_localization_equals_per_branch_per_anchor_loop(monkeypatch):
    rng = np.random.default_rng(31)
    cfg = TrainConfig()
    calls, terms = [], trainer_module.localization_terms
    monkeypatch.setattr(trainer_module, "localization_terms",
                        lambda rows, kernel, y: calls.append(y) or terms(rows, kernel, y))
    seen = {"inherited": 0, "homes": set(), "shared": 0, "shared_anchor": 0, "cached": 0}
    for bag in range(100):
        boxes, graph, num_classes, positives = random_bag(rng)
        run = BagRun(positives, graph, {})
        for visit in range(3):  # later visits cut kernels the first ones cached
            trial = 3 * bag + visit
            partition, probs, selected = random_visit(rng, trial, boxes, graph, num_classes,
                                                      positives)
            cached = len(run.kernels)
            calls.clear()
            anchors, grad = _localization(cfg, partition, selected, probs, run, boxes)
            want_anchors, want_grad = reference_localization(
                cfg.kernel_a, partition, selected, probs, positives, boxes)
            assert records(anchors) == records(want_anchors)
            assert np.array_equal(bits(grad), bits(want_grad))
            # one call per (class, anchor), over every branch that scores it
            assert len(calls) == len({(y, h) for branch in anchors for y, h, *_ in branch})
            picks = sum(len(branch) for branch in anchors[1:])
            seen["inherited"] += picks > len(positives) * (len(anchors) - 1)
            seen["homes"].update(int(partition.sizes[selected[y]]) for y in positives.tolist())
            seen["shared"] += len(set(selected.values())) < len(selected)
            # an anchor that two classes score
            seen["shared_anchor"] += any(len({h for _, h, *_ in branch}) < len(branch)
                                         for branch in anchors)
            seen["cached"] += 0 < cached == len(run.kernels)
    assert seen["inherited"] > 50 and seen["shared"] > 50 and seen["cached"] > 10
    assert seen["shared_anchor"] > 10
    assert set(HOME_SIZES) <= seen["homes"]


def test_inspect_prints_the_per_branch_loop(tmp_path, capsys):
    # at a trained l-arl checkpoint, inspect's partition, selection and each
    # branch's anchors, soft weights and losses are the reference loops' on
    # the bag's unscaled features; the inspected bags add to the trained
    # ones three copies of each positive bag with both classes positive: the
    # whole bag, its largest tau-graph component, one clique that both
    # classes select, and its first proposal, one anchor that both score
    ds = generate_synthetic(SynthConfig(num_classes=2, bags_per_class=6, negatives=3,
                                        proposals_per_bag=12, feature_dim=8, seed=7))
    cfg = TrainConfig(epochs=3, seed=0)
    state, _ = train(ds, cfg)
    copies = []
    for bag in ds.bags:
        if bag.labels.any():
            component = tau_graph(bag.boxes, cfg.tau).component
            cuts = {"both": slice(None), "one": component == np.bincount(component).argmax(),
                    "solo": slice(1)}
            copies += [Bag(f"{name}-{bag.id}", [1, 1], bag.features[cut], bag.boxes[cut])
                       for name, cut in cuts.items()]
    data, ck = str(tmp_path / "ds.json"), str(tmp_path / "ck.json")
    save_dataset(Dataset(ds.classes, ds.feature_dim, ds.bags + copies), data)
    save_checkpoint(state, ck)
    seen = {"inherited": 0, "same_clique": 0, "shared_anchor": 0}
    for bag in ds.bags + copies:
        assert main(["inspect", "--data", data, "--checkpoint", ck, "--bag", bag.id]) == 0
        doc = json.loads(capsys.readouterr().out)
        positives = np.flatnonzero(bag.labels == 1)
        if not positives.size:
            assert doc["cliques"] == [] and doc["selected"] == {} and doc["branches"] == []
            continue
        scores = np.stack([forward(state.params, bag.features, head)
                           for head in ["disc", *range(cfg.branches)]])
        probs = row_softmax(scores)
        members, sizes = reference_partition(bag.boxes, probs[0][:, positives].max(axis=1),
                                             cfg.tau, cfg.top_k)
        partition = CliquePartition(members, sizes, bag.num_proposals)
        loss, _, selected, _ = reference_discovery_loss(bag.labels, partition, scores[0])
        anchors, _ = reference_localization(cfg.kernel_a, partition, selected, probs,
                                            positives, bag.boxes)
        assert [c["members"] for c in doc["cliques"]] == [
            partition.clique_members(i).tolist() for i in range(len(sizes))]
        assert doc["selected"] == {str(y): c for y, c in selected.items()}
        assert doc["disc_loss"] == loss
        got = [[(a["class"], a["h"], a["members"], a["weights"], a["loss"])
                for a in branch["anchors"]] for branch in doc["branches"]]
        assert got == [[(y, h, home.tolist(), w.tolist(), term)
                        for y, h, home, w, term in branch] for branch in anchors]
        # a later branch scores an anchor that an earlier branch's pick supplied
        seen["inherited"] += any(len(branch) > len(positives) for branch in got[1:])
        seen["same_clique"] += len(selected) == 2 and len(set(selected.values())) == 1
        seen["shared_anchor"] += any(len({h for _, h, *_ in branch}) < len(branch)
                                     for branch in got)
    assert all(count > 0 for count in seen.values()), seen


def test_blocks_equal_one_call_per_head():
    rng = np.random.default_rng(32)
    for trial in range(300):
        heads, length = int(rng.integers(1, 5)), int(rng.choice(HOME_SIZES))
        num_classes, cls = 3, int(rng.integers(0, 3))
        probs = row_softmax(rng.normal(size=(heads, length + 3, num_classes)) * 5)
        members = np.sort(rng.choice(length + 3, size=length, replace=False))
        kernel = anchor_kernel(rng.uniform(0, 1, size=length), 4.0)
        rows = probs[np.arange(heads)[:, None], members]
        w, losses = localization_terms(rows, kernel, cls)
        for j in range(heads):
            grad = np.zeros_like(probs[j])
            want_w, want_loss = reference_localization_terms(
                members, (kernel, max(float(kernel.sum()), EPS)), probs[j].copy(), cls, grad)
            assert np.array_equal(bits(w[j]), bits(want_w)) and losses[j] == want_loss
            assert np.array_equal(bits(rows[j]), bits(grad[members]))


def test_row_max_equals_max_over_the_last_axis():
    rng = np.random.default_rng(36)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    for trial in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        table = rng.normal(size=shape)
        table[rng.random(shape) < 0.2] = rng.choice(special)
        assert np.array_equal(bits(row_max(table)), bits(table.max(axis=-1)))


def test_discovery_loss_equals_per_class_loops():
    rng = np.random.default_rng(34)
    seen = {"negative_only": 0, "two_each": 0, "long": 0, "singletons": 0}
    for trial in range(300):
        num = int(rng.choice([1, 7, 8, 30, 130]))
        num_classes = int(rng.integers(1, 6))
        scores = rng.normal(size=(num, num_classes)) * rng.choice([0.5, 3.0, 30.0])
        labels = (rng.random(num_classes) < 0.5).astype(int)
        if trial % 4 == 0:
            labels[:] = 0
        if labels.any():
            obj = rng.uniform(size=num)
            top_k = int(rng.integers(1, num + 1))
            if trial % 2:
                partition = singleton_partition(obj, top_k)
            else:
                partition = partition_cliques(random_boxes(rng, num), obj, 0.3, top_k)
        else:
            partition = None
        out, grad = discovery_loss(labels, partition, scores, softmax=row_softmax(scores))
        loss, want_grad, selected, entropies = reference_discovery_loss(labels, partition, scores)
        assert out.loss == loss and out.selected == selected
        assert list(out.entropies.items()) == list(entropies.items())
        assert np.array_equal(bits(grad), bits(want_grad))
        seen["negative_only"] += not labels.any()
        seen["two_each"] += labels.sum() >= 2 and (labels == 0).sum() >= 2
        seen["long"] += partition is not None and len(partition.sizes) >= 8
        # one-member cliques over two or more classes: the reference divides
        # each clique's row by 1 and repeats it once
        seen["singletons"] += (partition is not None and num_classes >= 2
                               and bool((partition.sizes == 1).all()))
    assert all(count > 20 for count in seen.values()), seen


@pytest.mark.parametrize("hidden_dim", [0, 5])
def test_score_table_equals_each_head_alone(hidden_dim):
    # one product per head into a shared table, and one softmax over its
    # last axis, have the bits of each head's own product and softmax
    rng = np.random.default_rng(35)
    for trial in range(50):
        params = init_params(6, int(rng.integers(1, 5)), 3, hidden_dim=hidden_dim, seed=trial,
                             scale=2.0)
        features = rng.normal(size=(int(rng.choice([1, 8, 130])), 6))
        heads = ["disc", *rng.permutation(3).tolist()[: int(rng.integers(0, 4))]]
        x, _ = hidden = hidden_layer(params, features)
        table = forward_heads(params, features, heads, hidden=hidden)
        probs = row_softmax(table)
        for head, scores, p in zip(heads, table, probs):
            w = params.disc_w if head == "disc" else params.loc_w[head]
            b = params.disc_b if head == "disc" else params.loc_b[head]
            assert np.array_equal(bits(scores), bits(x @ w + b))
            assert np.array_equal(bits(scores), bits(forward(params, features, head)))
            assert np.array_equal(bits(p), bits(row_softmax(x @ w + b)))


# ---------------------------------------------------------------------------
# eval's object path
# ---------------------------------------------------------------------------

def reference_detections(bag, probs, nms_iou, score_floor):
    """Per-class NMS over the cells at or above the floor, one ``Box`` and
    one ``Detection`` per survivor."""
    boxes = bag.box_array()
    out = []
    for cls in range(probs.shape[1]):
        scores = probs[:, cls]
        keep = np.flatnonzero(scores >= score_floor)
        if keep.size == 0:
            continue
        kept = keep[nms(boxes[keep], scores[keep], nms_iou)]
        for box, score in zip(boxes[kept].tolist(), scores[kept].tolist()):
            out.append(Detection(bag.id, cls, Box(*box), score))
    return out


def reference_average_precision(detections, gts):
    """One class's AP from its detections ranked by a stable sort on score,
    each bag matched in rank order from one IoU table."""
    npos = sum(len(v) for v in gts.values())
    if npos == 0:
        if not detections:
            warnings.warn("average_precision: no ground truths and no detections; AP := 0")
        return 0.0
    if not detections:
        return 0.0
    order = np.argsort(-np.array([d.score for d in detections]), kind="stable")
    ranked_by_bag = {}
    for i in order.tolist():
        ranked_by_bag.setdefault(detections[i].bag_id, []).append(i)
    hits = [0.0] * len(detections)
    for bag_id, ranked in ranked_by_bag.items():
        gt = gts.get(bag_id)
        if not gt:
            continue
        table = iou_matrix(np.array([detections[i].box.as_list() for i in ranked]),
                           np.array([b.as_list() for b in gt]))
        taken = [False] * len(gt)
        for i, row in zip(ranked, table.tolist()):
            best_iou, best_j = 0.0, -1
            for j, v in enumerate(row):
                if not taken[j] and v >= HIT_IOU and v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0:
                taken[best_j] = True
                hits[i] = 1.0
    tp = np.array(hits)[order]
    tp_cum, fp_cum = np.cumsum(tp), np.cumsum(1.0 - tp)
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def reference_bag_pairs(bag, probs):
    """One row per positive class of the bag with ground truth, from an IoU
    table over that class's boxes alone."""
    boxes = bag.box_array()
    pairs = []
    for cls in bag.positive_classes().tolist():
        gt = [box for c, box in bag.ground_truth or () if c == cls]
        if not gt:
            continue
        top = int(probs[:, cls].argmax())
        best = iou_matrix(boxes, np.array([b.as_list() for b in gt])).max(axis=1)
        cx, cy = Box(*boxes[top].tolist()).center
        pairs.append(_Pair(cls, bool(best[top] >= HIT_IOU),
                           any(b.x1 <= cx <= b.x2 and b.y1 <= cy <= b.y2 for b in gt),
                           *_weighted_overlap_stats(probs[:, cls], best)))
    return pairs


def reference_evaluate(params, ds, head, nms_iou, score_floor):
    dets_by_class = [[] for _ in range(ds.num_classes)]
    gts_by_class = [{} for _ in range(ds.num_classes)]
    pairs = []
    for bag in ds.bags:
        probs = head_probs(params, bag.feature_matrix(), head)
        for d in reference_detections(bag, probs, nms_iou, score_floor):
            dets_by_class[d.cls].append(d)
        pairs += reference_bag_pairs(bag, probs)
        for cls, box in bag.ground_truth or ():
            gts_by_class[cls].setdefault(bag.id, []).append(box)
    per_class_ap = [reference_average_precision(dets_by_class[c], gts_by_class[c])
                    for c in range(ds.num_classes)]
    per_class_corloc, mean_corloc = _corloc_of(pairs, ds.num_classes)
    loc_acc, loc_var = _loc_stats_of([(p.loc_acc, p.loc_var) for p in pairs])
    report = MetricsReport(per_class_ap, float(np.mean(per_class_ap)), per_class_corloc,
                           mean_corloc, _pointing_of(pairs), loc_acc, loc_var)
    return report, dets_by_class, gts_by_class


def half_grid_boxes(rng, n):
    """Boxes on a half-unit grid, so that equal boxes and IoUs of exactly
    0.5 come up often."""
    xy = rng.integers(0, 5, size=(n, 2)) / 2
    wh = rng.integers(1, 4, size=(n, 2)) / 2
    return np.concatenate([xy, xy + wh], axis=1)


def random_eval_dataset(rng):
    """1 to 3 classes and 1 to 5 bags of 1 to 8 proposals.  Features are
    small integers, so scores tie within a bag; a bag may have a twin with
    the same features and boxes under another id, so they tie across bags.
    Ground truth is copied from proposals or drawn, up to three boxes of a
    class, and sometimes on a class the bag is not labelled with.  In a
    quarter of the draws the last class has no ground truth anywhere; the
    second value says whether."""
    num_classes, dim = int(rng.integers(1, 4)), 3
    silent = rng.random() < 0.25
    bags = []
    for i in range(int(rng.integers(1, 6))):
        num = int(rng.integers(1, 9))
        boxes = half_grid_boxes(rng, num)
        features = rng.integers(-2, 3, size=(num, dim)).astype(float)
        for copy in range(1 + (rng.random() < 0.3)):
            labels = (rng.random(num_classes) < 0.6).astype(int)
            gt = []
            for cls in range(num_classes - silent):
                if labels[cls] or rng.random() < 0.2:
                    for _ in range(int(rng.integers(0, 4))):
                        copied = rng.random() < 0.6
                        drawn = boxes[rng.integers(num)] if copied else half_grid_boxes(rng, 1)[0]
                        gt.append((cls, Box(*drawn.tolist())))
            bags.append(Bag(id=f"b{i}-{copy}", labels=labels, features=features, boxes=boxes,
                            ground_truth=gt or None))
    return Dataset([f"c{c}" for c in range(num_classes)], dim, bags), silent


def test_evaluate_equals_object_path():
    rng = np.random.default_rng(41)
    settings = list(itertools.product((0.0, 1e-3, 0.05), (0.0, 0.4, 1.0), ("disc", 0, 1)))
    seen = dict.fromkeys(["no-gt bag", "gt undetected", "two gt", "ap warning",
                          "corloc warning", "tie in bag", "tie across bags"], 0)
    for case in range(216):
        score_floor, nms_iou, head = settings[case % len(settings)]
        ds, silent = random_eval_dataset(rng)
        params = init_params(ds.feature_dim, ds.num_classes, branches=2, seed=case,
                             scale=(1.0, 3.0)[case % 2])
        if silent:  # and mostly below the score floor, so it may have no detections
            for bias in [params.disc_b, *params.loc_b]:
                bias[-1] -= 8.0
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want, dets_by_class, gts_by_class = reference_evaluate(params, ds, head, nms_iou,
                                                                   score_floor)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = evaluate(params, ds, head, nms_iou=nms_iou, score_floor=score_floor)
        assert got.to_dict() == want.to_dict(), case
        messages = [str(w.message) for w in warned]
        assert messages == [str(w.message) for w in want_warned], case

        seen["no-gt bag"] += sum(not bag.ground_truth for bag in ds.bags)
        seen["ap warning"] += any("average_precision" in m for m in messages)
        seen["corloc warning"] += any(m.startswith("corloc") for m in messages)
        for dets, gts in zip(dets_by_class, gts_by_class):
            found = {d.bag_id for d in dets}
            seen["gt undetected"] += sum(bag_id not in found for bag_id in gts)
            seen["two gt"] += sum(len(gt) > 1 for gt in gts.values())
            scores = {}
            for d in dets:
                scores.setdefault(d.score, set()).add(d.bag_id)
            seen["tie in bag"] += len(dets) - sum(len(ids) for ids in scores.values())
            seen["tie across bags"] += sum(len(ids) > 1 for ids in scores.values())
    assert min(seen.values()) > 10, seen
