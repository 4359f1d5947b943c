"""Exact oracles for the array-shaped bag visit.

A visit scores every head from one table, cuts each anchor's kernel from
its kernel over the anchor's tau-graph component (computed once per run),
runs one localization block per (anchor, class) over all the branches
that score that anchor, and reads the discovery loss's class axis as rows.
Each of these must give the bits of the loops they replaced, which are
kept here as references: one ``localization_terms`` call per branch and
anchor on that branch's own softmax, one kernel per anchor and visit over
its clique's overlaps, and one column at a time per class.
"""

import numpy as np
import pytest

from minent.entropy import (
    EPS,
    anchor_kernel,
    clique_class_probs,
    clique_weights,
    discovery_loss,
    localization_terms,
    member_overlaps,
    partition_cliques,
    row_max,
    row_softmax,
    select_object,
    singleton_partition,
    tau_graph,
)
from minent.model import forward, forward_heads, hidden_layer, init_params
from minent.trainer import BagRun, TrainConfig, _localization

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
    own pick to the anchors of the branches after it."""
    n_branches = len(probs) - 1
    pool = np.flatnonzero(partition.label >= 0)
    first = {y: select_object(partition.clique_members(selected[y]), probs[0], y)
             for y in positives.tolist()}
    inherited = {y: [] for y in first}
    homes, terms, grads = {}, [], []
    for k in range(n_branches):
        probs_k = probs[1 + k].copy()
        branch_grad = np.zeros_like(probs_k)
        terms.append([])
        for y, top in first.items():
            for h_star in [top] + [h for h in inherited[y] if h != top]:
                if h_star not in homes:
                    home = partition.clique_members(partition.label[h_star])
                    kernel = reference_anchor_kernel(member_overlaps(home, h_star, boxes),
                                                     kernel_a)
                    homes[h_star] = home, kernel
                home, kernel = homes[h_star]
                _, loss = reference_localization_terms(home, kernel, probs_k, y, branch_grad)
                terms[k].append(loss)
            own = int(pool[np.argmax(probs_k[pool, y])])
            if own not in inherited[y]:
                inherited[y].append(own)
        grads.append(branch_grad)
    return terms, np.array(grads)


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


def test_visit_localization_equals_per_branch_per_anchor_loop():
    rng = np.random.default_rng(31)
    cfg = TrainConfig()
    seen = {"inherited": 0, "homes": set(), "shared": 0, "cached": 0}
    for bag in range(100):
        boxes, graph, num_classes, positives = random_bag(rng)
        run = BagRun(positives, graph, {})
        for visit in range(3):  # later visits cut kernels the first ones cached
            trial = 3 * bag + visit
            partition, probs, selected = random_visit(rng, trial, boxes, graph, num_classes,
                                                      positives)
            cached = len(run.kernels)
            terms, grad = _localization(cfg, partition, selected, probs, run, boxes)
            want_terms, want_grad = reference_localization(cfg.kernel_a, partition, selected,
                                                           probs, positives, boxes)
            assert terms == want_terms
            assert np.array_equal(bits(grad), bits(want_grad))
            picks = sum(len(t) for t in terms[1:])
            seen["inherited"] += picks > len(positives) * (len(terms) - 1)
            seen["homes"].update(int(partition.sizes[selected[y]]) for y in positives.tolist())
            seen["shared"] += len(set(selected.values())) < len(selected)
            seen["cached"] += 0 < cached == len(run.kernels)
    assert seen["inherited"] > 50 and seen["shared"] > 50 and seen["cached"] > 10
    assert set(HOME_SIZES) <= seen["homes"]


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
    seen = {"negative_only": 0, "two_each": 0, "long": 0}
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
