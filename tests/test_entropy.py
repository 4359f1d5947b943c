import math

import numpy as np
import pytest

from minent.entropy import (
    EPS,
    Clique,
    CliquePartition,
    anchor_kernel,
    clique_class_probs,
    clique_mean_scores,
    clique_weights,
    discovery_loss,
    hard_negatives,
    localization_loss,
    localization_terms,
    member_overlaps,
    partition_cliques,
    row_softmax,
    select_object,
    singleton_partition,
    tau_graph,
)
from minent.geometry import iou_matrix


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def components_oracle(boxes, objectness, tau, top_k):
    """Connected components of the IoU>tau graph on the top-k pool, via BFS.

    The greedy seed-and-absorb loop must produce exactly these components:
    absorbing "any proposal overlapping any member, to closure" is a
    traversal of the overlap graph.
    """
    order = np.argsort(-np.asarray(objectness), kind="stable")[: min(top_k, len(objectness))]
    pool = [int(i) for i in order]
    table = iou_matrix(np.asarray(boxes)[pool], np.asarray(boxes)[pool]) > tau
    seen = set()
    comps = []
    for start in range(len(pool)):
        if start in seen:
            continue
        queue, comp = [start], set()
        while queue:
            v = queue.pop()
            if v in comp:
                continue
            comp.add(v)
            queue.extend(w for w in range(len(pool)) if table[v, w] and w not in comp)
        seen |= comp
        comps.append(frozenset(pool[v] for v in comp))
    return set(comps)


def greedy_partition_oracle(boxes, objectness, tau, top_k):
    """The seed-and-absorb loop ``partition_cliques`` once ran, kept as the
    reference for clique order: seed with the best unassigned proposal,
    absorb every unassigned proposal overlapping any member, to closure."""
    order = np.argsort(-np.asarray(objectness), kind="stable")[: min(top_k, len(objectness))]
    pool = [int(i) for i in order]
    overlaps = iou_matrix(np.asarray(boxes)[pool], np.asarray(boxes)[pool]) > tau
    unassigned = list(range(len(pool)))
    cliques = []
    while unassigned:
        members = [unassigned.pop(0)]
        grew = True
        while grew:
            grew = False
            still = []
            for pos in unassigned:
                if overlaps[pos, members].any():
                    members.append(pos)
                    grew = True
                else:
                    still.append(pos)
            unassigned = still
        cliques.append(tuple(sorted(pool[pos] for pos in members)))
    return cliques, tuple(sorted(pool))


def ref_discovery_loss(labels, member_lists, scores):
    """Plain-loop re-implementation of the discovery objective (no gradients)."""
    scores = np.asarray(scores, dtype=float)
    n_prop, n_cls = scores.shape
    total = 0.0
    if any(labels[y] == 1 for y in range(n_cls)):
        means = np.array([scores[m].mean(axis=0) for m in member_lists])
        e = np.exp(means - means.max())
        p = e / e.sum()
        w = p / np.maximum(p.sum(axis=1, keepdims=True), EPS)
        for y in range(n_cls):
            if labels[y] == 1:
                total += -math.log(max(float((w[:, y] * p[:, y]).sum()), EPS))
    q = np.exp(scores - scores.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    for y in range(n_cls):
        if labels[y] == 0:
            total += float(-np.log(np.maximum(1.0 - q[:, y], EPS)).sum())
    return total


def soft_weights_oracle(probs, ious, a):
    """w_h = (sum_h' g(h') p(h')) / (p(h) * sum_h' g(h')) over one clique,
    g = exp(-a (1 - iou)^2) and p floored at EPS."""
    p = np.maximum(np.asarray(probs, dtype=float), EPS)
    g = np.exp(-a * (1.0 - np.asarray(ious, dtype=float)) ** 2)
    return float((g * p).sum()) / (p * max(float(g.sum()), EPS))


def fd_gradient(fn, x0, step=1e-5):
    g = np.zeros_like(x0)
    flat, gflat = x0.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x0)
        flat[i] = orig - step
        lo = fn(x0)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


def rel_err(analytic, numeric):
    scale = max(float(np.abs(numeric).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / scale


def random_boxes(rng, n):
    out = np.zeros((n, 4))
    for i in range(n):
        x1, y1 = rng.uniform(0, 0.7, size=2)
        out[i] = [x1, y1, x1 + rng.uniform(0.05, 0.3), y1 + rng.uniform(0.05, 0.3)]
    return out


def bits(a):
    """The float64 bit patterns of ``a``, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def partition_of(cliques, tau=0.7):
    """The partition whose cliques are ``cliques``, as member tuples, of a
    bag with one proposal past the last member, outside the pool."""
    members = [m for c in cliques for m in c]
    return CliquePartition(members=np.array(members, dtype=int),
                           sizes=np.array([len(c) for c in cliques], dtype=int), tau=tau,
                           num_proposals=max(members, default=-1) + 2)


def random_partition_inputs(rng, count):
    """``count`` random (boxes, objectness, tau, top_k) instances, including
    one-proposal bags, objectness ties, and top_k below and above n."""
    for trial in range(count):
        n = 1 if trial % 25 == 0 else int(rng.integers(2, 30))
        boxes = random_boxes(rng, n)
        obj = rng.uniform(0, 1, size=n)
        if trial % 2:
            obj = np.round(obj * 3) / 3  # few distinct values: many ties
        top_k = int(rng.integers(1, n + 1)) if trial % 3 else n + int(rng.integers(1, 5))
        yield boxes, obj, float(rng.uniform(0.2, 0.8)), top_k


# ---------------------------------------------------------------------------
# clique partition
# ---------------------------------------------------------------------------

class TestPartition:
    def test_single_proposal(self):
        part = partition_cliques(np.array([[0, 0, 1, 1.0]]), np.array([0.5]), 0.7, 200)
        assert len(part.cliques) == 1
        assert part.cliques[0].members == (0,)
        assert part.pool == (0,)

    def test_two_overlapping_boxes_merge(self):
        boxes = np.array([[0, 0, 1, 1], [0.05, 0, 1.05, 1.0]])  # IoU ~ 0.9
        part = partition_cliques(boxes, np.array([0.9, 0.1]), 0.7, 200)
        assert len(part.cliques) == 1
        assert part.cliques[0].members == (0, 1)

    def test_greedy_trace_three_boxes(self):
        # A and B overlap at ~0.9; C is far away; objectness A > C > B
        boxes = np.array([[0, 0, 1, 1], [0.05, 0, 1.05, 1.0], [5, 5, 6, 6.0]])
        part = partition_cliques(boxes, np.array([0.9, 0.2, 0.5]), 0.7, 200)
        assert [c.members for c in part.cliques] == [(0, 1), (2,)]

    def test_chain_absorbed_to_closure(self):
        # A-B overlap > tau, B-C overlap > tau, A-C below: closure pulls in C
        boxes = np.array([
            [0.0, 0.0, 1.0, 1.0],
            [0.1, 0.0, 1.1, 1.0],
            [0.2, 0.0, 1.2, 1.0],
        ])
        table = iou_matrix(boxes, boxes)
        assert table[0, 1] > 0.7 and table[1, 2] > 0.7 and table[0, 2] < 0.7
        part = partition_cliques(boxes, np.array([0.9, 0.1, 0.5]), 0.7, 200)
        assert len(part.cliques) == 1
        assert part.cliques[0].members == (0, 1, 2)

    def test_top_k_restricts_pool(self):
        boxes = np.array([[0, 0, 1, 1], [10, 10, 11, 11], [20, 20, 21, 21.0]])
        part = partition_cliques(boxes, np.array([0.3, 0.9, 0.5]), 0.7, 2)
        assert part.pool == (1, 2)
        assert {c.members for c in part.cliques} == {(1,), (2,)}

    def test_matches_components_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(1, 20))
            boxes = random_boxes(rng, n)
            obj = rng.uniform(0, 1, size=n)
            top_k = int(rng.integers(1, n + 1))
            tau = float(rng.uniform(0.2, 0.8))
            part = partition_cliques(boxes, obj, tau, top_k)
            got = {frozenset(c.members) for c in part.cliques}
            assert got == components_oracle(boxes, obj, tau, top_k)
            # exact cover: disjoint union equals the pool
            all_members = [m for c in part.cliques for m in c.members]
            assert len(all_members) == len(set(all_members))
            assert set(all_members) == set(part.pool)

    def test_order_matches_greedy_loop(self):
        # clique order feeds ``selected`` and so the checkpoint bytes
        for boxes, obj, tau, top_k in random_partition_inputs(np.random.default_rng(11), 500):
            part = partition_cliques(boxes, obj, tau, top_k)
            cliques, pool = greedy_partition_oracle(boxes, obj, tau, top_k)
            assert [c.members for c in part.cliques] == cliques
            assert part.pool == pool

    def test_cached_adjacency_gives_same_partition(self):
        # one cached tau-graph serves every visit of a bag, whatever its
        # objectness, and is the graph an uncached call builds for itself
        rng = np.random.default_rng(12)
        for boxes, obj, tau, top_k in random_partition_inputs(rng, 100):
            graph = tau_graph(boxes, tau)
            assert sorted(graph.component.tolist()) == np.repeat(
                np.arange(len(graph.sizes)), graph.sizes).tolist()
            for visit in (obj, rng.permutation(obj), rng.uniform(size=len(obj))):
                cached = partition_cliques(boxes, visit, tau, top_k, graph)
                fresh = partition_cliques(boxes, visit, tau, top_k)
                assert np.array_equal(cached.members, fresh.members)
                assert np.array_equal(cached.sizes, fresh.sizes)
                cliques, pool = greedy_partition_oracle(boxes, visit, tau, top_k)
                assert [c.members for c in cached.cliques] == cliques
                assert cached.pool == pool

    def test_long_chain_matches_greedy_loop(self):
        # each box overlaps the next at IoU 0.82 and the one after at 0.67,
        # so at tau 0.7 the 200 boxes chain into one clique through
        # neighbour links only, one breadth-first level per box
        step = 0.18 / 1.82
        boxes = np.array([[i * step, 0.0, i * step + 1.0, 1.0] for i in range(200)])
        table = iou_matrix(boxes, boxes)
        assert np.allclose(np.diagonal(table, 1), 0.82)
        assert np.allclose(np.diagonal(table, 2), 1.46 / 2.18)
        graph = tau_graph(boxes, 0.7)
        assert graph.sizes.tolist() == [200]
        rng = np.random.default_rng(15)
        # a contiguous pool keeps one piece of the chain; a random one cuts it
        for obj, contiguous in ((np.linspace(1.0, 0.0, 200), True),
                                (rng.uniform(size=200), False), (np.zeros(200), True)):
            for top_k in (200, 120, 7):
                cliques, pool = greedy_partition_oracle(boxes, obj, 0.7, top_k)
                for cached in (None, graph):
                    part = partition_cliques(boxes, obj, 0.7, top_k, cached)
                    assert [c.members for c in part.cliques] == cliques
                    assert part.pool == pool
                if top_k == 200:
                    assert cliques == [tuple(range(200))]
                else:
                    assert (len(cliques) == 1) == contiguous

    def test_isolated_proposals_match_greedy_loop(self):
        # small boxes spread over a wide field, a few stacked into clusters:
        # most of each pool has no neighbour above tau
        rng = np.random.default_rng(16)
        isolated = chained = 0
        for trial in range(300):
            n = 1 + trial % 60
            boxes = random_boxes(rng, n) * 0.2
            boxes += rng.uniform(0, 10, size=(n, 1)) * [1, 0, 1, 0]
            stacked = rng.random(n) < 0.2
            boxes[stacked] = boxes[0] + rng.uniform(-0.002, 0.002, size=(int(stacked.sum()), 4))
            obj = rng.uniform(0, 1, size=n)
            if trial % 2:
                obj = np.round(obj * 3) / 3
            tau = float(rng.uniform(0.3, 0.8))
            top_k = n if trial % 3 else int(rng.integers(1, n + 1))
            cliques, pool = greedy_partition_oracle(boxes, obj, tau, top_k)
            for graph in (None, tau_graph(boxes, tau)):
                part = partition_cliques(boxes, obj, tau, top_k, graph)
                assert [c.members for c in part.cliques] == cliques
                assert part.pool == pool
            isolated += sum(len(c) == 1 for c in cliques)
            chained += sum(len(c) > 1 for c in cliques)
        assert isolated > 5 * chained > 0

    def test_iou_equal_to_tau_does_not_chain(self):
        # A = [0,0,1,1] and B = [0,0,1,0.5] overlap at IoU exactly 0.5.  A
        # chains to D and B to C above 0.5, so both sit in a breadth-first
        # search; E, at exactly 0.5 with A too, has no other neighbour.
        boxes = np.array([
            [0.0, 0.0, 1.0, 1.0],  # A
            [0.0, 0.0, 1.0, 0.5],  # B
            [0.0, 0.0, 1.0, 0.45],  # C
            [0.05, 0.0, 1.05, 1.0],  # D
            [0.0, 0.5, 1.0, 1.0],  # E
        ])
        table = iou_matrix(boxes, boxes)
        assert table[0, 1] == 0.5 and table[0, 4] == 0.5
        assert table[0, 3] > 0.5 and table[1, 2] > 0.5
        obj = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        for tau, want in (
            (0.5, [(0, 3), (1, 2), (4,)]),
            (float(np.nextafter(0.5, 0.0)), [(0, 1, 2, 3, 4)]),
        ):
            for graph in (None, tau_graph(boxes, tau)):
                part = partition_cliques(boxes, obj, tau, 200, graph)
                assert [c.members for c in part.cliques] == want

    def test_singleton_partition(self):
        part = singleton_partition(np.array([0.5, 0.9, 0.1]), 2)
        assert part.pool == (0, 1)
        assert part.label.tolist() == [0, 1, -1]  # one label per proposal
        assert [c.members for c in part.cliques] == [(0,), (1,)]

    def test_partitions_build_no_clique(self, built_cliques):
        for boxes, obj, tau, top_k in random_partition_inputs(np.random.default_rng(18), 50):
            partition_cliques(boxes, obj, tau, top_k)
            singleton_partition(obj, top_k)
        assert built_cliques == []
        part = partition_cliques(boxes, obj, tau, top_k)
        assert part.cliques is part.cliques  # built once, on the first read
        assert built_cliques == [c.members for c in part.cliques]

    @pytest.mark.parametrize("cliques, pool", [
        ([(4,), (1,), (7,), (0,)], (0, 1, 4, 7)),  # isolated proposals
        ([(2, 5, 6), (0,), (1, 3)], (0, 1, 2, 3, 5, 6)),  # chained ones
        ([], ()),  # an empty pool
    ])
    def test_derived_views_agree(self, cliques, pool):
        part = partition_of(cliques)
        assert [c.members for c in part.cliques] == cliques
        assert part.pool == pool
        assert part.sizes.tolist() == [len(c) for c in cliques]
        assert np.flatnonzero(part.label >= 0).tolist() == list(pool)
        for i, c in enumerate(cliques):
            assert part.label[list(c)].tolist() == [i] * len(c)
            assert part.clique_members(i).tolist() == list(c)
        # one label per proposal; those outside the pool hold -1
        assert len(part.label) == part.num_proposals == max(pool, default=-1) + 2
        for outside in set(range(part.num_proposals)) - set(pool):
            assert part.label[outside] == -1

    def test_label_names_each_members_clique(self):
        part = partition_of([(0, 2), (1,)])
        assert part.label.tolist() == [0, 1, 0, -1]
        assert part.label[2] == 0 and part.label[1] == 1

    def test_label_outside_top_k_pool(self):
        boxes = np.array([[0, 0, 1, 1], [0.05, 0, 1.05, 1.0], [5, 5, 6, 6.0], [8, 8, 9, 9.0]])
        part = partition_cliques(boxes, np.array([0.9, 0.2, 0.5, 0.1]), 0.7, 3)
        # box 3, dropped by top_k, is past the last pooled proposal
        assert part.label.tolist() == [0, 0, 1, -1]
        part = partition_cliques(boxes, np.array([0.1, 0.2, 0.5, 0.9]), 0.7, 3)
        assert part.label.tolist() == [-1, 2, 1, 0]  # box 0 dropped, its partner kept

    def test_pool_splits_one_component_into_three_cliques(self):
        # five boxes chained A-B-C-D-E, one component of the bag's graph; the
        # pool drops B and D, so A, C and E each become a clique of their own
        step = 0.18 / 1.82  # neighbours at IoU 0.82, second neighbours at 0.67
        boxes = np.array([[i * step, 0.0, i * step + 1.0, 1.0] for i in range(5)])
        graph = tau_graph(boxes, 0.7)
        assert graph.component.tolist() == [0] * 5 and graph.sizes.tolist() == [5]
        obj = np.array([0.5, 0.1, 0.9, 0.2, 0.7])
        for cached in (None, graph):
            part = partition_cliques(boxes, obj, 0.7, 3, cached)
            assert [c.members for c in part.cliques] == [(2,), (4,), (0,)]
            assert part.label.tolist() == [2, -1, 0, -1, 1]
        # D back in the pool joins C and E; A is still cut off from them by B
        part = partition_cliques(boxes, obj, 0.7, 4, graph)
        assert [c.members for c in part.cliques] == [(2, 3, 4), (0,)]
        assert greedy_partition_oracle(boxes, obj, 0.7, 4)[0] == [(2, 3, 4), (0,)]

    def test_graph_must_match_boxes_and_tau(self):
        boxes = random_boxes(np.random.default_rng(3), 4)
        graph = tau_graph(boxes, 0.7)
        with pytest.raises(ValueError, match="tau-graph"):
            partition_cliques(boxes, np.ones(4), 0.6, 4, graph)
        with pytest.raises(ValueError, match="tau-graph"):
            partition_cliques(boxes[:3], np.ones(3), 0.7, 4, graph)

    def test_clique_validation(self):
        with pytest.raises(ValueError):
            Clique(members=())
        with pytest.raises(ValueError):
            Clique(members=(1, 1))


# ---------------------------------------------------------------------------
# clique-table probabilities
# ---------------------------------------------------------------------------

def two_singleton_partition():
    return partition_of([(0,), (1,)])


class TestCliqueProbs:
    def test_single_clique_equal_means(self):
        part = partition_of([(0, 1)])
        probs = clique_class_probs(part, np.zeros((2, 2)))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_two_cliques_all_equal(self):
        probs = clique_class_probs(two_singleton_partition(), np.zeros((2, 2)))
        np.testing.assert_allclose(probs, 0.25)

    def test_single_clique_means_one_zero(self):
        part = partition_of([(0,)])
        probs = clique_class_probs(part, np.array([[1.0, 0.0]]))
        e = math.e
        np.testing.assert_allclose(probs, [[e / (e + 1), 1 / (e + 1)]], rtol=1e-12)

    def test_table_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_prop = int(rng.integers(1, 8))
            n_cls = int(rng.integers(1, 4))
            scores = rng.normal(size=(n_prop, n_cls)) * 3
            part = singleton_partition(rng.uniform(0, 1, n_prop), n_prop)
            probs = clique_class_probs(part, scores)
            assert abs(probs.sum() - 1.0) < 1e-9
            shifted = clique_class_probs(part, scores + 17.3)
            np.testing.assert_allclose(probs, shifted, atol=1e-12)

    def test_mean_uses_member_count(self):
        part = partition_of([(0, 1, 2)])
        scores = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        probs = clique_class_probs(part, scores)
        e = math.exp(1.0)  # mean score (1, 0)
        np.testing.assert_allclose(probs, [[e / (e + 1), 1 / (e + 1)]], rtol=1e-12)


class TestCliqueMeanScores:
    def test_bitwise_equal_to_per_clique_mean(self):
        rng = np.random.default_rng(17)
        for trial in range(250):
            n_cls = 1 + trial % 5
            sizes = rng.integers(1, 151, size=int(rng.integers(1, 6)))
            if trial % 4 == 0:
                sizes[0] = 1
            n_prop = int(sizes.sum()) + int(rng.integers(0, 5))  # some outside the pool
            perm = rng.permutation(n_prop)
            cliques, start = [], 0
            for size in sizes:
                members = perm[start : start + size].tolist()
                start += size
                # partition_cliques sorts members; the mean follows any order
                cliques.append(tuple(sorted(members) if trial % 3 else members))
            part = partition_of(cliques)
            # magnitudes over six decades, so that summation order shows
            scale = 10.0 ** rng.uniform(-3, 3, size=(n_prop, 1))
            scores = rng.normal(size=(n_prop, n_cls)) * scale
            scores[rng.random(n_prop) < 0.1] = -0.0
            if trial % 5 == 0:
                scores[list(cliques[0])] = -0.0
            want = np.stack([scores[list(c)].mean(axis=0) for c in cliques])
            got = clique_mean_scores(part, scores)
            assert got.shape == want.shape
            assert np.array_equal(bits(got), bits(want))

    def test_negative_zero_rows(self):
        # numpy's mean starts each sum from 0.0, so even an all -0.0 clique
        # averages to +0.0; the table must keep exactly those bits
        part = partition_of([(0, 1), (2,), (3, 4)])
        for n_cls in (1, 2, 3):
            scores = np.full((5, n_cls), -0.0)
            scores[3] = 0.0
            want = np.stack([scores[list(c.members)].mean(axis=0) for c in part.cliques])
            assert np.array_equal(bits(clique_mean_scores(part, scores)), bits(want))


class TestCliqueWeights:
    def test_equal_probs_give_uniform_row(self):
        w = clique_weights(np.array([[0.2, 0.2]]))
        np.testing.assert_allclose(w, [[0.5, 0.5]])

    def test_already_normalized_row_unchanged(self):
        row = np.array([[0.7311, 0.2689]])
        np.testing.assert_allclose(clique_weights(row), row, rtol=1e-12)

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(0.01, 1.0, size=(int(rng.integers(1, 6)), int(rng.integers(1, 5))))
            p /= p.sum()
            w = clique_weights(p)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)


class TestGlobalEntropy:
    """The global entropy and the discovered clique of class 0, read from
    ``discovery_loss`` on bags whose proposals are singleton cliques."""

    @staticmethod
    def class_zero(scores):
        scores = np.array(scores, dtype=float)
        labels = np.zeros(scores.shape[1], dtype=int)
        labels[0] = 1
        part = singleton_partition(np.zeros(len(scores)), len(scores))
        out, _ = discovery_loss(labels, part, scores)
        return out.entropies[0], out.selected[0]

    def test_weighted_sum_one_gives_zero(self):
        # the class-1 cell's exp(-100) cannot move 1.0: probs and weights are [[1, ~0]]
        assert self.class_zero([[100.0, 0.0]])[0] == 0.0

    def test_half_half(self):
        # probs [[0.5, 0.5]], weights [[0.5, 0.5]]: evidence 0.25
        assert self.class_zero([[0.0, 0.0]])[0] == pytest.approx(-math.log(0.25))

    def test_zero_probability_clique_is_inert(self):
        scores = np.array([[0.0, -0.5], [-1000.0, 0.0]])
        probs = clique_class_probs(singleton_partition(np.zeros(2), 2), scores)
        assert probs[1, 0] == 0.0
        base = -math.log(clique_weights(probs)[0, 0] * probs[0, 0])
        assert self.class_zero(scores) == (pytest.approx(base), 0)

    def test_select_clique_largest_summand(self):
        assert self.class_zero(np.log([[0.1], [0.6], [0.3]]))[1] == 1

    def test_select_clique_tie_lowest_index(self):
        assert self.class_zero([[0.4], [0.4]])[1] == 0

    def test_select_clique_single(self):
        assert self.class_zero([[0.9]])[1] == 0


# ---------------------------------------------------------------------------
# discovery loss + gradient
# ---------------------------------------------------------------------------

class TestDiscoveryLoss:
    def test_all_negative_bag_arithmetic(self):
        # two classes, two proposals, uniform softmax: each class contributes
        # -2 log 0.5
        scores = np.zeros((2, 2))
        out, grad = discovery_loss(np.array([0, 0]), None, scores)
        assert out.loss == pytest.approx(-4 * math.log(0.5))
        assert out.selected == {}
        assert grad.shape == scores.shape

    def test_positive_term_is_global_entropy(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(4, 2))
        part = singleton_partition(rng.uniform(0, 1, 4), 4)
        out, _ = discovery_loss(np.array([1, 1]), part, scores)
        probs = clique_class_probs(part, scores)
        summands = clique_weights(probs) * probs
        entropy = [-math.log(max(float(summands[:, y].sum()), EPS)) for y in (0, 1)]
        assert out.loss == pytest.approx(entropy[0] + entropy[1])
        assert out.entropies[0] == pytest.approx(entropy[0])
        assert out.selected[0] == int(np.argmax(summands[:, 0]))

    def test_given_softmax_gives_the_same_output(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            scores = rng.normal(size=(6, 3))
            labels = rng.integers(0, 2, size=3)
            part = partition_cliques(random_boxes(rng, 6), rng.uniform(0, 1, 6), 0.5, 6)
            out, grad = discovery_loss(labels, part, scores)
            out2, grad2 = discovery_loss(labels, part, scores, softmax=row_softmax(scores))
            assert out2 == out and np.array_equal(bits(grad2), bits(grad))

    @staticmethod
    def per_class_loop(labels, partition, scores):
        """The discovery loss as it was written before each class's evidence
        was computed once: every term recomputes w[:, y] * p[:, y], and the
        gradient is scattered through the pooled rows' labels."""
        probs = clique_class_probs(partition, scores)
        weights = clique_weights(probs)
        loss, grad, selected, entropies = 0.0, np.zeros_like(scores), {}, {}
        gm = np.zeros_like(probs)
        positives = np.flatnonzero(labels == 1)
        for y in positives:
            e = float(-np.log(max(float((weights[:, y] * probs[:, y]).sum()), EPS)))
            selected[int(y)] = int(np.argmax(weights[:, y] * probs[:, y]))
            entropies[int(y)] = e
            loss += e
            u = probs[:, y] * weights[:, y]
            a = max(float(u.sum()), EPS)
            gm += (u[:, None] / a) * weights + probs
            gm[:, y] -= 2.0 * u / a
        rows = np.flatnonzero(partition.label >= 0)
        grad[rows] += (gm / partition.sizes[:, None])[partition.label[rows]]
        q = row_softmax(scores)
        g_q = np.zeros_like(q)
        for y in np.flatnonzero(labels == 0):
            comp = np.maximum(1.0 - q[:, y], EPS)
            loss += float(-np.log(comp).sum())
            g_q[:, y] = 1.0 / comp
        if (labels == 0).any():
            grad += q * (g_q - (g_q * q).sum(axis=1, keepdims=True))
        return loss, selected, entropies, grad

    @pytest.mark.parametrize("n_cls, n_pos", [(2, 2), (3, 2), (3, 3), (5, 2), (5, 3), (1, 1)])
    def test_matches_per_class_loop_bit_for_bit(self, n_cls, n_pos):
        # every benchmark and golden bag has one positive class; here two or
        # three share one partition, and N = 1 takes the lone-column mean
        rng = np.random.default_rng(23 + 7 * n_cls + n_pos)
        for trial in range(60):
            n_prop = int(rng.integers(1, 30))
            scores = rng.normal(size=(n_prop, n_cls)) * 3
            labels = np.zeros(n_cls, dtype=int)
            labels[rng.choice(n_cls, size=n_pos, replace=False)] = 1
            top_k = int(rng.integers(1, n_prop + 1))
            obj = rng.uniform(size=n_prop)
            if trial % 3:
                part = partition_cliques(random_boxes(rng, n_prop), obj, 0.4, top_k)
            else:
                part = singleton_partition(obj, top_k)
            loss, selected, entropies, grad = self.per_class_loop(labels, part, scores)
            out, got = discovery_loss(labels, part, scores)
            assert out.loss == loss
            assert out.selected == selected and out.entropies == entropies
            assert np.array_equal(bits(got), bits(grad))

    def test_positive_without_partition_rejected(self):
        with pytest.raises(ValueError):
            discovery_loss(np.array([1]), None, np.zeros((2, 1)))

    def test_loss_matches_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n_prop = int(rng.integers(2, 7))
            n_cls = int(rng.integers(2, 4))
            scores = rng.normal(size=(n_prop, n_cls)) * 2
            labels = rng.integers(0, 2, size=n_cls)
            boxes = random_boxes(rng, n_prop)
            part = partition_cliques(boxes, rng.uniform(0, 1, n_prop), 0.5, n_prop)
            out, _ = discovery_loss(labels, part, scores)
            member_lists = [list(c.members) for c in part.cliques]
            assert out.loss == pytest.approx(ref_discovery_loss(labels, member_lists, scores))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(60):
            n_prop = int(rng.integers(2, 7))
            n_cls = int(rng.integers(2, 4))
            scores = rng.normal(size=(n_prop, n_cls))
            labels = rng.integers(0, 2, size=n_cls)
            boxes = random_boxes(rng, n_prop)
            part = partition_cliques(boxes, rng.uniform(0, 1, n_prop), 0.5, n_prop)
            _, grad = discovery_loss(labels, part, scores)
            member_lists = [list(c.members) for c in part.cliques]
            num = fd_gradient(lambda s: ref_discovery_loss(labels, member_lists, s), scores)
            worst = max(worst, rel_err(grad, num))
        assert worst < 1e-4


# ---------------------------------------------------------------------------
# kernel, soft weights, localization loss
# ---------------------------------------------------------------------------

def weights_via_terms(probs, ious, a):
    """The soft weights ``localization_terms`` gives clique members whose
    class-0 probabilities are ``probs`` and whose overlaps with the selected
    object are ``ious``."""
    table = np.asarray(probs, dtype=float)[:, None]
    members = np.arange(len(table))
    w, _ = localization_terms(members, anchor_kernel(ious, a), table, 0, np.zeros_like(table))
    return w


class TestKernelAndWeights:
    def test_kernel_at_one(self):
        g, g_sum = anchor_kernel(np.array([1.0]), 4.0)
        assert g.tolist() == [1.0] and g_sum == 1.0

    def test_kernel_at_zero(self):
        g, g_sum = anchor_kernel(np.array([0.0]), 4.0)
        assert g[0] == pytest.approx(math.exp(-4.0)) and g_sum == g[0]

    def test_kernel_monotone_in_overlap(self):
        os = np.linspace(0, 1, 50)
        vals, total = anchor_kernel(os, 4.0)
        assert (np.diff(vals) > 0).all()
        assert total == float(vals.sum())

    def test_soft_weights_equal_probs(self):
        w = weights_via_terms(np.array([0.3, 0.3, 0.3]), np.array([1.0, 0.8, 0.6]), 4.0)
        np.testing.assert_allclose(w, 1.0)

    def test_soft_weights_worked_example(self):
        # ious of 1.0 make both kernels 1
        w = weights_via_terms(np.array([0.2, 0.4]), np.array([1.0, 1.0]), 4.0)
        np.testing.assert_allclose(w, [1.5, 0.75])

    def test_soft_weights_singleton(self):
        np.testing.assert_allclose(weights_via_terms(np.array([0.7]), np.array([1.0]), 4.0), [1.0])

    def test_soft_weights_nonnegative_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            probs, ious = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
            w = weights_via_terms(probs, ious, 4.0)
            assert (w >= 0).all()
            assert np.array_equal(bits(w), bits(soft_weights_oracle(probs, ious, 4.0)))


class TestSelectObject:
    def test_argmax_member(self):
        clique = Clique((0, 1, 2))
        probs = np.array([[0.2], [0.9], [0.4]])
        assert select_object(clique, probs, 0) == 1

    def test_singleton(self):
        assert select_object(Clique((3,)), np.zeros((5, 2)), 1) == 3

    def test_tie_lowest_index(self):
        probs = np.array([[0.5], [0.5]])
        assert select_object(Clique((0, 1)), probs, 0) == 0

    def test_member_indices_pick_as_the_clique_does(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            probs = rng.uniform(size=(9, 2))
            members = np.sort(rng.choice(9, size=int(rng.integers(1, 10)), replace=False))
            pick = select_object(members, probs, 1)
            assert type(pick) is int and pick == select_object(Clique(tuple(members)), probs, 1)


class TestHardNegatives:
    def test_all_near_gives_empty(self):
        boxes = np.array([[0, 0, 1, 1], [0.02, 0, 1.02, 1.0]])
        assert hard_negatives(Clique((0, 1)), 0, boxes) == []

    def test_far_member_included(self):
        boxes = np.array([[0, 0, 1, 1], [0.5, 0.5, 1.5, 1.5]])  # IoU = 1/7 < 0.5
        assert hard_negatives(Clique((0, 1)), 0, boxes) == [1]

    def test_h_star_never_included(self):
        boxes = np.array([[0, 0, 1, 1], [0.5, 0.5, 1.5, 1.5]])
        assert 0 not in hard_negatives(Clique((0, 1)), 0, boxes)

    def test_h_star_must_be_member(self):
        with pytest.raises(ValueError):
            hard_negatives(Clique((0, 1)), 2, np.zeros((3, 4)) + [[0, 0, 1, 1]])


class TestLocalizationLoss:
    def test_perfect_probs_zero_loss(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        boxes = np.array([[0, 0, 1, 1], [0.01, 0, 1.01, 1.0]])
        out, grad = localization_loss(Clique((0, 1)), 0, probs, boxes, 4.0, 0)
        assert out.loss == pytest.approx(0.0, abs=1e-9)

    def test_two_member_arithmetic(self):
        # equal probs make both soft weights 1; loss = -2 * 0.5 * log 0.5
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        boxes = np.array([[0, 0, 1, 1], [0, 0, 1, 1.0]])
        out, _ = localization_loss(Clique((0, 1)), 0, probs, boxes, 4.0, 0)
        assert out.loss == pytest.approx(-math.log(0.5))
        np.testing.assert_allclose(out.soft_weights, 1.0)

    def test_gradient_zero_outside_clique(self):
        probs = row_softmax(np.random.default_rng(0).normal(size=(4, 2)))
        boxes = random_boxes(np.random.default_rng(1), 4)
        _, grad = localization_loss(Clique((1, 2)), 1, probs, boxes, 4.0, 0)
        assert not grad[0].any() and not grad[3].any()

    def test_gradient_matches_frozen_finite_differences(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(60):
            n_prop = int(rng.integers(2, 7))
            n_cls = int(rng.integers(2, 4))
            scores = rng.normal(size=(n_prop, n_cls))
            boxes = random_boxes(rng, n_prop)
            size = int(rng.integers(1, n_prop + 1))
            members = tuple(sorted(rng.choice(n_prop, size=size, replace=False).tolist()))
            clique = Clique(members)
            cls = int(rng.integers(0, n_cls))
            probs0 = row_softmax(scores)
            h_star = select_object(clique, probs0, cls)
            out, grad = localization_loss(clique, h_star, probs0, boxes, 4.0, cls)
            # freeze the pseudo labels at the evaluation point, then
            # differentiate -sum kappa * log softmax(s) numerically
            member_list = list(members)
            ious = iou_matrix(boxes[member_list], boxes[h_star : h_star + 1])[:, 0]
            kappa = soft_weights_oracle(probs0[member_list, cls], ious, 4.0) * probs0[member_list, cls]

            def frozen(s):
                p = row_softmax(s)
                return float(-(kappa * np.log(np.maximum(p[member_list, cls], EPS))).sum())

            num = fd_gradient(frozen, scores)
            worst = max(worst, rel_err(grad, num))
        assert worst < 1e-4

    def test_gradient_bitwise_matches_per_member_loop(self):
        rng = np.random.default_rng(18)
        for trial in range(200):
            n_prop = int(rng.integers(1, 40))
            n_cls = int(rng.integers(1, 5))
            probs = row_softmax(rng.normal(size=(n_prop, n_cls)) * 3)
            probs[rng.random((n_prop, n_cls)) < 0.1] = -0.0  # 0.0 + -0.0 is 0.0
            boxes = random_boxes(rng, n_prop)
            size = int(rng.integers(1, n_prop + 1))
            members = rng.choice(n_prop, size=size, replace=False).tolist()
            clique = Clique(tuple(sorted(members) if trial % 2 else members))
            cls = int(rng.integers(0, n_cls))
            h_star = clique.members[int(rng.integers(0, size))]
            out, grad = localization_loss(clique, h_star, probs, boxes, 4.0, cls)
            kappa = out.soft_weights * np.maximum(probs[list(clique.members), cls], EPS)
            want = np.zeros_like(probs)
            onehot = np.zeros(n_cls)
            onehot[cls] = 1.0
            for m, k in zip(clique.members, kappa):
                want[m] += k * (probs[m] - onehot)
            assert np.array_equal(bits(grad), bits(want))

    def test_cached_overlaps_give_same_output(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n_prop = int(rng.integers(1, 12))
            probs = row_softmax(rng.normal(size=(n_prop, 3)))
            boxes = random_boxes(rng, n_prop)
            clique = Clique(tuple(range(n_prop)))
            h_star = int(rng.integers(0, n_prop))
            ious = member_overlaps(clique, h_star, boxes)
            want = iou_matrix(boxes, boxes[h_star : h_star + 1])[:, 0]
            assert np.array_equal(ious, want)
            out, grad = localization_loss(clique, h_star, probs, boxes, 4.0, 1)
            grad2 = np.zeros_like(probs)
            kernel = anchor_kernel(ious, 4.0)
            assert np.array_equal(kernel[0], np.exp(-4.0 * (1.0 - ious) ** 2))
            w, loss = localization_terms(np.array(clique.members), kernel, probs, 1, grad2)
            assert loss == out.loss and np.array_equal(w, out.soft_weights)
            assert np.array_equal(grad2, grad)
            assert np.array_equal(member_overlaps(np.arange(n_prop), h_star, boxes), ious)

    def test_terms_added_in_place_equal_summed_gradients(self):
        # the trainer adds each anchor's terms to one branch gradient's member
        # rows; with softmax probabilities no term or sum is -0.0, so that is
        # bit for bit the sum of the wrapper's full gradients
        rng = np.random.default_rng(20)
        for _ in range(100):
            n_prop, n_cls = int(rng.integers(1, 30)), int(rng.integers(1, 4))
            probs = row_softmax(rng.normal(size=(n_prop, n_cls)) * 3)
            boxes = random_boxes(rng, n_prop)
            acc, want = np.zeros_like(probs), np.zeros_like(probs)
            for _ in range(int(rng.integers(1, 4))):
                members = np.sort(rng.choice(n_prop, size=int(rng.integers(1, n_prop + 1)),
                                             replace=False))
                h_star, cls = int(rng.choice(members)), int(rng.integers(0, n_cls))
                kernel = anchor_kernel(member_overlaps(members, h_star, boxes), 4.0)
                w, loss = localization_terms(members, kernel, probs, cls, acc)
                out, grad = localization_loss(Clique(tuple(members.tolist())), h_star, probs,
                                              boxes, 4.0, cls)
                assert loss == out.loss and np.array_equal(w, out.soft_weights)
                want += grad
            assert np.array_equal(bits(acc), bits(want))

    def test_h_star_must_be_member(self):
        probs = np.full((3, 2), 0.5)
        boxes = random_boxes(np.random.default_rng(2), 3)
        with pytest.raises(ValueError):
            localization_loss(Clique((0, 1)), 2, probs, boxes, 4.0, 0)


class TestRowSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            s = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 5)))) * 5
            q = row_softmax(s)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
            assert (q >= 0).all()

    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(row_softmax(np.zeros((3, 4))), 0.25)
