"""Clique partition and the two entropy objectives with analytic gradients.

Proposals that overlap heavily are grouped into cliques; a bag's class
evidence is then a softmax over the (clique, class) table of per-clique
mean scores, so a crowd of redundant boxes counts once.  Two losses act
on this structure:

* discovery loss — for each class present in the bag, the negative log of
  the clique-weighted evidence for that class (low when one clique carries
  the class confidently); for each absent class, a per-proposal penalty
  for assigning it any probability.
* localization loss — inside the discovered clique, a soft-weighted
  cross-entropy that sharpens per-proposal probabilities toward the
  selected object, with the soft weights treated as constants (pseudo
  labels) during differentiation.

All gradients here are with respect to raw head scores; chaining into
model parameters is the caller's job.  Every log, and every denominator
that can vanish, is epsilon-floored at ``EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import box_iou, iou_matrix

EPS = 1e-12


@dataclass(frozen=True)
class Clique:
    """Non-empty set of proposal indices that mutually chain above tau."""

    members: tuple[int, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("clique must be non-empty")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"clique members must be unique: {self.members}")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class CliquePartition:
    """Top-k proposals of a bag of ``num_proposals`` split into cliques:
    ``members`` lists every member, clique after clique, each clique
    ascending, and ``sizes`` each clique's size.  ``label``, each proposal's
    clique index (-1 outside the pool), and ``pool`` and ``cliques`` derive
    from them; no ``Clique`` exists until read."""

    members: np.ndarray
    sizes: np.ndarray
    num_proposals: int
    label: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        label = np.empty(self.num_proposals, dtype=int)
        label.fill(-1)
        label[self.members] = np.arange(len(self.sizes)).repeat(self.sizes)
        object.__setattr__(self, "label", label)

    @property
    def pool(self) -> tuple[int, ...]:
        """The top-k proposal indices the cliques cover, ascending."""
        return tuple(np.flatnonzero(self.label >= 0).tolist())

    @cached_property
    def offsets(self) -> list[int]:
        """Where each clique starts in ``members``, then where the last ends."""
        return [0] + np.cumsum(self.sizes).tolist()

    @cached_property
    def cliques(self) -> tuple[Clique, ...]:
        return tuple(Clique(tuple(self.clique_members(i).tolist())) for i in range(len(self.sizes)))

    def clique_members(self, index: int) -> np.ndarray:
        """Clique ``index``'s members, ascending: a slice of ``members``."""
        return self.members[self.offsets[index] : self.offsets[index + 1]]


@dataclass
class DiscoveryOutput:
    selected: dict[int, int]  # positive class -> discovered clique index
    entropies: dict[int, float]  # positive class -> global entropy value
    loss: float


@dataclass
class LocalizationOutput:
    soft_weights: np.ndarray  # per clique member, aligned with clique.members
    loss: float


@dataclass(frozen=True, eq=False)
class TauGraph:
    """One bag's IoU > ``tau`` graph, fixed while its boxes and ``tau`` are:
    ``component``, each proposal's connected component, numbered in
    proposal order, with ``sizes`` each component's size, and ``blocks``,
    which maps each component of two or more proposals to its members,
    ascending, and the (size x size) bool adjacency among them (no self
    loops).  No edge leaves a component, so the blocks are the whole graph
    in a few cells of the P x P table."""

    component: np.ndarray
    sizes: np.ndarray
    blocks: dict[int, tuple[np.ndarray, np.ndarray]]
    tau: float


def _components(adjacency: np.ndarray) -> np.ndarray:
    """Connected-component label of each node of a symmetric bool graph
    without self loops, numbered in the order of each component's first node."""
    isolated = ~adjacency.any(axis=1)
    label = np.full(len(adjacency), -1)
    count = 0
    for seed, alone in enumerate(isolated.tolist()):
        if label[seed] >= 0:
            continue
        component = seed
        if not alone:
            frontier = np.zeros(len(adjacency), dtype=bool)
            frontier[seed] = True
            component = frontier.copy()
            while True:  # one level of breadth-first search per pass
                frontier = adjacency[frontier].any(axis=0) & ~component
                if not frontier.any():
                    break
                component |= frontier
        label[component] = count
        count += 1
    return label


def tau_graph(boxes: np.ndarray, tau: float) -> TauGraph:
    """The IoU > ``tau`` graph of ``boxes`` and its connected components;
    IoU exactly ``tau`` does not chain."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    adjacency = iou_matrix(boxes, boxes) > tau
    np.fill_diagonal(adjacency, False)
    component = _components(adjacency)
    sizes = np.bincount(component)
    members = {c: np.flatnonzero(component == c) for c in np.flatnonzero(sizes > 1).tolist()}
    blocks = {c: (m, adjacency.take(m, axis=0).take(m, axis=1)) for c, m in members.items()}
    return TauGraph(component=component, sizes=sizes, blocks=blocks, tau=tau)


def partition_cliques(
    boxes: np.ndarray,
    objectness: np.ndarray,
    tau: float,
    top_k: int,
    graph: TauGraph | None = None,
) -> CliquePartition:
    """Partition the top-k highest-objectness proposals into the connected
    components of their IoU > ``tau`` graph, seeded in objectness order.

    The best unassigned proposal seeds a clique, which absorbs every pooled
    proposal chained to it above ``tau`` through pooled proposals; cliques
    come in the order of their seeds, each with sorted members.  ``graph``
    is the bag's ``tau_graph(boxes, tau)``, built here if not given.  A
    component of it that the pool keeps whole is a clique as it stands; a
    breadth-first search runs only over the pooled members of a component
    the pool cuts, which may fall apart into several cliques.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    objectness = np.asarray(objectness, dtype=float)
    if objectness.shape != (boxes.shape[0],):
        raise ValueError(f"objectness shape {objectness.shape} != ({boxes.shape[0]},)")
    if not np.isfinite(objectness).all():
        raise ValueError("objectness must be finite")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if graph is None:
        graph = tau_graph(boxes, tau)
    elif graph.tau != tau or graph.component.shape != objectness.shape:
        raise ValueError("graph is not the tau-graph of these boxes at this tau")

    order = np.argsort(-objectness, kind="stable")[:top_k]
    key = graph.component[order]  # each pool position's component, then clique
    if len(order) < len(objectness):  # a pool of every proposal cuts nothing
        pooled = np.bincount(key, minlength=len(graph.sizes))
        fresh = len(graph.sizes)  # keys past every component's
        for cut in np.flatnonzero((pooled > 0) & (pooled < graph.sizes)).tolist():
            at = np.flatnonzero(key == cut)  # in pool order
            members, block = graph.blocks[cut]
            local = members.searchsorted(order[at])
            key[at] = fresh + _components(block.take(local, axis=0).take(local, axis=1))
            fresh += len(local)
    # number the cliques by the pool position of their first member, the seed
    seeds: dict[int, int] = {}
    clique = np.array([seeds.setdefault(k, len(seeds)) for k in key.tolist()], dtype=int)
    members = order[np.lexsort((order, clique))]
    return CliquePartition(members=members, sizes=np.bincount(clique),
                           num_proposals=len(objectness))


def singleton_partition(objectness: np.ndarray, top_k: int) -> CliquePartition:
    """Each top-k proposal forms its own clique (the no-grouping ablation)."""
    objectness = np.asarray(objectness, dtype=float)
    pool = np.sort(np.argsort(-objectness, kind="stable")[:top_k])
    return CliquePartition(members=pool, sizes=np.ones(len(pool), dtype=int),
                           num_proposals=len(objectness))


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Per-proposal probability over classes, the last axis: of one head's
    (P, N) scores, or of each head's in a (heads, P, N) table."""
    s = np.asarray(scores, dtype=float)
    e = np.exp(s - row_max(s)[..., None])
    # each row holds exp(0) = 1, so its sum needs no floor; a non-finite
    # row sums to nan either way
    return e / e.sum(axis=-1, keepdims=True)


def row_max(table: np.ndarray) -> np.ndarray:
    """Each row's maximum over the last axis, ``table.max(axis=-1)`` to the
    bit, taken one column at a time: a reduction over a last axis of a few
    classes pays a call per row, and a maximum is exact in any order.  A
    one-column table gives a view of its column."""
    top = table[..., 0]
    for c in range(1, table.shape[-1]):
        top = np.maximum(top, table[..., c])
    return top


def clique_mean_scores(partition: CliquePartition, scores: np.ndarray) -> np.ndarray:
    """(num_cliques, N) table of per-clique mean raw scores.

    Each sum runs from 0.0 through the clique's rows in member order, the
    order and bits of numpy's per-clique ``mean(axis=0)``.
    """
    if scores.shape[1] == 1:
        # mean() sums a lone column pairwise, which a scatter cannot follow
        rows, ends = scores[partition.members], np.cumsum(partition.sizes).tolist()
        return np.stack([rows[a:b].mean(axis=0) for a, b in zip([0] + ends, ends)])
    if len(partition.sizes) == len(partition.members):  # one member each: 0.0 + row, over 1
        return scores[partition.members] + 0.0
    sums = np.zeros((len(partition.sizes), scores.shape[1]))
    np.add.at(sums, partition.label[partition.members], scores[partition.members])
    return sums / partition.sizes[:, None]


def joint_softmax(table: np.ndarray) -> np.ndarray:
    """One softmax over every cell of ``table``, its sum floored at ``EPS``."""
    e = np.exp(table - table.max())
    return e / max(float(e.sum()), EPS)


def clique_class_probs(partition: CliquePartition, scores: np.ndarray) -> np.ndarray:
    """Softmax over the whole (clique, class) table of mean scores."""
    return joint_softmax(clique_mean_scores(partition, scores))


def clique_weights(clique_probs: np.ndarray) -> np.ndarray:
    """Per-clique renormalization over classes (each row sums to 1)."""
    p = np.asarray(clique_probs, dtype=float)
    return p / np.maximum(p.sum(axis=1, keepdims=True), EPS)


def discovery_loss(
    labels: np.ndarray, partition: CliquePartition | None, scores: np.ndarray, *,
    softmax: np.ndarray | None = None,
) -> tuple[DiscoveryOutput, np.ndarray]:
    """Discovery objective and its gradient with respect to raw scores.

    Classes labeled 1 contribute the global entropy over the clique table;
    classes labeled 0 contribute -sum_h log(1 - p(y,h)) over ALL proposals,
    where p is the per-proposal softmax over classes: ``softmax``, if the
    caller has computed ``row_softmax(scores)``.  ``partition`` may be None
    only when the bag has no positive class.
    """
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n_prop, n_cls = scores.shape
    if labels.shape != (n_cls,):
        raise ValueError(f"labels shape {labels.shape} != ({n_cls},)")
    positives = (labels == 1).nonzero()[0]
    if partition is None and positives.size:
        raise ValueError("positive classes require a clique partition")

    loss = 0.0
    grad = np.zeros(scores.shape)
    selected: dict[int, int] = {}
    entropies: dict[int, float] = {}

    if positives.size:
        probs = clique_class_probs(partition, scores)
        weights = clique_weights(probs)
        # gradient of the positive terms w.r.t. the mean-score table,
        # then scattered to member rows (each member carries 1/|clique|)
        gm = np.zeros(probs.shape)
        for y in positives.tolist():
            # each clique's weighted-evidence summand, as one contiguous row;
            # the evidence is their floored sum, the discovered clique the
            # one with the largest summand (ties: lowest index), the global
            # entropy the evidence's negative log
            u = weights[:, y] * probs[:, y]
            a = max(float(u.sum()), EPS)
            selected[y], entropies[y] = int(u.argmax()), float(-np.log(a))
            loss += entropies[y]
            gm += (u[:, None] / a) * weights + probs
            gm[:, y] -= 2.0 * u / a
        # members run clique after clique, so each clique's row repeats in
        # place; a clique of one takes its row as it is, gm / 1 once
        if len(partition.sizes) < len(partition.members):
            gm = (gm / partition.sizes[:, None]).repeat(partition.sizes, axis=0)
        grad[partition.members] += gm

    negatives = (labels == 0).nonzero()[0]
    if negatives.size:
        q = row_softmax(scores) if softmax is None else softmax
        # row j: one minus each proposal's probability of negative j
        comp = np.maximum(1.0 - q.T[negatives], EPS)
        for term in (-np.log(comp).sum(axis=1)).tolist():
            loss += term
        g_q = np.zeros(q.shape)
        g_q[:, negatives] = (1.0 / comp).T
        grad += q * (g_q - (g_q * q).sum(axis=1, keepdims=True))

    return DiscoveryOutput(selected=selected, entropies=entropies, loss=float(loss)), grad


def anchor_kernel(ious: np.ndarray, a: float) -> np.ndarray:
    """An anchor's Gaussian kernel g = exp(-a * (1 - o)^2) over boxes'
    overlaps o with it: 1.0 at perfect overlap, small when disjoint."""
    return np.exp(-a * (1.0 - np.asarray(ious, dtype=float)) ** 2)


def select_object(clique, proposal_probs: np.ndarray, cls: int) -> int:
    """Clique member with the highest probability for ``cls`` (ties: lowest
    index).  ``clique`` is a ``Clique`` or its ascending member indices."""
    members = np.asarray(getattr(clique, "members", clique))
    return int(members[proposal_probs[members, cls].argmax()])


def localization_terms(rows: np.ndarray, kernel: np.ndarray, cls: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``localization_loss`` on n heads at once.  ``rows`` is a C-ordered
    (n, L, N) block: each head's softmax rows of the L clique members whose
    ``anchor_kernel`` around the selected object is ``kernel``.  Overwrites
    ``rows`` with the gradient rows and returns the (n, L) soft weights and
    the n losses.

    The soft weights are w_h = (sum_h' g(h') p(h')) / (p(h) * sum_h' g(h'))
    over the members, with p and the kernel's sum floored at ``EPS``.
    Every sum runs along a contiguous row, so a head's sums have the bits
    of its own 1-D sums."""
    member_probs = np.maximum(rows[..., cls], EPS)
    g_sum = max(float(kernel.sum()), EPS)
    w = (kernel * member_probs).sum(axis=-1, keepdims=True) / (member_probs * g_sum)
    kappa = w * member_probs  # detached pseudo labels
    losses = -(kappa * np.log(member_probs)).sum(axis=-1)
    rows[..., cls] -= 1.0  # softmax row - onehot(cls)
    rows *= kappa[..., None]
    return w, losses


def localization_loss(
    clique: Clique, h_star: int, proposal_probs: np.ndarray, boxes: np.ndarray, a: float, cls: int
) -> tuple[LocalizationOutput, np.ndarray]:
    """Soft-weighted cross-entropy over the selected clique, plus gradient.

    loss = -sum_h w_h * p(cls,h) * log p(cls,h) over clique members.  The
    factor w_h * p(cls,h) is a detached pseudo label: differentiation sees
    it as a constant, so the gradient per member row is that constant times
    (softmax row - onehot(cls)).  The returned gradient is w.r.t. the raw
    localization scores (zero outside the clique).  A caller scoring the same
    ``h_star`` on several branches calls ``localization_terms`` on all of
    them at once, with its ``anchor_kernel``, computed once.
    """
    members = np.asarray(clique.members)
    if h_star not in members:
        raise ValueError(f"h_star {h_star} not a member of the clique")
    boxes = np.asarray(boxes, dtype=float)
    probs = np.asarray(proposal_probs, dtype=float)
    rows = probs[members][None]
    w, losses = localization_terms(rows, anchor_kernel(box_iou(boxes[members], boxes[h_star]), a),
                                   cls)
    # += onto zeros, as a per-member loop would: each cell is 0.0 + v
    grad = np.zeros_like(probs)
    grad[members] += rows[0]
    return LocalizationOutput(soft_weights=w[0], loss=float(losses[0])), grad
