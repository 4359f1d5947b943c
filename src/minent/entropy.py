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
model parameters is the caller's job.  Every log and denominator is
epsilon-floored at ``EPS``.
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
    tau: float
    num_proposals: int
    label: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        label = np.full(self.num_proposals, -1)
        label[self.members] = np.repeat(np.arange(len(self.sizes)), self.sizes)
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
    ``adjacency`` (P x P bools, no self loops) and ``component``, each
    proposal's connected component, numbered in proposal order, with
    ``sizes`` each component's size."""

    adjacency: np.ndarray
    component: np.ndarray
    sizes: np.ndarray
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
    return TauGraph(adjacency=adjacency, component=component,
                    sizes=np.bincount(component), tau=tau)


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
            nodes = order[at]
            key[at] = fresh + _components(graph.adjacency.take(nodes, axis=0).take(nodes, axis=1))
            fresh += len(nodes)
    # number the cliques by the pool position of their first member, the seed
    seeds: dict[int, int] = {}
    clique = np.array([seeds.setdefault(k, len(seeds)) for k in key.tolist()], dtype=int)
    members = order[np.lexsort((order, clique))]
    return CliquePartition(members=members, sizes=np.bincount(clique), tau=tau,
                           num_proposals=len(objectness))


def singleton_partition(objectness: np.ndarray, top_k: int) -> CliquePartition:
    """Each top-k proposal forms its own clique (the no-grouping ablation)."""
    objectness = np.asarray(objectness, dtype=float)
    pool = np.sort(np.argsort(-objectness, kind="stable")[:top_k])
    return CliquePartition(members=pool, sizes=np.ones(len(pool), dtype=int), tau=0.0,
                           num_proposals=len(objectness))


def row_softmax(scores: np.ndarray) -> np.ndarray:
    """Per-proposal probability over classes."""
    s = np.asarray(scores, dtype=float)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / np.maximum(e.sum(axis=1, keepdims=True), EPS)


def clique_mean_scores(partition: CliquePartition, scores: np.ndarray) -> np.ndarray:
    """(num_cliques, N) table of per-clique mean raw scores.

    Each sum runs from 0.0 through the clique's rows in member order, the
    order and bits of numpy's per-clique ``mean(axis=0)``.
    """
    if scores.shape[1] == 1:
        # mean() sums a lone column pairwise, which a scatter cannot follow
        rows, ends = scores[partition.members], np.cumsum(partition.sizes).tolist()
        return np.stack([rows[a:b].mean(axis=0) for a, b in zip([0] + ends, ends)])
    sums = np.zeros((len(partition.sizes), scores.shape[1]))
    np.add.at(sums, partition.label[partition.members], scores[partition.members])
    return sums / partition.sizes[:, None]


def clique_class_probs(partition: CliquePartition, scores: np.ndarray) -> np.ndarray:
    """Softmax over the whole (clique, class) table of mean scores."""
    m = clique_mean_scores(partition, scores)
    e = np.exp(m - m.max())
    return e / np.maximum(e.sum(), EPS)


def clique_weights(clique_probs: np.ndarray) -> np.ndarray:
    """Per-clique renormalization over classes (each row sums to 1)."""
    p = np.asarray(clique_probs, dtype=float)
    return p / np.maximum(p.sum(axis=1, keepdims=True), EPS)


def _class_evidence(clique_probs: np.ndarray, weights: np.ndarray, cls: int):
    """For ``cls``: each clique's weighted-evidence summand, their floored
    sum (the evidence), the clique with the largest summand (ties: lowest
    index) and the evidence's negative log (the global entropy)."""
    u = weights[:, cls] * clique_probs[:, cls]
    evidence = max(float(u.sum()), EPS)
    return u, evidence, int(np.argmax(u)), float(-np.log(evidence))


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
    positives = np.flatnonzero(labels == 1)
    if partition is None and positives.size:
        raise ValueError("positive classes require a clique partition")

    loss = 0.0
    grad = np.zeros_like(scores)
    selected: dict[int, int] = {}
    entropies: dict[int, float] = {}

    if positives.size:
        probs = clique_class_probs(partition, scores)
        weights = clique_weights(probs)
        # gradient of the positive terms w.r.t. the mean-score table,
        # then scattered to member rows (each member carries 1/|clique|)
        gm = np.zeros_like(probs)
        for y in positives.tolist():
            u, a, selected[y], entropies[y] = _class_evidence(probs, weights, y)
            loss += entropies[y]
            gm += (u[:, None] / a) * weights + probs
            gm[:, y] -= 2.0 * u / a
        # members run clique after clique, so each clique's row repeats in place
        grad[partition.members] += np.repeat(gm / partition.sizes[:, None], partition.sizes, axis=0)

    negatives = np.flatnonzero(labels == 0)
    if negatives.size:
        q = row_softmax(scores) if softmax is None else softmax
        g_q = np.zeros_like(q)
        for y in negatives:
            comp = np.maximum(1.0 - q[:, y], EPS)
            loss += float(-np.log(comp).sum())
            g_q[:, y] = 1.0 / comp
        grad += q * (g_q - (g_q * q).sum(axis=1, keepdims=True))

    return DiscoveryOutput(selected=selected, entropies=entropies, loss=float(loss)), grad


def anchor_kernel(ious: np.ndarray, a: float) -> tuple[np.ndarray, float]:
    """An anchor's Gaussian kernel g = exp(-a * (1 - o)^2) over its clique
    members' overlaps o with it (1.0 at perfect overlap, small when
    disjoint), and the kernel's floored sum: the part of the soft weights
    that the member probabilities do not change."""
    g = np.exp(-a * (1.0 - np.asarray(ious, dtype=float)) ** 2)
    return g, max(float(g.sum()), EPS)


def select_object(clique, proposal_probs: np.ndarray, cls: int) -> int:
    """Clique member with the highest probability for ``cls`` (ties: lowest
    index).  ``clique`` is a ``Clique`` or its ascending member indices."""
    members = np.asarray(getattr(clique, "members", clique))
    return int(members[np.argmax(proposal_probs[members, cls])])


def member_overlaps(clique, h_star: int, boxes: np.ndarray) -> np.ndarray:
    """IoU of each member of ``clique`` (or of these member indices) with
    the selected object, in member order."""
    members = np.asarray(getattr(clique, "members", clique))
    if h_star not in members:
        raise ValueError(f"h_star {h_star} not a member of the clique")
    boxes = np.asarray(boxes, dtype=float)
    return box_iou(boxes[members], boxes[h_star])


def hard_negatives(clique: Clique, h_star: int, boxes: np.ndarray) -> list[int]:
    """Clique members overlapping the selected object below 0.5 IoU."""
    overlap = member_overlaps(clique, h_star, boxes)
    return [m for m, o in zip(clique.members, overlap) if o < 0.5]


def localization_terms(members: np.ndarray, kernel: tuple[np.ndarray, float],
                       proposal_probs: np.ndarray, cls: int, grad: np.ndarray
                       ) -> tuple[np.ndarray, float]:
    """``localization_loss`` over the member indices ``members``, whose
    ``anchor_kernel`` around the selected object is ``kernel``: adds the
    gradient to ``grad``'s member rows and returns (soft weights, loss).

    The soft weights are w_h = (sum_h' g(h') p(h')) / (p(h) * sum_h' g(h'))
    over the members, with p floored at ``EPS``."""
    member_probs = np.maximum(proposal_probs[members, cls], EPS)
    g, g_sum = kernel
    w = float((g * member_probs).sum()) / (member_probs * g_sum)
    kappa = w * member_probs  # detached pseudo labels
    loss = float(-(kappa * np.log(member_probs)).sum())
    rows = proposal_probs[members]
    rows[:, cls] -= 1.0  # softmax row - onehot(cls)
    grad[members] += kappa[:, None] * rows
    return w, loss


def localization_loss(
    clique: Clique, h_star: int, proposal_probs: np.ndarray, boxes: np.ndarray, a: float, cls: int
) -> tuple[LocalizationOutput, np.ndarray]:
    """Soft-weighted cross-entropy over the selected clique, plus gradient.

    loss = -sum_h w_h * p(cls,h) * log p(cls,h) over clique members.  The
    factor w_h * p(cls,h) is a detached pseudo label: differentiation sees
    it as a constant, so the gradient per member row is that constant times
    (softmax row - onehot(cls)).  The returned gradient is w.r.t. the raw
    localization scores (zero outside the clique).  A caller scoring the same
    ``h_star`` on several branches calls ``localization_terms`` with its
    ``anchor_kernel`` instead, computed once.
    """
    members = np.asarray(clique.members)
    ious = member_overlaps(members, h_star, boxes)  # raises unless h_star is a member
    probs = np.asarray(proposal_probs, dtype=float)
    # += onto zeros, as a per-member loop would: each cell is 0.0 + v
    grad = np.zeros_like(probs)
    w, loss = localization_terms(members, anchor_kernel(ious, a), probs, cls, grad)
    return LocalizationOutput(soft_weights=w, loss=loss), grad
