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

import numpy as np

from .geometry import iou_matrix

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


@dataclass(frozen=True)
class CliquePartition:
    cliques: tuple[Clique, ...]
    pool: tuple[int, ...]  # the top-k proposal indices the cliques cover
    tau: float
    # derived from ``cliques``: every member, clique after clique in member
    # order; each clique's size; each proposal's clique index, -1 outside them
    members: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    label: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = np.array([m for c in self.cliques for m in c.members], dtype=int)
        sizes = np.array([len(c) for c in self.cliques], dtype=int)
        label = np.full(members.max(initial=-1) + 1, -1)
        label[members] = np.repeat(np.arange(len(self.cliques)), sizes)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "label", label)

    def clique_of(self, proposal: int) -> int:
        """Index of the clique containing ``proposal``."""
        if 0 <= proposal < len(self.label) and self.label[proposal] >= 0:
            return int(self.label[proposal])
        raise KeyError(f"proposal {proposal} not in any clique")


@dataclass
class DiscoveryOutput:
    clique_probs: np.ndarray  # (num_cliques, N), sums to 1 over the whole table
    clique_weights: np.ndarray  # (num_cliques, N), rows sum to 1
    selected: dict[int, int]  # positive class -> discovered clique index
    entropies: dict[int, float]  # positive class -> global entropy value
    loss: float


@dataclass
class LocalizationOutput:
    h_star: int
    soft_weights: np.ndarray  # per clique member, aligned with clique.members
    loss: float


def partition_cliques(
    boxes: np.ndarray,
    objectness: np.ndarray,
    tau: float,
    top_k: int,
    adjacency: np.ndarray | None = None,
) -> CliquePartition:
    """Partition the top-k highest-objectness proposals into the connected
    components of their IoU > ``tau`` graph, seeded in objectness order.

    The best unassigned proposal seeds a clique, which absorbs every
    proposal chained to it above ``tau``; cliques come in the order of their
    seeds, each with sorted members.  A proposal with no neighbour above
    ``tau`` in the pool is a clique of its own without a search; IoU exactly
    ``tau`` does not chain.  ``adjacency``, if given, is the whole bag's
    ``iou_matrix(boxes, boxes) > tau`` table, which the pool slices instead
    of recomputing its overlaps.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    objectness = np.asarray(objectness, dtype=float)
    if objectness.shape != (boxes.shape[0],):
        raise ValueError(f"objectness shape {objectness.shape} != ({boxes.shape[0]},)")
    if not np.isfinite(objectness).all():
        raise ValueError("objectness must be finite")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    order = np.argsort(-objectness, kind="stable")[: min(top_k, len(objectness))]
    if adjacency is None:
        overlaps = iou_matrix(boxes[order], boxes[order]) > tau
    else:
        overlaps = adjacency[np.ix_(order, order)]
    np.fill_diagonal(overlaps, False)  # a fresh table either way
    isolated = ~overlaps.any(axis=1)

    assigned = np.zeros(len(order), dtype=bool)  # positions into order
    cliques: list[Clique] = []
    for seed, proposal in enumerate(order.tolist()):
        if assigned[seed]:
            continue
        if isolated[seed]:
            cliques.append(Clique(members=(proposal,)))
            continue
        frontier = np.zeros(len(order), dtype=bool)
        frontier[seed] = True
        component = frontier.copy()
        while True:  # one level of breadth-first search per pass
            frontier = overlaps[frontier].any(axis=0) & ~component
            if not frontier.any():
                break
            component |= frontier
        assigned |= component
        cliques.append(Clique(members=tuple(np.sort(order[component]).tolist())))
    return CliquePartition(cliques=tuple(cliques), pool=tuple(np.sort(order).tolist()), tau=tau)


def singleton_partition(boxes: np.ndarray, objectness: np.ndarray, top_k: int) -> CliquePartition:
    """Each top-k proposal forms its own clique (the no-grouping ablation)."""
    objectness = np.asarray(objectness, dtype=float)
    order = np.argsort(-objectness, kind="stable")[: min(top_k, len(objectness))]
    pool = sorted(int(i) for i in order)
    return CliquePartition(
        cliques=tuple(Clique(members=(i,)) for i in pool), pool=tuple(pool), tau=0.0
    )


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
        return np.stack([scores[list(c.members)].mean(axis=0) for c in partition.cliques])
    sums = np.zeros((len(partition.cliques), scores.shape[1]))
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


def global_entropy(clique_probs: np.ndarray, weights: np.ndarray, cls: int) -> float:
    """Negative log of the clique-weighted evidence for ``cls``."""
    return float(-np.log(max(float((weights[:, cls] * clique_probs[:, cls]).sum()), EPS)))


def select_clique(clique_probs: np.ndarray, weights: np.ndarray, cls: int) -> int:
    """The clique contributing the largest weighted-evidence summand."""
    return int(np.argmax(weights[:, cls] * clique_probs[:, cls]))


def discovery_loss(
    labels: np.ndarray, partition: CliquePartition | None, scores: np.ndarray
) -> tuple[DiscoveryOutput, np.ndarray]:
    """Discovery objective and its gradient with respect to raw scores.

    Classes labeled 1 contribute the global entropy over the clique table;
    classes labeled 0 contribute -sum_h log(1 - p(y,h)) over ALL proposals,
    where p is the per-proposal softmax over classes.  ``partition`` may be
    None only when the bag has no positive class.
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
        for y in positives:
            e = global_entropy(probs, weights, y)
            selected[int(y)] = select_clique(probs, weights, y)
            entropies[int(y)] = e
            loss += e
            u = probs[:, y] * weights[:, y]
            a = max(float(u.sum()), EPS)
            gm += (u[:, None] / a) * weights + probs
            gm[:, y] -= 2.0 * u / a
        rows = np.flatnonzero(partition.label >= 0)
        grad[rows] += (gm / partition.sizes[:, None])[partition.label[rows]]
    else:
        probs = np.zeros((0, n_cls))
        weights = np.zeros((0, n_cls))

    negatives = np.flatnonzero(labels == 0)
    if negatives.size:
        q = row_softmax(scores)
        g_q = np.zeros_like(q)
        for y in negatives:
            comp = np.maximum(1.0 - q[:, y], EPS)
            loss += float(-np.log(comp).sum())
            g_q[:, y] = 1.0 / comp
        grad += q * (g_q - (g_q * q).sum(axis=1, keepdims=True))

    out = DiscoveryOutput(
        clique_probs=probs,
        clique_weights=weights,
        selected=selected,
        entropies=entropies,
        loss=float(loss),
    )
    return out, grad


def gaussian_kernel(o, a: float):
    """exp(-a * (1 - o)^2); 1.0 at perfect overlap, small when disjoint."""
    o = np.asarray(o, dtype=float)
    val = np.exp(-a * (1.0 - o) ** 2)
    return float(val) if val.ndim == 0 else val


def soft_weights(probs: np.ndarray, ious: np.ndarray, a: float) -> np.ndarray:
    """w_h = (sum_h' g(h') p(h')) / (p(h) * sum_h' g(h')) over one neighborhood."""
    probs = np.maximum(np.asarray(probs, dtype=float), EPS)
    g = gaussian_kernel(np.asarray(ious, dtype=float), a)
    return float((g * probs).sum()) / (probs * max(float(g.sum()), EPS))


def select_object(clique: Clique, proposal_probs: np.ndarray, cls: int) -> int:
    """Clique member with the highest probability for ``cls`` (ties: lowest index)."""
    members = list(clique.members)
    return members[int(np.argmax(proposal_probs[members, cls]))]


def member_overlaps(clique: Clique, h_star: int, boxes: np.ndarray) -> np.ndarray:
    """IoU of each clique member with the selected object, in member order."""
    if h_star not in clique.members:
        raise ValueError(f"h_star {h_star} not a member of the clique")
    boxes = np.asarray(boxes, dtype=float)
    return iou_matrix(boxes[list(clique.members)], boxes[h_star : h_star + 1])[:, 0]


def hard_negatives(clique: Clique, h_star: int, boxes: np.ndarray) -> list[int]:
    """Clique members overlapping the selected object below 0.5 IoU."""
    overlap = member_overlaps(clique, h_star, boxes)
    return [m for m, o in zip(clique.members, overlap) if o < 0.5]


def localization_loss(
    clique: Clique,
    h_star: int,
    proposal_probs: np.ndarray,
    boxes: np.ndarray,
    a: float,
    cls: int,
    *,
    ious: np.ndarray | None = None,
) -> tuple[LocalizationOutput, np.ndarray]:
    """Soft-weighted cross-entropy over the selected clique, plus gradient.

    loss = -sum_h w_h * p(cls,h) * log p(cls,h) over clique members.  The
    factor w_h * p(cls,h) is a detached pseudo label: differentiation sees
    it as a constant, so the gradient per member row is that constant times
    (softmax row - onehot(cls)).  The returned gradient is w.r.t. the raw
    localization scores (zero outside the clique).  ``ious``, if given, is
    ``member_overlaps(clique, h_star, boxes)``, which a caller scoring the
    same ``h_star`` on several branches computes once.
    """
    if h_star not in clique.members:
        raise ValueError(f"h_star {h_star} not a member of the clique")
    if ious is None:
        ious = member_overlaps(clique, h_star, boxes)
    probs = np.asarray(proposal_probs, dtype=float)
    members = list(clique.members)
    member_probs = probs[members, cls]
    w = soft_weights(member_probs, ious, a)
    kappa = w * np.maximum(member_probs, EPS)  # detached pseudo labels
    loss = float(-(kappa * np.log(np.maximum(member_probs, EPS))).sum())

    grad = np.zeros_like(probs)
    onehot = np.zeros(probs.shape[1])
    onehot[cls] = 1.0
    # += onto zeros, as a per-member loop would: each cell is 0.0 + v
    grad[members] += kappa[:, None] * (probs[members] - onehot)

    return LocalizationOutput(h_star=h_star, soft_weights=w, loss=loss), grad
