"""Training loop: per-bag SGD over the composite discovery+localization
objective, with score-feedback recurrence and branch accumulation.

Each epoch visits bags one at a time (batch size 1) in a seeded shuffle
that is fixed across epochs, keeping per-epoch loss series comparable.
A bag's ``visit`` is the three steps of the model at fixed parameters:
the discovery head's softmax supplies per-proposal objectness, by which
overlapping top proposals are grouped into cliques; the discovery loss
selects a clique per positive class; and per-branch localization losses
score anchors in it.  A training step chains the visit's analytic gradients
through the heads and applies them with momentum SGD; ``inspect`` prints
the visit of one bag at a checkpoint's parameters.  After the parameter
update, the final active branch's probabilities become the bag's new
per-proposal scores s(h), which scale that bag's features on its next
visit.  Inference never applies the scaling.

Ablation tiers stack the mechanisms (each includes the previous ones):

    base    singleton cliques, no localization training, discovery detection
    clique  real clique grouping
    d       localization branch trained (detection still from discovery)
    l       detection from the localization branch
    l-rl    score feedback s(h) enabled
    l-arl   all branches trained, each inheriting its predecessors' picks

Ground truth never reaches the learning path: losses and gradients are
computed from a stripped training view, and the original dataset is read
only to fill the per-epoch localization accuracy/variance diagnostics.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .data import Dataset, check_field_types, number_array, whole_number
from .entropy import (
    CliquePartition,
    DiscoveryOutput,
    TauGraph,
    anchor_kernel,
    discovery_loss,
    localization_terms,
    partition_cliques,
    row_max,
    row_softmax,
    select_object,
    singleton_partition,
    tau_graph,
)
from .evaluate import best_gt_overlaps, dataset_loc_stats
from .geometry import box_iou
from .jsonio import canonical_pieces, dumps_canonical, read_checked, write_twin
from .model import (
    ModelParams,
    backward_head,
    forward,
    forward_heads,
    hidden_layer,
    init_params,
)

ABLATION_TIERS = ("base", "clique", "d", "l", "l-rl", "l-arl")

CHECKPOINT_FORMAT = "minent-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """A loss became non-finite during training."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    lr: float = 5e-3
    lr_late: float = 5e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size = 1  # bags per SGD step: a class constant, not a field
    loc_weight: float = 1.0  # balance of localization vs discovery loss
    tau: float = 0.7
    top_k: int = 200
    kernel_a: float = 4.0
    branches: int = 3
    seed: int = 0
    ablation: str = "l-arl"
    hidden_dim: int = 0  # width of the shared hidden layer; 0 = linear heads
    init_scale: float = 0.01

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        # zero is admitted so a no-op run can serve as a diagnostic
        if self.lr < 0 or self.lr_late < 0:
            raise ValueError("learning rates must be >= 0")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight_decay must be >= 0")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.kernel_a <= 0:
            raise ValueError(f"kernel_a must be > 0, got {self.kernel_a}")
        if self.loc_weight < 0:
            raise ValueError(f"loc_weight must be >= 0, got {self.loc_weight}")
        if self.branches < 1:
            raise ValueError(f"branches must be >= 1, got {self.branches}")
        if self.ablation not in ABLATION_TIERS:
            raise ValueError(f"ablation must be one of {ABLATION_TIERS}, got {self.ablation!r}")
        if self.hidden_dim < 0:
            raise ValueError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        if not math.isfinite(2 * self.init_scale):  # the width of the uniform draw
            raise ValueError(f"init_scale must be at most {sys.float_info.max / 2!r}, "
                             f"got {self.init_scale!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def lr_for_epoch(self, epoch: int) -> float:
        """Step schedule: the early rate for roughly the first three
        quarters of the run, the late rate afterwards."""
        late_start = max(2, (3 * self.epochs) // 4 + 1)
        return self.lr if epoch < late_start else self.lr_late


@dataclass(frozen=True)
class TierSwitches:
    use_cliques: bool
    use_feedback: bool
    active_branches: int
    detect_head: object  # "disc" or a branch index


def tier_switches(cfg: TrainConfig) -> TierSwitches:
    tier = cfg.ablation
    if tier == "base":
        return TierSwitches(False, False, 0, "disc")
    if tier == "clique":
        return TierSwitches(True, False, 0, "disc")
    if tier == "d":
        return TierSwitches(True, False, 1, "disc")
    if tier == "l":
        return TierSwitches(True, False, 1, 0)
    if tier == "l-rl":
        return TierSwitches(True, True, 1, 0)
    if tier == "l-arl":
        return TierSwitches(True, True, cfg.branches, cfg.branches - 1)
    raise ValueError(f"unknown ablation tier {tier!r}")


@dataclass
class TrainState:
    params: ModelParams
    buffers: dict[str, np.ndarray]
    s_h: dict[str, np.ndarray]
    epoch: int  # completed epochs
    config: TrainConfig


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    disc_loss: float
    loc_losses: tuple[float, ...]
    global_entropy: float
    local_entropy: float
    loc_acc: float
    loc_var: float
    seconds: float

    def key(self) -> tuple:
        """All trained quantities — everything except wall time."""
        return (
            self.epoch,
            self.disc_loss,
            self.loc_losses,
            self.global_entropy,
            self.local_entropy,
            self.loc_acc,
            self.loc_var,
        )

    def csv_row(self) -> str:
        cells = [str(self.epoch), repr(self.disc_loss)]
        cells += [repr(v) for v in self.loc_losses]
        cells += [
            repr(self.global_entropy),
            repr(self.local_entropy),
            repr(self.loc_acc),
            repr(self.loc_var),
            repr(self.seconds),
        ]
        return ",".join(cells)


def csv_header(branches: int) -> str:
    loc_cols = ",".join(f"loc_loss_{k}" for k in range(1, branches + 1))
    return f"epoch,disc_loss,{loc_cols},global_entropy,local_entropy,loc_acc,loc_var,seconds"


def sgd_step(params: np.ndarray, grads: np.ndarray, buffers: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """In-place momentum update of flat vectors: buf = m*buf + grad +
    wd*param; param -= lr*buf.  A parameter that got no gradient holds -0.0,
    IEEE addition's exact identity, so its update is wd*param to the bit.
    IEEE sums and products commute, so one temporary, reused, gives those
    bits; ``grads`` is not written."""
    update = weight_decay * params
    update += grads
    buffers *= momentum
    buffers += update
    np.multiply(buffers, lr, out=update)
    params -= update


def init_state(ds: Dataset, cfg: TrainConfig) -> TrainState:
    params = init_params(
        feature_dim=ds.feature_dim,
        num_classes=ds.num_classes,
        branches=cfg.branches,
        hidden_dim=cfg.hidden_dim,
        seed=cfg.seed,
        scale=cfg.init_scale,
    )
    buffers = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    s_h = {bag.id: np.ones(bag.num_proposals) for bag in ds.bags}
    return TrainState(params=params, buffers=buffers, s_h=s_h, epoch=0, config=cfg)


def check_dims(params: ModelParams, ds: Dataset) -> None:
    """Raise CheckpointError unless ``params`` fit the dataset's feature
    and class counts."""
    for name in ("feature_dim", "num_classes"):
        ours, theirs = getattr(params, name), getattr(ds, name)
        if ours != theirs:
            raise CheckpointError(f"checkpoint {name} {ours} != dataset {name} {theirs}")


def check_resume(state: TrainState, cfg: TrainConfig) -> None:
    """Raise CheckpointError if ``cfg`` changes a setting of ``state``'s
    config that a resume keeps: the parameters' shape, the tier and the
    seed, so that a resumed run equals an uninterrupted one."""
    for name in ("branches", "hidden_dim", "ablation", "seed"):
        theirs, ours = getattr(state.config, name), getattr(cfg, name)
        if ours != theirs:
            raise CheckpointError(f"cannot change {name} from {theirs} to {ours}")


def _check_compat(state: TrainState, cfg: TrainConfig, ds: Dataset) -> None:
    """``check_dims`` and ``check_resume``, plus a score state s(h) of the
    right length for every bag, which only training reads."""
    check_dims(state.params, ds)
    check_resume(state, cfg)
    bad = [bag.id for bag in ds.bags if len(state.s_h.get(bag.id, ())) != bag.num_proposals]
    if bad:
        raise CheckpointError(f"checkpoint score state missing or mis-sized for bags: {bad[:3]}")


class BagRun(NamedTuple):
    """One bag's data that holds for a ``train`` call: its positive classes,
    its ``tau_graph`` (None where nothing is partitioned), each scored
    anchor's component members and ``anchor_kernel`` over them, and its
    partition where no objectness can change it (else None)."""

    positives: np.ndarray
    graph: TauGraph | None
    kernels: dict[int, tuple[np.ndarray, np.ndarray]]
    partition: CliquePartition | None = None


def bag_run(bag, cfg: TrainConfig, switches: TierSwitches) -> BagRun:
    """``bag``'s ``BagRun``, with no kernel yet and a tau-graph only where
    the tier partitions cliques and the bag has a class to discover.  A
    tier without cliques whose pool holds every proposal has one partition,
    each proposal its own clique, whatever the objectness."""
    positives = (bag.labels == 1).nonzero()[0]
    graph = partition = None
    if positives.size and switches.use_cliques:
        graph = tau_graph(bag.boxes, cfg.tau)
    elif positives.size and cfg.top_k >= bag.num_proposals:
        partition = singleton_partition(np.zeros(bag.num_proposals), cfg.top_k)
    return BagRun(positives, graph, {}, partition)


class Visit(NamedTuple):
    """One visit of a bag at fixed parameters: the (1 + K, P, N) score and
    softmax tables of the discovery head and the K branches that train on
    it (none, and no partition, on a bag without a positive class), each
    branch's scored anchors in its scoring order, as (class, anchor, home
    clique, soft weights, loss) entries, and their (K, P, N) gradient."""

    scores: np.ndarray
    probs: np.ndarray
    partition: CliquePartition | None
    disc: DiscoveryOutput
    disc_grad: np.ndarray
    anchors: list[list[tuple[int, int, np.ndarray, np.ndarray, float]]]
    branch_grad: np.ndarray


def _home_kernel(run: BagRun, boxes: np.ndarray, h: int, home: np.ndarray, a: float):
    """Anchor ``h``'s kernel over ``home``, its clique, cut from its kernel
    over its tau-graph component: that holds every clique ``h`` can fall
    in, and boxes are fixed, so it is computed once per run."""
    if h not in run.kernels:
        component = (run.graph.component == run.graph.component[h]).nonzero()[0]
        run.kernels[h] = component, anchor_kernel(box_iou(boxes[component], boxes[h]), a)
    component, kernel = run.kernels[h]
    return kernel[component.searchsorted(home)]


def _localization(cfg: TrainConfig, partition, selected, probs, run: BagRun, boxes):
    """Each branch's scored anchors on one visit and their raw-score
    gradient, in one (branches, P, N) table, as ``Visit`` holds them.
    ``probs`` is the visit's softmax table, discovery head first;
    ``selected`` maps each positive class to its discovered clique.

    Branch k scores, per class, the discovery head's best member of that
    clique, then the own picks (most probable pooled proposal) of branches
    before k.  These depend only on the visit's parameters, so each
    (class, anchor) is one ``localization_terms`` call over the branches
    that score it.  The calls run in each branch's (class, anchor) order, so
    a branch's entries and gradient sums come in the order of a per-anchor loop."""
    q_disc, branch_probs = probs[0], probs[1:]
    n_branches = len(branch_probs)
    pool = np.sort(partition.members)
    # picks of every branch but the last, which feeds no later branch
    own = pool[branch_probs[:-1][:, pool[:, None], run.positives].argmax(axis=1)].T.tolist()
    firsts = []  # (class, anchor, first branch that scores it)
    for y, picks in zip(run.positives.tolist(), own):
        first = {select_object(partition.clique_members(selected[y]), q_disc, y): 0}
        for k, h in enumerate(picks):
            first.setdefault(h, k + 1)
        firsts += [(y, h, k) for h, k in first.items()]

    branch_index = np.arange(n_branches)[:, None]
    grad = np.zeros(branch_probs.shape)
    anchors = [[] for _ in range(n_branches)]
    for y, h, start in firsts:
        home = partition.clique_members(partition.label[h])
        at = (branch_index[start:], home)
        rows = branch_probs[at]  # C-ordered (branches, members, N)
        weights, losses = localization_terms(
            rows, _home_kernel(run, boxes, h, home, cfg.kernel_a), y)
        grad[at] += rows
        for scored, w, loss in zip(anchors[start:], weights, losses.tolist()):
            scored.append((y, h, home, w, loss))
    for k, scored in enumerate(anchors):
        if not all(math.isfinite(loss) for *_, loss in scored):
            raise TrainingDiverged(f"localization loss non-finite on branch {k + 1}")
    return anchors, grad


def visit(params: ModelParams, cfg: TrainConfig, switches: TierSwitches, bag, features,
          run: BagRun, hidden=None) -> Visit:
    """The bag's ``Visit`` at ``params`` on ``features``: training passes the
    s(h)-scaled features, ``inspect`` the bag's own.  The partition groups
    the top proposals by objectness, the discovery head's best probability
    over the bag's positive classes (singletons unless the tier uses
    cliques).  ``hidden`` is ``hidden_layer(params, features)``, if the
    caller has it."""
    positives = run.positives
    # the branches train only on a bag with a class to localize
    branches = range(switches.active_branches if positives.size else 0)
    scores = forward_heads(params, features, ["disc", *branches], hidden=hidden)
    if not np.isfinite(scores[0]).all():
        raise TrainingDiverged("discovery scores non-finite")
    probs = row_softmax(scores)
    partition = run.partition
    if positives.size and partition is None:
        objectness = row_max(probs[0][:, positives])
        partition = (partition_cliques(bag.boxes, objectness, cfg.tau, cfg.top_k, run.graph)
                     if switches.use_cliques else singleton_partition(objectness, cfg.top_k))
    disc, disc_grad = discovery_loss(bag.labels, partition, scores[0], softmax=probs[0])
    if not np.isfinite(disc.loss):
        raise TrainingDiverged("discovery loss non-finite")
    anchors, branch_grad = [], probs[1:]  # without branches, an empty table
    if branches:
        anchors, branch_grad = _localization(cfg, partition, disc.selected, probs, run, bag.boxes)
    return Visit(scores, probs, partition, disc, disc_grad, anchors, branch_grad)


def _bag_step(state: TrainState, cfg: TrainConfig, switches: TierSwitches, bag, run: BagRun,
              flat, lr: float) -> Visit:
    """One SGD step at learning rate ``lr`` on one bag: its ``visit``, then
    the backward pass, the update and the score feedback.  ``flat`` holds
    the flat parameter, buffer and gradient vectors and the gradient's views."""
    params = state.params
    s = state.s_h[bag.id] if switches.use_feedback else None
    feats_eff = bag.features * s[:, None] if s is not None else bag.features
    # the parameters hold until sgd_step, so one hidden pass serves every head
    hidden = hidden_layer(params, feats_eff)
    flat_params, flat_buffers, flat_grads, grads, branch_start = flat
    # IEEE addition's identity: writing a head's gradient over it is adding
    # it, and a head without one updates by exactly wd * param.  The
    # discovery head comes first and writes the hidden layer's gradient and
    # its own, so only the branch heads' tail of the vector needs it.
    flat_grads[branch_start:].fill(-0.0)

    seen = visit(params, cfg, switches, bag, feats_eff, run, hidden)
    backward_head(params, feats_eff, "disc", seen.disc_grad, hidden=hidden, into=grads,
                  write_hidden=True)
    for k, branch_grad in enumerate(seen.branch_grad):
        branch_grad *= cfg.loc_weight  # in place, in the record too
        backward_head(params, feats_eff, k, branch_grad, hidden=hidden, into=grads)

    sgd_step(flat_params, flat_grads, flat_buffers, lr, cfg.momentum, cfg.weight_decay)

    if switches.use_feedback and run.positives.size:
        final_k = switches.active_branches - 1
        probs_final = row_softmax(forward(params, feats_eff, final_k))
        state.s_h[bag.id] = row_max(probs_final[:, run.positives])

    return seen


def _mean_or_zero(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def train(
    ds: Dataset,
    cfg: TrainConfig,
    state: TrainState | None = None,
    csv_path: str | None = None,
    stop_after: int | None = None,
) -> tuple[TrainState, list[EpochReport]]:
    """Run epochs ``state.epoch + 1 .. cfg.epochs``; returns the final state
    and the reports for the epochs run by this call.

    ``stop_after`` simulates an interruption: the loop exits once that many
    epochs are complete (the schedule still derives from ``cfg.epochs``).
    Passing a loaded checkpoint as ``state`` resumes exactly where it left
    off — an interrupted run and an uninterrupted one produce identical
    report series (wall time aside).  The state then carries ``cfg``, so a
    checkpoint saved from it records the config it was trained with.  A
    ``cfg`` that ``check_resume`` refuses, or a state already past
    ``cfg.epochs``, raises CheckpointError before any epoch runs or any CSV
    row is written.
    """
    if not ds.bags:
        raise ValueError("dataset has no bags")
    switches = tier_switches(cfg)
    if state is None:
        state = init_state(ds, cfg)
    else:
        _check_compat(state, cfg, ds)
        if cfg.epochs < state.epoch:
            raise CheckpointError(
                f"cannot train to epoch {cfg.epochs}: the checkpoint is at epoch {state.epoch}"
            )
    last_epoch = cfg.epochs if stop_after is None else min(cfg.epochs, stop_after)

    # learning path sees the stripped view; diagnostics read the original
    train_bags = ds.training_view().bags

    # One seeded shuffle, fixed across epochs: every bag is visited (and its
    # running losses measured) at a stable phase of each epoch, so per-epoch
    # report series reflect parameter progress rather than visit-order
    # resampling noise.  Recomputed from the seed, so resumed runs follow
    # the same order.
    visit_order = np.random.default_rng(cfg.seed).permutation(len(train_bags))

    runs = [bag_run(bag, cfg, switches) for bag in train_bags]
    # The per-epoch diagnostic reads each proposal's best ground-truth IoU,
    # which is fixed for the run as well.
    gt_overlaps = best_gt_overlaps(ds)

    csv_file = None
    if csv_path is not None:
        header = csv_header(cfg.branches)
        found = None
        if os.path.exists(csv_path):
            with open(csv_path) as f:
                found = f.readline().rstrip("\n")
        if found and found != header:
            raise ValueError(f"{csv_path}: header does not match a {cfg.branches}-branch run")
        csv_file = open(csv_path, "a")
        if not found:
            csv_file.write(header + "\n")

    state.config = cfg  # every check has passed; this is the config trained
    # the parameters, buffers and gradient each live in one flat vector, so a
    # visit's update is one set of array ops; the state's arrays view them
    names = [name for name, _ in state.params.named_arrays()]
    flat_params = np.concatenate([arr.ravel() for _, arr in state.params.named_arrays()])
    flat_buffers = np.concatenate([state.buffers[name].ravel() for name in names])
    flat_grads = np.empty_like(flat_params)
    views = [dict(state.params.on(v).named_arrays()) for v in (flat_buffers, flat_grads)]
    state.params, state.buffers = state.params.on(flat_params), views[0]
    branch_start = sum(arr.size for name, arr in views[1].items() if not name.startswith("loc"))
    flat = (flat_params, flat_buffers, flat_grads, views[1], branch_start)
    reports: list[EpochReport] = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the finite checks catch these
            for epoch in range(state.epoch + 1, last_epoch + 1):
                started = time.perf_counter()
                lr = cfg.lr_for_epoch(epoch)
                # each visit's record, gathered per quantity in visit order
                disc, loc, glob, local = [], [[] for _ in range(cfg.branches)], [], []
                for i in visit_order.tolist():
                    bag = train_bags[i]
                    try:
                        seen = _bag_step(state, cfg, switches, bag, runs[i], flat, lr)
                    except TrainingDiverged as e:
                        raise TrainingDiverged(f"{e} at epoch {epoch}, bag '{bag.id}'") from None
                    disc.append(seen.disc.loss)
                    glob += seen.disc.entropies.values()
                    # a branch that did not train on the visit counts 0.0
                    for losses, scored in zip_longest(loc, seen.anchors, fillvalue=()):
                        total = 0.0
                        for *_, loss in scored:
                            total += loss
                            local.append(loss)
                        losses.append(total)
                # the checks above miss an update that overflows on the last visit
                arrays = [flat_params] + list(state.s_h.values())
                if not all(np.isfinite(a).all() for a in arrays):
                    raise TrainingDiverged(f"model state non-finite at epoch {epoch}")
                state.epoch = epoch

                loc_acc, loc_var = dataset_loc_stats(
                    state.params, ds, head=switches.detect_head, overlaps=gt_overlaps
                )
                report = EpochReport(
                    epoch=epoch,
                    disc_loss=float(np.mean(disc)),
                    loc_losses=tuple(_mean_or_zero(losses) for losses in loc),
                    global_entropy=_mean_or_zero(glob),
                    local_entropy=_mean_or_zero(local),
                    loc_acc=loc_acc,
                    loc_var=loc_var,
                    seconds=time.perf_counter() - started,
                )
                reports.append(report)
                if csv_file is not None:
                    csv_file.write(report.csv_row() + "\n")
                    csv_file.flush()
    finally:
        if csv_file is not None:
            csv_file.close()
    return state, reports


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _seed_rng_state(seed: int) -> dict:
    """Format v1's ``rng_state``: the bit-generator state of ``seed``.  The
    visit order is recomputed from the seed, so no generator state carries
    over between runs; the key stays until the format drops it."""
    return np.random.default_rng(seed).bit_generator.state


# format v1's config keys for two settings that are gone; v2 drops them
_V1_FIXED_CONFIG = {"batch_size": 1, "shared_hidden": True}


def save_checkpoint(state: TrainState, path: str) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "feature_dim": state.params.feature_dim,
        "num_classes": state.params.num_classes,
        "hidden_dim": state.params.hidden_dim,
        "branches": state.params.branches,
        "epoch": state.epoch,
        "config": {**asdict(state.config), **_V1_FIXED_CONFIG},
        "rng_state": _seed_rng_state(state.config.seed),
    }
    tables = {"params": dict(state.params.named_arrays()), "buffers": state.buffers,
              "s_h": state.s_h}
    write_twin(path, canonical_pieces({**doc, **tables}), doc, tables)


def load_checkpoint(path: str) -> TrainState:
    """The state in the checkpoint file ``path``, from its twin when that is
    current, else from the JSON (``jsonio.read_checked``), after the same checks."""
    return read_checked(path, "checkpoint", CheckpointError,
                        lambda doc, tables: _state_from_doc(path, doc, tables))


def _state_from_doc(path: str, doc, tables) -> TrainState:
    """The checked state of a parsed checkpoint document (``tables`` None),
    or of a twin's document and its ``tables`` (``params``, ``buffers`` and
    ``s_h``)."""
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint file")
    doc = {**doc, **(tables or {})}
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        cfg_doc = {**doc["config"]}
        fixed = {key: cfg_doc.pop(key, None) for key in _V1_FIXED_CONFIG}
        # compared as JSON text, so that true is not 1, nor 1 1.0
        if dumps_canonical(fixed) != dumps_canonical(_V1_FIXED_CONFIG):
            raise ValueError(f"config must hold {_V1_FIXED_CONFIG} in format v1, got {fixed}")
        cfg = TrainConfig(**cfg_doc)
        raw = {name: number_array(v, f"params '{name}'") for name, v in doc["params"].items()}
        params = ModelParams(
            hidden_w=raw["hidden_w"] if doc["hidden_dim"] else None,
            hidden_b=raw["hidden_b"] if doc["hidden_dim"] else None,
            disc_w=raw["disc_w"],
            disc_b=raw["disc_b"],
            loc_w=[raw[f"loc_w.{k}"] for k in range(doc["branches"])],
            loc_b=[raw[f"loc_b.{k}"] for k in range(doc["branches"])],
        )
        params.validate()  # before any count is read from the arrays
        for key in ("feature_dim", "num_classes", "hidden_dim", "branches"):
            if not whole_number(doc[key]) or doc[key] != getattr(params, key):
                raise ValueError(f"{key} {doc[key]!r} is not a count that fits the parameters")
            if getattr(cfg, key, doc[key]) != doc[key]:  # cfg holds only the last two
                raise ValueError(f"config {key} {getattr(cfg, key)} does not fit the "
                                 f"parameters' {doc[key]}")
        buffers = {name: number_array(v, f"buffer '{name}'") for name, v in doc["buffers"].items()}
        shapes = {name: arr.shape for name, arr in params.named_arrays()}
        if {name: buf.shape for name, buf in buffers.items()} != shapes or set(raw) != set(shapes):
            raise ValueError("params and buffers must hold exactly the model's names and shapes")
        if not all(np.isfinite(buf).all() for buf in buffers.values()):
            raise ValueError("buffers must be finite")
        s_h = {bag: number_array(v, f"s_h of bag '{bag}'") for bag, v in doc["s_h"].items()}
        for bag_id, s in s_h.items():
            if s.ndim != 1 or not np.isfinite(s).all():
                raise ValueError(f"s_h of bag '{bag_id}' must be a finite vector")
        epoch = doc["epoch"]
        if not whole_number(epoch) or epoch < 0:
            raise ValueError(f"epoch must be a count of epochs, got {epoch!r}")
        if epoch > cfg.epochs:
            raise ValueError(f"epoch {epoch} is past the config's epochs {cfg.epochs}")
        if dumps_canonical(doc["rng_state"]) != dumps_canonical(_seed_rng_state(cfg.seed)):
            raise ValueError(f"rng_state is not the state of seed {cfg.seed}")
        return TrainState(params=params, buffers=buffers, s_h=s_h, epoch=epoch, config=cfg)
    except (AttributeError, KeyError, TypeError, ValueError, CheckpointError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from e
