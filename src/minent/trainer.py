"""Training loop: per-bag SGD over the composite discovery+localization
objective, with score-feedback recurrence and branch accumulation.

Each epoch visits bags one at a time (batch size 1) in a seeded shuffle
that is fixed across epochs, keeping per-epoch loss series comparable.
For a bag, the discovery head's softmax supplies per-proposal objectness;
overlapping top proposals are grouped into cliques; the discovery loss and
per-branch localization losses produce analytic gradients that are chained
through the heads and applied with momentum SGD.  After the parameter
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

import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, check_field_types, number_array, whole_number
from .entropy import (
    anchor_kernel,
    discovery_loss,
    localization_terms,
    member_overlaps,
    partition_cliques,
    row_softmax,
    select_object,
    singleton_partition,
    tau_graph,
)
from .evaluate import best_gt_overlaps, dataset_loc_stats
from .jsonio import dumps_canonical, read_json, write_json
from .model import ModelParams, backward_head, forward, hidden_layer, init_params

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
    IEEE addition's exact identity, so its update is wd*param to the bit."""
    update = grads + weight_decay * params
    buffers *= momentum
    buffers += update
    params -= lr * buffers


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
    if params.feature_dim != ds.feature_dim:
        raise CheckpointError(
            f"checkpoint feature_dim {params.feature_dim} "
            f"!= dataset feature_dim {ds.feature_dim}"
        )
    if params.num_classes != ds.num_classes:
        raise CheckpointError(
            f"checkpoint num_classes {params.num_classes} "
            f"!= dataset num_classes {ds.num_classes}"
        )


def _check_shape(cfg: TrainConfig, params: ModelParams) -> None:
    """Raise CheckpointError unless ``cfg``'s branches and hidden_dim fit ``params``."""
    for name in ("branches", "hidden_dim"):
        ours, theirs = getattr(cfg, name), getattr(params, name)
        if ours != theirs:
            raise CheckpointError(f"config {name} {ours} does not fit the parameters' {theirs}")


def _check_compat(state: TrainState, cfg: TrainConfig, ds: Dataset) -> None:
    """``check_dims`` and ``_check_shape``, plus a score state s(h) of the
    right length for every bag, which only training reads."""
    check_dims(state.params, ds)
    _check_shape(cfg, state.params)
    bad = [bag.id for bag in ds.bags if len(state.s_h.get(bag.id, ())) != bag.num_proposals]
    if bad:
        raise CheckpointError(f"checkpoint score state missing or mis-sized for bags: {bad[:3]}")


def partition_step(
    params: ModelParams, cfg: TrainConfig, use_cliques: bool, features, boxes, classes,
    graph=None, hidden=None,
):
    """Discovery scores of one bag, their per-row softmax, and its clique
    partition (singletons unless ``use_cliques``, the tier's switch), with
    objectness the best probability over ``classes``.  Returns ``(scores,
    softmax, partition)``; without classes there is nothing to discover,
    and the last two are None.  ``graph`` is the bag's cached
    ``tau_graph(boxes, cfg.tau)``, and ``hidden`` its
    ``hidden_layer(params, features)``, if any."""
    disc_scores = forward(params, features, "disc", hidden=hidden)
    if not np.isfinite(disc_scores).all():
        raise TrainingDiverged("discovery scores non-finite")
    if not classes.size:
        return disc_scores, None, None
    q_disc = row_softmax(disc_scores)
    objectness = q_disc[:, classes].max(axis=1)
    if use_cliques:
        partition = partition_cliques(boxes, objectness, cfg.tau, cfg.top_k, graph)
    else:
        partition = singleton_partition(objectness, cfg.top_k)
    return disc_scores, q_disc, partition


def _bag_step(
    state: TrainState, cfg: TrainConfig, switches: TierSwitches, bag, graph, stats, flat
) -> None:
    """One SGD step on one bag; appends report quantities to ``stats``.  ``flat``
    holds the flat parameter, buffer and gradient vectors and the gradient's views."""
    params = state.params
    s = state.s_h[bag.id] if switches.use_feedback else None
    feats_eff = bag.features * s[:, None] if s is not None else bag.features
    # the parameters hold until sgd_step, so one hidden pass serves every head
    hidden = hidden_layer(params, feats_eff)
    flat_params, flat_buffers, flat_grads, grads = flat
    flat_grads.fill(-0.0)  # IEEE addition's identity: each gradient is its first term

    positives = np.flatnonzero(bag.labels == 1)
    disc_scores, q_disc, partition = partition_step(
        params, cfg, switches.use_cliques, feats_eff, bag.boxes, positives, graph, hidden
    )
    disc_out, disc_grad = discovery_loss(bag.labels, partition, disc_scores, softmax=q_disc)
    if not np.isfinite(disc_out.loss):
        raise TrainingDiverged("discovery loss non-finite")
    backward_head(params, feats_eff, "disc", disc_grad, hidden=hidden, into=grads)

    bag_loc_losses = [0.0] * cfg.branches
    if switches.active_branches and positives.size:
        # pseudo objects accumulated across branches, per class
        inherited: dict[int, list[int]] = {int(y): [] for y in positives}
        pool = np.flatnonzero(partition.label >= 0)
        # the partition and q_disc hold until sgd_step, so each class's first
        # anchor, and each anchor's home clique and kernel, serve every branch
        first = {y: select_object(partition.clique_members(disc_out.selected[y]), q_disc, y)
                 for y in positives.tolist()}
        homes = {}
        for k in range(switches.active_branches):
            probs_k = row_softmax(forward(params, feats_eff, k, hidden=hidden))
            branch_grad = np.zeros_like(probs_k)
            for y, top in first.items():
                anchors = [top] + [h for h in inherited[y] if h != top]
                for h_star in anchors:
                    if h_star not in homes:
                        home = partition.clique_members(partition.label[h_star])
                        ious = member_overlaps(home, h_star, bag.boxes)
                        homes[h_star] = home, anchor_kernel(ious, cfg.kernel_a)
                    home, kernel = homes[h_star]
                    # branch_grad is never -0.0, nor is any gradient term, so
                    # adding the terms to the member rows alone is exact
                    _, loss = localization_terms(home, kernel, probs_k, y, branch_grad)
                    if not np.isfinite(loss):
                        raise TrainingDiverged(f"localization loss non-finite on branch {k + 1}")
                    bag_loc_losses[k] += loss
                    stats["local_entropy_terms"].append(loss)
                # this branch's own pick feeds later branches
                own = int(pool[np.argmax(probs_k[pool, y])])
                if own not in inherited[y]:
                    inherited[y].append(own)
            backward_head(params, feats_eff, k, cfg.loc_weight * branch_grad,
                          hidden=hidden, into=grads)

    sgd_step(flat_params, flat_grads, flat_buffers, stats["lr"], cfg.momentum, cfg.weight_decay)

    if switches.use_feedback and positives.size:
        final_k = switches.active_branches - 1
        probs_final = row_softmax(forward(params, feats_eff, final_k))
        state.s_h[bag.id] = probs_final[:, positives].max(axis=1)

    stats["disc_losses"].append(disc_out.loss)
    for k in range(cfg.branches):
        stats["loc_losses"][k].append(bag_loc_losses[k])
    stats["global_entropy_terms"].extend(disc_out.entropies.values())


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
    state already past ``cfg.epochs`` raises CheckpointError.
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

    # Boxes and tau are fixed for the run, so each bag's tau-graph is too:
    # its P x P bool table and component labels, for each bag the clique
    # partition will run on.
    graphs = [
        tau_graph(bag.boxes, cfg.tau)
        if switches.use_cliques and (bag.labels == 1).any()
        else None
        for bag in train_bags
    ]
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
    flat = (flat_params, flat_buffers, flat_grads, views[1])
    reports: list[EpochReport] = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the finite checks catch these
            for epoch in range(state.epoch + 1, last_epoch + 1):
                started = time.perf_counter()
                stats = {
                    "lr": cfg.lr_for_epoch(epoch),
                    "disc_losses": [],
                    "loc_losses": [[] for _ in range(cfg.branches)],
                    "global_entropy_terms": [],
                    "local_entropy_terms": [],
                }
                for i in visit_order:
                    bag = train_bags[int(i)]
                    try:
                        _bag_step(state, cfg, switches, bag, graphs[int(i)], stats, flat)
                    except TrainingDiverged as e:
                        raise TrainingDiverged(f"{e} at epoch {epoch}, bag '{bag.id}'") from None
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
                    disc_loss=float(np.mean(stats["disc_losses"])),
                    loc_losses=tuple(_mean_or_zero(v) for v in stats["loc_losses"]),
                    global_entropy=_mean_or_zero(stats["global_entropy_terms"]),
                    local_entropy=_mean_or_zero(stats["local_entropy_terms"]),
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
        "params": {name: arr.tolist() for name, arr in state.params.named_arrays()},
        "buffers": {name: arr.tolist() for name, arr in state.buffers.items()},
        "s_h": {bag_id: arr.tolist() for bag_id, arr in state.s_h.items()},
        "rng_state": _seed_rng_state(state.config.seed),
    }
    write_json(doc, path)


def load_checkpoint(path: str) -> TrainState:
    try:
        doc = read_json(path)
    except ValueError as e:
        raise CheckpointError(f"unreadable checkpoint {path}: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint file")
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
            feature_dim=doc["feature_dim"],
            num_classes=doc["num_classes"],
            hidden_w=raw["hidden_w"] if doc["hidden_dim"] else None,
            hidden_b=raw["hidden_b"] if doc["hidden_dim"] else None,
            disc_w=raw["disc_w"],
            disc_b=raw["disc_b"],
            loc_w=[raw[f"loc_w.{k}"] for k in range(doc["branches"])],
            loc_b=[raw[f"loc_b.{k}"] for k in range(doc["branches"])],
        )
        for key in ("feature_dim", "num_classes", "hidden_dim", "branches"):
            if not whole_number(doc[key]) or doc[key] != getattr(params, key):
                raise ValueError(f"{key} {doc[key]!r} is not a count that fits the parameters")
        params.validate()
        _check_shape(cfg, params)
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
