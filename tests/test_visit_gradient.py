"""A whole-visit gradient oracle: the flat gradient that a training step
hands to ``sgd_step`` must be the gradient of the visit's objective.

Each loss has its own central-difference test; this one checks the wiring
between them: the ``loc_weight`` scaling of each branch, the sum over heads
in the shared hidden layer, and which branch receives which anchors' terms.
A visit is frozen as training saw it: its partition, its selected cliques,
its scored anchors, the bag's score state s(h), and the pseudo-labels
kappa, each entry's soft weights times the branch's probabilities over its
home.  At fixed kappa the objective is

    L(theta) = discovery_loss(frozen partition)
               + loc_weight * sum_branches sum_entries sum_members
                 kappa * -log p_k(member, class),

and its central differences must match the trainer's gradient.
"""

import numpy as np
import pytest

from minent import trainer as trainer_module
from minent.data import SynthConfig, generate_synthetic
from minent.entropy import EPS, discovery_loss, row_softmax
from minent.model import forward_heads
from minent.trainer import ABLATION_TIERS, TrainConfig, train

STEP = 1e-6
RTOL, ATOL = 1e-3, 1e-7
PER_ARRAY = 4  # coordinates drawn from each parameter array


@pytest.fixture(scope="module")
def hard_draw():
    """The ladder's hard draw, small, with one bag positive for both classes."""
    ds = generate_synthetic(SynthConfig(num_classes=2, bags_per_class=4, negatives=2,
                                        proposals_per_bag=12, feature_dim=6, noise_sigma=0.06,
                                        part_fraction=0.5, seed=7))
    ds.bags[0].labels = np.array([1, 1])
    return ds


def frozen_visits(monkeypatch, ds, cfg):
    """Train ``cfg`` and return each visit of its last epoch as (parameters
    as a flat vector, the model's views of it, features, bag, visit, the
    flat gradient handed to ``sgd_step``)."""
    bag_step, step = trainer_module._bag_step, trainer_module.sgd_step
    visits, handed = [], []

    def recorded_step(params, grads, *args):
        handed.append(grads.copy())
        return step(params, grads, *args)

    def recorded_bag_step(state, cfg, switches, bag, *args):
        flat = np.concatenate([arr.ravel() for _, arr in state.params.named_arrays()])
        s = state.s_h[bag.id]
        features = bag.features * s[:, None] if switches.use_feedback else bag.features
        seen = bag_step(state, cfg, switches, bag, *args)
        visits.append((flat, state.params.on(flat), features, bag, seen, handed.pop()))
        return seen

    monkeypatch.setattr(trainer_module, "_bag_step", recorded_bag_step)
    monkeypatch.setattr(trainer_module, "sgd_step", recorded_step)
    train(ds, cfg)
    monkeypatch.undo()
    return visits[-len(ds.bags):]


def objective(params, features, bag, seen, loc_weight):
    """L at ``params``, with the visit ``seen``'s partition and kappa frozen."""
    heads = ["disc", *range(len(seen.anchors))]
    scores = forward_heads(params, features, heads)
    out, _ = discovery_loss(bag.labels, seen.partition, scores[0])
    loss = out.loss
    probs = row_softmax(scores[1:])
    for k, scored in enumerate(seen.anchors):
        for y, _, home, w, _ in scored:
            kappa = w * np.maximum(seen.probs[1 + k][home, y], EPS)
            loss += loc_weight * float(-(kappa * np.log(probs[k][home, y])).sum())
    return loss


def check(visit, loc_weight, rng):
    """(trainer's gradient, central differences) at ``PER_ARRAY`` random
    coordinates of each parameter array."""
    flat, params, features, bag, seen, grads = visit
    coords, start = [], 0
    for _, arr in params.named_arrays():
        coords += (start + rng.choice(arr.size, size=min(PER_ARRAY, arr.size),
                                      replace=False)).tolist()
        start += arr.size
    central = []
    for i in coords:
        kept = flat[i]
        flat[i] = kept + STEP
        up = objective(params, features, bag, seen, loc_weight)
        flat[i] = kept - STEP
        down = objective(params, features, bag, seen, loc_weight)
        flat[i] = kept
        central.append((up - down) / (2 * STEP))
    return grads[coords], np.array(central)


def within_tolerance(got, want):
    return bool((np.abs(got - want) <= RTOL * np.abs(want) + ATOL).all())


@pytest.mark.parametrize("loc_weight", [1.0, 4.0])
@pytest.mark.parametrize("hidden_dim", [0, 8])
@pytest.mark.parametrize("tier", ABLATION_TIERS)
def test_step_gradient_is_the_visit_objective_gradient(monkeypatch, hard_draw, tier, hidden_dim,
                                                       loc_weight):
    cfg = TrainConfig(epochs=2, branches=3, seed=1, ablation=tier, hidden_dim=hidden_dim,
                      loc_weight=loc_weight)
    rng = np.random.default_rng(5)
    seen_terms = 0
    for visit in frozen_visits(monkeypatch, hard_draw, cfg):
        got, want = check(visit, loc_weight, rng)
        assert within_tolerance(got, want), np.abs(got - want).max() / np.abs(want).max()
        assert np.abs(want).max() > 1e-3  # the drawn coordinates carry gradient
        seen_terms += sum(len(scored) for scored in visit[4].anchors)
    # tiers from d on score anchors; l-arl's later branches inherit picks
    assert (seen_terms > 0) == (tier not in ("base", "clique"))


def test_oracle_catches_a_dropped_loc_weight(monkeypatch, hard_draw):
    # the objective at loc_weight 1 against the trainer's gradient at 4
    cfg = TrainConfig(epochs=2, branches=3, seed=1, ablation="l-arl", hidden_dim=8,
                      loc_weight=4.0)
    rng = np.random.default_rng(5)
    misses = [not within_tolerance(*check(visit, 1.0, rng))
              for visit in frozen_visits(monkeypatch, hard_draw, cfg) if visit[3].labels.any()]
    assert misses and all(misses)
