"""Checkpoint bytes of every ablation tier, linear and with a hidden layer,
and the metrics bytes of ``evaluate`` on the discovery head and on a
branch head, pinned as sha256 digests.  A pure-speed change to the
training loop or to eval must leave all fourteen unchanged, the two
``l-arl`` digests of a wider fixture, whose sums run over long cliques,
the two ``base`` digests of that fixture, whose bags fall on both sides
of ``top_k``, the two metrics digests of a zero score floor and of detections that
tie across bags, and the ``l-arl`` checkpoint and metrics digests of a dense
fixture, whose overlap tables span several blocks of rows.

The digests were recorded with numpy 2.4.6, the version CI pins: another
numpy may draw different Generator streams or sum in a different order,
so the test skips there rather than fail.
"""

import hashlib

import numpy as np
import pytest

from minent.data import Bag, Dataset, SynthConfig, generate_synthetic
from minent.evaluate import DEFAULT_NMS_IOU, DEFAULT_SCORE_FLOOR, evaluate, head_probs
from minent.geometry import IOU_BLOCK, Box
from minent.jsonio import dumps_canonical
from minent.model import init_params
from minent import trainer
from minent.trainer import ABLATION_TIERS, TrainConfig, save_checkpoint, train

PINNED_NUMPY = "2.4.6"

DIGESTS = {
    ("base", 0): "b16995aaedccc60eae1ddf3aa4a466e7410cbafd8e13e03739b0dafe47d73178",
    ("base", 8): "8a09fbc5fbc15671dc8307a492e4e5ffed450404ec7b3b6b8e0a74104833d412",
    ("clique", 0): "960775fe2b6246ba78c07b825227c70099f10f66f63e548e62cd99e51154c404",
    ("clique", 8): "06e52a65aab335b928dd057189ae2b062b94739a5df3a2793dcf061fa5eaaf18",
    ("d", 0): "9063c83bcc36f3136419f85681979f7733f177c937f6d5efed71a4acc38f1ce4",
    ("d", 8): "1fb289414788f86ece3e662311d52b084fa427cea465233ce6d5f77ccb290156",
    ("l", 0): "91e870e4a9712048b4b0dc494f8fb362e4024a0d35831941b1a8846333fe257f",
    ("l", 8): "8889abf55d7dd09323ffb93e3f5e1f3271dc99d424182cce5627219d9f3c910d",
    ("l-rl", 0): "9806b52f01fc5c0804ad1a03ced2eb5c56b8eceb3279bdfb06c0dbc32d8b6940",
    ("l-rl", 8): "566f5c284408cd4ed77b485ed0a9157ddfc1fd7a4d4a6aceda79f6f2385e9b71",
    ("l-arl", 0): "201c0c83eccb044e2325d501f99d1cc73b7513ec6302a9af1ff03daff9fa9296",
    ("l-arl", 8): "0845f1b75e3f535bb124da919e522dec9e345e6e1ebadc717fad98928b2344f6",
}

METRICS_DIGESTS = {
    "disc": "c18ee009b742e8d14c6eba984a19ece74ec030535ccbc2b7175d0eb0453db3f9",
    1: "25686ee39036668e69252456ef106d8c90e7c491b4dfdc93800a0a4786a92467",
}

# head 1's metrics on more fixtures, by (fixture, score floor, NMS
# threshold): with every cell a candidate, and with ties across bags
MORE_METRICS_DIGESTS = {
    ("scored", 0.0, 0.6):
        "9b19c538d0aae6690df48cfda7a4ab7cfb02bd43753ef0513a28beb931e11a19",
    ("twins", DEFAULT_SCORE_FLOOR, DEFAULT_NMS_IOU):
        "055763e80ec18a0b83f70f4c1f428a02e18c0c465f0fe191c96076504544bfbc",
}

# l-arl on the wide fixture, by hidden_dim
WIDE_DIGESTS = {
    0: "099a23bf568cdc8d6cec645322ddf17b04bd94cbb16f3ced125eddf4ceea6cb0",
    8: "e4c5b89daf10d76f26f680c7bfd70d87a6ecdf95e9a68a2627b0cfb75b1a969a",
}
# base on the wide fixture, by hidden_dim: the pool holds every proposal of
# a 40-proposal bag, whose singleton partition is fixed for the run, and
# cuts each 80-proposal bag, whose partition follows its objectness
WIDE_BASE_DIGESTS = {
    0: "2a34f6fc251a4e642243db44c885990238476cd2a5e14a8e28e4bccd834314ad",
    8: "88c98a71ba5d39b7bea8b80b5d2781914cd25394b2ec8c324356e6e354c9b2d3",
}
WIDE_TOP_K = 50

# l-arl on the dense fixture, and evaluate on its checkpoint
DENSE_DIGEST = "c565842aef0a30539298059abf98a4eb98c8d5574492cb021fc36dac5906e06f"
DENSE_METRICS_DIGEST = "ecdf8f8944bb099b66c105b69a9d4b2211fa5deb4fcd7318acbb5004ced27140"
DENSE_TOP_K = 250

needs_pinned_numpy = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests recorded with numpy {PINNED_NUMPY}, not {np.__version__}")


@pytest.fixture(scope="module")
def dataset():
    # three classes and 12 proposals: 2- and 5-member cliques, and visits
    # with inherited anchors on the later branches
    return generate_synthetic(SynthConfig(num_classes=3, bags_per_class=3, negatives=2,
                                          proposals_per_bag=12, feature_dim=9, seed=5))


@pytest.fixture(scope="module")
def wide_dataset():
    """40- and 80-proposal bags: three bags join two generated bags of
    different classes, so they have two positive classes, and each object
    brings an 8-member near-object clique and a part crowd of up to 16."""
    base = generate_synthetic(SynthConfig(num_classes=3, bags_per_class=3, negatives=2,
                                          proposals_per_bag=40, feature_dim=9, seed=3))
    by_id = {bag.id: bag for bag in base.bags}
    pairs = [("pos-c0-0000", "pos-c1-0000"), ("pos-c1-0001", "pos-c2-0001"),
             ("pos-c2-0002", "pos-c0-0002")]
    joined = []
    for a, b in ((by_id[a], by_id[b]) for a, b in pairs):
        joined.append(Bag(id=f"{a.id}+{b.id}", labels=a.labels | b.labels,
                          features=np.concatenate([a.features, b.features]),
                          boxes=np.concatenate([a.boxes, b.boxes]),
                          ground_truth=a.ground_truth + b.ground_truth))
    used = {bag_id for pair in pairs for bag_id in pair}
    return Dataset(base.classes, base.feature_dim,
                   joined + [bag for bag in base.bags if bag.id not in used])


def _wide_config(hidden_dim, ablation="l-arl"):
    return TrainConfig(epochs=2, branches=3, seed=1, ablation=ablation, hidden_dim=hidden_dim,
                       top_k=WIDE_TOP_K)


@pytest.mark.parametrize("hidden_dim", sorted(WIDE_DIGESTS))
def test_wide_fixture_reaches_long_sums(monkeypatch, wide_dataset, hidden_dim):
    seen = {"cut": 0, "sizes": set()}
    partition_cliques = trainer.partition_cliques

    def spy(boxes, objectness, tau, top_k, graph=None):
        partition = partition_cliques(boxes, objectness, tau, top_k, graph)
        if len(objectness) > top_k:
            pooled = np.bincount(graph.component[np.argsort(-objectness, kind="stable")[:top_k]],
                                 minlength=len(graph.sizes))
            seen["cut"] += int(((pooled > 0) & (pooled < graph.sizes)).sum())
        seen["sizes"].update(partition.sizes.tolist())
        return partition

    monkeypatch.setattr(trainer, "partition_cliques", spy)
    train(wide_dataset, _wide_config(hidden_dim))
    assert sum((bag.labels == 1).sum() == 2 for bag in wide_dataset.bags) == 3
    assert min(bag.num_proposals for bag in wide_dataset.bags[:3]) > 60 > WIDE_TOP_K
    assert seen["cut"] > 0  # the pool splits some tau-graph component
    assert max(seen["sizes"]) >= 16 and 8 in seen["sizes"]


@needs_pinned_numpy
@pytest.mark.parametrize("hidden_dim", sorted(WIDE_DIGESTS))
def test_wide_checkpoint_bytes(tmp_path, wide_dataset, hidden_dim):
    state, _ = train(wide_dataset, _wide_config(hidden_dim))
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_DIGESTS[hidden_dim]


@needs_pinned_numpy
@pytest.mark.parametrize("hidden_dim", sorted(WIDE_BASE_DIGESTS))
def test_wide_base_checkpoint_bytes(tmp_path, wide_dataset, hidden_dim):
    positive = [bag.num_proposals for bag in wide_dataset.bags if bag.labels.any()]
    assert min(positive) <= WIDE_TOP_K < max(positive)
    state, _ = train(wide_dataset, _wide_config(hidden_dim, "base"))
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_BASE_DIGESTS[hidden_dim]


def test_every_tier_is_pinned():
    assert set(DIGESTS) == {(tier, h) for tier in ABLATION_TIERS for h in (0, 8)}


@needs_pinned_numpy
@pytest.mark.parametrize("tier, hidden_dim", sorted(DIGESTS))
def test_checkpoint_bytes(tmp_path, dataset, tier, hidden_dim):
    cfg = TrainConfig(epochs=2, branches=3, seed=1, ablation=tier, hidden_dim=hidden_dim)
    state, _ = train(dataset, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[(tier, hidden_dim)]


@pytest.fixture(scope="module")
def scored(dataset):
    """Untrained heads that score the generated bags almost at random, so
    AP falls below 1, plus one hand-built bag whose class-0 cells the heads
    rank by its first feature: a detection hits each of its two class-0
    ground-truth boxes, one far box is a false positive ranked between
    them, and a duplicate on the first box, IoU 0.6 with it but 0.2 with
    the detection that took it, survives NMS and counts as a false
    positive.  Its class-1 and class-2 cells all fall below the score floor."""
    params = init_params(9, 3, branches=2, seed=4, scale=1.0)
    for w in [params.disc_w, *params.loc_w]:
        w[:3] = 6.0 * np.eye(3)
    boxes = [[0, 0, 1, 0.6], [6, 6, 7, 7], [0, 0.4, 1, 1], [3, 3, 4, 4], [0, 0.5, 1, 1]]
    features = np.zeros((len(boxes), 9))
    features[:, 0] = [2.0, 1.9, 1.8, 1.7, 1.6]  # class-0 score 6x this
    two_gt = Bag(id="two-gt", labels=np.array([1, 0, 0]), features=features,
                 boxes=np.array(boxes, dtype=float),
                 ground_truth=[(0, Box(0, 0, 1, 1)), (0, Box(3, 3, 4, 4))])
    return params, Dataset(dataset.classes, dataset.feature_dim, dataset.bags + [two_gt])


def test_metrics_fixture_reaches_every_case(scored):
    params, ds = scored
    two_gt = ds.bags[-1]
    for head in METRICS_DIGESTS:
        assert min(evaluate(params, ds, head).per_class_ap) < 1.0
        probs = head_probs(params, two_gt.feature_matrix(), head)
        assert (probs[:, 0] >= DEFAULT_SCORE_FLOOR).all()
        assert not (probs[:, 1:] >= DEFAULT_SCORE_FLOOR).any()


@needs_pinned_numpy
@pytest.mark.parametrize("head", list(METRICS_DIGESTS), ids=str)
def test_metrics_bytes(scored, head):
    params, ds = scored
    text = dumps_canonical(evaluate(params, ds, head).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == METRICS_DIGESTS[head]


@pytest.fixture(scope="module")
def twins(scored):
    """The scored fixture plus a twin of its hand-built bag: the same
    features and boxes under another id, so each of its detections ties
    one of the first bag's, but its one ground-truth box is the far box.
    A tied pair then holds a hit and a false positive, and the rank order
    of ties across bags decides the AP."""
    params, ds = scored
    first = ds.bags[-1]
    twin = Bag(id="two-gt-twin", labels=first.labels, features=first.features,
               boxes=first.boxes, ground_truth=[(0, Box(6, 6, 7, 7))])
    return params, Dataset(ds.classes, ds.feature_dim, ds.bags + [twin])


def test_twins_tie_across_bags(twins):
    params, ds = twins
    first, twin = ds.bags[-2:]
    assert (head_probs(params, first.feature_matrix(), 1)
            == head_probs(params, twin.feature_matrix(), 1)).all()
    swapped = Dataset(ds.classes, ds.feature_dim, ds.bags[:-2] + [twin, first])
    assert evaluate(params, swapped, 1).per_class_ap[0] != evaluate(params, ds, 1).per_class_ap[0]


@needs_pinned_numpy
@pytest.mark.parametrize("fixture, score_floor, nms_iou", sorted(MORE_METRICS_DIGESTS), ids=str)
def test_more_metrics_bytes(request, fixture, score_floor, nms_iou):
    params, ds = request.getfixturevalue(fixture)
    report = evaluate(params, ds, 1, nms_iou=nms_iou, score_floor=score_floor)
    digest = hashlib.sha256(dumps_canonical(report.to_dict()).encode()).hexdigest()
    assert digest == MORE_METRICS_DIGESTS[fixture, score_floor, nms_iou]


@pytest.fixture(scope="module")
def dense_dataset():
    """330-proposal bags, 60% of them parts of the object: each positive
    bag's part crowd is one tau-graph component of about 200 boxes."""
    return generate_synthetic(SynthConfig(num_classes=3, bags_per_class=2, negatives=1,
                                          proposals_per_bag=330, feature_dim=9,
                                          part_fraction=0.6, seed=11))


@pytest.fixture(scope="module")
def dense_state(dense_dataset):
    state, _ = train(dense_dataset, TrainConfig(epochs=2, branches=3, seed=1, ablation="l-arl",
                                                top_k=DENSE_TOP_K))
    return state


def test_dense_fixture_spans_several_row_blocks(monkeypatch, dense_dataset, dense_state):
    # tau-graphs of more than 256 boxes, and cut components whose pooled
    # part is more than 128 boxes
    assert min(bag.num_proposals for bag in dense_dataset.bags) > 2 * IOU_BLOCK
    pooled_cut = []
    partition_cliques = trainer.partition_cliques

    def spy(boxes, objectness, tau, top_k, graph=None):
        pooled = np.bincount(graph.component[np.argsort(-objectness, kind="stable")[:top_k]],
                             minlength=len(graph.sizes))
        pooled_cut.extend(pooled[(pooled > 0) & (pooled < graph.sizes)].tolist())
        return partition_cliques(boxes, objectness, tau, top_k, graph)

    monkeypatch.setattr(trainer, "partition_cliques", spy)
    train(dense_dataset, TrainConfig(epochs=1, branches=3, seed=1, ablation="l-arl",
                                     top_k=DENSE_TOP_K))
    assert max(pooled_cut) > IOU_BLOCK
    # more than 128 NMS candidates in some bag
    candidates = [(head_probs(dense_state.params, bag.feature_matrix())
                   >= DEFAULT_SCORE_FLOOR).any(axis=1).sum() for bag in dense_dataset.bags]
    assert max(candidates) > IOU_BLOCK


@needs_pinned_numpy
def test_dense_checkpoint_and_metrics_bytes(tmp_path, dense_dataset, dense_state):
    path = tmp_path / "ckpt.json"
    save_checkpoint(dense_state, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DENSE_DIGEST
    text = dumps_canonical(evaluate(dense_state.params, dense_dataset).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_METRICS_DIGEST
