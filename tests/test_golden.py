"""Checkpoint bytes of every ablation tier, linear and with a hidden layer,
pinned as sha256 digests.  A pure-speed change to the training loop must
leave all twelve unchanged.

The digests were recorded with numpy 2.4.6, the version CI pins: another
numpy may draw different Generator streams or sum in a different order,
so the test skips there rather than fail.
"""

import hashlib

import numpy as np
import pytest

from minent.data import SynthConfig, generate_synthetic
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


@pytest.fixture(scope="module")
def dataset():
    # three classes and 12 proposals: 2- and 5-member cliques, and visits
    # with inherited anchors on the later branches
    return generate_synthetic(SynthConfig(num_classes=3, bags_per_class=3, negatives=2,
                                          proposals_per_bag=12, feature_dim=9, seed=5))


def test_every_tier_is_pinned():
    assert set(DIGESTS) == {(tier, h) for tier in ABLATION_TIERS for h in (0, 8)}


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"digests recorded with numpy {PINNED_NUMPY}, not {np.__version__}")
@pytest.mark.parametrize("tier, hidden_dim", sorted(DIGESTS))
def test_checkpoint_bytes(tmp_path, dataset, tier, hidden_dim):
    cfg = TrainConfig(epochs=2, branches=3, seed=1, ablation=tier, hidden_dim=hidden_dim)
    state, _ = train(dataset, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[(tier, hidden_dim)]
