"""``canonical_pieces`` encodes a document in pieces, a dict key by key,
an array row by row and an iterator item by item, and ``write_json``
writes them; the pieces must join to the bytes of ``dumps_canonical`` of
the whole document, with each array as its ``tolist()``.  Every binary
twin has one layout: the JSON's hash, a document, the declared tables,
and one flat member per table."""

import hashlib
import json
import math

import numpy as np
import pytest

from minent import trainer as trainer_module
from minent.data import SynthConfig, generate_synthetic, save_dataset
from minent.jsonio import TWIN_SUFFIX, _built, canonical_pieces, dumps_canonical, write_json
from minent.trainer import ABLATION_TIERS, TrainConfig, save_checkpoint, train

KEYS = ["", "a", "b", "ab", 'q"uote', "back\\slash", "new\nline", "tab\t", "\x00",
        "été", "☃", "\U0001f600", "B", "10", "9"]
FLOATS = [0.0, -0.0, 1e-300, 1e16, -1e16, 5e-324, 1.7976931348623157e308, 0.1, 1.0, 2.5e-7]


class Encoded(list):
    """Values that ``streamed`` turns into an iterator of their encodings."""


def random_value(rng, depth):
    kind = int(rng.integers(0, 9 if depth < 4 else 6))
    if kind == 0:
        return int(rng.integers(-10**6, 10**6)) * int(rng.choice([1, 10**12]))
    if kind == 1:
        return bool(rng.integers(0, 2))
    if kind == 2:
        return None
    if kind == 3:
        return float(rng.choice(FLOATS)) if rng.random() < 0.5 else float(rng.normal() * 1e3)
    if kind == 4:
        return str(rng.choice(KEYS))
    if kind == 5:
        return random_array(rng)
    if kind == 6:  # a list is written whole, so it holds no array
        return [listed(random_value(rng, depth + 1)) for _ in range(int(rng.integers(0, 4)))]
    return random_doc(rng, depth + 1)


def random_doc(rng, depth=0):
    keys = rng.choice(KEYS, size=int(rng.integers(0, 6)), replace=False)
    return {str(key): random_value(rng, depth) for key in keys}


def random_array(rng):
    shape = tuple(int(n) for n in rng.integers(0, 4, size=int(rng.integers(1, 4))))
    if rng.random() < 0.2:
        return rng.integers(-10**12, 10**12, size=shape)
    arr = rng.normal(size=shape) * 10.0 ** float(rng.integers(-300, 300))
    arr[rng.random(shape) < 0.2] = rng.choice(FLOATS)
    return arr


def listed(obj):
    """``obj`` with every numpy array replaced by its ``tolist()``, and an
    ``Encoded`` list by a plain one."""
    if isinstance(obj, dict):
        return {key: listed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [listed(value) for value in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def streamed(obj, items):
    """``obj`` with every ``Encoded`` list replaced by an iterator of its
    items' canonical JSON bytes, each of which is appended to ``items``."""
    if isinstance(obj, Encoded):
        encoded = [dumps_canonical(listed(item))[:-1].encode() for item in obj]
        items.extend(encoded)
        return iter(encoded)
    if isinstance(obj, dict):
        return {key: streamed(value, items) for key, value in obj.items()}
    return obj


def walked(obj):
    """``obj`` and every value of the dicts nested in it: the values that
    ``canonical_pieces`` encodes itself."""
    yield obj
    for value in obj.values() if isinstance(obj, dict) else ():
        yield from walked(value)


def random_streamed_doc(rng, depth=0):
    """``random_doc`` with some values ``Encoded`` lists, nested ones too."""
    doc = random_doc(rng, depth)
    for key in list(doc)[: int(rng.integers(0, 3))]:
        doc[key] = Encoded(random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 4))))
    if depth < 2 and rng.random() < 0.5:
        doc["nested"] = random_streamed_doc(rng, depth + 1)
    return doc


def test_random_documents_match_dumps_canonical(tmp_path):
    rng = np.random.default_rng(41)
    path = tmp_path / "doc.json"
    seen = {"empty_dict": 0, "rows": 0}
    for trial in range(500):
        doc = random_doc(rng) if trial % 10 else {}
        write_json(doc, str(path))
        assert path.read_bytes() == dumps_canonical(listed(doc)).encode()
        seen["empty_dict"] += "{}" in dumps_canonical(listed(doc))
        seen["rows"] += any(getattr(v, "ndim", 0) > 1 for v in doc.values())
    assert all(count > 30 for count in seen.values()), seen


def test_pieces_join_to_dumps_canonical():
    rng = np.random.default_rng(43)
    seen = {"iterator": 0, "empty_iterator": 0, "array_3d": 0}
    for trial in range(500):
        doc = random_streamed_doc(rng) if trial % 10 else {"empty": Encoded()}
        items = []
        pieces = list(canonical_pieces(streamed(doc, items)))
        assert b"".join(pieces) == dumps_canonical(listed(doc)).encode()
        # each item of an iterator is a piece of its own
        assert all(item in pieces for item in items)
        values = list(walked(doc))
        seen["iterator"] += any(isinstance(v, Encoded) and v for v in values)
        seen["empty_iterator"] += any(isinstance(v, Encoded) and not v for v in values)
        seen["array_3d"] += any(getattr(v, "ndim", 0) == 3 for v in values)
    assert all(count > 30 for count in seen.values()), seen


@pytest.mark.parametrize("value", [[], {}, None, True, 3, -0.0, 1e-300, 1e16, "\U0001f600",
                                   np.zeros((0, 4)), np.zeros((3, 0)), np.array(2.5)])
def test_a_bare_value_matches_dumps_canonical(tmp_path, value):
    path = tmp_path / "doc.json"
    write_json(value, str(path))
    assert path.read_bytes() == dumps_canonical(listed(value)).encode()


def test_a_non_finite_value_writes_nothing(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        write_json({"a": np.ones((2, 2)), "b": np.array([[1.0, np.nan]])}, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("hidden_dim", [0, 8])
@pytest.mark.parametrize("tier", ABLATION_TIERS)
def test_checkpoint_matches_dumps_canonical(tmp_path, monkeypatch, tier, hidden_dim):
    ds = generate_synthetic(SynthConfig(num_classes=2, bags_per_class=3, negatives=2,
                                        proposals_per_bag=8, feature_dim=6, seed=5))
    state, _ = train(ds, TrainConfig(epochs=1, branches=2, seed=1, ablation=tier,
                                     hidden_dim=hidden_dim))
    docs = []
    real = trainer_module.write_twin
    monkeypatch.setattr(trainer_module, "write_twin", lambda path, pieces, doc, tables: (
        docs.append({**doc, **tables}) or real(path, pieces, doc, tables)))
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, str(path))
    assert ("hidden_w" in docs[0]["params"]) == (hidden_dim > 0)
    assert path.read_bytes() == dumps_canonical(listed(docs[0])).encode()


@pytest.mark.parametrize("kind, tables", [
    ("dataset", {"features", "boxes"}), ("checkpoint", {"params", "buffers", "s_h"}),
], ids=["dataset", "checkpoint"])
def test_a_twin_holds_one_flat_member_per_table(tmp_path, kind, tables):
    ds = generate_synthetic(SynthConfig(num_classes=2, bags_per_class=3, negatives=2,
                                        proposals_per_bag=8, feature_dim=6, seed=5))
    path = tmp_path / f"{kind}.json"
    if kind == "dataset":
        save_dataset(ds, str(path))
    else:
        save_checkpoint(train(ds, TrainConfig(epochs=1, branches=2, seed=1, hidden_dim=4))[0],
                        str(path))
    with np.load(str(path) + TWIN_SUFFIX, allow_pickle=False) as z:
        members = {key: z[key] for key in z.files}
    assert str(members.pop("sha256")) == hashlib.sha256(path.read_bytes()).hexdigest()
    doc, shapes = (json.loads(members.pop(key).tobytes()) for key in ("doc", "tables"))
    assert set(members) == set(shapes) == tables
    assert not tables & set(doc)
    for key, member in members.items():
        assert member.dtype == np.float64 and member.ndim == 1
        assert len(member) == sum(math.prod(shape) for shape in shapes[key].values())
    # read back, each table holds read-only arrays of its declared shapes
    _, (built_doc, built) = _built(str(path) + TWIN_SUFFIX, lambda doc, tables: (doc, tables))
    assert built_doc == doc and set(built) == tables
    for key in tables:
        assert {name: list(a.shape) for name, a in built[key].items()} == shapes[key]
        assert not any(a.flags.writeable for a in built[key].values())
