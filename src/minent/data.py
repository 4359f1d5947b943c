"""Dataset schema, JSON ingestion, and a synthetic bag generator.

A dataset is a list of bags; each bag is a set of box proposals with
precomputed feature vectors plus a binary image-level label vector.
Ground-truth boxes, when present, are evaluation-only — training code
receives a view with them stripped.

The synthetic generator builds a "part domination" trap: for every object
it emits a handful of near-object boxes whose features carry the full
class prototype at moderate amplitude, and a larger crowd of part boxes
(IoU 0.2–0.5 with the object) whose features carry only a third of the
prototype's support but at higher amplitude.  A per-proposal classifier
therefore concentrates on the many high-scoring parts, while grouping
overlapping boxes and scoring groups by their mean lets the near-object
group win — the behavior the training objective is supposed to exhibit.

``save_dataset`` writes the canonical JSON and its binary twin
(``jsonio.write_twin``): the bags' concatenated features and boxes, each
bag's proposal count, and the document without ``proposals``.
``load_dataset`` builds the dataset from a current twin, else from the JSON
(``jsonio.read_checked``); ``open_dataset`` also uses the twin's dataset
while the hash runs.  A bag read from the twin holds read-only slices of its
two loaded arrays, not copies, so the data sits in memory once.

The dataset is a fixed function of the config and its seed.  A positive
bag's boxes are rejection-sampled in blocks of tries: each round draws the
tries it may still need as one uniform block from the same stream, tests
them all at once with ``iou_matrix``, and accepts them in order, which
gives the boxes and stream position of testing one try at a time.  A
negative bag keeps one draw per proposal, because each box's draw sits
between the ``standard_normal`` draws of the features, and the ziggurat
takes a variable share of the stream.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from .geometry import Box, iou_matrix
from .jsonio import dumps_canonical, read_checked, read_json, write_twin


class DataError(ValueError):
    """Malformed dataset content (schema, dimensions, labels)."""


class GenerationError(RuntimeError):
    """Synthetic generation could not satisfy its geometric constraints."""


# rejection-sampling budget per generated box
_MAX_TRIES = 1000


def _frozen(values) -> np.ndarray:
    """Read-only float array over ``values``; no copy when it already is one."""
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


@dataclass
class Bag:
    """One image: P proposals, as a (P, D) feature matrix and a (P, 4)
    corner-format box array, plus a binary label per class.

    Both arrays are read-only, so views and accessors share them without
    copying.  ``ground_truth`` is a list of (class index, Box) pairs used
    only by evaluation; ``training_view`` strips it.
    """

    id: str
    labels: np.ndarray
    features: np.ndarray
    boxes: np.ndarray
    ground_truth: list[tuple[int, Box]] | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        self.features = _frozen(self.features)
        self.boxes = _frozen(self.boxes)

    @property
    def num_proposals(self) -> int:
        return len(self.features)

    def feature_matrix(self) -> np.ndarray:
        """(num_proposals, D) proposal features (the stored array)."""
        return self.features

    def box_array(self) -> np.ndarray:
        """(num_proposals, 4) corner-format boxes (the stored array)."""
        return self.boxes

    def positive_classes(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    def training_view(self) -> "Bag":
        return replace(self, ground_truth=None)


@dataclass
class Dataset:
    classes: list[str]
    feature_dim: int
    bags: list[Bag]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def training_view(self) -> "Dataset":
        return Dataset(
            classes=self.classes,
            feature_dim=self.feature_dim,
            bags=[b.training_view() for b in self.bags],
        )

    def bag_by_id(self, bag_id: str) -> Bag:
        for b in self.bags:
            if b.id == bag_id:
                return b
        raise KeyError(f"no bag with id '{bag_id}'")

    def has_ground_truth(self) -> bool:
        return any(b.ground_truth for b in self.bags)


def whole_number(value) -> bool:
    """An int; a bool does not count."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def finite_number(value) -> bool:
    """A finite int or float; a bool does not count."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def number_array(values, what: str) -> np.ndarray:
    """``values``, nested lists of JSON numbers or a numeric array, as a new
    float array.  Raises ValueError when a cell is a string, a boolean or
    null, or when the nesting is ragged."""
    arr = np.array(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold JSON numbers only")
    if isinstance(values, np.ndarray):  # its dtype says it holds no boolean
        return arr.astype(float, copy=False)
    # numpy reads [true, 0.5] as [1.0, 0.5], so a boolean can hide only in a
    # cell that reads 0 or 1.  |x - 0.5| == 0.5 flags those (and any value
    # that rounds onto them), and only flagged cells are looked up in the source
    for index in np.argwhere(np.abs(arr - 0.5) == 0.5).tolist():
        cell = values
        for i in index:
            cell = cell[i]
        if isinstance(cell, bool):
            raise ValueError(f"{what} must hold JSON numbers only, got {cell!r}")
    return arr.astype(float, copy=False)


def check_field_types(cfg, error: type[Exception]) -> None:
    """Raise ``error`` unless every ``int`` field of the config dataclass
    holds an int (not a bool) and every ``float`` field a finite number."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int" and not whole_number(value):
            raise error(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and not finite_number(value):
            raise error(f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 2
    bags_per_class: int = 100
    negatives: int = 50
    proposals_per_bag: int = 30
    feature_dim: int = 24
    part_fraction: float = 0.4
    noise_sigma: float = 0.0225
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, DataError)
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        if self.bags_per_class < 1:
            raise DataError("bags_per_class must be >= 1")
        if self.negatives < 0:
            raise DataError("negatives must be >= 0")
        if self.proposals_per_bag < 3:
            raise DataError("proposals_per_bag must be >= 3")
        if self.feature_dim < 3 * self.num_classes:
            raise DataError(
                f"feature_dim must be >= 3*num_classes "
                f"({3 * self.num_classes}), got {self.feature_dim}"
            )
        if not 0.0 <= self.part_fraction <= 1.0:
            raise DataError("part_fraction must lie in [0, 1]")
        if self.noise_sigma < 0:
            raise DataError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def validate_dataset(ds: Dataset) -> None:
    """Check every invariant; raise DataError naming the offending bag/field."""
    n = ds.num_classes
    if n < 1:
        raise DataError("dataset declares no classes")
    if not whole_number(ds.feature_dim) or ds.feature_dim < 1:
        raise DataError(f"feature_dim must be a positive integer, got {ds.feature_dim!r}")
    if not ds.bags:
        raise DataError("dataset contains no bags")
    seen_ids = set()
    for bag in ds.bags:
        if bag.id in seen_ids:
            raise DataError(f"bag '{bag.id}': duplicate id")
        seen_ids.add(bag.id)
        num = bag.num_proposals
        if num == 0:
            raise DataError(f"bag '{bag.id}': needs at least one proposal")
        if bag.labels.shape != (n,):
            raise DataError(
                f"bag '{bag.id}': labels must have length {n}, got {bag.labels.shape}"
            )
        if not ((bag.labels == 0) | (bag.labels == 1)).all():
            raise DataError(f"bag '{bag.id}': labels must be 0 or 1")
        if bag.features.shape != (num, ds.feature_dim):
            raise DataError(
                f"bag '{bag.id}': features have shape {bag.features.shape}, "
                f"expected ({num}, {ds.feature_dim})"
            )
        if not np.isfinite(bag.features).all():
            raise DataError(f"bag '{bag.id}': features have non-finite values")
        if bag.boxes.shape != (num, 4):
            raise DataError(
                f"bag '{bag.id}': boxes have shape {bag.boxes.shape}, expected ({num}, 4)"
            )
        if not (np.isfinite(bag.boxes).all() and (bag.boxes[:, :2] < bag.boxes[:, 2:]).all()):
            raise DataError(f"bag '{bag.id}': boxes must be finite with x1 < x2 and y1 < y2")
        if bag.ground_truth is not None:
            for k, (cls, box) in enumerate(bag.ground_truth):
                if not whole_number(cls) or not 0 <= cls < n:
                    raise DataError(
                        f"bag '{bag.id}': ground_truth {k} class {cls!r} out of range [0, {n})"
                    )
                if not all(math.isfinite(v) for v in box.as_list()):
                    raise DataError(f"bag '{bag.id}': ground_truth {k} box must be finite")


def _bag_meta(bag: Bag) -> dict:
    """The record of ``bag`` without its ``proposals``, as the twin holds it."""
    rec = {"id": bag.id, "labels": [int(v) for v in bag.labels]}
    if bag.ground_truth is not None:
        rec["ground_truth"] = [
            {"class": int(cls), "box": box.as_list()} for cls, box in bag.ground_truth
        ]
    return rec


def _bag_to_record(bag: Bag) -> dict:
    return {
        **_bag_meta(bag),
        "proposals": [
            {"box": box, "feature": feature}
            for box, feature in zip(bag.boxes.tolist(), bag.features.tolist())
        ],
    }


def _bag_from_record(rec: dict, arrays=None) -> Bag:
    """The bag of one dataset record.  ``arrays`` is its (features, boxes)
    pair from the twin; without it they are read from the record's
    ``proposals``."""
    bag_id = rec.get("id")
    if not isinstance(bag_id, str) or not bag_id:
        raise DataError(f"bag record missing string 'id': {rec.get('id')!r}")
    if arrays is None:
        try:
            proposals = rec["proposals"]
            arrays = (number_array([p["feature"] for p in proposals], "features"),
                      number_array([p["box"] for p in proposals], "boxes"))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"bag '{bag_id}': malformed proposal: {e}") from e
    features, boxes = arrays
    gt = None
    if "ground_truth" in rec:
        try:
            gt = [(g["class"], Box.from_list(number_array(g["box"], "box")))
                  for g in rec["ground_truth"]]
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"bag '{bag_id}': malformed ground_truth: {e}") from e
    labels = rec.get("labels")
    if not isinstance(labels, list) or not all(whole_number(v) for v in labels):
        raise DataError(f"bag '{bag_id}': labels must be a list of integers, got {labels!r}")
    return Bag(id=bag_id, labels=labels, features=features, boxes=boxes, ground_truth=gt)


def _dataset_from_doc(doc, arrays=None) -> Dataset:
    """The validated dataset of a parsed dataset document.  ``arrays``
    holds each bag's (features, boxes) pair, for a document whose bag
    records carry no ``proposals``."""
    if not isinstance(doc, dict):
        raise DataError("dataset file must contain a JSON object")
    for key in ("classes", "feature_dim", "bags"):
        if key not in doc:
            raise DataError(f"dataset file missing '{key}'")
    classes, bags = doc["classes"], doc["bags"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise DataError("'classes' must be a list of strings")
    if not isinstance(bags, list) or not all(isinstance(rec, dict) for rec in bags):
        raise DataError("'bags' must be a list of objects")
    if arrays is None:
        arrays = [None] * len(bags)
    # after the read of the JSON or twin, so that its buffers are not kept in the heap
    _raise_malloc_thresholds()
    ds = Dataset(
        classes=classes,
        feature_dim=doc["feature_dim"],
        bags=[_bag_from_record(rec, a) for rec, a in zip(bags, arrays, strict=True)],
    )
    validate_dataset(ds)
    return ds


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _encode_bag(bag: Bag) -> bytes:
    """The canonical JSON of the record of ``bag``, as it sits inside the
    dataset document's ``bags`` list."""
    return dumps_canonical(_bag_to_record(bag))[:-1].encode()


class _Claims:
    """The bags no process has taken yet, indices ``[front, back)``: the
    caller takes them from the front and the workers from the back.  The
    pair sits in the file ``fd``, which every process shares, under a POSIX
    record lock.  The kernel drops that lock when its holder dies, so a
    worker that dies inside ``take`` leaves no other process waiting."""

    def __init__(self, fd: int, front: int, back: int):
        self.fd = fd
        os.pwrite(fd, struct.pack("qq", front, back), 0)

    def take(self, from_back: bool) -> int | None:
        """The index of the bag taken, or None once the two ends have met."""
        os.lockf(self.fd, os.F_LOCK, 0)
        try:
            front, back = struct.unpack("qq", os.pread(self.fd, 16, 0))
            if front == back:
                return None
            index = back - 1 if from_back else front
            ends = (front, index) if from_back else (index + 1, back)
            os.pwrite(self.fd, struct.pack("qq", *ends), 0)
            return index
        finally:
            os.lockf(self.fd, os.F_ULOCK, 0)


def _encode_child(conn, out, bags: list[Bag], claims: _Claims, index: int) -> None:
    """A worker of ``_encode_records``: encodes bag ``index`` and then each
    bag it takes from the back, and appends their bytes to the file ``out``.
    Then it sends their indices and lengths and exits 0; or it sends the
    error that stopped it and exits 1."""
    written = []
    try:
        while index is not None:
            part = _encode_bag(bags[index])
            out.write(part)
            written.append((index, len(part)))
            index = claims.take(from_back=True)
        out.flush()
    except Exception as e:
        conn.send_bytes(f"{type(e).__name__}: {e}".encode())
        raise SystemExit(1)
    conn.send_bytes(np.array(written, dtype=np.int64).tobytes())


def _receive(index: int, proc, conn) -> list[list[int]]:
    """The index and length of each bag that worker ``index`` wrote, in the
    order it wrote them; a RuntimeError that says why if it did not finish."""
    try:
        message = conn.recv_bytes()
    except (EOFError, OSError):  # OSError: it died inside the message
        message = None
    proc.join()
    if message is not None and proc.exitcode == 0:
        return np.frombuffer(message, dtype=np.int64).reshape(-1, 2).tolist()
    if message is not None and proc.exitcode == 1:
        why = message.decode(errors="replace")
    else:
        why = f"exit code {proc.exitcode}" + (", nothing sent" if message is None else "")
    raise RuntimeError(f"dataset encoding worker {index} failed: {why}")


def _encode_records(bags: list[Bag]):
    """``_encode_bag`` of each of ``bags``, yielded in file order.

    With one usable CPU, or where ``fork`` is missing, the caller encodes
    them in turn.  Else forked workers help, one per further CPU and never
    more processes than bags.  Each process starts with a bag of its own:
    the caller with the first, each worker with one of the last.  Then the
    caller takes bags one at a time from the front (``_Claims``) and yields
    each as soon as it is encoded, while the workers take theirs from the
    back and append them to files of their own.  When the two ends meet,
    the caller reads the workers' bags back and yields them in order.  The
    bytes do not depend on the CPU count or on which process encoded a bag.

    Fork is safe here: a worker only formats JSON from arrays it inherited,
    and never calls into BLAS, whose threads it does not inherit.
    ``multiprocessing`` (not a bare ``os.fork``) flushes stdio before it
    forks, so no buffered output is written twice.  No worker outlives the
    generator, whether it ends, raises or is closed.
    """
    import multiprocessing  # here, so that train and eval do not import them
    import tempfile

    fork = (multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods() else None)
    n = min(_usable_cpus(), len(bags)) if fork else 1
    if n == 1:
        yield from map(_encode_bag, bags)
        return
    workers = []
    with tempfile.TemporaryFile() as shared:
        claims = _Claims(shared.fileno(), 1, len(bags) - n + 1)
        try:
            for k in range(1, n):
                conn, child_conn = fork.Pipe(duplex=False)
                out = tempfile.TemporaryFile()
                proc = fork.Process(target=_encode_child, daemon=True,
                                    args=(child_conn, out, bags, claims, len(bags) - k))
                proc.start()
                child_conn.close()
                workers.append((proc, conn, out))
            index = 0
            while index is not None:
                yield _encode_bag(bags[index])
                index = claims.take(from_back=False)
            rest = {}  # bag index: (file descriptor, offset, length)
            for k, (proc, conn, out) in enumerate(workers, 1):
                offset = 0
                for index, length in _receive(k, proc, conn):
                    rest[index] = (out.fileno(), offset, length)
                    offset += length
            for index in sorted(rest):
                fd, offset, length = rest[index]
                yield os.pread(fd, length, offset)
        finally:
            for proc, conn, out in workers:
                conn.close()
                out.close()
                if proc.is_alive():
                    proc.terminate()
                proc.join()


def save_dataset(ds: Dataset, path: str) -> None:
    """Write ``ds`` to ``path`` as canonical JSON, and its twin: the bags'
    concatenated features and boxes, each bag's proposal count, and the
    document without ``proposals``.  The bag records are encoded on every
    usable CPU and written as they come (``_encode_records``), so no string
    of the whole file is built; the bytes are those of ``dumps_canonical``
    of the whole document."""
    validate_dataset(ds)
    head = {"classes": list(ds.classes), "feature_dim": int(ds.feature_dim)}
    # "bags" sorts first, so the document is this opening, the records
    # joined by commas, and the rest of the document with no bags
    opening = b'{"bags":['
    records = _encode_records(ds.bags)

    def pieces(first):
        yield opening
        yield first
        for record in records:
            yield b","
            yield record
        yield dumps_canonical({**head, "bags": []}).encode()[len(opening) :]

    try:
        # the first record starts the workers, which encode while the twin's arrays are built
        write_twin(path, pieces(next(records)), {**head, "bags": [_bag_meta(b) for b in ds.bags]}, {
            "counts": np.array([b.num_proposals for b in ds.bags]),
            "features": np.concatenate([b.features for b in ds.bags]),
            "boxes": np.concatenate([b.boxes for b in ds.bags]),
        })
    finally:  # a failed write stops every worker
        records.close()


def _raise_malloc_thresholds() -> None:
    """Allocate and free one untouched 16 MB block.  glibc maps a block
    above its mmap threshold (128 KB at start), and freeing a mapped block
    of up to 32 MB raises that threshold to its size, so temporaries below
    it, such as a dense visit's ~210 KB or eval's NMS tables, are then
    reused from the heap, not mapped and zeroed anew on every call (without
    this, dense training took several times the minor page faults).  The
    block is never written, so it costs no resident memory."""
    np.empty(16 << 20, dtype=np.uint8)


def _dataset_from_twin(doc, arrays) -> Dataset:
    """The dataset of a twin's document and arrays; raises on any fault."""
    counts, features, boxes = arrays["counts"], arrays["features"], arrays["boxes"]
    if (counts.dtype.kind not in "iu" or not features.dtype == boxes.dtype == np.float64
            or not counts.sum() == len(features) == len(boxes)):
        raise DataError("twin arrays do not fit together")
    ends = np.cumsum(counts).tolist()
    # each bag's arrays are read-only slices of the loaded pair, not copies
    features.flags.writeable = boxes.flags.writeable = False
    return _dataset_from_doc(doc, [(features[a:b], boxes[a:b])
                                   for a, b in zip([0] + ends[:-1], ends)])


def open_dataset(path: str, use=lambda ds: ds):
    """``use(dataset)`` of the JSON file ``path``, the twin's dataset used while
    the hash runs and kept only if the twin is current (``jsonio.read_checked``)."""
    def parse() -> Dataset:
        try:
            doc = read_json(path)
        except ValueError as e:
            raise DataError(f"unreadable dataset {path}: {e}") from e
        return _dataset_from_doc(doc)

    return read_checked(path, _dataset_from_twin, parse, use)


def load_dataset(path: str) -> Dataset:
    """The dataset in the JSON file ``path``, from its twin when that is
    current, else from the JSON, after the same checks."""
    return open_dataset(path)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

# Near-object features carry the class prototype across its whole block;
# part features carry a larger amplitude on the first third of the block
# only.  The amplitude gap keeps per-proposal part scores competitive (the
# trap) while group-mean scores favor the near-object group.  The absolute
# scale of both amplitudes (and of the matching noise default) is kept low
# on purpose: it sets the SGD convergence speed, and the default 20-epoch
# schedule should still be descending in its final epochs rather than
# orbiting a long-converged optimum.
_NEAR_AMPLITUDE = 0.1575
_PART_AMPLITUDE = 0.225
# fraction of the object's width/height kept by the part anchor box
_PART_SCALE = 0.55
# corner jitter as a fraction of the anchor's side length.  Each corner
# moves by at most _JITTER x side, so any two jitters of one anchor overlap
# at IoU >= ((1 - 2J) / (1 + 2J)) ** 2 = (0.94 / 1.06) ** 2 ~ 0.786, so
# every near group and every part group is one clique under the default
# overlap threshold 0.7 with no pairwise check while sampling
_JITTER = 0.03
# [lo, hi) IoU with the object of near-object and part boxes
_NEAR_BAND = (0.7, math.inf)
_PART_BAND = (0.2, 0.5)


def _jittered(rng: np.random.Generator, anchor: Box, k: int) -> np.ndarray:
    """``k`` corner jitters of ``anchor`` as a (k, 4) array.  Row t of the
    one (k, 4) draw is try t's ``dx1, dx2, dy1, dy2``: the doubles, in the
    order, that two ``size=2`` draws per try give."""
    w = anchor.x2 - anchor.x1
    h = anchor.y2 - anchor.y1
    u = rng.uniform(-_JITTER, _JITTER, size=(k, 4))
    return np.column_stack([
        anchor.x1 + u[:, 0] * w,
        anchor.y1 + u[:, 2] * h,
        anchor.x2 + u[:, 1] * w,
        anchor.y2 + u[:, 3] * h,
    ])


def _on_canvas(boxes: np.ndarray) -> np.ndarray:
    x1, y1, x2, y2 = boxes.T
    return (x1 >= 0) & (y1 >= 0) & (x2 <= 1) & (y2 <= 1) & (x1 < x2) & (y1 < y2)


def _background_boxes(u: np.ndarray) -> np.ndarray:
    """Background boxes from (k, 4) uniform [0, 1) draws: sides in
    [0.08, 0.25), then a top-left corner that keeps the box on the canvas.
    Each coordinate is spelled as ``Generator.uniform``'s
    ``low + (high - low) * U``, so it equals the scalar draw bit for bit."""
    w = 0.08 + (0.25 - 0.08) * u[:, 0]
    h = 0.08 + (0.25 - 0.08) * u[:, 1]
    x1 = 0.0 + (1.0 - w) * u[:, 2]
    y1 = 0.0 + (1.0 - h) * u[:, 3]
    return np.column_stack([x1, y1, x1 + w, y1 + h])


def _accept_in_rounds(draw, count: int, failure) -> np.ndarray:
    """Rejection-sample ``count`` boxes, in order, from rounds of tries.

    ``draw(k)`` returns k tries as a (k, 4) array and the mask of those that
    pass.  A round draws no more tries than boxes are still needed, so the
    stream never runs past the try that accepts the last box.
    ``_MAX_TRIES`` misses in a row raise
    ``GenerationError(failure(boxes accepted so far))``.
    """
    boxes = np.empty((count, 4))
    n = misses = 0
    while n < count:
        tries, ok = draw(count - n)
        for t in range(len(tries)):
            if ok[t]:
                boxes[n] = tries[t]
                n += 1
                misses = 0
            else:
                misses += 1
                if misses == _MAX_TRIES:
                    raise GenerationError(failure(n))
    return boxes


def _sample_group(
    rng, anchor: Box, obj: np.ndarray, band, count: int, bag_id: str, kind: str
) -> np.ndarray:
    """Rejection-sample ``count`` jitters of ``anchor`` whose IoU with the
    object ``obj`` (a (1, 4) array) lies in ``band = (lo, hi)``.

    Tries come in blocks: a round draws the k tries it may still need as one
    (k, 4) uniform block, tests the whole block for the canvas and the band
    with ``iou_matrix`` (which does the scalar IoU's floating-point
    operations), and accepts tries in order.  The accepted boxes and the
    stream position are those of drawing and testing one try at a time.
    """
    lo, hi = band

    def draw(k):
        tries = _jittered(rng, anchor, k)
        with_obj = iou_matrix(tries, obj)[:, 0]
        return tries, _on_canvas(tries) & (lo <= with_obj) & (with_obj < hi)

    return _accept_in_rounds(
        draw, count, lambda n: f"bag '{bag_id}': could not place {kind} box {n}"
    )


def _sample_backgrounds(rng, obj: np.ndarray, count: int, bag_id: str) -> np.ndarray:
    """``count`` background boxes with IoU below 0.2 against ``obj``, in
    blocks of tries like ``_sample_group``."""

    def draw(k):
        tries = _background_boxes(rng.uniform(0.0, 1.0, size=(k, 4)))
        return tries, iou_matrix(tries, obj)[:, 0] < 0.2

    return _accept_in_rounds(
        draw, count, lambda n: f"bag '{bag_id}': could not place background box"
    )


def _proposal_counts(cfg: SynthConfig) -> tuple[int, int, int]:
    p = cfg.proposals_per_bag
    n_part = min(int(round(cfg.part_fraction * p)), p - 2)
    n_near = max(1, (p - n_part) // 3)
    return n_near, n_part, p - n_part - n_near


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Deterministically build the part-domination benchmark for ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.num_classes, cfg.feature_dim
    block = d // n  # per-class prototype support
    sub = max(1, block // 3)  # "discriminative part" sub-support
    n_near, n_part, n_bg = _proposal_counts(cfg)

    def noise(*shape) -> np.ndarray:
        return cfg.noise_sigma * rng.standard_normal(shape + (d,))

    bags: list[Bag] = []
    for cls in range(n):
        lo = cls * block
        for i in range(cfg.bags_per_class):
            bag_id = f"pos-c{cls}-{i:04d}"
            w, h = rng.uniform(0.25, 0.6, size=2)
            x1 = rng.uniform(0.0, 1.0 - w)
            y1 = rng.uniform(0.0, 1.0 - h)
            obj = Box(x1, y1, x1 + w, y1 + h)
            obj_box = np.array([obj.as_list()])
            part_anchor = Box(x1, y1, x1 + _PART_SCALE * w, y1 + _PART_SCALE * h)

            nears = _sample_group(rng, obj, obj_box, _NEAR_BAND, n_near - 1, bag_id, "near")
            parts = _sample_group(rng, part_anchor, obj_box, _PART_BAND, n_part, bag_id, "part")
            bgs = _sample_backgrounds(rng, obj_box, n_bg, bag_id)

            # rows: near-object boxes, then parts, then background
            features = noise(cfg.proposals_per_bag)
            features[:n_near, lo : lo + block] += _NEAR_AMPLITUDE
            features[n_near : n_near + n_part, lo : lo + sub] += _PART_AMPLITUDE

            labels = np.zeros(n, dtype=int)
            labels[cls] = 1
            bags.append(
                Bag(
                    id=bag_id,
                    labels=labels,
                    features=features,
                    boxes=np.concatenate([obj_box, nears, parts, bgs]),
                    ground_truth=[(cls, obj)],
                )
            )

    for i in range(cfg.negatives):
        bag_id = f"neg-{i:04d}"
        # each box's draw comes before its feature's, so the two interleave in
        # rng; the ziggurat's variable use of the stream keeps this a loop
        draws = np.empty((cfg.proposals_per_bag, 4))
        features = np.empty((cfg.proposals_per_bag, d))
        for j in range(cfg.proposals_per_bag):
            draws[j] = rng.uniform(0.0, 1.0, size=4)
            features[j] = noise()
        bags.append(
            Bag(
                id=bag_id,
                labels=np.zeros(n, dtype=int),
                features=features,
                boxes=_background_boxes(draws),
            )
        )

    ds = Dataset(classes=[f"class-{c}" for c in range(n)], feature_dim=d, bags=bags)
    validate_dataset(ds)
    return ds
