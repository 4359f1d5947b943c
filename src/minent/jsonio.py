"""Canonical JSON read/write helpers.

All persisted files (datasets, checkpoints, metrics) go through these so
that a fixed object always serializes to identical bytes: keys sorted,
compact separators, floats at full round-trip precision, trailing newline.
Writes are atomic (temp file in the target directory, then rename).
``canonical_pieces`` streams a document.  ``write_twin`` writes a JSON file
with its binary twin, and ``read_checked`` reads it back, for datasets and
checkpoints alike: the twin is used only if it holds the JSON's SHA-256 and
exactly the tables it declares, else the JSON is parsed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import secrets
import threading
import warnings
from collections.abc import Iterator

import numpy as np

TWIN_SUFFIX = ".npz"  # the twin of JSON file ``path`` is ``path + TWIN_SUFFIX``


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_atomic(path: str, write) -> None:
    """Atomically create or replace ``path``: ``write(f)`` fills a binary
    temp file in the target directory, which is then renamed onto ``path``.
    Its mode is 0o666 less the umask.  An OSError names ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # only a file this call created is removed on failure
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, path) from e
        raise


def _pieces(obj):
    """``canonical_pieces(obj)`` less its newline."""
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield b"{"
        for i, key in enumerate(sorted(obj)):
            yield (("," if i else "") + json.dumps(key) + ":").encode()
            yield from _pieces(obj[key])
        yield b"}"
    elif getattr(obj, "ndim", 0) > 1 or isinstance(obj, Iterator):
        yield b"["
        for i, item in enumerate(obj):
            yield b"," if i else b""
            yield from _pieces(item)
        yield b"]"
    elif isinstance(obj, bytes):  # already encoded
        yield obj
    else:
        yield dumps_canonical(obj.tolist() if hasattr(obj, "tolist") else obj)[:-1].encode()


def canonical_pieces(obj):
    """The bytes of ``dumps_canonical(obj)`` in pieces, a numpy array as its
    ``tolist()`` and an iterator of encoded JSON items as their array.  A dict
    with string keys comes key by key, an array of two or more dimensions row
    by row, an iterator item by item, and anything else whole."""
    yield from _pieces(obj)
    yield b"\n"


def write_json(obj, path: str) -> None:
    """Atomically write ``obj`` to ``path`` as canonical JSON, written piece
    by piece (``canonical_pieces``)."""
    write_atomic(path, lambda f: f.writelines(canonical_pieces(obj)))


def _encoded(obj) -> np.ndarray:
    return np.frombuffer(dumps_canonical(obj).encode(), dtype=np.uint8)


def write_twin(path: str, pieces, doc: dict, tables: dict) -> None:
    """Atomically write the bytes ``pieces`` to ``path``, then its twin: an
    archive of their SHA-256 (taken as written), ``doc`` as canonical JSON,
    the member ``tables`` that declares each named table's array names and
    shapes, and each table (a dict of float arrays) flattened in sorted name
    order as a member of its own.  The tables are flattened before the first
    piece is taken; the JSON goes first, so a failed write leaves no twin."""
    tables = {key: dict(sorted(t.items())) for key, t in tables.items()}
    shapes = {key: {name: a.shape for name, a in t.items()} for key, t in tables.items()}
    flat = {key: np.concatenate([np.empty(0)] + [a.ravel() for a in t.values()])
            for key, t in tables.items()}
    sha256 = hashlib.sha256()

    def hashed():
        for piece in pieces:
            sha256.update(piece)
            yield piece

    write_atomic(path, lambda f: f.writelines(hashed()))
    write_atomic(path + TWIN_SUFFIX, lambda f: np.savez(
        f, sha256=np.array(sha256.hexdigest()), doc=_encoded(doc), tables=_encoded(shapes), **flat))


def _built(twin: str, build):
    """``(sha256, build(doc, tables))`` of the archive ``twin``, each table it
    declares as read-only slices of its flat member.  Raises on any fault,
    such as a declared table without a member or a member not declared."""
    # opened here, not by np.load, so a malformed archive closes it too
    with open(twin, "rb") as zf, np.load(zf, allow_pickle=False) as z:
        sha256 = str(z["sha256"])
        doc, shapes = (json.loads(z[key].tobytes()) for key in ("doc", "tables"))
        if set(z.files) != {"sha256", "doc", "tables", *shapes}:
            raise ValueError("the archive's members are not the tables it declares")
        flat = {key: z[key] for key in shapes}
    tables = {}
    for key, member in flat.items():
        ends = list(itertools.accumulate((math.prod(s) for s in shapes[key].values()), initial=0))
        if member.dtype != np.float64 or member.shape != (ends[-1],):
            raise ValueError(f"table '{key}' does not fit its shapes")
        member.flags.writeable = False
        tables[key] = {name: member[a:b].reshape(shape)
                       for (name, shape), a, b in zip(shapes[key].items(), ends, ends[1:])}
    return sha256, build(doc, tables)


def read_checked(path: str, what: str, error: type[Exception], build, use=lambda obj: obj):
    """``use(obj)``, where ``obj`` is ``build(doc, tables)`` of the twin of
    the JSON file ``path`` if the twin holds the JSON's SHA-256, else
    ``build(doc, None)`` of the parsed JSON.  A file that does not parse
    raises ``error("unreadable <what> PATH: ...")``.  A second thread hashes
    the JSON while the twin is read, built and used; that pass's result,
    exception and warnings count only if the twin is current.  Else it is
    dropped and freed, and the JSON is parsed, built and used."""
    def parse():
        try:
            doc = read_json(path)
        except ValueError as e:
            raise error(f"unreadable {what} {path}: {e}") from e
        return build(doc, None)

    twin = path + TWIN_SUFFIX
    if not os.path.isfile(twin):
        return use(parse())
    digest, faults = hashlib.sha256(), []

    def hash_json(f, block) -> None:
        try:
            while n := f.readinto(block):
                digest.update(block[:n])
        except OSError as e:  # kept, not raised: the JSON path reports it
            faults.append(e)

    obj = result = fault = sha256 = None
    # opened here, so that a missing JSON raises before the twin is opened.  So
    # is the buffer: allocated in the thread, it raised dense eval's peak RSS.
    # 256 KB blocks made quickstart slower (the thread takes the GIL per block),
    # and a block larger than a small file raised quickstart eval's peak RSS.
    with open(path, "rb", buffering=0) as f:
        size = min(1 << 20, os.fstat(f.fileno()).st_size)
        hasher = threading.Thread(target=hash_json, args=(f, memoryview(bytearray(size))))
        hasher.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                try:  # a fault in the twin leaves sha256 None: the JSON is parsed
                    sha256, obj = _built(twin, build)
                    result = use(obj)
                except Exception as e:
                    fault = e
        finally:  # an interrupt, too, joins the hash thread before the JSON closes
            hasher.join()
    if not faults and digest.hexdigest() == sha256:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if fault is not None:
            raise fault
        return result
    del obj, result, fault, caught  # the stale pass, freed before the JSON is parsed
    return use(parse())


def read_json(path: str):
    with open(path) as f:
        return json.load(f)
