"""Canonical JSON read/write helpers.

All persisted files (datasets, checkpoints, metrics) go through these so
that a fixed object always serializes to identical bytes: keys sorted,
compact separators, floats at full round-trip precision, trailing newline.
Writes are atomic (temp file in the target directory, then rename).
``read_checked`` is the one rule for a file with a binary twin (``write_twin``):
use the twin only if it holds the JSON's SHA-256, else parse the JSON.
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
    """``dumps_canonical(obj)`` less its newline, in pieces: a dict with
    string keys is written key by key, a numpy array of two or more
    dimensions row by row, and anything else whole, an array as its
    ``tolist()``.  No piece holds more than one row of an array."""
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _pieces(obj[key])
        yield "}"
    elif getattr(obj, "ndim", 0) > 1:
        yield "["
        for i, row in enumerate(obj):
            yield "," if i else ""
            yield from _pieces(row)
        yield "]"
    else:
        yield dumps_canonical(obj.tolist() if hasattr(obj, "tolist") else obj)[:-1]


def write_json(obj, path: str, twin=()) -> None:
    """Atomically write ``obj`` to ``path`` as canonical JSON, the bytes of
    ``dumps_canonical(obj)`` with a numpy array (``obj`` or a dict's value)
    as its ``tolist()``, encoded and written piece by piece.  ``twin`` names
    keys of ``obj`` whose tables of arrays ``write_twin`` stores as arrays."""
    pieces = (piece.encode() for piece in itertools.chain(_pieces(obj), ["\n"]))
    if twin:
        rest = {key: value for key, value in obj.items() if key not in twin}
        return write_twin(path, pieces, rest, {key: obj[key] for key in twin})
    write_atomic(path, lambda f: f.writelines(pieces))


def write_twin(path: str, pieces, doc: dict, arrays: dict) -> None:
    """Atomically write the bytes ``pieces`` to ``path``, then its twin: an
    archive of their SHA-256 (taken as written), ``doc`` as canonical JSON
    and the named ``arrays``, a table (a dict of float arrays) as one flat
    array in sorted name order with its names and shapes in ``doc``.  The
    JSON goes first, so a failed write leaves no twin behind."""
    sha256 = hashlib.sha256()

    def hashed():
        for piece in pieces:
            sha256.update(piece)
            yield piece

    write_atomic(path, lambda f: f.writelines(hashed()))
    tables = {key: dict(sorted(t.items())) for key, t in arrays.items() if isinstance(t, dict)}
    doc = {**doc, **{key: {name: a.shape for name, a in t.items()} for key, t in tables.items()}}
    arrays = {**arrays, **{key: np.concatenate([np.empty(0)] + [a.ravel() for a in t.values()])
                           for key, t in tables.items()}}
    write_atomic(path + TWIN_SUFFIX, lambda f: np.savez(
        f, sha256=np.array(sha256.hexdigest()),
        doc=np.frombuffer(dumps_canonical(doc).encode(), dtype=np.uint8), **arrays))


def _built(twin: str, build):
    """``(sha256, build(doc, arrays))`` of the archive ``twin``, each table back
    in ``doc``; raises on any fault.  ``doc`` and ``arrays`` die with the frame."""
    # opened here, not by np.load, so a malformed archive closes it too
    with open(twin, "rb") as zf, np.load(zf, allow_pickle=False) as z:
        sha256 = str(z["sha256"])
        doc = json.loads(z["doc"].tobytes())
        arrays = {name: z[name] for name in z.files if name not in ("sha256", "doc")}
    for key in doc.keys() & arrays.keys():  # the tables
        flat, shapes = arrays.pop(key), doc[key]
        sizes = [math.prod(shape) for shape in shapes.values()]
        if flat.dtype != np.float64 or flat.shape != (sum(sizes),):
            raise ValueError(f"table '{key}' does not fit its shapes")
        parts = np.split(flat, np.cumsum(sizes[:-1], dtype=int))
        doc[key] = {name: a.reshape(shape) for (name, shape), a in zip(shapes.items(), parts)}
    return sha256, build(doc, arrays)


def read_checked(path: str, build, parse, use=lambda obj: obj):
    """``use(obj)``, where ``obj`` is ``build(doc, arrays)`` of the twin of
    the JSON file ``path`` if the twin holds the JSON's SHA-256, else
    ``parse()``.  A second thread hashes the JSON while the twin is read,
    built and used; that pass's result, exception and warnings count only if
    the twin is current.  Else it is dropped and freed, and ``use(parse())`` runs."""
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
