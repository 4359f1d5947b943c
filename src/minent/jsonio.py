"""Canonical JSON read/write helpers.

All persisted files (datasets, checkpoints, metrics) go through these so
that a fixed object always serializes to identical bytes: keys sorted,
compact separators, floats at full round-trip precision, trailing newline.
Writes are atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import itertools
import json
import os
import secrets


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


def write_json(obj, path: str) -> None:
    """Atomically write ``obj`` to ``path`` as canonical JSON, the bytes of
    ``dumps_canonical(obj)`` with a numpy array (``obj`` or a dict's value)
    as its ``tolist()``, encoded and written piece by piece."""
    pieces = itertools.chain(_pieces(obj), ["\n"])
    write_atomic(path, lambda f: f.writelines(piece.encode() for piece in pieces))


def read_json(path: str):
    with open(path) as f:
        return json.load(f)
