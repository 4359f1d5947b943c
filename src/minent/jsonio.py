"""Canonical JSON read/write helpers.

All persisted files (datasets, checkpoints, metrics) go through these so
that a fixed object always serializes to identical bytes: keys sorted,
compact separators, floats at full round-trip precision, trailing newline.
Writes are atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_atomic(path: str, write) -> None:
    """Atomically create or replace ``path``: ``write(f)`` fills a binary
    temp file in the target directory, which is then renamed onto ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(obj, path: str) -> None:
    """Atomically write ``obj`` to ``path`` as canonical JSON."""
    data = dumps_canonical(obj).encode()
    write_atomic(path, lambda f: f.write(data))


def read_json(path: str):
    with open(path) as f:
        return json.load(f)
