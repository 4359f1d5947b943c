"""Span tracer that instruments minent from outside the package.

``Tracer.install`` replaces every public module-level function that a
minent module defines with a wrapper, at each module global that binds it
(``minent.trainer.partition_cliques``, ``minent.evaluate.nms``,
``minent.cli.load_dataset`` ...), because that is the name its caller looks
it up by.  Two per-bag array builders are wrapped on their class.  Each
wrapper records one span ``(name, start, end, parent)``; a few also record
exact work counts computed from the call's arguments and return value.
``Tracer.uninstall`` puts every original object back.

Not wrapped, on purpose:

* functions defined in ``minent.cli``: the benchmark opens one root span
  ``cli.<command>`` around ``cli.main``, and that span's self time is the
  cli layer (argument parsing and command glue);
* ``geometry.iou``: a scalar helper that generation calls once per box pair,
  millions of times per dataset; its wrapper would cost more than its body,
  so its time stays in ``data.generate_synthetic``.

Spans are kept in memory; ``summarize`` turns them into per-function calls,
total time and self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "data", "jsonio", "geometry", "model", "entropy", "trainer", "evaluate")
SKIP = {"geometry.iou"}
METHODS = (("data", "Bag", "feature_matrix"), ("data", "Bag", "box_array"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_partition(counts, args, kwargs, ret):
    n = len(ret.pool)
    counts["entropy.partition_cliques.iou_cells"] += n * n
    counts["entropy.partition_cliques.pooled"] += n
    counts["entropy.partition_cliques.cliques"] += len(ret.cliques)


def _head_width(params):
    return params.hidden_dim or params.feature_dim


def _count_forward(counts, args, kwargs, ret):
    # a multiply-add is two flops
    params = _arg(args, kwargs, 0, "params")
    p = len(_arg(args, kwargs, 1, "features"))
    flops = 2 * p * _head_width(params) * params.num_classes
    if params.hidden_dim:
        flops += 2 * p * params.feature_dim * params.hidden_dim
    counts["model.flops"] += flops


def _count_backward(counts, args, kwargs, ret):
    params = _arg(args, kwargs, 0, "params")
    p = len(_arg(args, kwargs, 1, "features"))
    d, h, n = params.feature_dim, params.hidden_dim, params.num_classes
    flops = 2 * p * _head_width(params) * n  # x.T @ upstream
    if h:
        # hidden forward recomputed, upstream @ w.T, features.T @ gx
        flops += 2 * p * d * h + 2 * p * n * h + 2 * p * d * h
    counts["model.flops"] += flops


def _count_load_dataset(counts, args, kwargs, ret):
    counts["data.dataset_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))
    counts["data.load_dataset.bags"] = len(ret.bags)


def _count_save_dataset(counts, args, kwargs, ret):
    counts["data.dataset_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_save_checkpoint(counts, args, kwargs, ret):
    counts["trainer.ckpt_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_load_checkpoint(counts, args, kwargs, ret):
    counts["trainer.ckpt_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "entropy.partition_cliques": _count_partition,
    "model.forward": _count_forward,
    "model.backward_head": _count_backward,
    "data.load_dataset": _count_load_dataset,
    "data.save_dataset": _count_save_dataset,
    "trainer.save_checkpoint": _count_save_checkpoint,
    "trainer.load_checkpoint": _count_load_checkpoint,
}


def minent_modules():
    """The imported minent package and its modules, by name."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "minent" or name.startswith("minent."))
    }


def targets():
    """``{original function: span name}`` for every function to wrap."""
    found = {}
    for layer in LAYERS:
        if layer == "cli":
            continue
        mod = sys.modules[f"minent.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)
            ):
                span_name = f"{layer}.{name}"
                if span_name not in SKIP:
                    found[obj] = span_name
    return found


def span_names() -> list[str]:
    """Every span name the tracer can record, apart from the root spans."""
    names = set(targets().values())
    names.update(f"{layer}.{cls}.{meth}" for layer, cls, meth in METHODS)
    return sorted(names)


class Tracer:
    """Records spans while installed; collect them with ``summarize``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, ret)
            return ret

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets().items()}
        for mod in minent_modules().values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"minent.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str):
        """A span the benchmark opens itself, e.g. ``cli.train``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered[i]
    return table
