"""Scoring heads over proposal features.

A model is one optional shared hidden layer (linear + rectifier) followed
by one discovery head and ``branches`` localization heads, each a linear
map to per-class scores.  The default configuration has no hidden layer,
so every head is a plain linear classifier — gradients are exact and the
whole parameter set stays inspectable.

Heads are addressed by name: ``"disc"`` for the discovery head, or an
integer branch index (0-based) for a localization head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ModelParams:
    feature_dim: int
    num_classes: int
    hidden_w: np.ndarray | None  # (D, H) or None for linear heads
    hidden_b: np.ndarray | None  # (H,)
    disc_w: np.ndarray  # (D or H, N)
    disc_b: np.ndarray  # (N,)
    loc_w: list[np.ndarray] = field(default_factory=list)  # B of (D or H, N)
    loc_b: list[np.ndarray] = field(default_factory=list)  # B of (N,)

    @property
    def branches(self) -> int:
        return len(self.loc_w)

    @property
    def hidden_dim(self) -> int:
        return 0 if self.hidden_w is None else self.hidden_w.shape[1]

    def named_arrays(self):
        """Deterministically ordered (name, array) pairs over all parameters."""
        if self.hidden_w is not None:
            yield "hidden_w", self.hidden_w
            yield "hidden_b", self.hidden_b
        yield "disc_w", self.disc_w
        yield "disc_b", self.disc_b
        for k in range(self.branches):
            yield f"loc_w.{k}", self.loc_w[k]
            yield f"loc_b.{k}", self.loc_b[k]

    def on(self, flat: np.ndarray) -> ModelParams:
        """These shapes as consecutive views of ``flat``, in ``named_arrays`` order."""
        arrays = [arr for _, arr in self.named_arrays()]
        ends = np.cumsum([arr.size for arr in arrays]).tolist()
        views = [flat[a:b].reshape(arr.shape) for arr, a, b in zip(arrays, [0] + ends, ends)]
        hidden, heads = (views[:2], views[2:]) if self.hidden_w is not None else ([None] * 2, views)
        return ModelParams(self.feature_dim, self.num_classes, *hidden, *heads[:2],
                           heads[2::2], heads[3::2])

    def validate(self) -> None:
        width = self.hidden_dim or self.feature_dim
        for name, arr in self.named_arrays():
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter '{name}' has non-finite entries")
            if name.startswith("hidden"):
                want = (self.feature_dim, width) if name == "hidden_w" else (width,)
            else:
                want = (width, self.num_classes) if "_w" in name else (self.num_classes,)
            if arr.shape != want:
                raise ValueError(f"{name} shape {arr.shape} != {want}")


def init_params(
    feature_dim: int,
    num_classes: int,
    branches: int,
    hidden_dim: int = 0,
    seed: int = 0,
    scale: float = 0.01,
) -> ModelParams:
    """Uniform[-scale, scale] weights, zero biases, deterministic per seed."""
    if feature_dim < 1 or num_classes < 1 or branches < 1:
        raise ValueError(
            f"dims must be positive: feature_dim={feature_dim}, "
            f"num_classes={num_classes}, branches={branches}"
        )
    if hidden_dim < 0:
        raise ValueError(f"hidden_dim must be >= 0, got {hidden_dim}")
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-scale, scale, size=shape)

    width = hidden_dim if hidden_dim else feature_dim
    hidden_w = draw(feature_dim, hidden_dim) if hidden_dim else None
    hidden_b = np.zeros(hidden_dim) if hidden_dim else None
    loc_w = [draw(width, num_classes) for _ in range(branches)]
    return ModelParams(
        feature_dim=feature_dim,
        num_classes=num_classes,
        hidden_w=hidden_w,
        hidden_b=hidden_b,
        disc_w=draw(width, num_classes),
        disc_b=np.zeros(num_classes),
        loc_w=loc_w,
        loc_b=[np.zeros(num_classes) for _ in range(branches)],
    )


def _head_arrays(params: ModelParams, head) -> tuple[np.ndarray, np.ndarray, str, str]:
    """The selected head's weight and bias, and their ``named_arrays`` names."""
    if head == "disc":
        return params.disc_w, params.disc_b, "disc_w", "disc_b"
    if isinstance(head, int):
        if not 0 <= head < params.branches:
            raise ValueError(f"branch index {head} out of range [0, {params.branches})")
        return params.loc_w[head], params.loc_b[head], f"loc_w.{head}", f"loc_b.{head}"
    raise ValueError(f"unknown head selector: {head!r}")


def hidden_layer(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The heads' shared input x and the hidden pre-activation z (None
    without a hidden layer): one call serves every head on these parameters."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise ValueError(
            f"features must be (num_proposals, {params.feature_dim}), got {features.shape}"
        )
    if params.hidden_w is None:
        return features, None
    z = features @ params.hidden_w + params.hidden_b
    return np.maximum(z, 0.0), z


def forward(params: ModelParams, features: np.ndarray, head, *, hidden=None) -> np.ndarray:
    """Per-proposal, per-class raw scores for the selected head.  ``hidden``
    is ``hidden_layer(params, features)``, if the caller has it."""
    w, b, _, _ = _head_arrays(params, head)
    x, _ = hidden_layer(params, features) if hidden is None else hidden
    return x @ w + b


def backward_head(
    params: ModelParams, features: np.ndarray, head, upstream: np.ndarray, *,
    hidden=None, into: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Gradients of sum(upstream * scores) with respect to the parameters
    that feed the selected head.

    Returns a dict keyed like ``named_arrays`` names; heads other than the
    selected one are absent, and the shared hidden layer's keys appear for
    every head.  ``hidden`` is as in ``forward``.  Each gradient is also
    added to the array of its name in ``into``, if given.
    """
    upstream = np.asarray(upstream, dtype=float)
    w, _, w_key, b_key = _head_arrays(params, head)
    x, z = hidden_layer(params, features) if hidden is None else hidden
    if upstream.shape != (x.shape[0], params.num_classes):
        raise ValueError(
            f"upstream must be (num_proposals, {params.num_classes}), got {upstream.shape}"
        )
    grads = {w_key: x.T @ upstream, b_key: upstream.sum(axis=0)}
    if params.hidden_w is not None:
        gx = (upstream @ w.T) * (z > 0.0)
        grads["hidden_w"] = np.asarray(features, dtype=float).T @ gx
        grads["hidden_b"] = gx.sum(axis=0)
    if into is not None:
        for name, g in grads.items():
            into[name] += g
    return grads
