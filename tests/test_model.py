import numpy as np
import pytest

from minent.model import ModelParams, backward_head, forward, hidden_layer, init_params


def test_init_zero_scale_gives_zero_weights():
    p = init_params(feature_dim=4, num_classes=3, branches=2, seed=0, scale=0.0)
    assert not p.disc_w.any()
    assert all(not w.any() for w in p.loc_w)
    assert not p.disc_b.any()


def test_init_deterministic():
    a = init_params(5, 2, 3, seed=42)
    b = init_params(5, 2, 3, seed=42)
    for (na, aa), (nb, ab) in zip(a.named_arrays(), b.named_arrays()):
        assert na == nb
        np.testing.assert_array_equal(aa, ab)


def test_init_seed_changes_weights():
    a = init_params(5, 2, 1, seed=1)
    b = init_params(5, 2, 1, seed=2)
    assert not np.array_equal(a.disc_w, b.disc_w)


@pytest.mark.parametrize("kw", [
    {"feature_dim": 0, "num_classes": 2, "branches": 1},
    {"feature_dim": 3, "num_classes": 0, "branches": 1},
    {"feature_dim": 3, "num_classes": 2, "branches": 0},
    {"feature_dim": 3, "num_classes": 2, "branches": 1, "hidden_dim": -1},
])
def test_init_rejects_bad_dims(kw):
    with pytest.raises(ValueError):
        init_params(**kw)


def test_forward_zero_params_zero_scores():
    p = init_params(4, 2, 1, scale=0.0)
    x = np.random.default_rng(0).normal(size=(6, 4))
    np.testing.assert_array_equal(forward(p, x, "disc"), np.zeros((6, 2)))


def test_forward_identity_head_selects_coordinates():
    # linear model whose head weights pick out feature coordinates 1 and 3
    p = init_params(4, 2, 1, scale=0.0)
    p.disc_w[1, 0] = 1.0
    p.disc_w[3, 1] = 1.0
    x = np.arange(8.0).reshape(2, 4)
    s = forward(p, x, "disc")
    np.testing.assert_array_equal(s[:, 0], x[:, 1])
    np.testing.assert_array_equal(s[:, 1], x[:, 3])


def test_forward_matches_manual_dot_products():
    rng = np.random.default_rng(3)
    p = init_params(6, 3, 2, seed=5, scale=0.5)
    x = rng.normal(size=(4, 6))
    for head in ("disc", 0, 1):
        got = forward(p, x, head)
        if head == "disc":
            w, b = p.disc_w, p.disc_b
        else:
            w, b = p.loc_w[head], p.loc_b[head]
        want = np.array([[xi @ w[:, c] + b[c] for c in range(3)] for xi in x])
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_forward_hidden_layer_rectifies():
    p = init_params(3, 2, 1, hidden_dim=4, seed=7, scale=1.0)
    x = np.random.default_rng(1).normal(size=(5, 3))
    z = x @ p.hidden_w + p.hidden_b
    want = np.maximum(z, 0.0) @ p.disc_w + p.disc_b
    np.testing.assert_allclose(forward(p, x, "disc"), want, rtol=1e-12)


def test_forward_rejects_bad_width():
    p = init_params(4, 2, 1)
    with pytest.raises(ValueError):
        forward(p, np.zeros((3, 5)), "disc")


def test_forward_rejects_unknown_head():
    p = init_params(4, 2, 2)
    with pytest.raises(ValueError):
        forward(p, np.zeros((1, 4)), "mystery")
    with pytest.raises(ValueError):
        forward(p, np.zeros((1, 4)), 2)


def test_backward_zero_upstream():
    p = init_params(4, 2, 1, seed=0, scale=0.3)
    x = np.random.default_rng(2).normal(size=(3, 4))
    grads = backward_head(p, x, "disc", np.zeros((3, 2)))
    assert not grads["disc_w"].any()
    assert not grads["disc_b"].any()


def test_backward_single_proposal_outer_product():
    p = init_params(3, 2, 1, seed=1, scale=0.2)
    x = np.array([[1.0, -2.0, 0.5]])
    up = np.array([[0.7, -0.1]])
    grads = backward_head(p, x, "disc", up)
    np.testing.assert_allclose(grads["disc_w"], np.outer(x[0], up[0]), rtol=1e-12)
    np.testing.assert_allclose(grads["disc_b"], up[0], rtol=1e-12)


def _fd_check(params, x, head, upstream, rel_tol=1e-5):
    """Central finite differences of sum(upstream * forward) on every parameter."""
    grads = backward_head(params, x, head, upstream)
    eps = 1e-6
    for name, arr in params.named_arrays():
        if name not in grads:
            continue
        num = np.zeros_like(arr)
        flat = arr.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float((upstream * forward(params, x, head)).sum())
            flat[i] = orig - eps
            lo = float((upstream * forward(params, x, head)).sum())
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
        denom = max(np.abs(num).max(), 1e-8)
        assert np.abs(grads[name] - num).max() / denom < rel_tol, name


def test_backward_matches_finite_differences_linear():
    rng = np.random.default_rng(10)
    for trial in range(20):
        d, n, b = rng.integers(2, 8), rng.integers(1, 4), rng.integers(1, 3)
        p = init_params(int(d), int(n), int(b), seed=int(trial), scale=0.5)
        x = rng.normal(size=(int(rng.integers(1, 6)), int(d)))
        up = rng.normal(size=(x.shape[0], int(n)))
        head = "disc" if rng.random() < 0.5 else int(rng.integers(0, b))
        _fd_check(p, x, head, up)


def test_backward_matches_finite_differences_hidden():
    rng = np.random.default_rng(11)
    for trial in range(10):
        d, n, h = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        p = init_params(d, n, 2, hidden_dim=h, seed=100 + trial, scale=0.5)
        # keep pre-activations away from the rectifier kink
        x = rng.normal(size=(3, d)) + 0.5
        up = rng.normal(size=(3, n))
        z = x @ p.hidden_w + p.hidden_b
        if np.abs(z).min() < 1e-3:
            continue
        head = int(rng.integers(0, 2))
        _fd_check(p, x, head, up)
        grads = backward_head(p, x, head, up)
        assert "hidden_w" in grads and "hidden_b" in grads


def test_named_arrays_order():
    p = init_params(3, 2, 2, hidden_dim=4, seed=0)
    names = [n for n, _ in p.named_arrays()]
    assert names == ["hidden_w", "hidden_b", "disc_w", "disc_b",
                     "loc_w.0", "loc_b.0", "loc_w.1", "loc_b.1"]
    assert [a for _, a in p.named_arrays()][-2] is p.loc_w[1]


def test_views_of_a_flat_vector_follow_named_arrays():
    for hidden_dim in (0, 4):
        p = init_params(3, 2, 2, hidden_dim=hidden_dim, seed=0)
        flat = np.concatenate([a.ravel() for _, a in p.named_arrays()])
        views = p.on(flat)
        for (name, arr), (view_name, view) in zip(p.named_arrays(), views.named_arrays()):
            assert name == view_name and np.array_equal(arr, view)
            assert np.shares_memory(view, flat)
        assert views.hidden_dim == hidden_dim and views.branches == 2
        flat += 1.0
        assert np.array_equal(views.disc_w, p.disc_w + 1.0)


def test_one_hidden_pass_serves_every_head():
    rng = np.random.default_rng(12)
    p = init_params(4, 3, 2, hidden_dim=5, seed=3, scale=0.5)
    x = rng.normal(size=(6, 4))
    hidden = hidden_layer(p, x)
    into = dict(p.on(np.full(sum(a.size for _, a in p.named_arrays()), -0.0)).named_arrays())
    want_hidden = 0.0
    for head in ("disc", 0, 1):
        assert np.array_equal(forward(p, x, head, hidden=hidden), forward(p, x, head))
        up = rng.normal(size=(6, 3))
        grads = backward_head(p, x, head, up, hidden=hidden, into=into)
        plain = backward_head(p, x, head, up)
        assert grads.keys() == plain.keys()
        assert all(np.array_equal(grads[k], plain[k]) for k in plain)
        want_hidden = want_hidden + plain["hidden_w"]
    assert np.array_equal(into["hidden_w"], want_hidden)
    assert np.array_equal(into["loc_w.1"], plain["loc_w.1"])


def test_validate_catches_nonfinite_and_bad_shape():
    p = init_params(3, 2, 1)
    p.validate()
    p.disc_w[0, 0] = np.nan
    with pytest.raises(ValueError, match="disc_w"):
        p.validate()
    q = init_params(3, 2, 1)
    q.loc_w[0] = np.zeros((5, 2))
    with pytest.raises(ValueError, match="loc_w.0"):
        q.validate()
