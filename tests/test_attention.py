"""Unit tests for the reference forgetting-attention path.

The gradient tests use a local central-difference oracle written directly in
this file so the hand-derived backward is checked against independent code.
"""

import numpy as np
import pytest

from foxattn.attention import (
    AttentionGrads,
    AttentionInputs,
    attention_scores,
    decay_bias,
    fgattn_bwd,
    fgattn_fwd,
    fixed_gate_from_alibi_slope,
    rope_apply,
    rope_unapply,
)
from foxattn.errors import ShapeError
from foxattn.kernels import neg_inf


def _rand_inputs(rng, n, d, dtype=np.float64, scale=None):
    q = rng.normal(size=(n, d)).astype(dtype)
    k = rng.normal(size=(n, d)).astype(dtype)
    v = rng.normal(size=(n, d)).astype(dtype)
    # keep gates strictly inside the domain so perturbations stay valid
    logf = (-0.05 - np.abs(rng.normal(size=n))).astype(dtype)
    return AttentionInputs(q=q, k=k, v=v, logf=logf, scale=scale)


def test_decay_bias_frozen():
    # f = [1, 1/2, 1/4] -> c = [0, -ln2, -ln8]
    logf = np.log(np.array([1.0, 0.5, 0.25]))
    bias = decay_bias(logf)
    np.testing.assert_allclose(bias.c, [0.0, -np.log(2.0), -np.log(8.0)], atol=1e-15)
    expected = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.125, 0.25, 1.0]])
    got = np.exp(bias.d)
    got[bias.d == neg_inf(bias.d.dtype)] = 0.0
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_decay_bias_upper_triangle_masked():
    bias = decay_bias(np.array([-0.3, -0.1, -0.7, -0.2]))
    s = neg_inf(bias.d.dtype)
    for i in range(4):
        for j in range(4):
            assert (bias.d[i, j] == s) == (j > i)


def test_decay_bias_rejects_positive_logf():
    with pytest.raises(ValueError):
        decay_bias(np.array([0.0, 0.1]))


def test_two_step_average_frozen():
    # equal logits by construction (q = k = 0), v = [1, 2], f_2 = 1/2:
    # o_2 = (0.5 * 1 + 1 * 2) / (0.5 + 1) = 5/3
    inp = AttentionInputs(
        q=np.zeros((2, 1)),
        k=np.zeros((2, 1)),
        v=np.array([[1.0], [2.0]]),
        logf=np.log(np.array([1.0, 0.5])),
    )
    o = fgattn_fwd(inp)
    np.testing.assert_allclose(o[0, 0], 1.0, atol=1e-15)
    np.testing.assert_allclose(o[1, 0], 5.0 / 3.0, atol=1e-15)


def test_single_position_passthrough():
    rng = np.random.default_rng(0)
    inp = _rand_inputs(rng, 1, 4)
    np.testing.assert_allclose(fgattn_fwd(inp), inp.v, atol=1e-15)


def test_no_gate_reduces_to_causal_softmax():
    """logf = 0 must reproduce ordinary causal softmax attention.

    The oracle below is built independently: explicit -inf masking and a
    textbook softmax, no shared code with the implementation.
    """
    rng = np.random.default_rng(1)
    for _ in range(10):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(n, d))
        v = rng.normal(size=(n, d))
        inp = AttentionInputs(q=q, k=k, v=v, logf=np.zeros(n))

        s = (q @ k.T) / np.sqrt(d)
        s[np.triu_indices(n, k=1)] = -np.inf
        with np.errstate(over="ignore"):
            e = np.exp(s - s.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(fgattn_fwd(inp), p @ v, atol=1e-12)


def test_fixed_gate_matches_linear_distance_bias():
    """A constant gate log f = -m equals an additive -m(i-j) score bias."""
    rng = np.random.default_rng(2)
    m = 0.35
    n, d = 7, 3
    q = rng.normal(size=(n, d))
    k = rng.normal(size=(n, d))
    v = rng.normal(size=(n, d))
    inp = AttentionInputs(q=q, k=k, v=v, logf=np.full(n, fixed_gate_from_alibi_slope(m)))

    idx = np.arange(n)
    s = (q @ k.T) / np.sqrt(d) - m * (idx[:, None] - idx[None, :])
    s[np.triu_indices(n, k=1)] = -np.inf
    with np.errstate(over="ignore"):
        e = np.exp(s - s.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(fgattn_fwd(inp), p @ v, atol=1e-12)


def test_fixed_gate_slope_validation():
    assert fixed_gate_from_alibi_slope(0.0) == 0.0
    assert fixed_gate_from_alibi_slope(1.5) == -1.5
    with pytest.raises(ValueError):
        fixed_gate_from_alibi_slope(-0.1)


def test_outputs_in_value_prefix_hull():
    """Each output row is a convex combination of the value prefix."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        inp = _rand_inputs(rng, 12, 4)
        o = fgattn_fwd(inp)
        for i in range(12):
            lo = inp.v[: i + 1].min(axis=0) - 1e-12
            hi = inp.v[: i + 1].max(axis=0) + 1e-12
            assert np.all(o[i] >= lo) and np.all(o[i] <= hi)


def test_causality_suffix_perturbation():
    """Changing any suffix leaves all earlier outputs bit-identical."""
    rng = np.random.default_rng(4)
    inp = _rand_inputs(rng, 10, 3)
    base = fgattn_fwd(inp)
    for t in range(1, 10):
        q2, k2, v2 = inp.q.copy(), inp.k.copy(), inp.v.copy()
        logf2 = np.asarray(inp.logf).copy()
        q2[t:] += 1.0
        k2[t:] -= 2.0
        v2[t:] *= 3.0
        logf2[t:] -= 1.0
        pert = fgattn_fwd(AttentionInputs(q=q2, k=k2, v=v2, logf=logf2, scale=inp.scale))
        np.testing.assert_array_equal(pert[:t], base[:t])


def test_probability_rows_and_mask():
    rng = np.random.default_rng(5)
    inp = _rand_inputs(rng, 6, 2)
    _, p = fgattn_fwd(inp, return_probs=True)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p[np.triu_indices(6, k=1)] == 0.0)


def test_scores_masked_with_sentinel():
    rng = np.random.default_rng(6)
    inp = _rand_inputs(rng, 5, 3, dtype=np.float32)
    s = attention_scores(inp)
    assert s.dtype == np.float32
    assert np.all(s[np.triu_indices(5, k=1)] == neg_inf(np.float32))


def _numeric_grads(inp: AttentionInputs, d_out: np.ndarray, h: float = 1e-6) -> AttentionGrads:
    """Central differences of loss = sum(d_out * O) w.r.t. every input."""

    def loss(q, k, v, logf):
        o = fgattn_fwd(AttentionInputs(q=q, k=k, v=v, logf=logf, scale=inp.scale))
        return float(np.sum(d_out * o))

    grads = []
    arrays = [inp.q, inp.k, inp.v, np.asarray(inp.logf)]
    for which in range(4):
        g = np.zeros_like(arrays[which])
        for idx in np.ndindex(arrays[which].shape):
            args = [a.copy() for a in arrays]
            args[which][idx] += h
            up = loss(*args)
            args = [a.copy() for a in arrays]
            args[which][idx] -= h
            down = loss(*args)
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return AttentionGrads(*grads)


def test_backward_matches_central_differences():
    rng = np.random.default_rng(7)
    inp = _rand_inputs(rng, 6, 3)
    o = fgattn_fwd(inp)
    d_out = rng.normal(size=o.shape)
    got = fgattn_bwd(inp, o, d_out)
    want = _numeric_grads(inp, d_out)
    for name in ("dq", "dk", "dv", "dlogf"):
        a, b = getattr(got, name), getattr(want, name)
        denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
        assert np.abs(a - b).max() / denom < 1e-6, name


def test_backward_first_gate_gradient_is_zero():
    # shifting every c_i together leaves D unchanged, so dlogf_1 must vanish
    rng = np.random.default_rng(8)
    inp = _rand_inputs(rng, 9, 4)
    o = fgattn_fwd(inp)
    g = fgattn_bwd(inp, o, rng.normal(size=o.shape))
    assert g.dlogf[0] == 0.0


def test_backward_shape_validation():
    rng = np.random.default_rng(9)
    inp = _rand_inputs(rng, 4, 2)
    o = fgattn_fwd(inp)
    with pytest.raises(ShapeError):
        fgattn_bwd(inp, o, np.zeros((4, 3)))


def test_inputs_validation():
    q = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        AttentionInputs(q=q, k=np.zeros((4, 2)), v=q, logf=np.zeros(3))
    with pytest.raises(ValueError):
        AttentionInputs(q=q, k=q.astype(np.float32), v=q, logf=np.zeros(3))
    with pytest.raises(ShapeError):
        AttentionInputs(q=q, k=q, v=q, logf=np.zeros(4))
    with pytest.raises(ValueError):
        AttentionInputs(q=q, k=q, v=q, logf=np.array([0.0, 0.2, 0.0]))
    empty = np.zeros((0, 4))  # both routes would fail deep inside on L = 0
    with pytest.raises(ShapeError, match="empty"):
        AttentionInputs(q=empty, k=empty, v=empty, logf=np.zeros(0))


@pytest.mark.parametrize(
    "logf",
    [
        np.array([-0.1, np.nan, -0.2]),
        np.array([-0.1, -np.inf, -0.2]),
        np.full(3, -1e308),  # each finite, but the prefix sum overflows
    ],
    ids=["nan", "neg_inf", "sum_overflow"],
)
def test_non_finite_gates_rejected_at_the_boundary(logf):
    q = np.ones((3, 2))
    with pytest.raises(ValueError):
        AttentionInputs(q=q, k=q, v=q, logf=logf)
    with pytest.raises(ValueError):
        decay_bias(logf)


def test_default_scale():
    q = np.zeros((3, 16))
    inp = AttentionInputs(q=q, k=q, v=q, logf=np.zeros(3))
    assert inp.scale == 0.25
    inp2 = AttentionInputs(q=q, k=q, v=q, logf=np.zeros(3), scale=1.0)
    assert inp2.scale == 1.0


def test_rope_roundtrip_and_rotation_invariants():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(9, 8))
    y = rope_apply(x, 500000.0)
    np.testing.assert_allclose(rope_unapply(y, 500000.0), x, atol=1e-12)
    # rotations preserve per-pair norms
    np.testing.assert_allclose(
        np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), atol=1e-12
    )
    # position 0 rotates by angle 0
    np.testing.assert_allclose(y[0], x[0], atol=1e-15)


def test_rope_dot_products_depend_on_relative_position():
    rng = np.random.default_rng(11)
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    stack = np.stack([q, q, k, k])
    r = rope_apply(stack, 10000.0, start_pos=3)  # positions 3, 4, 5, 6
    d1 = float(r[1] @ r[2])  # distance 1 (pos 4 vs 5)
    r2 = rope_apply(stack, 10000.0, start_pos=7)  # positions 7, 8, 9, 10
    d2 = float(r2[1] @ r2[2])
    np.testing.assert_allclose(d1, d2, atol=1e-12)


def test_rope_odd_dim_rejected():
    with pytest.raises(ShapeError):
        rope_apply(np.zeros((2, 3)), 500000.0)


def test_query_suffix_validation():
    """q may hold the last n <= L positions; every other mismatch is refused."""
    kv = np.zeros((5, 2))
    inp = AttentionInputs(q=np.zeros((2, 2)), k=kv, v=kv, logf=np.zeros(5))
    assert (inp.length, inp.offset) == (5, 3)
    with pytest.raises(ShapeError, match="query rows"):
        AttentionInputs(q=np.zeros((6, 2)), k=kv, v=kv, logf=np.zeros(5))
    with pytest.raises(ShapeError, match="feature dims"):
        AttentionInputs(q=np.zeros((2, 3)), k=kv, v=kv, logf=np.zeros(5))
    with pytest.raises(ShapeError, match="k/v"):
        AttentionInputs(q=np.zeros((2, 2)), k=kv, v=np.zeros((5, 3)), logf=np.zeros(5))
    with pytest.raises(ShapeError, match="empty"):
        AttentionInputs(q=np.zeros((0, 2)), k=kv, v=kv, logf=np.zeros(5))
    with pytest.raises(ShapeError):
        AttentionInputs(q=np.zeros((2, 2)), k=kv, v=kv, logf=np.zeros(2))


@pytest.mark.parametrize("n", [1, 2, 6, 11])
def test_query_suffix_equals_the_full_route_rows(n):
    """A suffix call gives the last n rows of O and, for a cotangent that is
    zero on the dropped rows, the full call's gradients (dq on the kept rows)."""
    rng = np.random.default_rng(40 + n)
    full = _rand_inputs(rng, 11, 3)
    suffix = AttentionInputs(q=full.q[-n:], k=full.k, v=full.v, logf=full.logf)
    o_full = fgattn_fwd(full)
    o = fgattn_fwd(suffix)
    assert o.shape == (n, 3)
    np.testing.assert_allclose(o, o_full[-n:], rtol=0, atol=1e-13)
    d_out = rng.normal(size=(n, 3))
    d_full = np.zeros_like(o_full)
    d_full[-n:] = d_out
    got = fgattn_bwd(suffix, o, d_out)
    want = fgattn_bwd(full, o_full, d_full)
    assert got.dq.shape == (n, 3) and got.dk.shape == got.dv.shape == (11, 3)
    np.testing.assert_allclose(got.dq, want.dq[-n:], rtol=0, atol=1e-13)
    for name in ("dk", "dv", "dlogf"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-13)
    assert got.dlogf[0] == 0.0
