"""Unit tests for the dense numeric primitives.

Frozen oracle values in this file were computed by hand or with an
independent high-precision evaluation noted next to each assertion.
"""

import numpy as np
import pytest

from foxattn.errors import ShapeError
from foxattn.kernels import (
    cumsum_fwd,
    cumsum_rev,
    log_sigmoid,
    matmul,
    neg_inf,
    rmsnorm,
    row_softmax,
    sigmoid,
)


def test_neg_inf_is_finite_min():
    assert neg_inf(np.float32) == float(np.finfo(np.float32).min)
    assert neg_inf(np.float64) == float(np.finfo(np.float64).min)
    assert np.isfinite(neg_inf(np.float32))


def test_neg_inf_rejects_other_dtypes():
    with pytest.raises(ValueError):
        neg_inf(np.int32)
    with pytest.raises(ValueError):
        neg_inf(np.float16)


def test_matmul_matches_operator():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        np.testing.assert_array_equal(matmul(a, b), a @ b)
        np.testing.assert_array_equal(matmul(a, b.T, transpose_b=True), a @ b)


def test_matmul_rejects_mixed_precision():
    a = np.ones((2, 2), dtype=np.float32)
    b = np.ones((2, 2), dtype=np.float64)
    with pytest.raises(ValueError, match="precision"):
        matmul(a, b)


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        matmul(np.ones(3), np.ones((3, 2)))


def test_row_softmax_frozen():
    # exp(0) = 1, exp(ln 3) = 3 -> row [1/4, 3/4]
    logits = np.array([[0.0, np.log(3.0)], [0.0, 0.0]])
    p = row_softmax(logits)
    np.testing.assert_allclose(p[0], [0.25, 0.75], atol=1e-15)
    np.testing.assert_allclose(p[1], [0.5, 0.5], atol=1e-15)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        logits = rng.normal(scale=30.0, size=(5, 7)).astype(np.float32)
        p = row_softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert p.dtype == np.float32


def test_row_softmax_sentinel_maps_to_exact_zero():
    for dt in (np.float32, np.float64):
        s = neg_inf(dt)
        logits = np.array([[0.0, s, 2.0]], dtype=dt)
        p = row_softmax(logits)
        assert p[0, 1] == 0.0
        np.testing.assert_allclose(p[0, [0, 2]], row_softmax(np.array([[0.0, 2.0]], dtype=dt))[0], rtol=1e-6)


def test_row_softmax_invariant_to_shift():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 6))
    np.testing.assert_allclose(row_softmax(logits), row_softmax(logits + 123.0), atol=1e-12)


def test_row_softmax_degenerate_row_raises():
    s = neg_inf(np.float64)
    logits = np.array([[0.0, 1.0], [s, s]])
    with pytest.raises(ValueError, match="degenerate row 1"):
        row_softmax(logits)


def test_rmsnorm_frozen():
    # rms([3, 4]) = sqrt((9 + 16) / 2) = sqrt(12.5)
    x = np.array([3.0, 4.0])
    y = rmsnorm(x, np.ones(2), eps=0.0)
    np.testing.assert_allclose(y, x / np.sqrt(12.5), atol=1e-15)


def test_rmsnorm_gamma_scales_componentwise():
    x = np.array([3.0, 4.0])
    g = np.array([2.0, -1.0])
    base = rmsnorm(x, np.ones(2), eps=0.0)
    np.testing.assert_allclose(rmsnorm(x, g, eps=0.0), g * base, atol=1e-15)


def test_rmsnorm_rowwise_matches_per_row():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 8))
    g = rng.normal(size=8)
    y = rmsnorm(x, g)
    for i in range(5):
        np.testing.assert_allclose(y[i], rmsnorm(x[i], g), atol=1e-14)


def test_rmsnorm_unit_scale_output_rms():
    rng = np.random.default_rng(4)
    x = rng.normal(scale=5.0, size=(3, 64))
    y = rmsnorm(x, np.ones(64), eps=0.0)
    np.testing.assert_allclose(np.sqrt(np.mean(y * y, axis=1)), 1.0, atol=1e-12)


def test_rmsnorm_shape_errors():
    with pytest.raises(ShapeError):
        rmsnorm(np.ones(4), np.ones(3))
    with pytest.raises(ShapeError):
        rmsnorm(np.ones((2, 4)), np.ones(3))


def test_sigmoid_frozen_and_stable():
    assert sigmoid(np.array(0.0)) == 0.5
    # sigmoid(ln 3) = 3/4
    np.testing.assert_allclose(sigmoid(np.array(np.log(3.0))), 0.75, atol=1e-15)
    with np.errstate(over="raise"):
        big = sigmoid(np.array([-1000.0, 1000.0]))
        edges = sigmoid(np.array([0.0, -0.0, np.inf, -np.inf]))
    np.testing.assert_allclose(big, [0.0, 1.0], atol=1e-300)
    np.testing.assert_array_equal(edges, [0.5, 0.5, 1.0, 0.0])
    zero_d = sigmoid(np.array(0.0, dtype=np.float32))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d.dtype == np.float32


def test_sigmoid_symmetry():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=4.0, size=50)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)
    # stacked (H, L, dh) float32, as the layer's gates use it
    x32 = rng.normal(scale=4.0, size=(3, 7, 5)).astype(np.float32)
    y32 = sigmoid(x32)
    assert y32.dtype == np.float32 and y32.shape == x32.shape
    np.testing.assert_allclose(y32 + sigmoid(-x32), 1.0, atol=1e-6)
    np.testing.assert_allclose(y32, 1.0 / (1.0 + np.exp(-x32.astype(np.float64))), rtol=1e-6)


def test_log_sigmoid_frozen():
    np.testing.assert_allclose(log_sigmoid(np.array(0.0)), -np.log(2.0), atol=1e-15)
    # large negative argument: log sigmoid(x) ~ x
    np.testing.assert_allclose(log_sigmoid(np.array(-1000.0)), -1000.0, atol=1e-12)
    # always strictly negative, even where sigmoid rounds to 1
    assert log_sigmoid(np.array(40.0)) < 0.0


def test_log_sigmoid_consistent_with_sigmoid():
    rng = np.random.default_rng(6)
    x = rng.normal(scale=3.0, size=100)
    np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)


def test_cumsum_fwd_frozen():
    np.testing.assert_array_equal(cumsum_fwd(np.array([1.0, 2.0, 3.0])), [1.0, 3.0, 6.0])


def test_cumsum_rev_frozen():
    np.testing.assert_array_equal(cumsum_rev(np.array([1.0, 2.0, 3.0])), [6.0, 5.0, 3.0])


def test_cumsum_promotes_to_f64():
    v = np.array([1.0, 2.0], dtype=np.float32)
    assert cumsum_fwd(v).dtype == np.float64
    assert cumsum_rev(v).dtype == np.float64


def test_cumsum_rev_is_flipped_fwd():
    rng = np.random.default_rng(7)
    v = rng.normal(size=31)
    np.testing.assert_allclose(cumsum_rev(v), cumsum_fwd(v[::-1])[::-1], atol=1e-12)


def test_cumsum_rejects_matrices():
    with pytest.raises(ShapeError):
        cumsum_fwd(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        cumsum_rev(np.ones((2, 2)))
