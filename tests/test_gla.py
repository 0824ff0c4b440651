"""Unit tests for the gated-linear-attention oracle pair.

The central claim is algebraic: the constant-state recurrence and the full
decay-matrix evaluation compute the same weighted average. Each form is
implemented independently, so agreement over random instances is the test.
"""

import numpy as np
import pytest

from foxattn.errors import ShapeError
from foxattn.gla import gla_parallel, gla_recurrent, phi_feature


def _rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


def test_phi_frozen_values():
    np.testing.assert_allclose(phi_feature(np.array([0.0])), [1.0], atol=1e-15)
    # exp(-1) = 0.36788, 1 + 1 = 2
    np.testing.assert_allclose(
        phi_feature(np.array([1.0, -1.0])), [2.0, np.exp(-1.0)], atol=1e-15
    )


def test_phi_strictly_positive_and_continuous():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=20.0, size=1000)
    assert phi_feature(x).min() > 0.0
    # continuity at the branch point
    eps = 1e-9
    np.testing.assert_allclose(phi_feature(np.array([eps])), phi_feature(np.array([-eps])), atol=1e-8)


def test_recurrent_frozen_two_step():
    # phi(0) = 1 everywhere makes all kernel weights equal; v = [1, 2],
    # f_2 = 1/2 -> o_2 = (0.5 * 1 + 2) / (0.5 + 1) = 5/3
    z = np.zeros((2, 1))
    o = gla_recurrent(z, z, np.array([[1.0], [2.0]]), np.array([1.0, 0.5]))
    np.testing.assert_allclose(o[:, 0], [1.0, 5.0 / 3.0], atol=1e-15)


def test_single_position_passthrough():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(1, 3))
    o = gla_recurrent(rng.normal(size=(1, 2)), rng.normal(size=(1, 2)), v, np.array([0.7]))
    np.testing.assert_allclose(o, v, atol=1e-15)
    o2 = gla_parallel(rng.normal(size=(1, 2)), rng.normal(size=(1, 2)), v, np.array([0.7]))
    np.testing.assert_allclose(o2, v, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 7, 32, 128])
def test_parallel_equals_recurrent(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        d = int(rng.integers(1, 6))
        k = rng.normal(size=(n, d))
        q = rng.normal(size=(n, d))
        v = rng.normal(size=(n, d + 1))
        f = rng.uniform(0.05, 1.0, size=n)
        assert _rel_diff(gla_parallel(k, q, v, f), gla_recurrent(k, q, v, f)) <= 1e-10


def test_no_gate_reduces_to_ungated_linear_attention():
    """f = 1 must give the plain kernelized average (independent oracle)."""
    rng = np.random.default_rng(2)
    n, d = 9, 3
    k = rng.normal(size=(n, d))
    q = rng.normal(size=(n, d))
    v = rng.normal(size=(n, d))
    got = gla_recurrent(k, q, v, np.ones(n))
    pk, pq = phi_feature(k), phi_feature(q)
    for i in range(n):
        w = pq[i] @ pk[: i + 1].T
        np.testing.assert_allclose(got[i], (w @ v[: i + 1]) / w.sum(), atol=1e-12)


def test_outputs_in_value_prefix_hull():
    rng = np.random.default_rng(3)
    k = rng.normal(size=(20, 4))
    q = rng.normal(size=(20, 4))
    v = rng.normal(size=(20, 3))
    f = rng.uniform(0.2, 1.0, size=20)
    o = gla_parallel(k, q, v, f)
    for i in range(20):
        assert np.all(o[i] >= v[: i + 1].min(axis=0) - 1e-12)
        assert np.all(o[i] <= v[: i + 1].max(axis=0) + 1e-12)


def test_near_zero_gate_truncates_history():
    """f_t ~ 0 at one step makes later outputs depend only on positions >= t."""
    rng = np.random.default_rng(4)
    n, d, t = 12, 3, 5
    k = rng.normal(size=(n, d))
    q = rng.normal(size=(n, d))
    v = rng.normal(size=(n, d))
    f = rng.uniform(0.3, 1.0, size=n)
    f[t] = 1e-12
    full = gla_parallel(k, q, v, f)
    trunc = gla_parallel(k[t:], q[t:], v[t:], np.concatenate([[1.0], f[t + 1 :]]))
    assert _rel_diff(full[t:], trunc) <= 1e-6


def test_input_validation():
    k = np.zeros((3, 2))
    v = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        gla_recurrent(k, np.zeros((4, 2)), v, np.ones(3))
    with pytest.raises(ShapeError):
        gla_recurrent(k, k, np.zeros((2, 2)), np.ones(3))
    with pytest.raises(ShapeError):
        gla_recurrent(k, k, v, np.ones((3, 1)))
    with pytest.raises(ValueError):
        gla_recurrent(k, k, v, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        gla_recurrent(k, k, v, np.array([1.0, 1.5, 1.0]))


def test_value_dim_may_differ_from_key_dim():
    rng = np.random.default_rng(5)
    k = rng.normal(size=(6, 2))
    q = rng.normal(size=(6, 2))
    v = rng.normal(size=(6, 5))
    f = rng.uniform(0.5, 1.0, size=6)
    assert _rel_diff(gla_parallel(k, q, v, f), gla_recurrent(k, q, v, f)) <= 1e-10


def test_f64_output_regardless_of_input_dtype():
    k = np.zeros((2, 2), dtype=np.float32)
    o = gla_recurrent(k, k, k.copy(), np.ones(2, dtype=np.float32))
    assert o.dtype == np.float64
