"""Gated linear attention: recurrent and parallel forms of the same sum.

Replacing exp(q . k) with a positive feature kernel phi(q) . phi(k) turns
gated attention into a constant-size recurrence,

    S_t = f_t S_{t-1} + v_t phi(k_t)^T      z_t = f_t z_{t-1} + phi(k_t)
    o_t = S_t phi(q_t) / (z_t . phi(q_t))

whose unrolled form is a weighted average with weights
F_ij * (phi(q_i) . phi(k_j)), F_ij = prod_{l=j+1..i} f_l. Both forms are
implemented independently and must agree; F is evaluated as
exp(c_i - c_j) from float64 cumulative log sums, never as a running product
of gates, so long strongly-decayed products do not underflow stepwise.

phi is the shifted ELU applied to q and k rows: u + 1 for u > 0, exp(u)
otherwise. It is continuous, strictly positive and keeps the head dim.

This module is an equivalence oracle, not a training path: everything runs
in float64 and inputs are upcast on entry.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .kernels import cumsum_fwd


def phi_feature(x: np.ndarray) -> np.ndarray:
    """Elementwise u + 1 if u > 0 else exp(u); output is strictly positive."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def _check_gla_inputs(
    k: np.ndarray, q: np.ndarray, v: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    k = np.asarray(k, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if k.ndim != 2 or q.ndim != 2 or v.ndim != 2:
        raise ShapeError("k, q, v must be 2-D")
    if k.shape != q.shape:
        raise ShapeError(f"k shape {k.shape} != q shape {q.shape}")
    if v.shape[0] != k.shape[0]:
        raise ShapeError(f"v rows {v.shape[0]} != k rows {k.shape[0]}")
    if f.shape != (k.shape[0],):
        raise ShapeError(f"f shape {f.shape} != ({k.shape[0]},)")
    if np.any(f <= 0) or np.any(f > 1):
        raise ValueError("forget gates must lie in (0, 1]")
    return k, q, v, f


def gla_recurrent(
    k: np.ndarray,
    q: np.ndarray,
    v: np.ndarray,
    f: np.ndarray,
) -> np.ndarray:
    """Stepwise evaluation with the decayed state matrix S and normalizer z."""
    k, q, v, f = _check_gla_inputs(k, q, v, f)
    n, d_k = k.shape
    d_v = v.shape[1]
    state = np.zeros((d_v, d_k), dtype=np.float64)
    z = np.zeros(d_k, dtype=np.float64)
    out = np.empty((n, d_v), dtype=np.float64)
    for t in range(n):
        pk = phi_feature(k[t])
        state = f[t] * state + np.outer(v[t], pk)
        z = f[t] * z + pk
        pq = phi_feature(q[t])
        denom = z @ pq
        if not denom > 0:
            raise ValueError(f"non-positive normalizer at step {t}")
        out[t] = (state @ pq) / denom
    return out


def gla_parallel(
    k: np.ndarray,
    q: np.ndarray,
    v: np.ndarray,
    f: np.ndarray,
) -> np.ndarray:
    """Closed-form evaluation over the full decay matrix F_ij = exp(c_i - c_j)."""
    k, q, v, f = _check_gla_inputs(k, q, v, f)
    n = k.shape[0]
    c = cumsum_fwd(np.log(f))
    lower = np.tril(np.ones((n, n), dtype=bool))
    decay = np.where(lower, np.exp(np.where(lower, c[:, None] - c[None, :], 0.0)), 0.0)
    w = decay * (phi_feature(q) @ phi_feature(k).T)
    denom = w.sum(axis=1)
    if np.any(~(denom > 0)):
        raise ValueError("non-positive normalizer row")
    return (w @ v) / denom[:, None]
