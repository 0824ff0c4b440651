"""Dense numeric primitives shared by every attention path.

All functions are pure and operate on numpy arrays in one of two working
precisions: float32 for the training path, float64 for oracles. Within one
call the reduction order is fixed, so a given input always produces the same
output bytes.

Masking convention: masked logits are set to NEG_INF, the most negative
finite value of the working precision. After row-max subtraction these
entries exponentiate to exactly zero, and no IEEE infinity ever enters a
product with data.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

WORKING_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def neg_inf(dtype) -> float:
    """Mask sentinel for the given precision (most negative finite value)."""
    dt = np.dtype(dtype)
    if dt not in WORKING_DTYPES:
        raise ValueError(f"unsupported working dtype {dt}")
    return float(np.finfo(dt).min)


def _check_2d(name: str, a: np.ndarray) -> None:
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")


def matmul(a: np.ndarray, b: np.ndarray, transpose_b: bool = False) -> np.ndarray:
    """Matrix product a @ b (or a @ b.T), both operands in the same precision."""
    _check_2d("a", a)
    _check_2d("b", b)
    if a.dtype != b.dtype:
        raise ValueError(f"precision mismatch: {a.dtype} vs {b.dtype}")
    bm = b.T if transpose_b else b
    if a.shape[1] != bm.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {bm.shape}")
    return a @ bm


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction.

    Entries equal to NEG_INF map to exactly 0. A row whose entries are all
    NEG_INF has no valid support and raises.
    """
    _check_2d("logits", logits)
    sentinel = neg_inf(logits.dtype)
    m = logits.max(axis=1, keepdims=True)
    if np.any(m == sentinel):
        bad = int(np.argmax(m.ravel() == sentinel))
        raise ValueError(f"degenerate row {bad}: every entry is masked")
    # The subtraction can transiently overflow to -inf for sentinel entries
    # in float32; exp maps that to 0, and the explicit where pins it.
    with np.errstate(over="ignore", under="ignore"):
        p = np.exp(logits - m)
    p = np.where(logits == sentinel, 0.0, p).astype(logits.dtype, copy=False)
    return p / p.sum(axis=1, keepdims=True)


def rmsnorm(x: np.ndarray, gamma: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """y = gamma * x / sqrt(mean(x^2) + eps) over the last axis.

    x is a vector (gamma of the same shape) or rows (..., n, d); rows carry one
    scale vector per leading index, so gamma has shape (..., d).
    """
    gamma = np.asarray(gamma)
    if x.ndim == 1:
        if gamma.shape != x.shape:
            raise ShapeError(f"gamma shape {gamma.shape} != x shape {x.shape}")
        r = np.sqrt(np.mean(x * x) + eps)
        return gamma * x / r
    if x.ndim < 2:
        raise ShapeError(f"x must be 1-D or stacked rows, got ndim={x.ndim}")
    want = x.shape[:-2] + x.shape[-1:]
    if gamma.shape != want:
        raise ShapeError(f"gamma shape {gamma.shape} != {want}")
    r = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return gamma[..., None, :] * x / r


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    exp(min(x, 0)) / (1 + exp(-|x|)) is 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) for x < 0, so neither exponential can overflow and
    no branch needs a mask.
    """
    x = np.asarray(x)
    return np.asarray(np.exp(np.minimum(x, 0)) / (1 + np.exp(-np.abs(x))))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) = -softplus(-x); never exponentiates then logs."""
    return -np.logaddexp(0.0, -np.asarray(x))


def cumsum_fwd(v: np.ndarray) -> np.ndarray:
    """Prefix sums, always accumulated in float64.

    Gate log-sums can reach large negative magnitudes; float32 accumulation
    would corrupt differences of nearby prefixes, so the accumulator dtype is
    pinned regardless of the input's.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ShapeError(f"expected 1-D vector, got ndim={v.ndim}")
    return np.cumsum(v.astype(np.float64))


def cumsum_rev(v: np.ndarray) -> np.ndarray:
    """Suffix sums (reverse prefix sums), accumulated in float64."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ShapeError(f"expected 1-D vector, got ndim={v.ndim}")
    return np.cumsum(v[::-1].astype(np.float64))[::-1].copy()
