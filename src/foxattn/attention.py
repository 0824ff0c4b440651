"""Reference forgetting attention: materialized scores, exact gradients.

Forgetting attention is causal softmax attention with a per-position forget
gate f_t in (0, 1]. With c_i = sum_{l<=i} log f_l, the score matrix gains an
additive bias D_ij = c_i - c_j for j <= i (the log of the cumulative decay
between key j and query i) and is masked above the diagonal:

    O = softmax(scale * Q K^T + D) V

Queries may cover a suffix of the sequence: q holds the last n <= L
positions (row i is position L - n + i) while k, v and logf cover all L, so a
caller that reads only the last rows of O skips the queries before them. O,
lse and dq then have n rows; dk, dv and dlogf keep L. With n == L this is
ordinary self-attention.

Everything here materializes the full n x L score matrix; the streaming
version that never does lives in tiled.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import cumsum_fwd, cumsum_rev, matmul, neg_inf, row_softmax


def _check_log_gates(logf: np.ndarray) -> None:
    """Reject gates the decay bias cannot represent.

    Every logf_t must be finite and <= 0. Since no term is positive, a finite
    float64 total bounds every prefix sum c_i, so the bias never overflows.
    """
    if not np.all(np.isfinite(logf)):
        raise ValueError("log forget gates must be finite")
    if np.any(logf > 0):
        raise ValueError("log forget gates must be <= 0")
    with np.errstate(over="ignore"):
        total = np.sum(logf, dtype=np.float64)
    if not np.isfinite(total):
        raise ValueError("log forget gates sum past the float64 range")


@dataclass
class AttentionInputs:
    """One head's attention inputs for a length-L sequence.

    k and v are L x d (L >= 1) and q is n x d with 1 <= n <= L, all in the
    same working precision: q's row i is the query at position L - n + i, so
    n < L asks only for the last n output rows. logf holds the L per-position
    log forget gates (logf_t = log f_t <= 0). scale defaults to 1/sqrt(d);
    pass scale=1.0 to disable head-dim scaling.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    logf: np.ndarray
    scale: float | None = None

    def __post_init__(self) -> None:
        for name in ("q", "k", "v"):
            a = getattr(self, name)
            if a.ndim != 2:
                raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
        if self.k.shape != self.v.shape:
            raise ShapeError(f"k/v shapes differ: {self.k.shape} {self.v.shape}")
        if self.q.shape[1] != self.k.shape[1]:
            raise ShapeError(f"q/k feature dims differ: {self.q.shape} {self.k.shape}")
        if self.q.shape[0] == 0:
            raise ShapeError("empty query: attention needs 1 <= n <= L")
        if self.q.shape[0] > self.k.shape[0]:
            raise ShapeError(f"{self.q.shape[0]} query rows for {self.k.shape[0]} keys")
        if self.q.dtype != self.k.dtype or self.q.dtype != self.v.dtype:
            raise ValueError("q/k/v must share one precision")
        logf = np.asarray(self.logf)
        if logf.shape != (self.length,):
            raise ShapeError(f"logf shape {logf.shape} != ({self.length},)")
        _check_log_gates(logf)
        if self.scale is None:
            self.scale = 1.0 / float(np.sqrt(self.q.shape[1]))

    @property
    def length(self) -> int:
        """Sequence length L, the number of keys."""
        return self.k.shape[0]

    @property
    def offset(self) -> int:
        """Position of q's first row: L - n."""
        return self.k.shape[0] - self.q.shape[0]


@dataclass
class DecayBias:
    """Cumulative log-gate sums c (float64) and the bias matrix D.

    D_ij = c_i - c_j on and below the diagonal, NEG_INF above it: the causal
    mask is folded into the bias rather than applied separately.
    """

    c: np.ndarray
    d: np.ndarray


@dataclass
class AttentionGrads:
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray
    dlogf: np.ndarray


@dataclass
class ForwardAux:
    """Per-row softmax statistics saved by the streaming forward.

    lse_i = log sum_j exp(S_ij) over the valid keys of row i; c is the
    float64 cumulative log-gate vector. Together they let the backward
    recompute probabilities tile by tile without renormalizing.

    tiles counts the score tiles the streaming forward computed, skipped
    tiles excluded; a hand-built ForwardAux(lse=..., c=...) leaves it None.
    """

    lse: np.ndarray
    c: np.ndarray
    tiles: int | None = None


def decay_bias(logf: np.ndarray, dtype=None) -> DecayBias:
    """Build the decay bias for a gate vector.

    The difference c_i - c_j is formed in float64 and only then cast to the
    working precision: the prefix sums can be large and nearly equal, and a
    float32 subtraction of float32 prefixes would corrupt the near-diagonal
    entries that carry almost all of the attention mass.
    """
    logf = np.asarray(logf)
    _check_log_gates(logf)
    if dtype is None:
        dtype = logf.dtype if logf.dtype in (np.float32, np.float64) else np.float64
    c = cumsum_fwd(logf)
    n = c.shape[0]
    d = (c[:, None] - c[None, :]).astype(dtype)
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    d[mask] = neg_inf(dtype)
    return DecayBias(c=c, d=d)


def attention_scores(inp: AttentionInputs) -> np.ndarray:
    """Masked score matrix S = scale * Q K^T + D, one row per query (n x L)."""
    s = matmul(inp.q, inp.k, transpose_b=True)
    s *= np.asarray(inp.scale, dtype=s.dtype)
    d = decay_bias(inp.logf, dtype=s.dtype).d[inp.offset :]
    sentinel = neg_inf(s.dtype)
    s += d
    # Finite score + NEG_INF rounds back to NEG_INF, but pin it explicitly so
    # the masked entries are the exact sentinel the softmax zeroes.
    s[d == sentinel] = sentinel
    return s


def fgattn_fwd(
    inp: AttentionInputs, return_probs: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Forgetting attention forward. Returns O, and P if requested."""
    p = row_softmax(attention_scores(inp))
    o = matmul(p, inp.v)
    if return_probs:
        return o, p
    return o


def fgattn_bwd(inp: AttentionInputs, out: np.ndarray, d_out: np.ndarray) -> AttentionGrads:
    """Exact gradients of forgetting attention.

    With P the probability matrix and Delta_i = sum_j dO_ij * O_ij:

        dP = dO V^T          dS = P * (dP - Delta)
        dV = P^T dO          dQ = scale * dS K       dK = scale * dS^T Q
        dc_i = rowsum_i(dS) - colsum_i(dS)           dlogf = suffix_sum(dc)

    The diagonal terms of the row and column sums cancel, and dlogf_1 is
    always exactly 0 (shifting every c_i equally leaves D unchanged). For a
    query suffix, rowsum covers the last n positions only.
    """
    if out.shape != inp.q.shape or d_out.shape != inp.q.shape:
        raise ShapeError("out/d_out must match q's shape")
    p = row_softmax(attention_scores(inp))
    delta = np.sum(d_out * out, axis=1)
    dp = matmul(d_out, inp.v, transpose_b=True)
    ds = p * (dp - delta[:, None])
    scale = np.asarray(inp.scale, dtype=ds.dtype)
    dv = matmul(p.T, d_out)
    dq = scale * matmul(ds, inp.k)
    dk = scale * matmul(ds.T, inp.q)
    dc_q = np.zeros(inp.length, dtype=np.float64)
    dc_q[inp.offset :] = ds.sum(axis=1)
    dc = dc_q - ds.sum(axis=0).astype(np.float64)
    dlogf = cumsum_rev(dc).astype(np.asarray(inp.logf).dtype)
    # A common shift of every c_i leaves D unchanged, so the derivative along
    # logf_1 is identically zero; pin it to remove summation round-off.
    dlogf[0] = 0.0
    return AttentionGrads(dq=dq, dk=dk, dv=dv, dlogf=dlogf)


def fixed_gate_from_alibi_slope(slope: float) -> float:
    """Constant log forget gate reproducing a linear-bias head of given slope.

    A fixed gate log f = -m makes D_ij = -m (i - j), the additive linear bias
    with slope m >= 0.
    """
    if slope < 0:
        raise ValueError("slope must be >= 0")
    return -float(slope)


def _rotate_pairs(
    x: np.ndarray, base_theta: float, start_pos: int, sign: float
) -> np.ndarray:
    """Rotate consecutive feature pairs of x (..., n, d) by sign * position angle."""
    if x.ndim < 2:
        raise ShapeError(f"x must be at least 2-D, got ndim={x.ndim}")
    n, d = x.shape[-2:]
    if d % 2 != 0:
        raise ShapeError(f"feature dim must be even for pairwise rotation, got {d}")
    pos = np.arange(start_pos, start_pos + n, dtype=np.float64)
    inv_freq = float(base_theta) ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    ang = pos[:, None] * inv_freq[None, :]
    cos = np.cos(ang).astype(x.dtype)
    sin = (sign * np.sin(ang)).astype(x.dtype)
    x0, x1 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x0 * cos - x1 * sin
    out[..., 1::2] = x0 * sin + x1 * cos
    return out


def rope_apply(x: np.ndarray, base_theta: float, start_pos: int = 0) -> np.ndarray:
    """Rotary position embedding on consecutive feature pairs of x (..., n, d).

    Pair 2i rotates by angle pos * base_theta^(-2i/d). Used only by the
    plain-projection layer; the gated layers rely on the decay bias instead.
    """
    return _rotate_pairs(x, base_theta, start_pos, 1.0)


def rope_unapply(x: np.ndarray, base_theta: float, start_pos: int = 0) -> np.ndarray:
    """Inverse rotation; also the backward of rope_apply (rotations are orthogonal)."""
    return _rotate_pairs(x, base_theta, start_pos, -1.0)
