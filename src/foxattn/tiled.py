"""Streaming forgetting attention over fixed-size tiles.

Computes the same O as the reference path without ever materializing the
L x L score matrix. The forward walks key tiles per query tile keeping a
running row max m, normalizer l, and output accumulator; when a new tile
raises the max, previous contributions are rescaled by exp(m_old - m_new).
Per query row it also emits lse_i = m + log l, which the backward uses to
reconstruct probabilities tile by tile (P = exp(S - lse)) without a second
normalization pass.

Each query block's first key tile starts at or before the block's first
row, so every row has a valid key in it: that tile sets m, l and the
accumulator directly, m is finite from then on, and later tiles rescale
with exp(m_old - m_new) unguarded. The row max is taken on a column-major
copy of the tile, the faster layout for that reduction; a max is exact, so
the layout moves no bit. P is formed in place in the score tile's buffer,
and the backward's dS in that of dP.

The backward walks the same causal tiles in the same order, query block
outer and key block inner, and computes each tile's P, dP and dS once, as
the FlashAttention-2 backward does. Every tile adds its share into dQ and
the query share of dc for its rows, and into dK, dV and the key share of dc
for its columns; all five start at zero. Blocks run one after another, so
these shared sums need no atomics, and each output slice receives its terms
in ascending block order.

Key tiles the forget gate has already zeroed are skipped, in the spirit of
adaptive computation pruning for FoX. For query block [r0, r1) and a key
block ending at e < r0, every score satisfies

    S_ij <= |scale| * max_i ||q_i|| * max_{j<r1} ||k_j|| + c[r0] - c[e]

because c never increases, and every row max is at least the block's
smallest diagonal score min_i scale * q_i . k_i, because the diagonal key is
always visited. When the first bound minus that floor is below
log(eps / L), with eps the working dtype's machine epsilon, every
probability in the block is below eps / L, so each row loses less than eps
of its normalizer. The bound only grows with e, so the skipped key blocks
form a prefix: each query block starts its key loop at the first kept
block, and the block holding the diagonal is always kept. The backward
recomputes the starts from the same inputs and c, so it visits exactly the
forward's tiles in the same order; the forward reports how many it computed
in aux.tiles. Tiles wholly below the diagonal need no causal mask and skip
the masking work.

A query suffix (q holding the last n <= L positions, see attention.py)
keeps the absolute query-block grid: blocks still start at multiples of
B_r, and the first one is cropped to start at row L - n. Every present row
therefore meets the same key tiles, in the same order, as it would in a
full call; only the skip bound, taken over the rows present, can be
tighter. With n == L nothing changes.

Peak transient memory per call is O(B_r * B_c + B_r * d), independent of L.
Pass a BufferMeter to tiled_fwd to have each tile's scratch allocations
recorded.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .attention import AttentionGrads, AttentionInputs, ForwardAux
from .errors import ConfigError, ShapeError
from .kernels import cumsum_fwd, cumsum_rev, neg_inf


@dataclass(frozen=True)
class TileConfig:
    """Tile shape: q_block rows of queries by k_block columns of keys."""

    q_block: int = 64
    k_block: int = 64

    def __post_init__(self) -> None:
        for size in (self.q_block, self.k_block):
            if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
                raise ConfigError(f"tile sizes must be integers >= 1, got {self}")


class BufferMeter:
    """Records per-iteration scratch allocations; peak_bytes is the largest
    simultaneously-live set recorded by a single call site.

    tiled_fwd records once per tile it computes, so after one forward call
    `calls` is the number of tiles visited, skipped tiles excluded (the
    forward's aux.tiles). None entries (the absent mask of a tile below the
    diagonal, the absent rescale factor of a block's first tile) count zero
    bytes.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.calls = 0

    def record(self, *arrays: np.ndarray) -> None:
        self.calls += 1
        live = {id(a): a for a in arrays if a is not None}  # an alias counts once
        total = sum(int(a.nbytes) for a in live.values())
        if total > self.peak_bytes:
            self.peak_bytes = total


def _blocks(length: int, size: int, start: int = 0) -> list[tuple[int, int]]:
    """[start, length) cut on the grid of multiples of size."""
    first = start - start % size
    return [(max(s, start), min(s + size, length)) for s in range(first, length, size)]


def _first_kept_blocks(inp: AttentionInputs, c: np.ndarray, cfg: TileConfig) -> np.ndarray:
    """Index of the first key block each query block visits.

    Skips the leading key blocks whose probabilities the bound in the module
    docstring puts below eps / L; vectorised over query blocks, and taken
    over the query rows present.
    """
    n, off = inp.length, inp.offset
    r0, r1 = np.array(_blocks(n, cfg.q_block, off)).T
    first = np.zeros(r0.size, dtype=np.intp)
    if r0[-1] < cfg.k_block:
        return first  # no key block ends before any query block starts
    log_tol = np.log(np.finfo(inp.q.dtype).eps / n)
    # The score term of the bound is >= 0, so if the most-decayed candidate
    # (last query block, first key block) fails on decay alone, all do.
    if c[r0[-1]] - c[cfg.k_block - 1] >= log_tol:
        return first
    qq, kk, qk = (
        np.einsum("ij,ij->i", a, b, dtype=np.float64)
        for a, b in ((inp.q, inp.q), (inp.k, inp.k), (inp.q, inp.k[off:]))
    )
    q_norm = np.maximum.reduceat(np.sqrt(qq), r0 - off)
    k_norm = np.maximum.accumulate(np.sqrt(kk))[r1 - 1]
    floor = np.minimum.reduceat(inp.scale * qk, r0 - off)
    slack = abs(inp.scale) * q_norm * k_norm - floor
    # Key block j is skipped when c[e_j] > c[r0] + slack - log_tol; c[e_j]
    # never increases with j, so a sorted search counts the skipped prefix.
    ends = c[cfg.k_block - 1 :: cfg.k_block]
    skipped = np.searchsorted(-ends, log_tol - slack - c[r0], side="left")
    return np.minimum(skipped, r0 // cfg.k_block)


def _masked_scores(
    inp: AttentionInputs,
    c: np.ndarray,
    r0: int,
    r1: int,
    c0: int,
    c1: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Score tile S[r0:r1, c0:c1] with decay bias and causal mask applied.

    Rows and columns are absolute positions. Returns (S, valid). valid is
    None for a tile wholly below the diagonal, where every entry is valid.
    The bias difference is taken in float64 before the cast to working
    precision, matching the reference path's construction.
    """
    dtype = inp.q.dtype
    off = inp.offset
    s = inp.q[r0 - off : r1 - off] @ inp.k[c0:c1].T
    s *= np.asarray(inp.scale, dtype=dtype)
    s += (c[r0:r1, None] - c[None, c0:c1]).astype(dtype)
    if c1 - 1 <= r0:
        return s, None
    valid = np.arange(r0, r1)[:, None] >= np.arange(c0, c1)[None, :]
    s = np.where(valid, s, neg_inf(dtype)).astype(dtype, copy=False)
    return s, valid


def _exp_rows(s: np.ndarray, shift: np.ndarray, valid: np.ndarray | None) -> np.ndarray:
    """exp(s - shift) in place in s, with masked entries exactly zero.

    shift broadcasts against s (one value per row); returns s.
    """
    s -= shift
    np.exp(s, out=s)
    if valid is not None:
        s *= valid
    return s


def tiled_fwd(
    inp: AttentionInputs, cfg: TileConfig, meter: BufferMeter | None = None
) -> tuple[np.ndarray, ForwardAux]:
    """Streaming forward; returns (O, aux).

    O and aux.lse have one row per query row; aux.c covers all L positions;
    aux.tiles is the number of score tiles computed.
    """
    n, d = inp.q.shape
    off = inp.offset
    dtype = inp.q.dtype
    c = cumsum_fwd(inp.logf)
    out = np.empty((n, d), dtype=dtype)
    lse = np.empty(n, dtype=dtype)
    k_blocks = _blocks(inp.length, cfg.k_block)
    first = _first_kept_blocks(inp, c, cfg)
    tiles = 0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for (r0, r1), j0 in zip(_blocks(inp.length, cfg.q_block, off), first):
            # The first kept key block starts at or before r0, so every row
            # has a valid key there: that tile sets m, ell and acc directly,
            # and m stays finite after it, so exp(m - m_new) needs no guard.
            m = None
            for c0, c1 in k_blocks[j0:]:
                if c0 > r1 - 1:
                    break  # tile is entirely above the diagonal, as are all later ones
                s, valid = _masked_scores(inp, c, r0, r1, c0, c1)
                tiles += 1
                s_f = np.asfortranarray(s)  # the faster layout for an exact row max
                tile_max = s_f.max(axis=1)
                if m is None:
                    m, alpha = tile_max, None
                    p = _exp_rows(s, m[:, None], valid)
                    ell = p.sum(axis=1)
                    acc = p @ inp.v[c0:c1]
                else:
                    m_new = np.maximum(m, tile_max)
                    if valid is not None:
                        # Rows before c0 have no valid key in this tile and
                        # must not pull the mask sentinel into the running max.
                        m_new = np.where(np.arange(r0, r1) >= c0, m_new, m)
                    alpha = np.exp(m - m_new)
                    p = _exp_rows(s, m_new[:, None], valid)
                    ell *= alpha
                    ell += p.sum(axis=1)
                    acc *= alpha[:, None]
                    acc += p @ inp.v[c0:c1]
                    m = m_new
                if meter is not None:
                    meter.record(s, valid, s_f, acc, alpha, ell, m, tile_max)
            out[r0 - off : r1 - off] = acc / ell[:, None]
            lse[r0 - off : r1 - off] = m + np.log(ell)
    return out, ForwardAux(lse=lse, c=c, tiles=tiles)


def tiled_bwd(
    inp: AttentionInputs,
    out: np.ndarray,
    aux: ForwardAux,
    d_out: np.ndarray,
    cfg: TileConfig,
) -> AttentionGrads:
    """Streaming backward from saved (O, lse, c); recomputes each of the
    forward's score tiles once. dq has one row per query row; dk, dv and
    dlogf cover all L positions."""
    n, d = inp.q.shape
    length, off = inp.length, inp.offset
    if out.shape != (n, d) or d_out.shape != (n, d):
        raise ShapeError("out/d_out must match q's shape")
    if aux.lse.shape != (n,) or aux.c.shape != (length,):
        raise ShapeError("aux needs one lse per query row and one c per position")
    dtype = inp.q.dtype
    scale = np.asarray(inp.scale, dtype=dtype)
    delta = np.sum(d_out * out, axis=1)

    dq = np.zeros((n, d), dtype=dtype)
    dk = np.zeros((length, d), dtype=dtype)
    dv = np.zeros((length, d), dtype=dtype)
    dc_q = np.zeros(length, dtype=np.float64)
    dc_k = np.zeros(length, dtype=np.float64)
    k_blocks = _blocks(length, cfg.k_block)
    first = _first_kept_blocks(inp, aux.c, cfg)
    with np.errstate(over="ignore", under="ignore"):
        for (r0, r1), j0 in zip(_blocks(length, cfg.q_block, off), first):
            q0, q1 = r0 - off, r1 - off  # the block's rows of q, dq, d_out
            q_blk, do_blk = inp.q[q0:q1], d_out[q0:q1]
            lse_blk, delta_blk = aux.lse[q0:q1, None], delta[q0:q1, None]
            for c0, c1 in k_blocks[j0:]:
                if c0 > r1 - 1:
                    break  # tile is entirely above the diagonal, as are all later ones
                s, valid = _masked_scores(inp, aux.c, r0, r1, c0, c1)
                p = _exp_rows(s, lse_blk, valid)  # P = exp(S - lse)
                ds = do_blk @ inp.v[c0:c1].T  # dP, then dS = P * (dP - Delta)
                ds -= delta_blk
                ds *= p
                dv[c0:c1] += p.T @ do_blk
                dk[c0:c1] += scale * (ds.T @ q_blk)
                dq[q0:q1] += scale * (ds @ inp.k[c0:c1])
                dc_k[c0:c1] -= ds.sum(axis=0)
                dc_q[r0:r1] += ds.sum(axis=1)

    dlogf = cumsum_rev(dc_q + dc_k).astype(np.asarray(inp.logf).dtype)
    dlogf[0] = 0.0  # exact: a common shift of c never changes the bias
    return AttentionGrads(dq=dq, dk=dk, dv=dv, dlogf=dlogf)
