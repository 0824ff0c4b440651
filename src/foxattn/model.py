"""Desk-scale decoder: pre-norm residual blocks over one attention flavor.

Each block is x + attn(norm(x)) followed by x + mlp(norm(x)); the MLP is the
gated form hidden = (W_in x) * silu(W_gate x) projected back by W_out. The
token embedding and the output head are separate matrices (not tied). A
layer with attention parameters beyond the plain ("llama") preset's gets an
MLP hidden width solved so the block's parameter count matches the plain
block at the same width, making architecture comparisons
parameter-for-parameter fair.

model_fwd(..., keep_last=n) returns logits for the last n positions only.
Row i of the last block feeds only logits row i, so the last block runs its
queries, attention output, MLP, final norm and head at those n rows (keys,
values and gates still at all L); earlier blocks run at every row, because
the kept rows attend to all of them. model_bwd reads n from d_logits. A
caller that scores only some rows passes the tokens up to its last scored
row and keeps the span from its first: no row after the last is computed.

All parameters are reachable through named_parameters(), which defines the
canonical flat names. A layer's heads are stacked (see layer.LayerParams) and
named as one tensor, blocks.<i>.attn.<field>, everywhere except the
checkpoint, whose frozen layout per_head_parameters() builds from per-head
views named blocks.<i>.attn.heads.<h>.<field>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import rmsnorm, sigmoid
from .layer import (
    GateMode,
    LayerActivations,
    LayerConfig,
    LayerParams,
    init_layer_params,
    kept_rows,
    layer_bwd,
    llama_layer_fwd,
    param_shapes,
    pro_layer_fwd,
    rmsnorm_bwd,
    zeros_like_layer,
)
from .rng import rng_stream
from .tiled import TileConfig

ARCHS = ("pro", "llama")


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_head: int = 16
    vocab_size: int = 64
    max_train_len: int = 256
    arch: str = "pro"
    gate_mode: GateMode = field(default_factory=GateMode)
    mlp_ratio: float = 8.0 / 3.0
    rope: bool = False
    rope_theta: float = 500000.0
    runtime_len_cap: int = 8192
    backend: str = "tiled"
    tile: int = 64
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}; one of {ARCHS}")
        if self.n_heads * self.d_head != self.d_model:
            raise ConfigError(
                f"n_heads * d_head = {self.n_heads * self.d_head} != d_model {self.d_model}"
            )
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if self.rope and self.arch == "pro":
            raise ConfigError("rope applies to the plain layer only")

    def layer_config(self) -> LayerConfig:
        preset = LayerConfig.pro if self.arch == "pro" else LayerConfig.llama
        return preset(
            self.d_model,
            self.n_heads,
            self.d_head,
            rope=self.rope,
            rope_theta=self.rope_theta,
            backend=self.backend,
            tile=TileConfig(self.tile, self.tile),
            eps=self.eps,
        )


def _attn_param_count(lcfg: LayerConfig, mode: GateMode) -> int:
    return sum(math.prod(shape) for shape in param_shapes(lcfg, mode).values())


def mlp_hidden(cfg: ModelConfig) -> int:
    """Hidden width of the block MLP.

    The plain layer uses round(mlp_ratio * d_model). Any other layer config
    solves for the width that equates its block parameter count with the
    plain block's, absorbing its extra attention parameters.
    """
    lcfg = cfg.layer_config()
    plain = LayerConfig.llama(cfg.d_model, cfg.n_heads, cfg.d_head)
    extra = _attn_param_count(lcfg, cfg.gate_mode) - _attn_param_count(plain, cfg.gate_mode)
    llama_mlp = 3 * cfg.d_model * round(cfg.mlp_ratio * cfg.d_model)
    return max(1, round((llama_mlp - extra) / (3 * cfg.d_model)))


@dataclass
class BlockParams:
    attn_gamma: np.ndarray
    attn: LayerParams
    mlp_gamma: np.ndarray
    w_in: np.ndarray
    w_gate: np.ndarray
    w_out: np.ndarray


@dataclass
class ModelParams:
    embed: np.ndarray
    blocks: list[BlockParams]
    final_gamma: np.ndarray
    head_w: np.ndarray


@dataclass
class BlockActs:
    x_in: np.ndarray
    a_in: np.ndarray
    layer: LayerActivations
    x_mid: np.ndarray
    m_in: np.ndarray
    z_in: np.ndarray
    z_gate: np.ndarray
    hidden: np.ndarray


@dataclass
class ModelActs:
    tokens: np.ndarray
    blocks: list[BlockActs]
    x_final: np.ndarray
    h_final: np.ndarray


def init_model_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """All linear weights and the embedding are N(0, 0.02^2); norm scales 1."""
    lcfg = cfg.layer_config()
    hidden = mlp_hidden(cfg)
    d = cfg.d_model
    blocks = []
    for i in range(cfg.n_layers):
        rng = rng_stream(seed, f"init/block{i}")
        attn = init_layer_params(lcfg, cfg.gate_mode, rng, dtype=dtype)
        blocks.append(
            BlockParams(
                attn_gamma=np.ones(d, dtype=dtype),
                attn=attn,
                mlp_gamma=np.ones(d, dtype=dtype),
                w_in=rng.normal(0.0, 0.02, size=(hidden, d)).astype(dtype),
                w_gate=rng.normal(0.0, 0.02, size=(hidden, d)).astype(dtype),
                w_out=rng.normal(0.0, 0.02, size=(d, hidden)).astype(dtype),
            )
        )
    rng = rng_stream(seed, "init/embed")
    return ModelParams(
        embed=rng.normal(0.0, 0.02, size=(cfg.vocab_size, d)).astype(dtype),
        blocks=blocks,
        final_gamma=np.ones(d, dtype=dtype),
        head_w=rng.normal(0.0, 0.02, size=(d, cfg.vocab_size)).astype(dtype),
    )


def named_parameters(params: ModelParams):
    """Yield (name, array) for every parameter, in a fixed canonical order."""
    yield "embed", params.embed
    for i, blk in enumerate(params.blocks):
        yield f"blocks.{i}.attn_norm.gamma", blk.attn_gamma
        for name, a in blk.attn.head_tensors():
            yield f"blocks.{i}.attn.{name}", a
        yield f"blocks.{i}.attn.w_o", blk.attn.w_o
        yield f"blocks.{i}.mlp_norm.gamma", blk.mlp_gamma
        yield f"blocks.{i}.mlp.w_in", blk.w_in
        yield f"blocks.{i}.mlp.w_gate", blk.w_gate
        yield f"blocks.{i}.mlp.w_out", blk.w_out
    yield "final_norm.gamma", params.final_gamma
    yield "head.w", params.head_w


def per_head_parameters(params: ModelParams):
    """Yield (name, array) in the checkpoint's frozen per-head layout.

    named_parameters() order, with each layer's stacked head tensors split
    into views blocks.<i>.attn.heads.<h>.<field>, head by head, ahead of w_o
    (so writes through these names land in the stacks). A gate bias stays
    1-D: one (1,) view per head.
    """
    stacked = []  # the current layer's head tensors, held until its w_o
    for name, a in named_parameters(params):
        prefix, _, leaf = name.rpartition(".")
        if prefix.endswith(".attn") and leaf != "w_o":
            stacked.append((leaf, a))
            continue
        for h in range(len(stacked[0][1]) if stacked else 0):
            for field_name, s in stacked:
                yield f"{prefix}.heads.{h}.{field_name}", s[h] if s.ndim > 1 else s[h : h + 1]
        stacked = []
        yield name, a


def param_count(params: ModelParams) -> int:
    return sum(a.size for _, a in named_parameters(params))


def zeros_like_model(params: ModelParams) -> ModelParams:
    return ModelParams(
        embed=np.zeros_like(params.embed),
        blocks=[
            BlockParams(
                attn_gamma=np.zeros_like(b.attn_gamma),
                attn=zeros_like_layer(b.attn),
                mlp_gamma=np.zeros_like(b.mlp_gamma),
                w_in=np.zeros_like(b.w_in),
                w_gate=np.zeros_like(b.w_gate),
                w_out=np.zeros_like(b.w_out),
            )
            for b in params.blocks
        ],
        final_gamma=np.zeros_like(params.final_gamma),
        head_w=np.zeros_like(params.head_w),
    )


def _silu(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def model_fwd(
    tokens: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
    logf_cap: float | None = None,
    keep_last: int | None = None,
) -> tuple[np.ndarray, ModelActs]:
    """Token ids to logits, L x V, or keep_last x V for the last keep_last
    positions (an integer in 1..L). logf_cap is an eval-only decay clamp."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise ShapeError(f"tokens must be 1-D, got ndim={tokens.ndim}")
    n = tokens.shape[0]
    if n < 1:
        raise ValueError("empty token sequence")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got dtype {tokens.dtype}")
    if n > cfg.runtime_len_cap:
        raise ValueError(f"sequence length {n} exceeds runtime cap {cfg.runtime_len_cap}")
    if np.any(tokens < 0) or np.any(tokens >= cfg.vocab_size):
        raise ValueError("token id out of range")
    kept = kept_rows(keep_last, n)
    lcfg = cfg.layer_config()
    if logf_cap is not None:
        lcfg = replace(lcfg, logf_cap=float(logf_cap))
    layer_fn = pro_layer_fwd if cfg.arch == "pro" else llama_layer_fwd

    x = params.embed[tokens]
    blocks: list[BlockActs] = []
    for i, blk in enumerate(params.blocks):
        last = i == len(params.blocks) - 1
        a_in = rmsnorm(x, blk.attn_gamma, cfg.eps)
        y, layer_acts = layer_fn(
            a_in, blk.attn, cfg.gate_mode, lcfg, keep_last=kept if last else None
        )
        x_mid = x[x.shape[0] - y.shape[0] :] + y
        m_in = rmsnorm(x_mid, blk.mlp_gamma, cfg.eps)
        z_in = m_in @ blk.w_in.T
        z_gate = m_in @ blk.w_gate.T
        hidden = z_in * _silu(z_gate)
        x_next = x_mid + hidden @ blk.w_out.T
        blocks.append(
            BlockActs(
                x_in=x,
                a_in=a_in,
                layer=layer_acts,
                x_mid=x_mid,
                m_in=m_in,
                z_in=z_in,
                z_gate=z_gate,
                hidden=hidden,
            )
        )
        x = x_next
    x = x[x.shape[0] - kept :]  # a no-op unless there are no blocks
    h_final = rmsnorm(x, params.final_gamma, cfg.eps)
    logits = h_final @ params.head_w
    return logits, ModelActs(tokens=tokens, blocks=blocks, x_final=x, h_final=h_final)


def _check_targets(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """One target id in [0, vocab) per logits row; returns targets as an array."""
    if logits.ndim != 2:
        raise ShapeError("logits must be 2-D")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise ShapeError(f"targets shape {targets.shape} != ({logits.shape[0]},)")
    if np.any(targets < 0) or np.any(targets >= logits.shape[1]):
        raise ValueError("target id out of range")
    return targets


def _check_weights(weights: np.ndarray, n: int) -> np.ndarray:
    """One finite, non-negative weight per row with a positive sum; float64."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ShapeError(f"weights shape {w.shape} != ({n},)")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and non-negative")
    if not w.sum() > 0:
        raise ValueError("weights sum to zero")
    return w


def cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean and per-position next-token loss via logsumexp.

    loss_i = logsumexp(logits_i) - logits_i[target_i]; the mean is weighted
    when a weight vector is given (weights that are all zero are an error).
    """
    targets = _check_targets(logits, targets)
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    per_pos = lse - logits[np.arange(logits.shape[0]), targets]
    if weights is None:
        return float(per_pos.mean()), per_pos
    weights = _check_weights(weights, logits.shape[0])
    return float((per_pos * weights).sum() / weights.sum()), per_pos


def cross_entropy_bwd(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """d(mean loss)/d(logits): (softmax - onehot) scaled by each weight share."""
    targets = _check_targets(logits, targets)
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(n), targets] -= 1.0
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = _check_weights(weights, n)
        w = w / w.sum()
    return (p * w[:, None]).astype(logits.dtype)


def model_bwd(
    acts: ModelActs,
    d_logits: np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
) -> ModelParams:
    """End-to-end backward; returns gradients in the params structure.

    d_logits has one row per logits row model_fwd returned; the last block's
    residual gradient for its kept rows lands in the last rows of the stream.
    """
    if d_logits.shape != (acts.h_final.shape[0], params.head_w.shape[1]):
        raise ShapeError(
            f"d_logits shape {d_logits.shape} != logits shape "
            f"{(acts.h_final.shape[0], params.head_w.shape[1])}"
        )
    lcfg = cfg.layer_config()
    grads = zeros_like_model(params)
    grads.head_w[...] = acts.h_final.T @ d_logits
    dh = d_logits @ params.head_w.T
    dx, dfg = rmsnorm_bwd(acts.x_final, params.final_gamma, dh, cfg.eps)
    grads.final_gamma[...] = dfg
    for blk, ba, bg in zip(
        reversed(params.blocks), reversed(acts.blocks), reversed(grads.blocks)
    ):
        # MLP half: x_next = x_mid + (z_in * silu(z_gate)) @ w_out.T
        bg.w_out[...] = dx.T @ ba.hidden
        d_hidden = dx @ blk.w_out
        sg = sigmoid(ba.z_gate)
        silu_g = ba.z_gate * sg
        d_zin = d_hidden * silu_g
        d_zgate = d_hidden * ba.z_in * (sg * (1.0 + ba.z_gate * (1.0 - sg)))
        bg.w_in[...] = d_zin.T @ ba.m_in
        bg.w_gate[...] = d_zgate.T @ ba.m_in
        d_min = d_zin @ blk.w_in + d_zgate @ blk.w_gate
        d_xmid, dmg = rmsnorm_bwd(ba.x_mid, blk.mlp_gamma, d_min, cfg.eps)
        bg.mlp_gamma[...] = dmg
        d_xmid = d_xmid + dx
        # Attention half: x_mid = x_in + layer(rmsnorm(x_in))
        d_ain, bg.attn = layer_bwd(ba.layer, d_xmid, blk.attn, cfg.gate_mode, lcfg)
        d_xin, dag = rmsnorm_bwd(ba.x_in, blk.attn_gamma, d_ain, cfg.eps)
        bg.attn_gamma[...] = dag
        d_xin[d_xin.shape[0] - d_xmid.shape[0] :] += d_xmid
        dx = d_xin
    np.add.at(grads.embed, acts.tokens[acts.tokens.shape[0] - dx.shape[0] :], dx)
    return grads
