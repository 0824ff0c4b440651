"""Attention layers around the gated core: projections, gates, norms, shifts.

Two layer flavors share one code path, differing only in which features are
enabled:

* "pro": RMSNorm on queries and on shifted keys, a one-step data-dependent
  key/value shift, a sigmoid output gate, and RMSNorm on the attention
  output before the out-projection. No positional rotation: the forget
  gate's decay bias carries position.
* "llama": plain q/k/v projections straight into attention, optionally with
  rotary position embeddings, then the out-projection.

Forget gates come in four modes. "data_dependent" computes
f_t = sigmoid(w_f . x_t + b_f) per position; "data_independent" uses a
learnable per-head constant sigmoid(b); "fixed" freezes that constant (its
gradient is reported as exactly zero and it never enters an optimizer);
"none" removes decay entirely (f = 1), leaving standard causal attention.

Parameters are stacked over heads: LayerParams holds one tensor per kind
with a leading head axis H, so projections, norms, shifts and gates run for
all heads at once. param_shapes(cfg, mode) is the one table of which tensors
a layer uses and their shapes; init, the forward's parameter check and the
model's MLP-width solve all read it. Only the attention core runs head by
head, on the 2-D one-head kernels. The model names each stacked tensor whole
(blocks.<i>.attn.<field>) everywhere except the checkpoint, whose per-head
records blocks.<i>.attn.heads.<h>.<field> model.per_head_parameters() builds.

A forward may keep only its last n rows (keep_last=n): keys, values, the
kv-shift and the forget gates still run at all L rows, since every kept
query reads them, while queries, attention output, output norm, output gate
and the out-projection run at the kept rows only, and y has n rows.

The backward pass is hand-written and exact. It consumes the activations
saved by the forward and recomputes nothing except attention score tiles
(when the tiled backend is selected).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .attention import (
    AttentionInputs,
    ForwardAux,
    fgattn_bwd,
    fgattn_fwd,
    rope_apply,
    rope_unapply,
)
from .errors import ConfigError, ShapeError
from .kernels import log_sigmoid, rmsnorm, sigmoid
from .tiled import TileConfig, tiled_bwd, tiled_fwd

GATE_KINDS = ("data_dependent", "data_independent", "fixed", "none")


@dataclass(frozen=True)
class GateMode:
    """Forget-gate flavor plus the timescale grid used to init constant gates.

    t_min/t_max set the geometric grid of decay timescales for the
    data_independent and fixed modes (and are ignored by the others). A
    timescale T means the gate value satisfies sigmoid(b)^T = 1/e.
    """

    kind: str = "data_dependent"
    t_min: float = 2.0
    t_max: float = 128.0

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ConfigError(f"unknown gate kind {self.kind!r}; one of {GATE_KINDS}")
        if self.kind in ("data_independent", "fixed"):
            if self.t_min <= 0:
                raise ValueError(f"timescales must be positive, got t_min={self.t_min}")
            if self.t_min > self.t_max:
                raise ValueError(f"t_min {self.t_min} > t_max {self.t_max}")


@dataclass(frozen=True)
class LayerConfig:
    d_model: int
    n_heads: int
    d_head: int
    qk_norm: bool = True
    kv_shift: bool = True
    output_gate: bool = True
    output_norm: bool = True
    rope: bool = False
    rope_theta: float = 500000.0
    eps: float = 1e-6
    backend: str = "tiled"
    tile: TileConfig = field(default_factory=TileConfig)
    logf_cap: float | None = None

    def __post_init__(self) -> None:
        if self.d_model < 1 or self.n_heads < 1 or self.d_head < 1:
            raise ConfigError("d_model, n_heads, d_head must all be >= 1")
        if self.backend not in ("tiled", "naive"):
            raise ConfigError(f"unknown attention backend {self.backend!r}")

    @classmethod
    def pro(cls, d_model: int, n_heads: int, d_head: int, **kw) -> "LayerConfig":
        return cls(d_model, n_heads, d_head, **kw)

    @classmethod
    def llama(
        cls, d_model: int, n_heads: int, d_head: int, rope: bool = False, **kw
    ) -> "LayerConfig":
        return cls(
            d_model,
            n_heads,
            d_head,
            qk_norm=False,
            kv_shift=False,
            output_gate=False,
            output_norm=False,
            rope=rope,
            **kw,
        )


@dataclass
class LayerParams:
    """One layer's parameters stacked over its H heads; unused features hold None.

    param_shapes gives each tensor's shape and when it is present. Head h
    owns w_o's columns h*d_head:(h+1)*d_head. Field order is the canonical
    per-head parameter order.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_g: np.ndarray | None = None
    shift_k: np.ndarray | None = None
    shift_v: np.ndarray | None = None
    gate_w: np.ndarray | None = None
    gate_b: np.ndarray | None = field(default=None, metadata={"gate_bias": True})
    q_gamma: np.ndarray | None = None
    k_gamma: np.ndarray | None = None
    out_gamma: np.ndarray | None = None
    w_o: np.ndarray = field(kw_only=True)

    def head_tensors(self) -> list[tuple[str, np.ndarray]]:
        """(field name, stacked tensor) of every per-head parameter present."""
        named = [(f.name, getattr(self, f.name)) for f in fields(self)]
        return [(name, a) for name, a in named if a is not None and name != "w_o"]


# Leaf name of the forget-gate bias, taken from the field so the optimizer's
# rules (no weight decay; frozen in "fixed" mode) follow any rename.
GATE_BIAS = next(f.name for f in fields(LayerParams) if f.metadata.get("gate_bias"))


def param_shapes(cfg: LayerConfig, mode: GateMode) -> dict[str, tuple[int, ...]]:
    """Stacked shape of every LayerParams tensor cfg and mode use.

    In field order, w_o last; the tensors missing here hold None.
    """
    h, dh, d = cfg.n_heads, cfg.d_head, cfg.d_model
    proj, row, scale = (h, dh, d), (h, d), (h, dh)
    table = dict(
        w_q=proj,
        w_k=proj,
        w_v=proj,
        w_g=proj if cfg.output_gate else None,
        shift_k=row if cfg.kv_shift else None,
        shift_v=row if cfg.kv_shift else None,
        gate_w=row if mode.kind == "data_dependent" else None,
        gate_b=(h,) if mode.kind != "none" else None,
        q_gamma=scale if cfg.qk_norm else None,
        k_gamma=scale if cfg.qk_norm else None,
        out_gamma=scale if cfg.output_norm else None,
        w_o=(d, h * dh),
    )
    return {name: shape for name, shape in table.items() if shape is not None}


@dataclass
class LayerActivations:
    """Forward values kept for the backward, stacked over heads.

    Feature tensors are H x L x d_head; alpha_k, alpha_v, f and logf are
    H x L. With keep_last = n, q_pre, q, o, o_norm and g have n rows (the
    last n positions) instead of L. heads holds, per head, the
    AttentionInputs the forward built (views of q, k, v and logf) and the
    ForwardAux of the tiled backend (None for the naive one); the backward
    reuses both instead of building and validating new inputs.
    """

    x: np.ndarray
    q_pre: np.ndarray
    q: np.ndarray
    k_proj: np.ndarray
    k_mix: np.ndarray
    k: np.ndarray
    v_proj: np.ndarray
    v: np.ndarray
    alpha_k: np.ndarray | None
    alpha_v: np.ndarray | None
    f: np.ndarray
    logf: np.ndarray
    o: np.ndarray
    o_norm: np.ndarray
    g: np.ndarray | None
    heads: list[tuple[AttentionInputs, ForwardAux | None]]


def gate_timescales(t_min: float, t_max: float, n_heads: int) -> np.ndarray:
    """Geometric grid of decay timescales from t_min to t_max (float64)."""
    if t_min <= 0:
        raise ValueError(f"timescales must be positive, got t_min={t_min}")
    if t_min > t_max:
        raise ValueError(f"t_min {t_min} > t_max {t_max}")
    if n_heads < 1:
        raise ValueError("need at least one head")
    if n_heads == 1:
        return np.array([t_min], dtype=np.float64)
    steps = np.arange(n_heads, dtype=np.float64) / (n_heads - 1)
    # base-2 logs keep power-of-two grids exact, e.g. (2, 128, 4) -> 2,8,32,128
    return np.exp2(np.log2(t_min) + (np.log2(t_max) - np.log2(t_min)) * steps)


def forget_gate_init(t_min: float, t_max: float, n_heads: int) -> np.ndarray:
    """Per-head gate biases b with sigmoid(b)^T = 1/e on the timescale grid.

    Solving sigmoid(b) = exp(-1/T) gives b = log(p / (1 - p)) with
    p = exp(-1/T). Larger T means slower decay and a larger bias.
    """
    t = gate_timescales(t_min, t_max, n_heads)
    p = np.exp(-1.0 / t)
    return np.log(p / (1.0 - p))


def bias_timescale(b: float) -> float:
    """Inverse of forget_gate_init for one head: T = 1 / (-log sigmoid(b))."""
    return float(1.0 / np.logaddexp(0.0, -b))


def forget_gates(
    x: np.ndarray, mode: GateMode, params: LayerParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position gates (f, logf) for every head, each H x L.

    logf is computed as -softplus(-z), never as log(sigmoid(z)), so strongly
    negative pre-activations cannot round the gate to exactly zero before
    the log.
    """
    shape = (params.w_q.shape[0], x.shape[0])
    dtype = x.dtype
    if mode.kind == "none":
        return np.ones(shape, dtype=dtype), np.zeros(shape, dtype=dtype)
    if mode.kind == "data_dependent":
        z = params.gate_w @ x.T + params.gate_b[:, None]
    else:
        z = np.broadcast_to(params.gate_b[:, None], shape).astype(dtype)
    return sigmoid(z).astype(dtype), log_sigmoid(z).astype(dtype)


def _prev_rows(a: np.ndarray) -> np.ndarray:
    """a shifted down one row along axis -2, with a zero first row."""
    prev = np.zeros_like(a)
    prev[..., 1:, :] = a[..., :-1, :]
    return prev


def _shift_mix(proj: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """mix_t = alpha_t * proj_{t-1} + (1 - alpha_t) * proj_t, with proj_0 = 0."""
    a = alpha[..., None]
    return a * _prev_rows(proj) + (1.0 - a) * proj


def kv_shift(
    proj: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    normalize: bool,
    gamma: np.ndarray | None = None,
    eps: float = 1e-6,
) -> np.ndarray:
    """Data-dependent one-step shift of a projected sequence.

    alpha_t = sigmoid(w . x_t) blends each row with its predecessor (a zero
    vector before the first position). With normalize=True the mix passes
    through RMSNorm (gamma defaults to ones).
    """
    if proj.shape[0] != x.shape[0]:
        raise ShapeError(f"proj rows {proj.shape[0]} != x rows {x.shape[0]}")
    if w.shape != (x.shape[1],):
        raise ShapeError(f"w shape {w.shape} != ({x.shape[1]},)")
    alpha = sigmoid(x @ w)
    mix = _shift_mix(proj, alpha)
    if not normalize:
        return mix
    if gamma is None:
        gamma = np.ones(proj.shape[1], dtype=proj.dtype)
    return rmsnorm(mix, gamma, eps)


def rmsnorm_bwd(
    x: np.ndarray, gamma: np.ndarray, d_y: np.ndarray, eps: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of kernels.rmsnorm on rows (..., n, d): returns (dx, dgamma)."""
    d = x.shape[-1]
    r = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    gdy = gamma[..., None, :] * d_y
    dgamma = (d_y * x / r).sum(axis=-2)
    dx = gdy / r - x * ((gdy * x).sum(axis=-1, keepdims=True) / (d * r * r * r))
    return dx, dgamma


def _check_params(params: LayerParams, mode: GateMode, cfg: LayerConfig, dtype: np.dtype) -> None:
    """Every tensor cfg and mode use is present, has its shape and x's dtype."""
    for name, shape in param_shapes(cfg, mode).items():
        a = getattr(params, name)
        if a is None:
            raise ConfigError(f"{name} is missing; this layer config and gate mode use it")
        if a.shape != shape:
            raise ShapeError(f"{name} shape {a.shape} != {shape}")
        if a.dtype != dtype:
            raise ValueError(f"{name} dtype {a.dtype} != the input's {np.dtype(dtype)}")


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """H x L x dh to L x (H * dh), head h in columns h*dh:(h+1)*dh."""
    h, n, dh = a.shape
    return a.transpose(1, 0, 2).reshape(n, h * dh)


def _from_heads(da: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient summed over heads: sum_h da[h] @ w[h], as one product."""
    return _merge_heads(da) @ w.reshape(-1, w.shape[-1])


def kept_rows(keep_last: int | None, length: int) -> int:
    """Rows a keep_last request keeps out of length: all when it is None."""
    if keep_last is None:
        return length
    if isinstance(keep_last, bool) or not isinstance(keep_last, numbers.Integral):
        raise ValueError(f"keep_last must be an integer, got {keep_last!r}")
    if not 1 <= keep_last <= length:
        raise ValueError(f"keep_last must lie in 1..{length}, got {keep_last}")
    return int(keep_last)


def _forward(
    x: np.ndarray,
    params: LayerParams,
    mode: GateMode,
    cfg: LayerConfig,
    keep_last: int | None = None,
) -> tuple[np.ndarray, LayerActivations]:
    if x.ndim != 2 or x.shape[1] != cfg.d_model:
        raise ShapeError(f"x must be L x {cfg.d_model}, got {x.shape}")
    _check_params(params, mode, cfg, x.dtype)
    off = x.shape[0] - kept_rows(keep_last, x.shape[0])
    x_kept = x[off:]
    q_pre = x_kept @ params.w_q.transpose(0, 2, 1)
    k_proj = x @ params.w_k.transpose(0, 2, 1)
    v_proj = x @ params.w_v.transpose(0, 2, 1)

    if cfg.rope:
        q_pre = rope_apply(q_pre, cfg.rope_theta, start_pos=off)
        k_proj = rope_apply(k_proj, cfg.rope_theta)

    q = rmsnorm(q_pre, params.q_gamma, cfg.eps) if cfg.qk_norm else q_pre

    if cfg.kv_shift:
        alpha_k = sigmoid(params.shift_k @ x.T)
        alpha_v = sigmoid(params.shift_v @ x.T)
        k_mix = _shift_mix(k_proj, alpha_k)
        v = _shift_mix(v_proj, alpha_v)
    else:
        alpha_k = alpha_v = None
        k_mix = k_proj
        v = v_proj
    k = rmsnorm(k_mix, params.k_gamma, cfg.eps) if cfg.qk_norm else k_mix

    f, logf = forget_gates(x, mode, params)
    if cfg.logf_cap is not None:
        logf = np.minimum(logf, cfg.logf_cap).astype(x.dtype)

    o = np.empty_like(q)
    heads = []
    for h in range(cfg.n_heads):
        inp = AttentionInputs(q=q[h], k=k[h], v=v[h], logf=logf[h])
        if cfg.backend == "tiled":
            o[h], aux = tiled_fwd(inp, cfg.tile)
        else:
            o[h], aux = fgattn_fwd(inp), None
        heads.append((inp, aux))

    o_norm = rmsnorm(o, params.out_gamma, cfg.eps) if cfg.output_norm else o
    g = sigmoid(x_kept @ params.w_g.transpose(0, 2, 1)) if cfg.output_gate else None
    u = o_norm * g if cfg.output_gate else o_norm
    y = _merge_heads(u) @ params.w_o.T
    return y, LayerActivations(
        x=x,
        q_pre=q_pre,
        q=q,
        k_proj=k_proj,
        k_mix=k_mix,
        k=k,
        v_proj=v_proj,
        v=v,
        alpha_k=alpha_k,
        alpha_v=alpha_v,
        f=f,
        logf=logf,
        o=o,
        o_norm=o_norm,
        g=g,
        heads=heads,
    )


def pro_layer_fwd(
    x: np.ndarray,
    params: LayerParams,
    mode: GateMode,
    cfg: LayerConfig,
    keep_last: int | None = None,
) -> tuple[np.ndarray, LayerActivations]:
    """Gated layer forward. Position is carried by decay, so rope must be off.

    keep_last=n returns only the last n rows of y (see the module docstring).
    """
    if cfg.rope:
        raise ConfigError("the gated layer does not use rotary embeddings")
    return _forward(x, params, mode, cfg, keep_last)


def llama_layer_fwd(
    x: np.ndarray,
    params: LayerParams,
    mode: GateMode,
    cfg: LayerConfig,
    keep_last: int | None = None,
) -> tuple[np.ndarray, LayerActivations]:
    """Plain-projection layer forward: q/k/v straight into attention.

    keep_last=n returns only the last n rows of y (see the module docstring).
    """
    if cfg.qk_norm or cfg.kv_shift or cfg.output_gate or cfg.output_norm:
        raise ConfigError("plain layer config must have the gated extras off")
    return _forward(x, params, mode, cfg, keep_last)


def zeros_like_layer(params: LayerParams) -> LayerParams:
    zeros = {name: np.zeros_like(a) for name, a in params.head_tensors()}
    return replace(params, w_o=np.zeros_like(params.w_o), **zeros)


def _shift_bwd(
    proj: np.ndarray, alpha: np.ndarray, d_mix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of _shift_mix: returns (d_proj, d_alpha)."""
    d_proj = (1.0 - alpha[..., None]) * d_mix
    d_proj[..., :-1, :] += alpha[..., 1:, None] * d_mix[..., 1:, :]
    d_alpha = (d_mix * (_prev_rows(proj) - proj)).sum(axis=-1)
    return d_proj, d_alpha


def layer_bwd(
    acts: LayerActivations,
    d_y: np.ndarray,
    params: LayerParams,
    mode: GateMode,
    cfg: LayerConfig,
) -> tuple[np.ndarray, LayerParams]:
    """Exact layer backward; returns (dX, grads) with grads mirroring params.

    d_y has one row per kept row of the forward (n, read from the saved
    queries); dX always covers all L rows of x.

    Fixed-mode gate biases keep an exactly-zero gradient: they are frozen by
    contract, not merely unlikely to move.
    """
    if cfg.logf_cap is not None:
        raise ConfigError("logf_cap is an eval-only override; backward refuses it")
    x = acts.x
    n = acts.q.shape[1]
    if d_y.shape != (n, cfg.d_model):
        raise ShapeError(f"d_y shape {d_y.shape} != {(n, cfg.d_model)} (the kept rows)")
    off = x.shape[0] - n
    x_kept = x[off:]
    n_heads, dh = cfg.n_heads, cfg.d_head
    grads = zeros_like_layer(params)
    u = acts.o_norm * acts.g if cfg.output_gate else acts.o_norm
    grads.w_o[...] = d_y.T @ _merge_heads(u)
    du = (d_y @ params.w_o).reshape(n, n_heads, dh).transpose(1, 0, 2)

    dx = np.zeros_like(x)
    if cfg.output_gate:
        g = acts.g
        d_on = du * g
        dzg = du * acts.o_norm * g * (1.0 - g)
        grads.w_g[...] = dzg.transpose(0, 2, 1) @ x_kept
        dx[off:] = _from_heads(dzg, params.w_g)
    else:
        d_on = du

    if cfg.output_norm:
        do, grads.out_gamma[...] = rmsnorm_bwd(acts.o, params.out_gamma, d_on, cfg.eps)
    else:
        do = d_on

    dq = np.empty_like(acts.q)
    dk = np.empty_like(acts.k)
    dv = np.empty_like(acts.v)
    dlogf = np.empty_like(acts.logf)
    for h, (inp, aux) in enumerate(acts.heads):
        if cfg.backend == "tiled":
            ag = tiled_bwd(inp, acts.o[h], aux, do[h], cfg.tile)
        else:
            ag = fgattn_bwd(inp, acts.o[h], do[h])
        dq[h], dk[h], dv[h], dlogf[h] = ag.dq, ag.dk, ag.dv, ag.dlogf

    if mode.kind == "data_dependent":
        dz = dlogf * (1.0 - acts.f)
        grads.gate_w[...] = dz @ x
        grads.gate_b[...] = dz.sum(axis=1)
        dx += dz.T @ params.gate_w
    elif mode.kind == "data_independent":
        grads.gate_b[...] = (dlogf * (1.0 - acts.f)).sum(axis=1)
    # fixed: frozen, gradient stays zero; none: no gate parameters

    if cfg.qk_norm:
        dq, grads.q_gamma[...] = rmsnorm_bwd(acts.q_pre, params.q_gamma, dq, cfg.eps)
    if cfg.rope:
        dq = rope_unapply(dq, cfg.rope_theta, start_pos=off)
    grads.w_q[...] = dq.transpose(0, 2, 1) @ x_kept
    dx[off:] += _from_heads(dq, params.w_q)

    if cfg.qk_norm:
        dk, grads.k_gamma[...] = rmsnorm_bwd(acts.k_mix, params.k_gamma, dk, cfg.eps)
    if cfg.kv_shift:
        dk, d_alpha_k = _shift_bwd(acts.k_proj, acts.alpha_k, dk)
        dza = d_alpha_k * acts.alpha_k * (1.0 - acts.alpha_k)
        grads.shift_k[...] = dza @ x
        dx += dza.T @ params.shift_k
    if cfg.rope:
        dk = rope_unapply(dk, cfg.rope_theta)
    grads.w_k[...] = dk.transpose(0, 2, 1) @ x
    dx += _from_heads(dk, params.w_k)

    if cfg.kv_shift:
        dv, d_alpha_v = _shift_bwd(acts.v_proj, acts.alpha_v, dv)
        dzb = d_alpha_v * acts.alpha_v * (1.0 - acts.alpha_v)
        grads.shift_v[...] = dzb @ x
        dx += dzb.T @ params.shift_v
    grads.w_v[...] = dv.transpose(0, 2, 1) @ x
    dx += _from_heads(dv, params.w_v)

    return dx, grads


# The tensors init draws per head, in draw order (see init_layer_params).
_DRAW_ORDER = ("gate_w", "w_q", "w_k", "w_v", "w_g", "shift_k", "shift_v")


def init_layer_params(
    cfg: LayerConfig,
    mode: GateMode,
    rng: np.random.Generator,
    dtype=np.float32,
    init_std: float = 0.02,
) -> LayerParams:
    """Fresh layer parameters: N(0, init_std^2) weights, unit norm scales,
    zero data-dependent gate bias, timescale-grid constant-gate biases.

    Weights are drawn head by head (gate_w, w_q, w_k, w_v, w_g, shift_k,
    shift_v, then the next head) and w_o last; a seed's initial checkpoint
    bytes depend on this order.
    """
    shapes = param_shapes(cfg, mode)

    def w(shape):
        return rng.normal(0.0, init_std, size=shape).astype(dtype)

    drawn = [name for name in _DRAW_ORDER if name in shapes]
    heads = [[w(shapes[name][1:]) for name in drawn] for _ in range(cfg.n_heads)]
    tensors = {name: np.stack(per_head) for name, per_head in zip(drawn, zip(*heads))}
    for name, shape in shapes.items():
        if name == GATE_BIAS and mode.kind == "data_dependent":
            tensors[name] = np.zeros(shape, dtype=dtype)
        elif name == GATE_BIAS:
            tensors[name] = forget_gate_init(mode.t_min, mode.t_max, cfg.n_heads).astype(dtype)
        elif name.endswith("gamma"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif name not in tensors:  # w_o, drawn after every head
            tensors[name] = w(shape)
    return LayerParams(**tensors)
