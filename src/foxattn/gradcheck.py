"""Finite-difference verification of the hand-written gradients.

Each check builds a scalar J = sum(cotangent * forward(inputs)) with a fixed
random cotangent, compares the analytic gradient against central differences
(f(x+h) - f(x-h)) / 2h in float64, and reports the worst relative error. The
CLI `gradcheck` subcommand runs these; the test suite carries its own
independent copies of the same idea.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionInputs, fgattn_bwd, fgattn_fwd
from .layer import GATE_BIAS, GateMode, LayerConfig, init_layer_params, layer_bwd
from .model import (
    ModelConfig,
    cross_entropy,
    cross_entropy_bwd,
    init_model_params,
    model_bwd,
    model_fwd,
    per_head_parameters,
)
from .rng import rng_stream
from .tiled import TileConfig, tiled_bwd, tiled_fwd


def rel_max_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> float:
    """max |a - b| scaled by the larger of the two max magnitudes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), floor)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def central_diff(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Elementwise central differences of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return g


@dataclass
class CheckResult:
    label: str
    worst: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.worst <= self.tol


def check_attention_core(seed: int = 0, length: int = 7, d: int = 3) -> CheckResult:
    """fgattn gradients vs central differences, float64, tight tolerance."""
    rng = rng_stream(seed, "gradcheck/attention")
    q = rng.normal(size=(length, d))
    k = rng.normal(size=(length, d))
    v = rng.normal(size=(length, d))
    logf = -0.01 - np.abs(rng.normal(scale=0.5, size=length))
    cot = rng.normal(size=(length, d))

    def run() -> float:
        out = fgattn_fwd(AttentionInputs(q=q, k=k, v=v, logf=logf))
        return float(np.sum(cot * out))

    inp = AttentionInputs(q=q, k=k, v=v, logf=logf)
    out = fgattn_fwd(inp)
    g = fgattn_bwd(inp, out, cot)
    worst = 0.0
    for analytic, arr in ((g.dq, q), (g.dk, k), (g.dv, v), (g.dlogf, logf)):
        worst = max(worst, rel_max_err(analytic, central_diff(run, arr)))
    return CheckResult("attention core", worst, 1e-6)


def check_tiled_backward(seed: int = 0, length: int = 23, d: int = 4) -> CheckResult:
    """Tiled backward vs central differences through the tiled forward."""
    rng = rng_stream(seed, "gradcheck/tiled")
    cfg = TileConfig(5, 7)
    q = rng.normal(size=(length, d))
    k = rng.normal(size=(length, d))
    v = rng.normal(size=(length, d))
    logf = -0.01 - np.abs(rng.normal(scale=0.5, size=length))
    cot = rng.normal(size=(length, d))

    def run() -> float:
        out, _ = tiled_fwd(AttentionInputs(q=q, k=k, v=v, logf=logf), cfg)
        return float(np.sum(cot * out))

    inp = AttentionInputs(q=q, k=k, v=v, logf=logf)
    out, aux = tiled_fwd(inp, cfg)
    g = tiled_bwd(inp, out, aux, cot, cfg)
    worst = 0.0
    for analytic, arr in ((g.dq, q), (g.dk, k), (g.dv, v), (g.dlogf, logf)):
        worst = max(worst, rel_max_err(analytic, central_diff(run, arr)))
    return CheckResult("tiled backward", worst, 1e-6)


def check_layer(
    arch: str = "pro",
    gate_kind: str = "data_dependent",
    backend: str = "naive",
    rope: bool = False,
    seed: int = 0,
    length: int = 9,
) -> CheckResult:
    """Full layer gradients (params and input) vs central differences."""
    d_model, n_heads, d_head = 8, 2, 4
    mode = GateMode(kind=gate_kind)
    if arch == "pro":
        cfg = LayerConfig.pro(
            d_model, n_heads, d_head, backend=backend, tile=TileConfig(4, 3)
        )
    else:
        cfg = LayerConfig.llama(
            d_model, n_heads, d_head, rope=rope, backend=backend, tile=TileConfig(4, 3)
        )
    rng = rng_stream(seed, f"gradcheck/layer/{arch}/{gate_kind}")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.3)
    x = rng.normal(size=(length, d_model))
    cot = rng.normal(size=(length, d_model))

    from .layer import _forward  # single entry point for both archs

    def run() -> float:
        y, _ = _forward(x, params, mode, cfg)
        return float(np.sum(cot * y))

    y, acts = _forward(x, params, mode, cfg)
    dx, grads = layer_bwd(acts, cot, params, mode, cfg)
    worst = rel_max_err(dx, central_diff(run, x))
    worst = max(worst, rel_max_err(grads.w_o, central_diff(run, params.w_o)))
    for (name, arr), (_, ga) in zip(params.head_tensors(), grads.head_tensors()):
        if gate_kind == "fixed" and name == GATE_BIAS:
            continue  # frozen: analytic gradient is pinned to zero by contract
        numeric = central_diff(run, arr)
        for h in range(n_heads):  # head by head, as the model names them
            worst = max(worst, rel_max_err(ga[h], numeric[h]))
    return CheckResult(f"layer {arch}/{gate_kind}/{backend}", worst, 1e-5)


def check_model(
    arch: str = "pro", backend: str = "naive", seed: int = 0, length: int = 12
) -> CheckResult:
    """End-to-end model gradients through the cross-entropy loss."""
    cfg = ModelConfig(
        n_layers=2,
        d_model=8,
        n_heads=2,
        d_head=4,
        vocab_size=11,
        arch=arch,
        backend=backend,
        tile=4,
    )
    params = init_model_params(cfg, seed=seed, dtype=np.float64)
    rng = rng_stream(seed, "gradcheck/model")
    tokens = rng.integers(0, cfg.vocab_size, size=length + 1)
    weights = (rng.random(length) > 0.3).astype(np.float64)
    if not weights.any():
        weights[:] = 1.0

    def run() -> float:
        logits, _ = model_fwd(tokens[:-1], params, cfg)
        loss, _ = cross_entropy(logits, tokens[1:], weights)
        return loss

    logits, acts = model_fwd(tokens[:-1], params, cfg)
    d_logits = cross_entropy_bwd(logits, tokens[1:], weights)
    grads = model_bwd(acts, d_logits, params, cfg)
    gmap = dict(per_head_parameters(grads))
    worst = 0.0
    for name, arr in per_head_parameters(params):  # head by head
        if cfg.gate_mode.kind == "fixed" and name.endswith(GATE_BIAS):
            continue
        worst = max(worst, rel_max_err(gmap[name], central_diff(run, arr)))
    return CheckResult(f"model {arch}/{backend}", worst, 1e-4)


def standard_suite(seed: int = 0) -> list[CheckResult]:
    """The checks run by the CLI gradcheck subcommand."""
    return [
        check_attention_core(seed),
        check_tiled_backward(seed),
        check_layer("pro", "data_dependent", "naive", seed=seed),
        check_layer("pro", "data_dependent", "tiled", seed=seed),
        check_layer("pro", "data_independent", "naive", seed=seed),
        check_layer("llama", "data_dependent", "naive", seed=seed),
        check_layer("llama", "none", "tiled", rope=True, seed=seed),
        check_model("pro", "naive", seed=seed),
        check_model("llama", "tiled", seed=seed),
    ]
