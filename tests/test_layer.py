"""Unit tests for the attention layers and their hand-written backward.

The forward oracles below are written as literal per-position loops with no
shared code, so a transcription error in the layer cannot hide in the test.
Gradients are checked against local central differences.
"""

import itertools
from dataclasses import fields

import numpy as np
import pytest

from foxattn.attention import AttentionInputs
from foxattn.errors import ConfigError, ShapeError
from foxattn.layer import (
    GATE_KINDS,
    GateMode,
    LayerConfig,
    bias_timescale,
    forget_gate_init,
    forget_gates,
    gate_timescales,
    init_layer_params,
    kv_shift,
    layer_bwd,
    llama_layer_fwd,
    param_shapes,
    pro_layer_fwd,
    rmsnorm_bwd,
    zeros_like_layer,
)
from foxattn.model import _attn_param_count
from foxattn.tiled import TileConfig


def test_gate_timescale_grid_frozen():
    np.testing.assert_allclose(
        gate_timescales(2.0, 128.0, 4), [2.0, 8.0, 32.0, 128.0], rtol=1e-12
    )
    np.testing.assert_allclose(gate_timescales(2.0, 128.0, 1), [2.0])
    np.testing.assert_allclose(gate_timescales(3.0, 3.0, 5), np.full(5, 3.0), rtol=1e-12)


def test_gate_timescale_validation():
    with pytest.raises(ValueError):
        gate_timescales(0.0, 4.0, 2)
    with pytest.raises(ValueError):
        gate_timescales(8.0, 4.0, 2)
    with pytest.raises(ValueError):
        gate_timescales(2.0, 4.0, 0)


def test_forget_gate_init_satisfies_decay_identity():
    """sigmoid(b)^T = 1/e for every head, to float64 accuracy."""
    b = forget_gate_init(2.0, 128.0, 4)
    t = gate_timescales(2.0, 128.0, 4)
    decay = (1.0 / (1.0 + np.exp(-b))) ** t
    np.testing.assert_allclose(decay, np.exp(-1.0), atol=1e-12)
    # slowest head decays least, so biases increase with T
    assert np.all(np.diff(b) > 0)
    # the T = 2 head: sigmoid(b) = exp(-1/2) gives b ~ 0.433
    np.testing.assert_allclose(b[0], 0.43275, atol=5e-5)


def test_bias_timescale_inverts_init():
    b = forget_gate_init(2.0, 128.0, 4)
    t = gate_timescales(2.0, 128.0, 4)
    for bi, ti in zip(b, t):
        np.testing.assert_allclose(bias_timescale(float(bi)), ti, rtol=1e-9)


def test_forget_gates_modes():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4))
    mode_dd = GateMode(kind="data_dependent")
    params = init_layer_params(LayerConfig(4, 1, 2), mode_dd, rng, dtype=np.float64)

    f, logf = forget_gates(x, mode_dd, params)
    z = x @ params.gate_w[0] + params.gate_b[0]
    np.testing.assert_allclose(f[0], 1.0 / (1.0 + np.exp(-z)), atol=1e-12)
    np.testing.assert_allclose(logf[0], np.log(f[0]), atol=1e-12)

    f1, logf1 = forget_gates(x, GateMode(kind="none"), params)
    assert np.all(f1 == 1.0) and np.all(logf1 == 0.0)

    mode_di = GateMode(kind="data_independent")
    params_di = init_layer_params(LayerConfig(4, 1, 2), mode_di, rng, dtype=np.float64)
    f2, _ = forget_gates(x, mode_di, params_di)
    assert np.all(f2[0] == f2[0][0])


def test_gate_mode_validation():
    with pytest.raises(ConfigError):
        GateMode(kind="adaptive")
    with pytest.raises(ValueError):
        GateMode(kind="fixed", t_min=-1.0)
    with pytest.raises(ValueError):
        GateMode(kind="data_independent", t_min=16.0, t_max=2.0)
    GateMode(kind="none", t_min=-5.0, t_max=-9.0)  # grid unused, not validated


def test_kv_shift_blends_with_zero_boundary():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    proj = rng.normal(size=(5, 2))
    w = rng.normal(size=3)
    mix = kv_shift(proj, x, w, normalize=False)
    alpha = 1.0 / (1.0 + np.exp(-(x @ w)))
    np.testing.assert_allclose(mix[0], (1 - alpha[0]) * proj[0], atol=1e-12)
    for t in range(1, 5):
        np.testing.assert_allclose(
            mix[t], alpha[t] * proj[t - 1] + (1 - alpha[t]) * proj[t], atol=1e-12
        )


def test_kv_shift_shape_validation():
    with pytest.raises(ShapeError):
        kv_shift(np.ones((4, 2)), np.ones((5, 3)), np.ones(3), normalize=False)
    with pytest.raises(ShapeError):
        kv_shift(np.ones((4, 2)), np.ones((4, 3)), np.ones(2), normalize=False)


def test_rmsnorm_bwd_matches_central_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    gamma = rng.normal(size=5)
    d_y = rng.normal(size=(4, 5))
    eps = 1e-6
    dx, dg = rmsnorm_bwd(x, gamma, d_y, eps)

    from foxattn.kernels import rmsnorm

    h = 1e-6
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        num = (np.sum(d_y * rmsnorm(xp, gamma, eps)) - np.sum(d_y * rmsnorm(xm, gamma, eps))) / (2 * h)
        np.testing.assert_allclose(dx[idx], num, atol=1e-6)
    for i in range(5):
        gp, gm = gamma.copy(), gamma.copy()
        gp[i] += h
        gm[i] -= h
        num = (np.sum(d_y * rmsnorm(x, gp, eps)) - np.sum(d_y * rmsnorm(x, gm, eps))) / (2 * h)
        np.testing.assert_allclose(dg[i], num, atol=1e-6)


def _oracle_pro_layer(x, params, cfg_eps=1e-6):
    """Literal per-position evaluation of the full gated layer.

    Written independently of the implementation: explicit loops, direct
    log(sigmoid), textbook softmax. float64 only.
    """
    L, d = x.shape
    dh = params.w_q[0].shape[0]
    y = np.zeros((L, d))
    for h in range(params.w_q.shape[0]):
        q_pre = x @ params.w_q[h].T
        k_raw = x @ params.w_k[h].T
        v_raw = x @ params.w_v[h].T

        k_mix = np.zeros_like(k_raw)
        v_mix = np.zeros_like(v_raw)
        for t in range(L):
            ak = 1.0 / (1.0 + np.exp(-(x[t] @ params.shift_k[h])))
            av = 1.0 / (1.0 + np.exp(-(x[t] @ params.shift_v[h])))
            prev_k = k_raw[t - 1] if t > 0 else np.zeros(dh)
            prev_v = v_raw[t - 1] if t > 0 else np.zeros(dh)
            k_mix[t] = ak * prev_k + (1 - ak) * k_raw[t]
            v_mix[t] = av * prev_v + (1 - av) * v_raw[t]

        q = np.zeros_like(q_pre)
        k = np.zeros_like(k_mix)
        for t in range(L):
            q[t] = params.q_gamma[h] * q_pre[t] / np.sqrt(np.mean(q_pre[t] ** 2) + cfg_eps)
            k[t] = params.k_gamma[h] * k_mix[t] / np.sqrt(np.mean(k_mix[t] ** 2) + cfg_eps)

        logf = np.array(
            [np.log(1.0 / (1.0 + np.exp(-(x[t] @ params.gate_w[h] + params.gate_b[h])))) for t in range(L)]
        )
        c = np.cumsum(logf)
        o = np.zeros((L, dh))
        for i in range(L):
            s = np.array([q[i] @ k[j] / np.sqrt(dh) + c[i] - c[j] for j in range(i + 1)])
            e = np.exp(s - s.max())
            p = e / e.sum()
            o[i] = p @ v_mix[: i + 1]

        u = np.zeros((L, dh))
        for t in range(L):
            on = params.out_gamma[h] * o[t] / np.sqrt(np.mean(o[t] ** 2) + cfg_eps)
            g = 1.0 / (1.0 + np.exp(-(params.w_g[h] @ x[t])))
            u[t] = on * g
        y += u @ params.w_o[:, h * dh : (h + 1) * dh].T
    return y


def test_pro_layer_matches_literal_oracle():
    rng = np.random.default_rng(3)
    cfg = LayerConfig.pro(4, 2, 2, backend="naive")
    mode = GateMode(kind="data_dependent")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.4)
    x = rng.normal(size=(7, 4))
    y, _ = pro_layer_fwd(x, params, mode, cfg)
    np.testing.assert_allclose(y, _oracle_pro_layer(x, params), atol=1e-10)


def test_pro_layer_tiled_backend_matches_naive():
    rng = np.random.default_rng(4)
    mode = GateMode(kind="data_dependent")
    cfg_n = LayerConfig.pro(8, 2, 4, backend="naive")
    cfg_t = LayerConfig.pro(8, 2, 4, backend="tiled", tile=TileConfig(3, 5))
    params = init_layer_params(cfg_n, mode, rng, dtype=np.float64, init_std=0.3)
    x = rng.normal(size=(13, 8))
    y_n, _ = pro_layer_fwd(x, params, mode, cfg_n)
    y_t, _ = pro_layer_fwd(x, params, mode, cfg_t)
    np.testing.assert_allclose(y_t, y_n, atol=1e-11)


def _oracle_llama_layer(x, params, rope_theta=None):
    """Literal plain-projection layer, optional pairwise rotation."""
    L, d = x.shape
    dh = params.w_q[0].shape[0]

    def rot(vec, pos):
        out = vec.copy()
        for i in range(0, dh, 2):
            ang = pos * rope_theta ** (-i / dh)
            ca, sa = np.cos(ang), np.sin(ang)
            out[i] = vec[i] * ca - vec[i + 1] * sa
            out[i + 1] = vec[i] * sa + vec[i + 1] * ca
        return out

    y = np.zeros((L, d))
    for h in range(params.w_q.shape[0]):
        q = x @ params.w_q[h].T
        k = x @ params.w_k[h].T
        v = x @ params.w_v[h].T
        if rope_theta is not None:
            q = np.stack([rot(q[t], t) for t in range(L)])
            k = np.stack([rot(k[t], t) for t in range(L)])
        o = np.zeros((L, dh))
        for i in range(L):
            s = np.array([q[i] @ k[j] / np.sqrt(dh) for j in range(i + 1)])
            e = np.exp(s - s.max())
            p = e / e.sum()
            o[i] = p @ v[: i + 1]
        y += o @ params.w_o[:, h * dh : (h + 1) * dh].T
    return y


def test_llama_layer_matches_literal_oracle():
    rng = np.random.default_rng(5)
    mode = GateMode(kind="none")
    cfg = LayerConfig.llama(6, 3, 2, backend="naive")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.4)
    x = rng.normal(size=(8, 6))
    y, _ = llama_layer_fwd(x, params, mode, cfg)
    np.testing.assert_allclose(y, _oracle_llama_layer(x, params), atol=1e-10)


def test_llama_layer_with_rotation_matches_oracle():
    rng = np.random.default_rng(6)
    mode = GateMode(kind="none")
    cfg = LayerConfig.llama(6, 1, 4, rope=True, rope_theta=1000.0, backend="naive")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.4)
    x = rng.normal(size=(9, 6))
    y, _ = llama_layer_fwd(x, params, mode, cfg)
    np.testing.assert_allclose(y, _oracle_llama_layer(x, params, rope_theta=1000.0), atol=1e-10)


def test_layer_flavor_guards():
    rng = np.random.default_rng(7)
    mode = GateMode(kind="none")
    pro_cfg = LayerConfig.pro(4, 1, 4, rope=True)
    params = init_layer_params(LayerConfig.pro(4, 1, 4), mode, rng, dtype=np.float64)
    with pytest.raises(ConfigError):
        pro_layer_fwd(np.zeros((3, 4)), params, mode, pro_cfg)
    with pytest.raises(ConfigError):
        llama_layer_fwd(np.zeros((3, 4)), params, mode, LayerConfig.pro(4, 1, 4))


def _layer_loss(x, params, mode, cfg, d_y):
    fwd = pro_layer_fwd if cfg.qk_norm else llama_layer_fwd
    y, _ = fwd(x, params, mode, cfg)
    return float(np.sum(d_y * y))


def _head(stacked, h):
    """Head h's slice of a stacked parameter, as a view (gate_b stays 1-D)."""
    return stacked[h] if stacked.ndim > 1 else stacked[h : h + 1]


def _perturbed(params, path, idx, h):
    import copy

    p2 = copy.deepcopy(params)
    if path[0] == "w_o":
        p2.w_o[idx] += h
    else:
        _head(getattr(p2, path[0]), path[1])[idx] += h
    return p2


def test_layer_backward_matches_central_differences_pro():
    rng = np.random.default_rng(8)
    mode = GateMode(kind="data_dependent")
    cfg = LayerConfig.pro(4, 2, 2, backend="naive")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.4)
    x = rng.normal(size=(6, 4))
    d_y = rng.normal(size=(6, 4))
    y, acts = pro_layer_fwd(x, params, mode, cfg)
    dx, grads = layer_bwd(acts, d_y, params, mode, cfg)

    h = 1e-6
    # input gradient
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        num = (_layer_loss(xp, params, mode, cfg, d_y) - _layer_loss(xm, params, mode, cfg, d_y)) / (2 * h)
        np.testing.assert_allclose(dx[idx], num, atol=2e-5)
    # a representative slice of every parameter tensor
    names = ["w_q", "w_k", "w_v", "w_g", "shift_k", "shift_v", "gate_w", "gate_b",
             "q_gamma", "k_gamma", "out_gamma"]
    for hn in range(2):
        for name in names:
            a = _head(getattr(params, name), hn)
            got = _head(getattr(grads, name), hn)
            for idx in list(np.ndindex(a.shape))[:3]:
                num = (
                    _layer_loss(x, _perturbed(params, (name, hn), idx, h), mode, cfg, d_y)
                    - _layer_loss(x, _perturbed(params, (name, hn), idx, -h), mode, cfg, d_y)
                ) / (2 * h)
                np.testing.assert_allclose(got[idx], num, atol=2e-5, err_msg=f"{name}[{idx}]")
    for idx in list(np.ndindex(params.w_o.shape))[:5]:
        num = (
            _layer_loss(x, _perturbed(params, ("w_o",), idx, h), mode, cfg, d_y)
            - _layer_loss(x, _perturbed(params, ("w_o",), idx, -h), mode, cfg, d_y)
        ) / (2 * h)
        np.testing.assert_allclose(grads.w_o[idx], num, atol=2e-5)


def test_layer_backward_matches_central_differences_llama_rope():
    rng = np.random.default_rng(9)
    mode = GateMode(kind="data_independent")
    cfg = LayerConfig.llama(4, 2, 2, rope=True, rope_theta=100.0, backend="naive")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.4)
    x = rng.normal(size=(5, 4))
    d_y = rng.normal(size=(5, 4))
    _, acts = llama_layer_fwd(x, params, mode, cfg)
    dx, grads = layer_bwd(acts, d_y, params, mode, cfg)

    h = 1e-6
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        num = (_layer_loss(xp, params, mode, cfg, d_y) - _layer_loss(xm, params, mode, cfg, d_y)) / (2 * h)
        np.testing.assert_allclose(dx[idx], num, atol=2e-5)
    for hn in range(2):
        got = _head(grads.gate_b, hn)
        gp = _perturbed(params, ("gate_b", hn), (0,), h)
        gm = _perturbed(params, ("gate_b", hn), (0,), -h)
        num = (_layer_loss(x, gp, mode, cfg, d_y) - _layer_loss(x, gm, mode, cfg, d_y)) / (2 * h)
        np.testing.assert_allclose(got[0], num, atol=2e-5)


def test_fixed_gate_gradient_stays_zero():
    rng = np.random.default_rng(10)
    mode = GateMode(kind="fixed")
    cfg = LayerConfig.pro(4, 2, 2, backend="naive")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64)
    x = rng.normal(size=(6, 4))
    _, acts = pro_layer_fwd(x, params, mode, cfg)
    _, grads = layer_bwd(acts, rng.normal(size=(6, 4)), params, mode, cfg)
    for hn in range(2):
        assert np.all(_head(grads.gate_b, hn) == 0.0)


def test_logf_cap_clamps_forward_and_blocks_backward():
    rng = np.random.default_rng(11)
    mode = GateMode(kind="data_dependent")
    base = LayerConfig.pro(4, 1, 4, backend="naive")
    capped = LayerConfig.pro(4, 1, 4, backend="naive", logf_cap=-1.0)
    params = init_layer_params(base, mode, rng, dtype=np.float64)
    x = rng.normal(size=(6, 4))
    _, acts = pro_layer_fwd(x, params, mode, capped)
    assert np.all(acts.logf[0] <= -1.0 + 1e-12)
    y_base, _ = pro_layer_fwd(x, params, mode, base)
    y_cap, _ = pro_layer_fwd(x, params, mode, capped)
    assert np.abs(y_base - y_cap).max() > 0.0
    with pytest.raises(ConfigError):
        layer_bwd(acts, np.zeros((6, 4)), params, mode, capped)


def test_init_layer_params_contents():
    rng = np.random.default_rng(12)
    cfg = LayerConfig.pro(8, 4, 2)
    mode = GateMode(kind="data_dependent")
    p = init_layer_params(cfg, mode, rng)
    assert len(p.w_q) == 4
    assert p.w_o.shape == (8, 8) and p.w_o.dtype == np.float32
    for h in range(4):
        assert p.w_q[h].shape == (2, 8)
        assert np.all(p.q_gamma[h] == 1.0) and np.all(p.out_gamma[h] == 1.0)
        assert p.gate_b[h : h + 1].shape == (1,) and p.gate_b[h] == 0.0

    mode_fx = GateMode(kind="fixed", t_min=2.0, t_max=128.0)
    p_fx = init_layer_params(cfg, mode_fx, rng)
    got = np.array([p_fx.gate_b[h] for h in range(4)], dtype=np.float64)
    want = forget_gate_init(2.0, 128.0, 4)
    np.testing.assert_allclose(got, want, atol=1e-6)
    assert p_fx.gate_w is None

    mode_none = GateMode(kind="none")
    p_none = init_layer_params(cfg, mode_none, rng)
    assert p_none.gate_b is None and p_none.gate_w is None


def test_missing_parameters_rejected():
    rng = np.random.default_rng(13)
    cfg = LayerConfig.pro(4, 1, 4)
    mode = GateMode(kind="data_dependent")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64)
    params.gate_w = None
    with pytest.raises(ConfigError):
        pro_layer_fwd(np.zeros((3, 4)), params, mode, cfg)


FEATURES = ("qk_norm", "kv_shift", "output_gate", "output_norm")


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_param_shapes_match_init_for_every_feature_mix(kind):
    """For all 16 on/off mixes of the four extras: the table lists exactly the
    tensors init builds, with their shapes, and sizes the attention count,
    which a per-component count written out here confirms."""
    d, n_heads, dh = 6, 3, 2
    mode = GateMode(kind=kind)
    gate = {"data_dependent": d + 1, "data_independent": 1, "fixed": 1, "none": 0}[kind]
    for flags in itertools.product((False, True), repeat=len(FEATURES)):
        qk_norm, kv_shift, output_gate, output_norm = flags
        per_head = (3 + output_gate) * dh * d + 2 * kv_shift * d
        per_head += (2 * qk_norm + output_norm) * dh + gate
        cfg = LayerConfig(d, n_heads, dh, **dict(zip(FEATURES, flags)))
        p = init_layer_params(cfg, mode, np.random.default_rng(0))
        built = [(f.name, getattr(p, f.name)) for f in fields(p)]
        built = [(name, a) for name, a in built if a is not None]
        table = param_shapes(cfg, mode)
        assert list(table.items()) == [(name, a.shape) for name, a in built], flags
        assert list(table)[-1] == "w_o"
        assert _attn_param_count(cfg, mode) == sum(a.size for _, a in built), flags
        assert _attn_param_count(cfg, mode) == n_heads * per_head + d * n_heads * dh, flags


def test_mis_shaped_parameters_rejected_naming_the_field():
    rng = np.random.default_rng(15)
    cfg = LayerConfig.pro(4, 2, 2)
    mode = GateMode(kind="data_dependent")
    x = np.zeros((3, 4))
    params = init_layer_params(cfg, mode, rng, dtype=np.float64)
    params.gate_w = np.zeros((2, 5))
    with pytest.raises(ShapeError, match=r"gate_w shape \(2, 5\) != \(2, 4\)"):
        pro_layer_fwd(x, params, mode, cfg)
    params = init_layer_params(cfg, mode, rng, dtype=np.float64)
    params.q_gamma = np.ones((3, 2))  # one head too many
    with pytest.raises(ShapeError, match="q_gamma"):
        pro_layer_fwd(x, params, mode, cfg)
    params = init_layer_params(cfg, mode, rng, dtype=np.float64)
    params.shift_v = None
    with pytest.raises(ConfigError, match="shift_v"):
        pro_layer_fwd(x, params, mode, cfg)
    llama = LayerConfig.llama(4, 2, 2)
    params = init_layer_params(llama, mode, rng, dtype=np.float64)
    params.w_o = np.zeros((4, 2))
    with pytest.raises(ShapeError, match="w_o"):
        llama_layer_fwd(x, params, mode, llama)


@pytest.mark.parametrize("kind", GATE_KINDS)
@pytest.mark.parametrize("preset", ["pro", "llama"])
def test_init_draws_head_by_head_in_the_documented_order(preset, kind):
    """Oracle: per head gate_w, w_q, w_k, w_v, w_g, shift_k, shift_v from one
    generator, then w_o; nothing else is drawn."""
    d, n_heads, dh, std = 6, 3, 2, 0.1
    cfg, mode = getattr(LayerConfig, preset)(d, n_heads, dh), GateMode(kind=kind)
    rng = np.random.default_rng(5)
    p = init_layer_params(cfg, mode, rng, init_std=std)

    oracle = np.random.default_rng(5)
    present = {
        "gate_w": kind == "data_dependent",
        "w_q": True,
        "w_k": True,
        "w_v": True,
        "w_g": cfg.output_gate,
        "shift_k": cfg.kv_shift,
        "shift_v": cfg.kv_shift,
    }
    want = {name: [] for name, on in present.items() if on}
    for _ in range(n_heads):
        for name in want:
            shape = (d,) if name in ("gate_w", "shift_k", "shift_v") else (dh, d)
            want[name].append(oracle.normal(0.0, std, size=shape).astype(np.float32))
    w_o = oracle.normal(0.0, std, size=(d, n_heads * dh)).astype(np.float32)

    for name, heads in want.items():
        np.testing.assert_array_equal(getattr(p, name), np.stack(heads), err_msg=name)
    np.testing.assert_array_equal(p.w_o, w_o)
    assert rng.normal() == oracle.normal()  # both generators stand at the same draw
    for name in ("q_gamma", "k_gamma", "out_gamma"):
        scale = getattr(p, name)
        if preset == "llama":
            assert scale is None
        else:
            assert scale.shape == (n_heads, dh) and np.all(scale == 1.0)


def test_zeros_like_layer_mirrors_structure():
    rng = np.random.default_rng(14)
    cfg = LayerConfig.pro(4, 2, 2)
    params = init_layer_params(cfg, GateMode(kind="data_independent"), rng)
    z = zeros_like_layer(params)
    assert z.gate_w is None
    assert z.gate_b[1:2].shape == (1,) and z.gate_b[1] == 0.0
    assert np.all(z.w_o == 0.0)


@pytest.mark.parametrize(
    "flavor, kind, backend",
    [
        ("pro", "data_dependent", "naive"),
        ("pro", "data_independent", "tiled"),
        ("llama_rope", "none", "naive"),
        ("llama_rope", "data_dependent", "tiled"),
    ],
)
@pytest.mark.parametrize("n", [1, 4, 11])
def test_keep_last_matches_the_full_layer(flavor, kind, backend, n):
    """keep_last=n gives the last n rows of y, and for a cotangent that is
    zero on the dropped rows the full layer's dX and parameter gradients."""
    rng = np.random.default_rng(20 + n)
    mode = GateMode(kind=kind)
    tile = TileConfig(3, 2)
    if flavor == "pro":
        cfg, fwd = LayerConfig.pro(8, 2, 4, backend=backend, tile=tile), pro_layer_fwd
    else:
        cfg = LayerConfig.llama(8, 2, 4, rope=True, backend=backend, tile=tile)
        fwd = llama_layer_fwd
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.3)
    x = rng.normal(size=(11, 8))
    y_full, acts_full = fwd(x, params, mode, cfg)
    y, acts = fwd(x, params, mode, cfg, keep_last=n)
    assert y.shape == (n, 8)
    np.testing.assert_allclose(y, y_full[-n:], rtol=0, atol=1e-12)
    d_y = rng.normal(size=(n, 8))
    d_full = np.zeros_like(y_full)
    d_full[-n:] = d_y
    dx, grads = layer_bwd(acts, d_y, params, mode, cfg)
    dx_full, grads_full = layer_bwd(acts_full, d_full, params, mode, cfg)
    assert dx.shape == x.shape
    np.testing.assert_allclose(dx, dx_full, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads.w_o, grads_full.w_o, rtol=0, atol=1e-12)
    for (name, a), (_, b) in zip(grads.head_tensors(), grads_full.head_tensors()):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)


def test_keep_last_boundaries():
    rng = np.random.default_rng(21)
    mode = GateMode(kind="data_dependent")
    cfg = LayerConfig.pro(4, 1, 4, backend="naive")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64)
    x = rng.normal(size=(6, 4))
    for bad in (0, 7, -1, 2.0, True, "3"):
        with pytest.raises(ValueError):
            pro_layer_fwd(x, params, mode, cfg, keep_last=bad)
    _, acts = pro_layer_fwd(x, params, mode, cfg, keep_last=np.int64(2))
    with pytest.raises(ShapeError, match="kept rows"):
        layer_bwd(acts, np.zeros((6, 4)), params, mode, cfg)
    with pytest.raises(ShapeError, match="kept rows"):
        layer_bwd(acts, np.zeros((3, 4)), params, mode, cfg)
    dx, _ = layer_bwd(acts, np.zeros((2, 4)), params, mode, cfg)
    assert dx.shape == (6, 4)


def test_parameter_precision_must_match_the_input():
    """A tensor in another precision than x fails at the boundary, naming the
    field and both dtypes, not deep inside attention."""
    rng = np.random.default_rng(22)
    cfg = LayerConfig.pro(4, 2, 2)
    mode = GateMode(kind="data_dependent")
    x = np.zeros((3, 4), dtype=np.float32)
    params = init_layer_params(cfg, mode, rng, dtype=np.float32)
    pro_layer_fwd(x, params, mode, cfg)
    params.w_q = params.w_q.astype(np.float64)
    with pytest.raises(ValueError, match="w_q dtype float64 != the input's float32"):
        pro_layer_fwd(x, params, mode, cfg)
    params = init_layer_params(cfg, mode, rng, dtype=np.float32)
    with pytest.raises(ValueError, match="dtype float32 != the input's float64"):
        pro_layer_fwd(x.astype(np.float64), params, mode, cfg)


@pytest.mark.parametrize("backend", ["tiled", "naive"])
def test_layer_bwd_reuses_the_forwards_attention_inputs(monkeypatch, backend):
    """The forward builds and validates one AttentionInputs per head; the
    backward reuses them and builds none."""
    rng = np.random.default_rng(23)
    cfg = LayerConfig.pro(8, 3, 4, backend=backend, tile=TileConfig(3, 2))
    mode = GateMode(kind="data_dependent")
    params = init_layer_params(cfg, mode, rng, dtype=np.float64, init_std=0.3)
    x = rng.normal(size=(7, 8))
    built = []
    real = AttentionInputs.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(AttentionInputs, "__post_init__", counting)
    _, acts = pro_layer_fwd(x, params, mode, cfg)
    assert len(built) == cfg.n_heads
    built.clear()
    layer_bwd(acts, rng.normal(size=(7, 8)), params, mode, cfg)
    assert built == []
