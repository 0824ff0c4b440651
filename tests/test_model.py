"""Unit tests for the small decoder: config, init, forward, loss, backward."""

import numpy as np
import pytest

from foxattn.errors import ConfigError, ShapeError
from foxattn.gradcheck import central_diff, rel_max_err
from foxattn.layer import GateMode
from foxattn.model import (
    ModelConfig,
    cross_entropy,
    cross_entropy_bwd,
    init_model_params,
    mlp_hidden,
    model_bwd,
    model_fwd,
    named_parameters,
    param_count,
    per_head_parameters,
    zeros_like_model,
)


def _small_cfg(**kw):
    base = dict(
        n_layers=1,
        d_model=8,
        n_heads=2,
        d_head=4,
        vocab_size=11,
        max_train_len=32,
        arch="llama",
        gate_mode=GateMode(kind="none"),
        mlp_ratio=2.0,
        backend="naive",
    )
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _small_cfg(arch="gpt")
    with pytest.raises(ConfigError):
        _small_cfg(n_heads=3)  # 3 * 4 != 8
    with pytest.raises(ConfigError):
        _small_cfg(vocab_size=1)
    with pytest.raises(ConfigError):
        ModelConfig(arch="pro", rope=True)
    ModelConfig(arch="llama", rope=True)


def test_mlp_hidden_plain_arch():
    assert mlp_hidden(_small_cfg()) == 16  # round(2.0 * 8)
    cfg64 = ModelConfig(arch="llama")
    assert mlp_hidden(cfg64) == round(8.0 / 3.0 * 64) == 171


def test_block_param_parity_between_archs():
    """The gated arch's MLP width is solved so block sizes match the plain
    arch at the same gate mode; the residue is integer rounding (< 1.5 * d)."""
    for d, nh in ((64, 4), (32, 2), (48, 3)):
        pro = ModelConfig(
            n_layers=1, d_model=d, n_heads=nh, d_head=d // nh, arch="pro",
            gate_mode=GateMode(kind="data_dependent"),
        )
        llama = ModelConfig(
            n_layers=1, d_model=d, n_heads=nh, d_head=d // nh, arch="llama",
            gate_mode=GateMode(kind="data_dependent"),
        )
        def block_params(cfg):
            p = init_model_params(cfg, seed=0)
            shared = p.embed.size + p.head_w.size + p.final_gamma.size
            return param_count(p) - shared
        diff = abs(block_params(pro) - block_params(llama))
        assert diff <= (3 * d) // 2, (d, nh, diff)


def test_param_count_frozen():
    # embed 11*8 + attn_norm 8 + attn (2 heads * 3 * 4 * 8 + w_o 8 * 8)
    # + mlp_norm 8 + mlp (2 * 16 * 8 + 8 * 16) + final 8 + head 8 * 11 = 840
    params = init_model_params(_small_cfg(), seed=0)
    assert param_count(params) == 840


def test_named_parameters_canonical_names():
    params = init_model_params(_small_cfg(), seed=0)
    named = [(n, a.shape) for n, a in named_parameters(params)]
    assert named == [
        ("embed", (11, 8)),
        ("blocks.0.attn_norm.gamma", (8,)),
        ("blocks.0.attn.w_q", (2, 4, 8)),
        ("blocks.0.attn.w_k", (2, 4, 8)),
        ("blocks.0.attn.w_v", (2, 4, 8)),
        ("blocks.0.attn.w_o", (8, 8)),
        ("blocks.0.mlp_norm.gamma", (8,)),
        ("blocks.0.mlp.w_in", (16, 8)),
        ("blocks.0.mlp.w_gate", (16, 8)),
        ("blocks.0.mlp.w_out", (8, 16)),
        ("final_norm.gamma", (8,)),
        ("head.w", (8, 11)),
    ]
    assert [n for n, _ in per_head_parameters(params)] == [
        "embed",
        "blocks.0.attn_norm.gamma",
        "blocks.0.attn.heads.0.w_q",
        "blocks.0.attn.heads.0.w_k",
        "blocks.0.attn.heads.0.w_v",
        "blocks.0.attn.heads.1.w_q",
        "blocks.0.attn.heads.1.w_k",
        "blocks.0.attn.heads.1.w_v",
        "blocks.0.attn.w_o",
        "blocks.0.mlp_norm.gamma",
        "blocks.0.mlp.w_in",
        "blocks.0.mlp.w_gate",
        "blocks.0.mlp.w_out",
        "final_norm.gamma",
        "head.w",
    ]


def test_named_parameters_gated_head_fields():
    cfg = _small_cfg(arch="pro", gate_mode=GateMode(kind="data_dependent"))
    params = init_model_params(cfg, seed=0)
    named = dict(named_parameters(params))
    per_head = {n for n, _ in per_head_parameters(params)}
    for fieldname in ("w_g", "shift_k", "shift_v", "gate_w", "gate_b",
                      "q_gamma", "k_gamma", "out_gamma"):
        assert named[f"blocks.0.attn.{fieldname}"].shape[0] == 2
        assert f"blocks.0.attn.heads.0.{fieldname}" in per_head


def test_per_head_checkpoint_views_follow_the_stacked_heads(tmp_path):
    from foxattn.checkpoint import load_model, save_model

    cfg = _small_cfg(arch="pro", gate_mode=GateMode(kind="data_dependent"))
    params = init_model_params(cfg, seed=0, dtype=np.float64)
    fresh = init_model_params(cfg, seed=0, dtype=np.float64).blocks[0].attn
    flat = dict(named_parameters(params))
    flat["blocks.0.attn.w_q"][1] += 0.5
    flat["blocks.0.attn.gate_b"][1] -= 2.0
    flat["blocks.0.attn.out_gamma"][0] *= 3.0
    per_head = dict(per_head_parameters(params))
    np.testing.assert_array_equal(per_head["blocks.0.attn.heads.0.w_q"], fresh.w_q[0])
    np.testing.assert_array_equal(per_head["blocks.0.attn.heads.1.w_q"], fresh.w_q[1] + 0.5)
    np.testing.assert_array_equal(per_head["blocks.0.attn.heads.0.gate_b"], [0.0])
    np.testing.assert_array_equal(per_head["blocks.0.attn.heads.1.gate_b"], [-2.0])
    np.testing.assert_array_equal(per_head["blocks.0.attn.heads.0.out_gamma"], [3.0] * 4)
    np.testing.assert_array_equal(per_head["blocks.0.attn.heads.1.out_gamma"], [1.0] * 4)

    save_model(params, tmp_path / "m.ckpt")
    loaded = load_model(cfg, tmp_path / "m.ckpt")
    attn = params.blocks[0].attn
    for name in ("w_q", "gate_b", "out_gamma", "w_o"):
        got = getattr(loaded.blocks[0].attn, name)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, getattr(attn, name))


def test_init_determinism_and_spread():
    cfg = _small_cfg(arch="pro", gate_mode=GateMode(kind="data_dependent"))
    a = dict(named_parameters(init_model_params(cfg, seed=7)))
    b = dict(named_parameters(init_model_params(cfg, seed=7)))
    c = dict(named_parameters(init_model_params(cfg, seed=8)))
    for n in a:
        np.testing.assert_array_equal(a[n], b[n])
    assert any(not np.array_equal(a[n], c[n]) for n in a)
    # weight std close to 0.02, norm scales exactly 1
    w = a["blocks.0.attn.w_q"][0]
    assert 0.005 < w.std() < 0.05
    assert np.all(a["final_norm.gamma"] == 1.0)
    assert a["embed"].dtype == np.float32


def test_model_fwd_shapes_and_validation():
    cfg = _small_cfg()
    params = init_model_params(cfg, seed=0)
    tokens = np.array([1, 4, 9, 0, 2])
    logits, acts = model_fwd(tokens, params, cfg)
    assert logits.shape == (5, 11)
    assert len(acts.blocks) == 1
    with pytest.raises(ShapeError):
        model_fwd(np.zeros((2, 2), dtype=np.int64), params, cfg)
    with pytest.raises(ValueError):
        model_fwd(np.array([], dtype=np.int64), params, cfg)
    with pytest.raises(ValueError):
        model_fwd(np.array([11]), params, cfg)
    with pytest.raises(ValueError):
        model_fwd(np.array([-1]), params, cfg)
    with pytest.raises(ValueError, match="integer"):
        model_fwd(np.array([1.0, 4.0]), params, cfg)
    with pytest.raises(ValueError, match="integer"):  # not an index mask
        model_fwd(np.ones(11, dtype=bool), params, cfg)


def test_model_fwd_respects_runtime_cap():
    cfg = _small_cfg(runtime_len_cap=4)
    params = init_model_params(cfg, seed=0)
    model_fwd(np.array([0, 1, 2, 3]), params, cfg)
    with pytest.raises(ValueError, match="cap"):
        model_fwd(np.array([0, 1, 2, 3, 4]), params, cfg)


def test_model_backends_agree():
    cfg_n = _small_cfg(arch="pro", gate_mode=GateMode(kind="data_dependent"), backend="naive")
    cfg_t = _small_cfg(arch="pro", gate_mode=GateMode(kind="data_dependent"), backend="tiled", tile=3)
    params = init_model_params(cfg_n, seed=1)
    tokens = np.arange(11) % 11
    ln, _ = model_fwd(tokens, params, cfg_n)
    lt, _ = model_fwd(tokens, params, cfg_t)
    assert np.abs(ln - lt).max() <= 1e-5


def test_logf_cap_forces_decay():
    cfg = _small_cfg()  # gate mode none: logf would be all zero
    params = init_model_params(cfg, seed=0)
    tokens = np.array([1, 2, 3, 4, 5, 6])
    base, _ = model_fwd(tokens, params, cfg)
    capped, _ = model_fwd(tokens, params, cfg, logf_cap=-1.0)
    assert np.abs(base - capped).max() > 0.0


def test_cross_entropy_frozen():
    logits = np.array([[0.0, 0.0], [0.0, np.log(3.0)]])
    mean, per_pos = cross_entropy(logits, np.array([0, 1]))
    np.testing.assert_allclose(per_pos, [np.log(2.0), np.log(4.0 / 3.0)], atol=1e-12)
    np.testing.assert_allclose(mean, per_pos.mean(), atol=1e-12)
    w_mean, _ = cross_entropy(logits, np.array([0, 1]), weights=np.array([1.0, 0.0]))
    np.testing.assert_allclose(w_mean, np.log(2.0), atol=1e-12)


def test_cross_entropy_uniform_logits():
    rng = np.random.default_rng(0)
    logits = np.zeros((10, 17))
    _, per_pos = cross_entropy(logits, rng.integers(0, 17, size=10))
    np.testing.assert_allclose(per_pos, np.log(17.0), atol=1e-12)


def test_cross_entropy_validation():
    logits = np.zeros((3, 4))
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros(4), np.array([0]))
    with pytest.raises(ShapeError):
        cross_entropy(logits, np.array([0, 1]))
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([0, 1, 4]))
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([0, 1, 2]), weights=np.zeros(3))
    # one weight must not broadcast: 5 uniform rows would score 5 ln 5
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros((5, 5)), np.arange(5), weights=np.ones(1))
    with pytest.raises(ShapeError):
        cross_entropy(logits, np.array([0, 1, 2]), weights=np.ones((3, 1)))
    for bad in ([1.0, -1.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0]):
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([0, 1, 2]), weights=np.array(bad))


def test_cross_entropy_bwd_validates_targets_like_the_forward():
    logits = np.zeros((3, 4))
    with pytest.raises(ShapeError):
        cross_entropy_bwd(np.zeros(4), np.array([0]))
    with pytest.raises(ShapeError):
        cross_entropy_bwd(logits, np.array([0, 1]))
    with pytest.raises(ValueError):
        cross_entropy_bwd(logits, np.array([0, -1, 2]))
    with pytest.raises(ValueError):
        cross_entropy_bwd(logits, np.array([0, 1, 4]))
    with pytest.raises(ValueError):  # the forward raises; no NaN gradients
        cross_entropy_bwd(logits, np.array([0, 1, 2]), weights=np.zeros(3))
    with pytest.raises(ShapeError):
        cross_entropy_bwd(logits, np.array([0, 1, 2]), weights=np.ones(1))
    for bad in ([1.0, -1.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0]):
        with pytest.raises(ValueError):
            cross_entropy_bwd(logits, np.array([0, 1, 2]), weights=np.array(bad))


def test_cross_entropy_bwd_matches_central_differences():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    weights = rng.uniform(0.0, 1.0, size=5)
    weights[2] = 0.0
    got = cross_entropy_bwd(logits, targets, weights)
    h = 1e-6
    for idx in np.ndindex(logits.shape):
        lp, lm = logits.copy(), logits.copy()
        lp[idx] += h
        lm[idx] -= h
        up, _ = cross_entropy(lp, targets, weights)
        down, _ = cross_entropy(lm, targets, weights)
        np.testing.assert_allclose(got[idx], (up - down) / (2 * h), atol=1e-6)


def test_model_backward_matches_central_differences():
    """End-to-end gradient spot check on the gated arch in float64."""
    cfg = _small_cfg(arch="pro", gate_mode=GateMode(kind="data_dependent"))
    params = init_model_params(cfg, seed=2, dtype=np.float64)
    tokens = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    targets = np.array([1, 4, 1, 5, 9, 2, 6, 5])
    weights = np.array([0, 1, 1, 0, 1, 1, 1, 1], dtype=np.float64)

    logits, acts = model_fwd(tokens, params, cfg)
    d_logits = cross_entropy_bwd(logits, targets, weights)
    grads = model_bwd(acts, d_logits, params, cfg)

    flat_p = dict(per_head_parameters(params))
    flat_g = dict(per_head_parameters(grads))

    def loss():
        lg, _ = model_fwd(tokens, params, cfg)
        val, _ = cross_entropy(lg, targets, weights)
        return val

    rng = np.random.default_rng(3)
    h = 1e-5
    checked = 0
    for name, tensor in flat_p.items():
        flat_idx = rng.integers(0, tensor.size)
        idx = np.unravel_index(flat_idx, tensor.shape)
        orig = tensor[idx]
        tensor[idx] = orig + h
        up = loss()
        tensor[idx] = orig - h
        down = loss()
        tensor[idx] = orig
        num = (up - down) / (2 * h)
        denom = max(abs(num), np.abs(flat_g[name]).max(), 1e-10)
        assert abs(flat_g[name][idx] - num) / denom < 1e-4, (name, idx)
        checked += 1
    assert checked == len(flat_p)


def test_zeros_like_model_matches_structure():
    cfg = _small_cfg(arch="pro", gate_mode=GateMode(kind="data_dependent"))
    params = init_model_params(cfg, seed=0)
    z = zeros_like_model(params)
    names_p = [n for n, _ in named_parameters(params)]
    names_z = [n for n, _ in named_parameters(z)]
    assert names_p == names_z
    assert all(np.all(a == 0.0) for _, a in named_parameters(z))


def _perturbed_f64_model(cfg, seed):
    params = init_model_params(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for _, a in named_parameters(params):
        a += rng.normal(scale=0.3, size=a.shape)
    return params


@pytest.mark.parametrize("backend", ["tiled", "naive"])
@pytest.mark.parametrize(
    "arch, kind, rope",
    [("pro", "data_dependent", False), ("pro", "data_independent", False), ("llama", "none", True)],
)
def test_keep_last_matches_the_full_route(arch, kind, rope, backend):
    """Logits for the last n rows, and every gradient of a loss on them, agree
    with the full route (whose other rows get a zero cotangent) to 1e-12."""
    cfg = _small_cfg(
        n_layers=2, arch=arch, gate_mode=GateMode(kind=kind), rope=rope, backend=backend, tile=3
    )
    params = _perturbed_f64_model(cfg, seed=5)
    rng = np.random.default_rng(6)
    tokens = rng.integers(0, cfg.vocab_size, size=14)
    logits_full, acts_full = model_fwd(tokens, params, cfg)
    for n in (1, 2, 5, 14):
        logits, acts = model_fwd(tokens, params, cfg, keep_last=n)
        assert logits.shape == (n, cfg.vocab_size)
        np.testing.assert_allclose(logits, logits_full[-n:], rtol=0, atol=1e-12)
        targets = rng.integers(0, cfg.vocab_size, size=n)
        weights = rng.random(n)
        d_logits = cross_entropy_bwd(logits, targets, weights)
        d_full = np.zeros_like(logits_full)
        d_full[-n:] = cross_entropy_bwd(logits_full[-n:], targets, weights)
        got = dict(named_parameters(model_bwd(acts, d_logits, params, cfg)))
        want = named_parameters(model_bwd(acts_full, d_full, params, cfg))
        for name, b in want:
            scale = max(np.abs(b).max(), 1.0)
            assert np.abs(got[name] - b).max() <= 1e-12 * scale, (name, n)


def test_keep_last_validation():
    cfg = _small_cfg()
    params = init_model_params(cfg, seed=0)
    tokens = np.array([1, 4, 9, 0, 2])
    for bad in (0, 6, -2, 1.5, 2.0, True, "2", None):
        if bad is None:
            assert model_fwd(tokens, params, cfg, keep_last=bad)[0].shape == (5, 11)
            continue
        with pytest.raises(ValueError):
            model_fwd(tokens, params, cfg, keep_last=bad)
    logits, acts = model_fwd(tokens, params, cfg, keep_last=np.int32(3))
    assert logits.shape == (3, 11)
    with pytest.raises(ShapeError):
        model_bwd(acts, np.zeros((5, 11), dtype=np.float32), params, cfg)
    grads = model_bwd(acts, np.zeros((3, 11), dtype=np.float32), params, cfg)
    assert grads.embed.shape == params.embed.shape


def test_keep_last_backward_matches_central_differences():
    """Every gradient of a loss read through keep_last, against
    gradcheck.central_diff, on the gated arch with the tiled backend."""
    cfg = _small_cfg(
        n_layers=2, arch="pro", gate_mode=GateMode(kind="data_dependent"), backend="tiled", tile=3
    )
    params = init_model_params(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(8)
    tokens = rng.integers(0, cfg.vocab_size, size=10)
    targets = rng.integers(0, cfg.vocab_size, size=4)
    weights = np.array([1.0, 0.0, 1.0, 1.0])

    def loss():
        logits, _ = model_fwd(tokens, params, cfg, keep_last=4)
        return cross_entropy(logits, targets, weights)[0]

    logits, acts = model_fwd(tokens, params, cfg, keep_last=4)
    grads = model_bwd(acts, cross_entropy_bwd(logits, targets, weights), params, cfg)
    gmap = dict(per_head_parameters(grads))
    for name, arr in per_head_parameters(params):
        numeric = central_diff(loss, arr)
        assert rel_max_err(gmap[name], numeric) < 1e-6, name
