"""Unit tests for the optimizer, schedule, and training loop."""

import numpy as np
import pytest

from foxattn.errors import ConfigError, TrainingFault
from foxattn.evaluation import gen_copy_task
from foxattn.layer import GateMode
from foxattn.model import ModelConfig, init_model_params, named_parameters
from foxattn.training import (
    AdamWState,
    TrainConfig,
    adamw_step,
    clip_grad_norm,
    decay_exempt,
    global_grad_norm,
    lr_schedule,
    trainable_names,
    train_loop,
)


def _tiny_model_cfg(**kw):
    base = dict(
        n_layers=1,
        d_model=8,
        n_heads=2,
        d_head=4,
        vocab_size=8,
        max_train_len=16,
        arch="pro",
        gate_mode=GateMode(kind="data_dependent"),
        backend="naive",
    )
    base.update(kw)
    return ModelConfig(**base)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_tokens=16, seq_len=32)
    with pytest.raises(ConfigError):
        TrainConfig(total_tokens=100, warmup_tokens=200, batch_tokens=512, seq_len=16)
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0)


def test_lr_schedule_frozen_points():
    cfg = TrainConfig(total_tokens=1000, warmup_tokens=200, peak_lr=0.01)
    assert lr_schedule(0, cfg) == 0.0
    np.testing.assert_allclose(lr_schedule(100, cfg), 0.005)  # halfway up the ramp
    np.testing.assert_allclose(lr_schedule(200, cfg), 0.01)  # warmup end = peak
    np.testing.assert_allclose(lr_schedule(600, cfg), 0.005)  # cos(pi/2) midpoint
    assert lr_schedule(1000, cfg) <= 1e-12  # ends at zero
    assert lr_schedule(5000, cfg) == 0.0


def test_lr_schedule_continuity_at_warmup_boundary():
    cfg = TrainConfig(total_tokens=10_000, warmup_tokens=3_000, peak_lr=1.0)
    left = lr_schedule(2_999, cfg)
    right = lr_schedule(3_001, cfg)
    assert abs(left - lr_schedule(3_000, cfg)) < 1e-3
    assert abs(right - lr_schedule(3_000, cfg)) < 1e-6


def test_lr_schedule_monotone_sections():
    cfg = TrainConfig(total_tokens=10_000, warmup_tokens=2_000, peak_lr=0.1)
    ramp = [lr_schedule(t, cfg) for t in range(0, 2001, 100)]
    decay = [lr_schedule(t, cfg) for t in range(2000, 10_001, 250)]
    assert all(a <= b for a, b in zip(ramp, ramp[1:]))
    assert all(a >= b for a, b in zip(decay, decay[1:]))


def test_clip_frozen_case():
    grads = {"w": np.array([3.0, 4.0])}
    _, norm = clip_grad_norm(grads, 1.0)
    assert norm == 5.0
    np.testing.assert_allclose(grads["w"], [0.6, 0.8], atol=1e-12)


def test_clip_below_threshold_unchanged():
    grads = {"w": np.array([0.3, 0.4])}
    _, norm = clip_grad_norm(grads, 1.0)
    assert norm == 0.5
    np.testing.assert_array_equal(grads["w"], [0.3, 0.4])


def test_clip_zero_grads():
    grads = {"w": np.zeros(3), "b": np.zeros(2)}
    _, norm = clip_grad_norm(grads, 1.0)
    assert norm == 0.0
    assert np.all(grads["w"] == 0.0)


def test_clip_rejects_non_finite():
    with pytest.raises(TrainingFault):
        clip_grad_norm({"w": np.array([np.nan])}, 1.0)
    with pytest.raises(TrainingFault):
        clip_grad_norm({"w": np.array([np.inf])}, 1.0)


def test_clipped_norm_never_exceeds_bound():
    rng = np.random.default_rng(0)
    for _ in range(10):
        grads = {f"p{i}": rng.normal(scale=10.0, size=rng.integers(1, 6)) for i in range(4)}
        clip_grad_norm(grads, 1.0)
        assert global_grad_norm(grads) <= 1.0 + 1e-6


def test_decay_exempt_names():
    assert decay_exempt("blocks.0.attn_norm.gamma")
    assert decay_exempt("blocks.1.attn.heads.2.q_gamma")
    assert decay_exempt("final_norm.gamma")
    assert decay_exempt("blocks.0.attn.heads.0.gate_b")
    assert not decay_exempt("blocks.0.attn.heads.0.gate_w")
    assert not decay_exempt("embed")
    assert not decay_exempt("head.w")


def test_adamw_first_step_unit_update():
    # at step 1 bias correction cancels: update = -lr * g / (|g| + eps)
    params = {"w": np.array([1.0])}
    state = AdamWState.init([("w", params["w"])])
    cfg = TrainConfig(weight_decay=0.0)
    adamw_step(params, {"w": np.array([2.0])}, state, lr=0.1, cfg=cfg)
    np.testing.assert_allclose(params["w"], [0.9], atol=1e-7)


def test_adamw_pure_decay():
    params = {"w": np.array([1.0])}
    state = AdamWState.init([("w", params["w"])])
    cfg = TrainConfig(weight_decay=0.1)
    adamw_step(params, {"w": np.array([0.0])}, state, lr=0.1, cfg=cfg)
    np.testing.assert_allclose(params["w"], [0.99], atol=1e-12)


def test_adamw_exempt_tensor_with_zero_grad_is_unchanged():
    params = {"final_norm.gamma": np.ones(3)}
    state = AdamWState.init(params.items())
    cfg = TrainConfig(weight_decay=0.5)
    adamw_step(params, {"final_norm.gamma": np.zeros(3)}, state, lr=0.1, cfg=cfg)
    np.testing.assert_array_equal(params["final_norm.gamma"], np.ones(3))


def test_adamw_ignores_names_outside_state():
    params = {"w": np.array([1.0]), "frozen": np.array([5.0])}
    state = AdamWState.init([("w", params["w"])])
    cfg = TrainConfig(weight_decay=0.1)
    adamw_step(params, {"w": np.array([1.0]), "frozen": np.array([9.9])}, state, 0.1, cfg)
    assert params["frozen"][0] == 5.0


def test_adamw_matches_reference_formula_over_steps():
    """Scalar trajectory vs a literal re-implementation of the update rule."""
    rng = np.random.default_rng(1)
    cfg = TrainConfig(weight_decay=0.1)
    params = {"w": np.array([0.7])}
    state = AdamWState.init([("w", params["w"])])
    w_ref, m_ref, v_ref = 0.7, 0.0, 0.0
    for t in range(1, 20):
        g = float(rng.normal())
        lr = 0.01
        adamw_step(params, {"w": np.array([g])}, state, lr, cfg)
        w_ref -= lr * 0.1 * w_ref
        m_ref = 0.9 * m_ref + 0.1 * g
        v_ref = 0.95 * v_ref + 0.05 * g * g
        m_hat = m_ref / (1 - 0.9**t)
        v_hat = v_ref / (1 - 0.95**t)
        w_ref -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"][0], w_ref, atol=1e-12)


def test_trainable_names_drop_fixed_gate_bias():
    cfg = _tiny_model_cfg(gate_mode=GateMode(kind="fixed"))
    params = init_model_params(cfg, seed=0)
    names = trainable_names(params, cfg)
    assert not any(n.endswith("gate_b") for n in names)
    cfg_dd = _tiny_model_cfg()
    params_dd = init_model_params(cfg_dd, seed=0)
    names_dd = trainable_names(params_dd, cfg_dd)
    assert any(n.endswith("gate_b") for n in names_dd)
    assert set(names_dd) == {n for n, _ in named_parameters(params_dd)}


def _copy_batch_fn(seq_len, copy_len, vocab, n_seqs):
    def fn(step, rng):
        return [gen_copy_task(rng, seq_len, copy_len, vocab) for _ in range(n_seqs)]

    return fn


def test_train_loop_zero_steps_writes_initial_checkpoint(tmp_path):
    mc = _tiny_model_cfg()
    tc = TrainConfig(total_tokens=10, batch_tokens=16, seq_len=16, warmup_tokens=0)
    res = train_loop(mc, tc, _copy_batch_fn(16, 4, 8, 1), tmp_path)
    assert res.steps == 0
    assert res.checkpoint_path.exists()
    assert res.metrics_path.read_text() == "step,tokens,lr,loss,grad_norm\n"


def test_train_loop_runs_and_logs(tmp_path):
    mc = _tiny_model_cfg()
    tc = TrainConfig(
        total_tokens=8 * 32,
        batch_tokens=32,
        seq_len=16,
        warmup_tokens=64,
        peak_lr=1e-3,
        seed=5,
    )
    res = train_loop(mc, tc, _copy_batch_fn(16, 4, 8, 2), tmp_path)
    assert res.steps == 8
    lines = res.metrics_path.read_text().strip().split("\n")
    assert lines[0] == "step,tokens,lr,loss,grad_norm"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "32"
    assert np.isfinite(res.final_loss)


def test_train_loop_deterministic_metrics(tmp_path):
    mc = _tiny_model_cfg()
    tc = TrainConfig(
        total_tokens=6 * 32, batch_tokens=32, seq_len=16, warmup_tokens=32, seed=3
    )
    fn = _copy_batch_fn(16, 4, 8, 2)
    r1 = train_loop(mc, tc, fn, tmp_path / "a")
    r2 = train_loop(mc, tc, fn, tmp_path / "b")
    assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
    assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()


def test_train_loop_seed_changes_trajectory(tmp_path):
    mc = _tiny_model_cfg()
    fn = _copy_batch_fn(16, 4, 8, 2)
    tc3 = TrainConfig(total_tokens=4 * 32, batch_tokens=32, seq_len=16, warmup_tokens=32, seed=3)
    tc4 = TrainConfig(total_tokens=4 * 32, batch_tokens=32, seq_len=16, warmup_tokens=32, seed=4)
    r1 = train_loop(mc, tc3, fn, tmp_path / "a")
    r2 = train_loop(mc, tc4, fn, tmp_path / "b")
    assert r1.metrics_path.read_bytes() != r2.metrics_path.read_bytes()


def test_train_loop_checkpoint_interval(tmp_path):
    mc = _tiny_model_cfg()
    tc = TrainConfig(
        total_tokens=4 * 32,
        batch_tokens=32,
        seq_len=16,
        warmup_tokens=32,
        checkpoint_interval=2,
    )
    seen = []

    def stop_fn(step, params):
        if step == 2:
            seen.append((tmp_path / "model.ckpt").exists())
        return False

    train_loop(mc, tc, _copy_batch_fn(16, 4, 8, 2), tmp_path, stop_fn=stop_fn)
    assert seen == [True]


def test_train_loop_empty_batch_faults(tmp_path):
    mc = _tiny_model_cfg()
    tc = TrainConfig(total_tokens=64, batch_tokens=32, seq_len=16, warmup_tokens=0)
    with pytest.raises(TrainingFault):
        train_loop(mc, tc, lambda step, rng: [], tmp_path)


def test_train_loop_unscored_batch_faults(tmp_path):
    mc = _tiny_model_cfg()
    tc = TrainConfig(total_tokens=64, batch_tokens=32, seq_len=16, warmup_tokens=0)

    def fn(step, rng):
        return [(np.zeros(16, dtype=np.int64), np.zeros(16, dtype=bool))]

    with pytest.raises(TrainingFault):
        train_loop(mc, tc, fn, tmp_path)


def test_train_loop_non_finite_gradient_writes_fault(tmp_path, monkeypatch):
    import foxattn.training as training

    real_bwd = training.model_bwd

    def nan_bwd(*args, **kwargs):
        grads = real_bwd(*args, **kwargs)
        grads.head_w[0, 0] = np.nan
        return grads

    monkeypatch.setattr(training, "model_bwd", nan_bwd)
    mc = _tiny_model_cfg()
    tc = TrainConfig(total_tokens=64, batch_tokens=32, seq_len=16, warmup_tokens=0)
    with pytest.raises(TrainingFault, match="gradient"):
        train_loop(mc, tc, _copy_batch_fn(16, 4, 8, 2), tmp_path)
    assert (tmp_path / "fault.txt").read_text().startswith("step 1: ")
    assert (tmp_path / "metrics.csv").read_text() == "step,tokens,lr,loss,grad_norm\n"


def test_train_loop_fixed_gate_biases_never_move(tmp_path):
    mc = _tiny_model_cfg(gate_mode=GateMode(kind="fixed"))
    tc = TrainConfig(
        total_tokens=5 * 32, batch_tokens=32, seq_len=16, warmup_tokens=32, peak_lr=0.05
    )
    res = train_loop(mc, tc, _copy_batch_fn(16, 4, 8, 2), tmp_path)
    init = init_model_params(mc, seed=tc.seed)
    for (name, trained), (_, fresh) in zip(
        named_parameters(res.params), named_parameters(init)
    ):
        if name.endswith("gate_b"):
            np.testing.assert_array_equal(trained, fresh)
        elif name.endswith(("w_q", "w_o")):
            assert not np.array_equal(trained, fresh), name


def test_batch_gradients_match_the_full_route_per_sequence():
    """The scored-span route of the batch loss equals running every sequence
    at every row and accumulating from zero, to 1e-12 in float64, for a batch
    whose spans sit at the start, middle and end, with gaps inside a span and
    one sequence with nothing scored."""
    from foxattn.model import cross_entropy, cross_entropy_bwd, model_bwd, model_fwd
    from foxattn.training import _batch_loss_and_grads

    cfg = _tiny_model_cfg(n_layers=2, backend="tiled", tile=3)
    params = init_model_params(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    for _, a in named_parameters(params):
        a += rng.normal(scale=0.3, size=a.shape)
    spans = [(1, 3), (5, 9), (13, 16), None, (16, 16), (2, 15)]
    batch = []
    for span in spans:
        mask = np.zeros(17, dtype=bool)
        if span is not None:
            mask[span[0] : span[1] + 1] = True
        if span == (2, 15):
            mask[[4, 9, 10]] = False
        batch.append((rng.integers(0, cfg.vocab_size, size=17), mask))

    loss, grads = _batch_loss_and_grads(params, cfg, batch)

    total = sum(float(m[1:].sum()) for _, m in batch)
    want = {name: np.zeros_like(a) for name, a in named_parameters(params)}
    want_loss = 0.0
    for seq, mask in batch:
        w = mask[1:].astype(np.float64)
        if not w.any():
            continue
        logits, acts = model_fwd(seq[:-1], params, cfg)
        want_loss += float((cross_entropy(logits, seq[1:])[1] * w).sum())
        d_logits = cross_entropy_bwd(logits, seq[1:], w) * float(w.sum() / total)
        for name, g in named_parameters(model_bwd(acts, d_logits, params, cfg)):
            want[name] += g
    assert abs(loss - want_loss / total) <= 1e-12
    assert set(grads) == set(want)
    for name, b in want.items():
        assert np.abs(grads[name] - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0), name


def test_batch_runs_each_sequence_only_through_its_scored_span(monkeypatch):
    """Rows past the last scored one are never computed, and only the span
    from the first scored row is kept."""
    import foxattn.training as training

    seen = []
    real_fwd = training.model_fwd

    def spy(tokens, params, cfg, logf_cap=None, keep_last=None):
        seen.append((len(tokens), keep_last))
        return real_fwd(tokens, params, cfg, logf_cap=logf_cap, keep_last=keep_last)

    monkeypatch.setattr(training, "model_fwd", spy)
    mc = _tiny_model_cfg()
    params = init_model_params(mc, seed=0)
    mask = np.zeros(16, dtype=bool)
    mask[6:10] = True  # targets 6..9, predicted from rows 5..8
    training._batch_loss_and_grads(params, mc, [(np.arange(16) % 8, mask)])
    assert seen == [(9, 4)]
