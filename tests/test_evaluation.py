"""Unit tests for loss curves and the synthetic task generators."""

import numpy as np
import pytest

from foxattn.errors import ConfigError, ShapeError
from foxattn.evaluation import (
    PAD,
    SEP,
    NeedleSpec,
    eval_token_losses,
    gen_copy_task,
    gen_needle_task,
    needle_accuracy,
    needle_grid,
    needle_loss_mask,
    per_token_loss,
    perplexity_curve,
    smooth,
)
from foxattn.layer import GateMode
from foxattn.model import ModelConfig, init_model_params


def test_per_token_loss_mean():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([3.0, 2.0, 1.0])
    np.testing.assert_allclose(per_token_loss([a, b]), [2.0, 2.0, 2.0], atol=1e-15)


def test_per_token_loss_validation():
    with pytest.raises(ValueError):
        per_token_loss([])
    with pytest.raises(ShapeError):
        per_token_loss([np.ones(3), np.ones(4)])
    with pytest.raises(ShapeError):
        per_token_loss([np.ones((2, 2))])


def test_perplexity_curve_constant_loss():
    """Constant loss ln 4 must give perplexity exactly 4 at every prefix."""
    curve = perplexity_curve(np.full(512, np.log(4.0)))
    assert np.abs(curve - 4.0).max() <= 1e-12


def test_perplexity_curve_plateau_keeps_decreasing():
    """A loss that drops then flattens still shows a falling cumulative
    perplexity: the curve keeps crediting early improvement at long range."""
    losses = np.concatenate([np.full(64, 2.0), np.full(192, 1.0)])
    curve = perplexity_curve(losses)
    tail = curve[64:]
    assert np.all(np.diff(tail) < 0.0)
    # while the underlying per-token loss is flat there
    assert np.all(np.diff(losses[64:]) == 0.0)


def test_perplexity_curve_validation():
    with pytest.raises(ShapeError):
        perplexity_curve(np.ones((2, 2)))
    with pytest.raises(ValueError):
        perplexity_curve(np.array([]))


def test_smooth_frozen_small_case():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    got = smooth(v, 3)
    np.testing.assert_allclose(got, [1.5, 2.0, 3.0, 4.0, 4.5], atol=1e-12)


def test_smooth_window_one_is_identity():
    v = np.array([3.0, 1.0, 4.0])
    np.testing.assert_array_equal(smooth(v, 1), v)


def test_smooth_constant_preserved():
    np.testing.assert_allclose(smooth(np.full(20, 7.0), 11), np.full(20, 7.0), atol=1e-12)


def test_smooth_validation():
    with pytest.raises(ConfigError):
        smooth(np.ones(5), 2)
    with pytest.raises(ConfigError):
        smooth(np.ones(5), 0)
    with pytest.raises(ShapeError):
        smooth(np.ones((2, 3)), 3)


def test_copy_task_layout():
    rng = np.random.default_rng(0)
    tokens, mask = gen_copy_task(rng, seq_len=80, copy_len=32, vocab_size=16)
    assert tokens.shape == (80,) and mask.shape == (80,)
    span = tokens[:32]
    assert np.all(span >= 2) and np.all(span < 16)
    assert tokens[32] == SEP
    np.testing.assert_array_equal(tokens[33:65], span)
    assert np.all(tokens[65:] == PAD)
    # only the second span is scored
    assert mask.sum() == 32
    assert np.all(mask[33:65])
    assert not mask[:33].any() and not mask[65:].any()


def test_copy_task_masked_fraction():
    rng = np.random.default_rng(1)
    _, mask = gen_copy_task(rng, seq_len=128, copy_len=32, vocab_size=16)
    assert mask.mean() == 32 / 128


def test_copy_task_validation():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        gen_copy_task(rng, seq_len=65, copy_len=32, vocab_size=16)
    gen_copy_task(rng, seq_len=66, copy_len=32, vocab_size=16)  # exact fit
    with pytest.raises(ConfigError):
        gen_copy_task(rng, seq_len=10, copy_len=2, vocab_size=2)


def test_needle_spec_alphabets_partition_vocab():
    spec = NeedleSpec(vocab_size=16)
    assert spec.key_alphabet == 4 and spec.value_alphabet == 4
    assert spec.filler_hi == 8
    k_lo, k_hi = spec.key_range()
    v_lo, v_hi = spec.value_range()
    assert (k_lo, k_hi) == (8, 12)
    assert (v_lo, v_hi) == (12, 16)
    # tiny vocab keeps the minimum two symbols per alphabet
    spec8 = NeedleSpec(vocab_size=8)
    assert spec8.key_alphabet == 2 and spec8.filler_hi == 4


def test_needle_spec_validation():
    with pytest.raises(ValueError):
        NeedleSpec(depth=1.5)
    with pytest.raises(ConfigError):
        NeedleSpec(key_len=0)
    with pytest.raises(ConfigError):
        NeedleSpec(vocab_size=5)
    with pytest.raises(ValueError):
        NeedleSpec(haystack_len=1, key_len=2, value_len=2)


def test_needle_task_easy_mode_plants_key_and_value():
    spec = NeedleSpec(haystack_len=40, depth=0.5, easy_mode=True, vocab_size=16)
    rng = np.random.default_rng(3)
    tokens, answer = gen_needle_task(spec, rng)
    assert tokens.shape == (spec.total_len,)
    assert answer == slice(41, 42)
    key, value = tokens[40], tokens[41]
    start = int(0.5 * 40)
    assert tokens[start] == key and tokens[start + 1] == value
    # filler everywhere else in the haystack
    rest = np.concatenate([tokens[:start], tokens[start + 2 : 40]])
    assert np.all(rest < spec.filler_hi)


def test_needle_task_standard_mode_hides_value_only():
    spec = NeedleSpec(haystack_len=40, depth=0.25, easy_mode=False, vocab_size=16)
    rng = np.random.default_rng(4)
    tokens, answer = gen_needle_task(spec, rng)
    value = tokens[answer][0]
    start = int(0.25 * 40)
    assert tokens[start] == value
    v_lo, v_hi = spec.value_range()
    in_value_alphabet = (tokens[:40] >= v_lo) & (tokens[:40] < v_hi)
    assert in_value_alphabet.sum() == 1  # the planted value is the only one


def test_needle_task_depth_extremes_clamp():
    spec0 = NeedleSpec(haystack_len=20, depth=0.0, vocab_size=16)
    spec1 = NeedleSpec(haystack_len=20, depth=1.0, vocab_size=16)
    rng = np.random.default_rng(5)
    t0, _ = gen_needle_task(spec0, rng)
    t1, _ = gen_needle_task(spec1, rng)
    assert t0[0] >= spec0.filler_hi  # needle at the very front
    assert t1[18] >= spec1.filler_hi  # clamped to fit at the back


def test_needle_loss_mask_matches_answer():
    spec = NeedleSpec(haystack_len=30, value_len=2, vocab_size=16)
    rng = np.random.default_rng(6)
    _, answer = gen_needle_task(spec, rng)
    mask = needle_loss_mask(spec, answer)
    assert mask.sum() == 2
    assert mask[answer].all()


def _untrained():
    cfg = ModelConfig(
        n_layers=1, d_model=8, n_heads=2, d_head=4, vocab_size=16,
        max_train_len=64, arch="pro", gate_mode=GateMode(kind="data_dependent"),
        backend="naive",
    )
    return init_model_params(cfg, seed=0), cfg


def test_eval_token_losses_shape_and_value_range():
    params, cfg = _untrained()
    rng = np.random.default_rng(7)
    seqs = [rng.integers(0, 16, size=33) for _ in range(4)]
    losses = eval_token_losses(params, cfg, seqs)
    assert losses.shape == (32,)
    # untrained logits are near zero, so losses sit near ln(vocab)
    assert np.all(np.abs(losses - np.log(16.0)) < 0.5)


def test_needle_accuracy_untrained_near_chance():
    params, cfg = _untrained()
    spec = NeedleSpec(haystack_len=30, depth=0.5, vocab_size=16)
    rng = np.random.default_rng(8)
    acc = needle_accuracy(params, cfg, spec, rng, trials=20)
    assert 0.0 <= acc <= 0.6  # 4-symbol value alphabet: chance is ~0.25
    with pytest.raises(ValueError):
        needle_accuracy(params, cfg, spec, rng, trials=0)


def test_needle_grid_shape_and_determinism():
    params, cfg = _untrained()
    base = NeedleSpec(vocab_size=16)

    def cell_rng(length, depth):
        return np.random.default_rng(hash((length, depth)) % (2**32))

    grid1 = needle_grid(params, cfg, base, [24, 32], [0.0, 0.5, 1.0], 5, cell_rng)
    grid2 = needle_grid(params, cfg, base, [24, 32], [0.0, 0.5, 1.0], 5, cell_rng)
    assert grid1.shape == (2, 3)
    np.testing.assert_array_equal(grid1, grid2)
    assert np.all((grid1 >= 0.0) & (grid1 <= 1.0))


def test_needle_accuracy_reads_only_the_answer_rows(monkeypatch):
    """The forward keeps only the rows that predict the answer, and the
    accuracy equals a full-route argmax over those rows."""
    import foxattn.evaluation as evaluation
    from foxattn.model import model_fwd

    params, cfg = _untrained()
    spec = NeedleSpec(haystack_len=30, depth=0.5, value_len=3, vocab_size=16)
    hits = total = 0
    rng = np.random.default_rng(9)
    for _ in range(6):
        tokens, answer = gen_needle_task(spec, rng)
        logits, _ = model_fwd(tokens[:-1], params, cfg)
        preds = logits[answer.start - 1 : answer.stop - 1].argmax(axis=1)
        hits += int((preds == tokens[answer]).sum())
        total += tokens[answer].size

    kept = []

    def spy(tokens, params, cfg, logf_cap=None, keep_last=None):
        kept.append(keep_last)
        return model_fwd(tokens, params, cfg, logf_cap=logf_cap, keep_last=keep_last)

    monkeypatch.setattr(evaluation, "model_fwd", spy)
    acc = needle_accuracy(params, cfg, spec, np.random.default_rng(9), trials=6)
    assert kept == [3] * 6
    assert acc == hits / total
