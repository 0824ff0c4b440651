"""Unit tests for the streaming (tiled) attention path.

The reference path in attention.py serves as the oracle throughout: the
streaming forward and backward must agree with it for every length and tile
shape, including tiles of one and tiles larger than the sequence.
"""

import numpy as np
import pytest

from foxattn import tiled
from foxattn.attention import AttentionInputs, ForwardAux, fgattn_bwd, fgattn_fwd
from foxattn.errors import ConfigError, ShapeError
from foxattn.tiled import BufferMeter, TileConfig, tiled_bwd, tiled_fwd


def _rand_inputs(rng, n, d, dtype=np.float64):
    q = rng.normal(size=(n, d)).astype(dtype)
    k = rng.normal(size=(n, d)).astype(dtype)
    v = rng.normal(size=(n, d)).astype(dtype)
    logf = (-0.02 - np.abs(rng.normal(scale=0.7, size=n))).astype(dtype)
    return AttentionInputs(q=q, k=k, v=v, logf=logf)


def test_tile_config_validation():
    TileConfig(1, 1)
    with pytest.raises(ConfigError):
        TileConfig(0, 4)
    with pytest.raises(ConfigError):
        TileConfig(4, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 129])
@pytest.mark.parametrize("tiles", [(1, 1), (2, 3), (16, 16), (64, 64), (200, 200)])
def test_forward_equals_reference(n, tiles):
    rng = np.random.default_rng(n * 1000 + tiles[0])
    inp = _rand_inputs(rng, n, 4)
    o_ref = fgattn_fwd(inp)
    o_tiled, aux = tiled_fwd(inp, TileConfig(*tiles))
    np.testing.assert_allclose(o_tiled, o_ref, atol=1e-12)
    assert aux.lse.shape == (n,)


def test_forward_float32_tolerance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 130))
        inp = _rand_inputs(rng, n, 16, dtype=np.float32)
        o_ref = fgattn_fwd(inp)
        o_tiled, _ = tiled_fwd(inp, TileConfig(16, 16))
        assert np.abs(o_tiled - o_ref).max() <= 1e-5


def test_forward_lse_matches_direct_logsumexp():
    """lse must equal the log softmax denominator of the materialized scores."""
    rng = np.random.default_rng(1)
    inp = _rand_inputs(rng, 37, 5)
    _, aux = tiled_fwd(inp, TileConfig(8, 8))

    from foxattn.attention import attention_scores
    from foxattn.kernels import neg_inf

    s = attention_scores(inp).astype(np.float64)
    s[s == neg_inf(np.float64)] = -np.inf
    m = s.max(axis=1, keepdims=True)
    direct = (m + np.log(np.exp(s - m).sum(axis=1, keepdims=True))).ravel()
    np.testing.assert_allclose(aux.lse, direct, atol=1e-10)


def test_backward_equals_reference():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(1, 100))
        qb = int(rng.integers(1, n + 2))
        kb = int(rng.integers(1, n + 2))
        inp = _rand_inputs(rng, n, 4)
        o, aux = tiled_fwd(inp, TileConfig(qb, kb))
        d_out = rng.normal(size=o.shape)
        got = tiled_bwd(inp, o, aux, d_out, TileConfig(qb, kb))
        want = fgattn_bwd(inp, fgattn_fwd(inp), d_out)
        for name in ("dq", "dk", "dv", "dlogf"):
            a, b = getattr(got, name), getattr(want, name)
            denom = max(np.abs(b).max(), 1e-12)
            assert np.abs(a - b).max() / denom < 1e-8, (name, n, qb, kb)


@pytest.mark.parametrize(
    "n, tiles",
    [(13, (1, 1)), (13, (1, 4)), (13, (5, 4)), (13, (4, 5)), (13, (20, 30)), (64, (16, 16))],
)
def test_backward_builds_each_causal_tile_once(monkeypatch, n, tiles):
    """The backward scores every tile on or below the diagonal exactly once,
    as the forward does."""
    qb, kb = tiles
    # per query block [r0, r1): the key blocks starting at or before row r1 - 1
    causal = sum(-(-min(r0 + qb, n) // kb) for r0 in range(0, n, qb))
    calls = []
    real = tiled._masked_scores

    def counting(inp, c, r0, r1, c0, c1):
        calls.append((r0, c0))
        return real(inp, c, r0, r1, c0, c1)

    monkeypatch.setattr(tiled, "_masked_scores", counting)
    rng = np.random.default_rng(n)
    inp = _rand_inputs(rng, n, 3)
    o, aux = tiled_fwd(inp, TileConfig(qb, kb))
    fwd_calls = list(calls)
    calls.clear()
    tiled_bwd(inp, o, aux, rng.normal(size=o.shape), TileConfig(qb, kb))
    assert len(fwd_calls) == causal
    assert calls == fwd_calls


def test_backward_first_gate_gradient_zero():
    rng = np.random.default_rng(3)
    inp = _rand_inputs(rng, 21, 3)
    o, aux = tiled_fwd(inp, TileConfig(4, 5))
    g = tiled_bwd(inp, o, aux, rng.normal(size=o.shape), TileConfig(4, 5))
    assert g.dlogf[0] == 0.0


def test_backward_shape_validation():
    rng = np.random.default_rng(4)
    inp = _rand_inputs(rng, 6, 2)
    o, aux = tiled_fwd(inp, TileConfig(4, 4))
    with pytest.raises(ShapeError):
        tiled_bwd(inp, o, aux, np.zeros((6, 3)), TileConfig(4, 4))
    bad_aux = type(aux)(lse=aux.lse[:-1], c=aux.c)
    with pytest.raises(ShapeError):
        tiled_bwd(inp, o, bad_aux, np.zeros((6, 2)), TileConfig(4, 4))


def test_forward_strong_decay_stays_finite():
    """Large negative gate sums must not produce NaN or inf anywhere."""
    rng = np.random.default_rng(5)
    n = 80
    q = rng.normal(size=(n, 4))
    inp = AttentionInputs(
        q=q, k=rng.normal(size=(n, 4)), v=rng.normal(size=(n, 4)),
        logf=np.full(n, -12.0),
    )
    o, aux = tiled_fwd(inp, TileConfig(16, 16))
    assert np.all(np.isfinite(o))
    assert np.all(np.isfinite(aux.lse))
    # decay this strong makes attention essentially diagonal; the residual
    # off-diagonal mass is at most exp(-12 + max logit gap) ~ 1e-3
    np.testing.assert_allclose(o, inp.v, atol=5e-3)


def test_meter_peak_independent_of_length():
    """Fixed tiles: the recorded scratch peak must not grow with L."""
    peaks = []
    for n in (128, 256, 512):
        rng = np.random.default_rng(n)
        inp = _rand_inputs(rng, n, 8, dtype=np.float32)
        meter = BufferMeter()
        tiled_fwd(inp, TileConfig(32, 32), meter)
        peaks.append(meter.peak_bytes)
        assert meter.calls > 0
    assert peaks[0] == peaks[1] == peaks[2]


def test_meter_counts_largest_call():
    m = BufferMeter()
    m.record(np.zeros(4, dtype=np.float64))
    m.record(np.zeros(2, dtype=np.float64), np.zeros(3, dtype=np.float64))
    assert m.peak_bytes == 40
    assert m.calls == 2


def test_causality_in_streaming_path():
    rng = np.random.default_rng(6)
    inp = _rand_inputs(rng, 24, 3)
    base, _ = tiled_fwd(inp, TileConfig(8, 8))
    for t in (5, 12, 20):
        v2 = inp.v.copy()
        v2[t:] += 7.0
        logf2 = np.asarray(inp.logf).copy()
        logf2[t:] -= 3.0
        pert, _ = tiled_fwd(
            AttentionInputs(q=inp.q, k=inp.k, v=v2, logf=logf2, scale=inp.scale),
            TileConfig(8, 8),
        )
        assert np.abs(pert[:t] - base[:t]).max() <= 1e-6


@pytest.mark.parametrize("bad", [(1.5, 2), (64.0, 64), (True, 4), (4, False), ("8", 8)])
def test_tile_config_rejects_non_integer_sizes(bad):
    with pytest.raises(ConfigError):
        TileConfig(*bad)


def test_tile_config_accepts_numpy_integers():
    cfg = TileConfig(np.int64(5), np.int32(3))
    rng = np.random.default_rng(8)
    inp = _rand_inputs(rng, 11, 2)
    out, _ = tiled_fwd(inp, cfg)
    np.testing.assert_allclose(out, fgattn_fwd(inp), atol=1e-12)


def _strong_decay_inputs(rng, n, d, dtype):
    inp = _rand_inputs(rng, n, d, dtype)
    logf = (-1.0 - np.abs(rng.normal(scale=2.0, size=n))).astype(dtype)
    return AttentionInputs(q=inp.q, k=inp.k, v=inp.v, logf=logf)


def _causal_tiles(n, qb, kb):
    return [
        (r0, c0)
        for r0 in range(0, n, qb)
        for c0 in range(0, n, kb)
        if c0 <= min(r0 + qb, n) - 1
    ]


def _visited_tiles(monkeypatch, inp, cfg, d_out):
    """(forward tiles, backward tiles, O, grads), each tile as (r0, c0)."""
    calls = []
    real = tiled._masked_scores

    def counting(inp, c, r0, r1, c0, c1):
        calls.append((r0, c0))
        return real(inp, c, r0, r1, c0, c1)

    monkeypatch.setattr(tiled, "_masked_scores", counting)
    o, aux = tiled_fwd(inp, cfg)
    fwd_calls = list(calls)
    calls.clear()
    grads = tiled_bwd(inp, o, aux, d_out, cfg)
    return fwd_calls, list(calls), o, grads


@pytest.mark.parametrize(
    "dtype, fwd_tol, bwd_tol", [(np.float64, 1e-12, 1e-8), (np.float32, 1e-5, 1e-4)]
)
@pytest.mark.parametrize("n, tiles", [(96, (16, 16)), (75, (8, 5)), (40, (1, 3))])
def test_strong_decay_skips_tiles_and_matches_reference(
    monkeypatch, dtype, fwd_tol, bwd_tol, n, tiles
):
    """Tiles the gate has zeroed are skipped, the backward visits the
    forward's tiles in the forward's order, and both still match the
    materialized route."""
    rng = np.random.default_rng(n)
    inp = _strong_decay_inputs(rng, n, 4, dtype)
    d_out = rng.normal(size=(n, 4)).astype(dtype)
    fwd_calls, bwd_calls, o, got = _visited_tiles(monkeypatch, inp, TileConfig(*tiles), d_out)
    assert len(fwd_calls) < len(_causal_tiles(n, *tiles))
    assert bwd_calls == fwd_calls
    assert np.abs(o - fgattn_fwd(inp)).max() <= fwd_tol
    want = fgattn_bwd(inp, fgattn_fwd(inp), d_out)
    for name in ("dq", "dk", "dv", "dlogf"):
        a = np.asarray(getattr(got, name), np.float64)
        b = np.asarray(getattr(want, name), np.float64)
        assert np.abs(a - b).max() / max(np.abs(b).max(), 1e-12) < bwd_tol, name


@pytest.mark.parametrize("n, tiles", [(96, (16, 16)), (75, (8, 5)), (40, (1, 3))])
def test_skipped_tiles_hold_less_than_eps_over_length(monkeypatch, n, tiles):
    """Oracle for the skip bound: every materialized probability inside a
    skipped tile is below eps / L."""
    qb, kb = tiles
    rng = np.random.default_rng(n + 1)
    inp = _strong_decay_inputs(rng, n, 4, np.float64)
    fwd_calls, _, _, _ = _visited_tiles(monkeypatch, inp, TileConfig(qb, kb), np.zeros((n, 4)))
    skipped = set(_causal_tiles(n, qb, kb)) - set(fwd_calls)
    assert skipped
    _, p = fgattn_fwd(inp, return_probs=True)
    for r0, c0 in skipped:
        assert p[r0 : r0 + qb, c0 : c0 + kb].max() < np.finfo(np.float64).eps / n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unit_gates_skip_no_tile(monkeypatch, dtype):
    """With every gate at 1 nothing decays, so every causal tile is visited."""
    n, tiles = 70, (8, 8)
    rng = np.random.default_rng(9)
    inp = _rand_inputs(rng, n, 4, dtype)
    inp = AttentionInputs(q=inp.q, k=inp.k, v=inp.v, logf=np.zeros(n, dtype=dtype))
    fwd_calls, bwd_calls, _, _ = _visited_tiles(monkeypatch, inp, TileConfig(*tiles), inp.v)
    assert fwd_calls == bwd_calls == _causal_tiles(n, *tiles)


def _suffix(inp, n):
    return AttentionInputs(q=inp.q[-n:], k=inp.k, v=inp.v, logf=inp.logf, scale=inp.scale)


def _suffix_causal_tiles(length, n, qb, kb):
    """Causal tiles of the rows [L - n, L) on the absolute query-block grid."""
    starts = [length - n] + [r for r in range(0, length, qb) if r > length - n]
    return [
        (r0, c0)
        for r0 in starts
        for c0 in range(0, length, kb)
        if c0 <= min(r0 - r0 % qb + qb, length) - 1
    ]


@pytest.mark.parametrize(
    "dtype, fwd_tol, bwd_tol", [(np.float64, 1e-10, 1e-8), (np.float32, 1e-5, 1e-4)]
)
@pytest.mark.parametrize("length, tiles", [(37, (5, 3)), (40, (1, 4)), (75, (16, 16))])
@pytest.mark.parametrize("pick", ["1", "2", "tile-1", "tile+1", "L"])
def test_query_suffix_matches_reference(monkeypatch, dtype, fwd_tol, bwd_tol, length, tiles, pick):
    """q holding the last n rows: the streaming route matches the materialized
    one at verify's tolerances, visits the causal tiles of the rows present on
    the absolute block grid (skipping under strong decay), and computes every
    row after the cropped first block exactly as a full call does."""
    qb, kb = tiles
    n = {"1": 1, "2": 2, "tile-1": max(qb - 1, 1), "tile+1": qb + 1, "L": length}[pick]
    rng = np.random.default_rng(length + n)
    full = _strong_decay_inputs(rng, length, 4, dtype)
    inp = _suffix(full, n)
    d_out = rng.normal(size=(n, 4)).astype(dtype)
    fwd_calls, bwd_calls, o, got = _visited_tiles(monkeypatch, inp, TileConfig(qb, kb), d_out)
    causal = _suffix_causal_tiles(length, n, qb, kb)
    assert set(fwd_calls) <= set(causal)
    assert {r0 for r0, _ in fwd_calls} == {r0 for r0, _ in causal}
    assert len(fwd_calls) < len(causal)
    assert bwd_calls == fwd_calls

    o_ref = fgattn_fwd(inp)
    assert o.shape == (n, 4)
    assert np.abs(o - o_ref).max() <= fwd_tol
    want = fgattn_bwd(inp, o_ref, d_out)
    assert got.dq.shape == (n, 4) and got.dk.shape == got.dv.shape == (length, 4)
    assert got.dlogf.shape == (length,) and got.dlogf[0] == 0.0
    for name in ("dq", "dk", "dv", "dlogf"):
        a = np.asarray(getattr(got, name), np.float64)
        b = np.asarray(getattr(want, name), np.float64)
        assert np.abs(a - b).max() / max(np.abs(b).max(), 1e-12) < bwd_tol, name

    o_full, aux_full = tiled_fwd(full, TileConfig(qb, kb))
    _, aux = tiled_fwd(inp, TileConfig(qb, kb))
    np.testing.assert_array_equal(aux.c, aux_full.c)
    whole = -(-(length - n) // qb) * qb - (length - n)  # rows in the cropped block
    np.testing.assert_array_equal(o[whole:], o_full[length - n + whole :])
    np.testing.assert_array_equal(aux.lse[whole:], aux_full.lse[length - n + whole :])


def test_query_suffix_backward_shape_validation():
    rng = np.random.default_rng(41)
    inp = _suffix(_rand_inputs(rng, 9, 2), 4)
    o, aux = tiled_fwd(inp, TileConfig(4, 4))
    tiled_bwd(inp, o, aux, np.zeros((4, 2)), TileConfig(4, 4))
    with pytest.raises(ShapeError):
        tiled_bwd(inp, o, aux, np.zeros((9, 2)), TileConfig(4, 4))
    with pytest.raises(ShapeError):
        tiled_bwd(inp, o, type(aux)(lse=aux.lse, c=aux.c[-4:]), np.zeros((4, 2)), TileConfig(4, 4))


@pytest.mark.parametrize(
    "n, strong", [(75, False), (30, False), (1, False), (75, True), (30, True)]
)
def test_aux_tiles_counts_the_scored_tiles(monkeypatch, n, strong):
    """aux.tiles is the number of score tiles the forward computed, for full,
    query-suffix and strongly decayed (skipping) inputs; the backward
    computes as many."""
    length, tiles = 75, (8, 5)
    rng = np.random.default_rng(60 + n)
    make = _strong_decay_inputs if strong else _rand_inputs
    inp = _suffix(make(rng, length, 4, np.float64), n)
    _, aux = tiled_fwd(inp, TileConfig(*tiles))
    fwd_calls, bwd_calls, _, _ = _visited_tiles(monkeypatch, inp, TileConfig(*tiles), inp.q)
    assert aux.tiles == len(fwd_calls) == len(bwd_calls)
    causal = _suffix_causal_tiles(length, n, *tiles)
    assert (aux.tiles < len(causal)) if strong else (aux.tiles == len(causal))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [90, 17])
def test_backward_same_bytes_from_hand_built_aux(dtype, n):
    """The backward needs only lse and c from the forward: a hand-built
    ForwardAux(lse, c) gives byte-identical gradients, under skipping too."""
    rng = np.random.default_rng(61)
    inp = _suffix(_strong_decay_inputs(rng, 90, 4, dtype), n)
    cfg = TileConfig(16, 8)
    o, aux = tiled_fwd(inp, cfg)
    d_out = rng.normal(size=o.shape).astype(dtype)
    want = tiled_bwd(inp, o, aux, d_out, cfg)
    got = tiled_bwd(inp, o, ForwardAux(lse=aux.lse, c=aux.c), d_out, cfg)
    for name in ("dq", "dk", "dv", "dlogf"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
