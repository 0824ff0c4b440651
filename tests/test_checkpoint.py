"""Unit tests for the flat binary checkpoint format."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foxattn
from foxattn.checkpoint import MAGIC, load_model, load_tensors, save_model, save_tensors
from foxattn.errors import CheckpointError
from foxattn.layer import GateMode
from foxattn.model import ModelConfig, init_model_params, named_parameters


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b.nested.name": rng.normal(size=7).astype(np.float64),
        "scalarish": np.array([1.5], dtype=np.float32),
        "three_d": rng.normal(size=(2, 3, 4)).astype(np.float32),
    }
    p = tmp_path / "t.ckpt"
    save_tensors(tensors, p)
    back = load_tensors(p)
    assert list(back) == list(tensors)
    for name in tensors:
        assert back[name].dtype == tensors[name].dtype
        np.testing.assert_array_equal(back[name], tensors[name])
    # saving the loaded dict reproduces the exact bytes
    p2 = tmp_path / "t2.ckpt"
    save_tensors(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_header_layout_frozen(tmp_path):
    p = tmp_path / "h.ckpt"
    save_tensors({"x": np.zeros((2, 2), dtype=np.float32)}, p)
    data = p.read_bytes()
    assert data[:8] == b"FOXCKPT1"
    assert struct.unpack_from("<I", data, 8)[0] == 1
    name_len = struct.unpack_from("<H", data, 12)[0]
    assert name_len == 1 and data[14:15] == b"x"
    code, ndim = struct.unpack_from("<BB", data, 15)
    assert code == 0 and ndim == 2
    assert struct.unpack_from("<II", data, 17) == (2, 2)
    assert len(data) == 17 + 8 + 16  # header + dims + 4 float32 values


def test_empty_dict_round_trip(tmp_path):
    p = tmp_path / "e.ckpt"
    save_tensors({}, p)
    assert load_tensors(p) == {}


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(CheckpointError):
        save_tensors({"x": np.zeros(2, dtype=np.int64)}, tmp_path / "x.ckpt")


# Saves a large tensor under a 4 KiB file-size limit, as a full disk would cut
# it short; exits 3 when the save raised OSError.
_SAVE_UNDER_FILE_SIZE_LIMIT = """
import resource, signal, sys
import numpy as np
from foxattn.checkpoint import save_tensors
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
try:
    save_tensors({"x": np.zeros(100_000, dtype=np.float32)}, sys.argv[1])
except OSError:
    sys.exit(3)
"""


def test_failed_write_leaves_previous_checkpoint_intact(tmp_path):
    p = tmp_path / "m.ckpt"
    save_tensors({"x": np.arange(6, dtype=np.float32)}, p)
    before = p.read_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(foxattn.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _SAVE_UNDER_FILE_SIZE_LIMIT, str(p)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == 3, run.stderr.decode()
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]  # no temp file left behind


def test_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="magic"):
        load_tensors(p)


def test_rejects_truncation(tmp_path):
    p = tmp_path / "t.ckpt"
    save_tensors({"x": np.ones((4, 4), dtype=np.float32)}, p)
    whole = p.read_bytes()
    for cut in (4, 13, 20, len(whole) - 3):
        p.write_bytes(whole[:cut])
        with pytest.raises(CheckpointError):
            load_tensors(p)


def test_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "t.ckpt"
    save_tensors({"x": np.ones(2, dtype=np.float32)}, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_tensors(p)


def test_rejects_repeated_record_name(tmp_path):
    """A second record under a name already read must not replace the first."""
    p = tmp_path / "m.ckpt"
    save_model(init_model_params(_cfg(), seed=0), p)
    extra = tmp_path / "extra.ckpt"
    save_tensors({"embed": np.full((8, 8), 7.0, dtype=np.float32)}, extra)
    data = bytearray(p.read_bytes())
    (count,) = struct.unpack_from("<I", data, 8)
    struct.pack_into("<I", data, 8, count + 1)
    p.write_bytes(bytes(data) + extra.read_bytes()[12:])
    with pytest.raises(CheckpointError, match="repeated"):
        load_tensors(p)
    with pytest.raises(CheckpointError, match="repeated"):
        load_model(_cfg(), p)


def test_load_model_rejects_mixed_precisions(tmp_path):
    p = tmp_path / "m.ckpt"
    save_model(init_model_params(_cfg(), seed=0), p)
    tensors = load_tensors(p)
    tensors["head.w"] = tensors["head.w"].astype(np.float64)
    save_tensors(tensors, p)
    with pytest.raises(CheckpointError, match="precision"):
        load_model(_cfg(), p)


def _cfg(**kw):
    base = dict(
        n_layers=1, d_model=8, n_heads=2, d_head=4, vocab_size=8,
        max_train_len=16, arch="pro", gate_mode=GateMode(kind="data_dependent"),
        backend="naive",
    )
    base.update(kw)
    return ModelConfig(**base)


def test_model_checkpoint_layout_frozen(tmp_path):
    """Init checkpoint records of a 2-head pro / data_dependent model: per-head
    names head by head ahead of w_o, each gate bias a (1,) record."""
    p = tmp_path / "m.ckpt"
    save_model(init_model_params(_cfg(), seed=0), p)
    head = [
        ("w_q", (4, 8)), ("w_k", (4, 8)), ("w_v", (4, 8)), ("w_g", (4, 8)),
        ("shift_k", (8,)), ("shift_v", (8,)), ("gate_w", (8,)), ("gate_b", (1,)),
        ("q_gamma", (4,)), ("k_gamma", (4,)), ("out_gamma", (4,)),
    ]
    expected = [
        ("embed", (8, 8)),
        ("blocks.0.attn_norm.gamma", (8,)),
        *[(f"blocks.0.attn.heads.{h}.{f}", s) for h in (0, 1) for f, s in head],
        ("blocks.0.attn.w_o", (8, 8)),
        ("blocks.0.mlp_norm.gamma", (8,)),
        ("blocks.0.mlp.w_in", (16, 8)),
        ("blocks.0.mlp.w_gate", (16, 8)),
        ("blocks.0.mlp.w_out", (8, 16)),
        ("final_norm.gamma", (8,)),
        ("head.w", (8, 8)),
    ]
    records = load_tensors(p)
    assert [(n, a.shape) for n, a in records.items()] == expected
    assert all(a.dtype == np.float32 for a in records.values())


def test_model_round_trip(tmp_path):
    cfg = _cfg()
    params = init_model_params(cfg, seed=3)
    p = tmp_path / "m.ckpt"
    save_model(params, p)
    restored = load_model(cfg, p)
    for (na, a), (nb, b) in zip(named_parameters(params), named_parameters(restored)):
        assert na == nb
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_model_round_trip_float64(tmp_path):
    cfg = _cfg()
    params = init_model_params(cfg, seed=3, dtype=np.float64)
    p = tmp_path / "m64.ckpt"
    save_model(params, p)
    restored = load_model(cfg, p)
    flat = dict(named_parameters(restored))
    assert flat["embed"].dtype == np.float64


def test_load_model_rejects_config_mismatch(tmp_path):
    params = init_model_params(_cfg(), seed=0)
    p = tmp_path / "m.ckpt"
    save_model(params, p)
    # different gate mode: checkpoint has gate tensors the config lacks
    with pytest.raises(CheckpointError, match="unexpected"):
        load_model(_cfg(gate_mode=GateMode(kind="none")), p)
    # wider model: tensors missing or mis-shaped
    with pytest.raises(CheckpointError):
        load_model(_cfg(d_model=16, n_heads=2, d_head=8), p)
    with pytest.raises(CheckpointError, match="missing"):
        load_model(_cfg(n_layers=2), p)
