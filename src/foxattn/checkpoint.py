"""Flat binary checkpoint format.

Layout, all integers little-endian:

    magic   8 bytes  b"FOXCKPT1"
    count   u32      number of tensor records
    record  repeated:
        name_len u16, name bytes (utf-8)
        dtype    u8   (0 = float32, 1 = float64)
        ndim     u8
        dims     ndim * u32
        payload  raw little-endian row-major values

Round trips are bit-exact: save(load(p)) reproduces the file bytes.

Model checkpoints keep one record per attention head and field
(model.per_head_parameters); the rest of the package names a layer's heads
as one stacked tensor.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"FOXCKPT1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_tensors(tensors: dict[str, np.ndarray], path: str | Path) -> None:
    """Write name -> array records in dict order, replacing path atomically."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        if arr.dtype not in _CODE_FOR:
            raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]}...")
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<BB", _CODE_FOR[arr.dtype], arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
    # Write a sibling temp file and rename it over the target: a crash or a
    # failed write leaves the previous checkpoint intact, never a torn one.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as f:
            f.write(out)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read records back; validates magic, counts, dtype codes, sizes and
    that no record name repeats."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 4:
        raise CheckpointError("truncated checkpoint header")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {data[:8]!r}")
    pos = len(MAGIC)
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            code, ndim = struct.unpack_from("<BB", data, pos)
            pos += 2
            dims = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
        except struct.error as e:
            raise CheckpointError(f"truncated record: {e}") from e
        if name in tensors:
            raise CheckpointError(f"{name}: repeated record name")
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{name}: unknown dtype code {code}")
        dtype = _DTYPE_CODES[code]
        n_items = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        nbytes = n_items * dtype.itemsize
        if pos + nbytes > len(data):
            raise CheckpointError(f"{name}: payload runs past end of file")
        arr = np.frombuffer(data[pos : pos + nbytes], dtype=dtype).reshape(dims)
        pos += nbytes
        tensors[name] = arr.copy()
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes after last record")
    return tensors


def save_model(params, path: str | Path) -> None:
    """Save model parameters in the per-head checkpoint layout."""
    from .model import per_head_parameters

    save_tensors(dict(per_head_parameters(params)), path)


def load_model(cfg, path: str | Path):
    """Rebuild ModelParams for cfg from a checkpoint; shapes must match and
    all records must share one precision."""
    from .model import init_model_params, per_head_parameters

    tensors = load_tensors(path)
    dtypes = {a.dtype for a in tensors.values()}
    if len(dtypes) > 1:
        raise CheckpointError(f"checkpoint mixes precisions: {sorted(map(str, dtypes))}")
    dtype = dtypes.pop() if dtypes else np.float32
    params = init_model_params(cfg, seed=0, dtype=dtype)
    expected = dict(per_head_parameters(params))
    missing = [n for n in expected if n not in tensors]
    if missing:
        raise CheckpointError(f"missing tensors for this config: {missing[:5]}")
    extra = [n for n in tensors if n not in expected]
    if extra:
        raise CheckpointError(f"unexpected tensors for this config: {extra[:5]}")
    for name, arr in expected.items():
        src = tensors[name]
        if src.shape != arr.shape:
            raise CheckpointError(
                f"{name}: checkpoint shape {src.shape} != config shape {arr.shape}"
            )
        arr[...] = src
    return params
