"""Binary checkpoint format.

Layout: magic "AFPT", version u32, then one record per named array:
[name_len u32][name utf-8][dtype u8][rank u8][dims u64 x rank][payload].
All integers and payloads are little-endian; round-trips are bit-exact.
"""

import math
import os
import struct

import numpy as np

from .atomic import atomic_write
from .errors import CheckpointError, ConfigError
from .model import ModelConfig, ModelParams, param_shapes
from .tensor import Tensor

MAGIC = b"AFPT"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_OF = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, arr in arrays.items():
            code = _CODE_OF.get(arr.dtype)
            if code is None:
                raise CheckpointError(f"cannot store dtype {arr.dtype} for {name!r}")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_arrays(path) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic (not an AFPT checkpoint)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CheckpointError("truncated checkpoint while reading record header")
            (name_len,) = struct.unpack("<I", head)
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"corrupt record name: {exc}") from exc
            code, rank = struct.unpack("<BB", _read_exact(fh, 2, "dtype/rank"))
            dtype = _DTYPE_CODES.get(code)
            if dtype is None:
                raise CheckpointError(f"unknown dtype code {code} for {name!r}")
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "dims"))
            count = math.prod(dims)
            if count * dtype.itemsize > size - fh.tell():
                raise CheckpointError(f"truncated checkpoint: dims {dims} of {name!r} exceed the file")
            payload = _read_exact(fh, count * dtype.itemsize, f"payload of {name!r}")
            arrays[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    return arrays


def save_params(path, params: ModelParams) -> None:
    save_arrays(path, {name: t.data for name, t in params.named()})


def load_params(path, config: ModelConfig) -> ModelParams:
    """ModelParams from a checkpoint; a record missing or left over, a shape
    that does not match config, or a non-finite value raises CheckpointError."""
    arrays = load_arrays(path)
    expected = param_shapes(config)
    missing = set(expected) - set(arrays)
    extra = set(arrays) - set(expected)
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter names do not match config "
            f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
        )
    try:
        return ModelParams(config, {name: Tensor(arrays[name], requires_grad=True) for name in expected})
    except ConfigError as exc:  # ModelParams checks each shape and value
        raise CheckpointError(f"{path}: {exc}") from None
