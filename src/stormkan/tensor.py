"""Dense tensor value type and its binary serialization.

A Tensor is a shape + flat row-major buffer in one of two scalar
precisions (float32 / float64).  The on-disk format ("KFT1") is
little-endian: 4-byte magic, dtype code (u8: 0=f32, 1=f64), rank (u8),
one u32 per extent, then the raw row-major data.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO

import numpy as np

from .errors import DataError, ShapeError

MAGIC = b"KFT1"

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _as_supported(array, dtype=None) -> np.ndarray:
    arr = np.asarray(array, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return np.ascontiguousarray(arr)


class Tensor:
    """N-dimensional real array with an explicit precision."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        self.data = _as_supported(data, dtype)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"

    # -- serialization ----------------------------------------------------

    def tobytes(self) -> bytes:
        arr = self.data
        if arr.ndim > 255:
            raise ShapeError("rank exceeds serializable limit (255)")
        dtype_le = arr.dtype.newbyteorder("<")
        header = MAGIC + struct.pack(
            "<BB", _DTYPE_CODES[dtype_le], arr.ndim
        ) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        return header + np.ascontiguousarray(arr, dtype=dtype_le).tobytes()

    @classmethod
    def frombytes(cls, payload: bytes) -> "Tensor":
        tensor, used = cls._parse(payload, 0)
        if used != len(payload):
            raise DataError("trailing bytes after tensor payload")
        return tensor

    def write(self, fp: BinaryIO) -> None:
        fp.write(self.tobytes())

    @classmethod
    def read(cls, fp: BinaryIO) -> "Tensor":
        head = fp.read(6)
        if len(head) < 6 or head[:4] != MAGIC:
            raise DataError("bad tensor header (magic mismatch or truncated)")
        code, rank = head[4], head[5]
        if code not in _CODE_DTYPES:
            raise DataError(f"unknown dtype code {code}")
        raw_shape = fp.read(4 * rank)
        if len(raw_shape) < 4 * rank:
            raise DataError("truncated tensor shape block")
        shape = struct.unpack(f"<{rank}I", raw_shape)
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(shape) * dtype.itemsize   # exact, never wraps
        raw = fp.read(nbytes) if nbytes < 2**63 else b""
        if len(raw) < nbytes:
            raise DataError("truncated tensor data block")
        try:
            data = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:  # e.g. a rank beyond numpy's limit
            raise DataError(f"unsupported tensor shape: {exc}") from exc
        return cls(data)

    @classmethod
    def _parse(cls, payload: bytes, offset: int) -> tuple["Tensor", int]:
        import io

        fp = io.BytesIO(payload[offset:])
        tensor = cls.read(fp)
        return tensor, offset + fp.tell()


class Parameter:
    """Named trainable tensor; identity is the lookup key for gradients."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, data, dtype=None):
        self.name = name
        self.tensor = data if isinstance(data, Tensor) else Tensor(data, dtype)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @data.setter
    def data(self, value) -> None:
        self.tensor = Tensor(value)

    @property
    def shape(self):
        return self.tensor.shape

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"
