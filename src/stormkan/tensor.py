"""KFT1 records of plain arrays, and the container that checkpoints and
static graphs share.

A record holds one float32 or float64 array ("KFT1", little-endian):
4-byte magic, dtype code (u8: 0=f32, 1=f64), rank (u8), one u32 per
extent, then the raw row-major data.  ``write_tensor`` writes the
header and then the array's own buffer; ``read_tensor`` checks the
header against what the stream holds, then reads the data straight
into a fresh array.

A container (``.kfc`` checkpoint, ``.kfg`` static graph) is a 4-byte
magic, a u32 version, a u32-length UTF-8 JSON header, a u32 tensor
count, then per tensor a u16-length UTF-8 name and its KFT1 record.
``read_container`` checks the magic and the version before it parses
anything else, and raises only ``DataError``.
"""

from __future__ import annotations

import io
import json
import math
import struct
from typing import BinaryIO

import numpy as np

from .errors import DataError, ShapeError

MAGIC = b"KFT1"

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _as_supported(array) -> np.ndarray:
    """array as a contiguous, native-order float64 if it is a float64 of
    either byte order, else as a float32."""
    arr = np.asarray(array)
    wide = arr.dtype.kind == "f" and arr.itemsize == 8
    return np.asarray(arr, np.float64 if wide else np.float32, order="C")


def _record(array) -> tuple[bytes, np.ndarray]:
    """The KFT1 header of array and its data as a contiguous little-endian
    array: array itself when it is one, so writing it copies nothing."""
    arr = _as_supported(array)
    if arr.ndim > 255:
        raise ShapeError("rank exceeds serializable limit (255)")
    dtype_le = arr.dtype.newbyteorder("<")
    header = MAGIC + struct.pack(f"<BB{arr.ndim}I", _DTYPE_CODES[dtype_le],
                                 arr.ndim, *arr.shape)
    return header, np.asarray(arr, dtype_le, order="C")


def write_tensor(fp: BinaryIO, array) -> None:
    """Write array as a KFT1 record: its header, then its buffer."""
    header, arr = _record(array)
    fp.write(header)
    fp.write(arr)


def read_tensor(fp: BinaryIO) -> np.ndarray:
    """The array of the KFT1 record at fp, read into a fresh array."""
    dtype, shape, nbytes = _record_header(fp)
    try:
        arr = np.empty(shape, dtype)
    except ValueError as exc:  # e.g. a rank beyond numpy's limit
        raise DataError(f"unsupported tensor shape: {exc}") from exc
    if fp.readinto(arr.reshape(-1).view(np.uint8)) < nbytes:
        raise DataError("truncated tensor data block")
    return arr


def _record_header(fp: BinaryIO) -> tuple[np.dtype, tuple[int, ...], int]:
    """The dtype, shape and data bytes of the KFT1 record at fp."""
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
    # a corrupt shape must not ask a stream for 2**63 bytes or more, nor
    # a file for more than it holds: the buffer for 2**53 bytes fails
    # with MemoryError
    left = 2**63 - 1
    if fp.seekable():
        here = fp.tell()
        left = fp.seek(0, io.SEEK_END) - here
        fp.seek(here)
    if nbytes > left:
        raise DataError("truncated tensor data block")
    return dtype, shape, nbytes


def _array(raw, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """The record data raw as an array, without a copy."""
    try:
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    except ValueError as exc:  # e.g. a rank beyond numpy's limit
        raise DataError(f"unsupported tensor shape: {exc}") from exc


def write_container(magic: bytes, version: int, header,
                    tensors: dict[str, np.ndarray]) -> bytes:
    """Serialize a JSON header and named tensors (in the dict's order)."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [magic, struct.pack("<II", version, len(blob)), blob,
             struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw, *_record(arr)]
    return b"".join(parts)


def read_container(data: bytes, magic: bytes, version: int,
                   stale: str = "") -> tuple[object, dict[str, np.ndarray]]:
    """(header, {name: array}) of a container; ``stale`` is appended to
    the message for a version other than ``version``.  The arrays are
    read-only views of data, not copies."""
    fp = io.BytesIO(data)
    view = memoryview(data)

    def take(n: int) -> bytes:
        raw = fp.read(n)
        if len(raw) < n:
            raise DataError(f"truncated {magic.decode()} payload")
        return raw

    if fp.read(4) != magic:
        raise DataError(f"bad magic: not a {magic.decode()} payload")
    (found,) = struct.unpack("<I", take(4))
    if found != version:
        raise DataError(f"unsupported {magic.decode()} version {found} (this "
                        f"build reads {version}){stale}")
    (n,) = struct.unpack("<I", take(4))
    try:
        header = json.loads(take(n).decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise DataError(f"corrupt JSON header: {exc!r}") from exc
    tensors = {}
    for _ in range(struct.unpack("<I", take(4))[0]):
        try:
            name = take(struct.unpack("<H", take(2))[0]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"corrupt tensor name: {exc}") from exc
        if name in tensors:
            raise DataError(f"duplicate tensor name {name!r}")
        dtype, shape, nbytes = _record_header(fp)
        start = fp.tell()
        arr = _array(view[start:start + nbytes], dtype, shape)
        arr.flags.writeable = False
        tensors[name] = arr
        fp.seek(start + nbytes)
    if fp.read(1):
        raise DataError("trailing bytes after the last tensor")
    return header, tensors


class Parameter:
    """Named trainable array; identity is the lookup key for gradients."""

    __slots__ = ("name", "data")

    def __init__(self, name: str, data):
        self.name = name
        self.data = _as_supported(data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"
