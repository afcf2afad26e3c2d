"""Binary checkpoint format.

Layout: magic b"VBND", version u32 LE, tensor count u32 LE, then per tensor:
name length u16 LE + UTF-8 name, rank u8, extents u32 LE each, payload as
float32 little-endian row-major.  Round trips are value-exact at f32.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DataError
from .tensor import ParameterStore

MAGIC = b"VBND"
VERSION = 1


def save_checkpoint(params, path) -> None:
    """Write named arrays; accepts a ParameterStore or a name->array dict."""
    if isinstance(params, ParameterStore):
        items = [(name, t.data) for name, t in params.items()]
    else:
        items = sorted((str(k), np.asarray(v)) for k, v in params.items())
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(items)))
        for name, arr in items:
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for ext in arr.shape:
                f.write(struct.pack("<I", ext))
            payload = np.ascontiguousarray(arr, dtype="<f4")
            f.write(payload.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint into a name -> float64 ndarray dict.

    A blob that is cut short, carries bytes past its last tensor, holds a
    name that is not UTF-8 or extents numpy cannot represent raises
    DataError.
    """
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n, what):
        nonlocal off
        if n > len(blob) - off:
            raise DataError(f"{path}: truncated {what} at byte {off}: "
                            f"needs {n} bytes, {len(blob) - off} left")
        off += n
        return off - n

    def unpack(fmt, what):
        return struct.unpack_from(fmt, blob, take(struct.calcsize(fmt), what))

    if blob[:4] != MAGIC:
        raise DataError(f"{path}: bad magic {blob[:4]!r}")
    take(4, "magic")
    version, count = unpack("<II", "header")
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    out = {}
    for _ in range(count):
        (nlen,) = unpack("<H", "name length")
        start = take(nlen, "name")
        try:
            name = blob[start:off].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: tensor name at byte {start} is not UTF-8") from None
        (rank,) = unpack("<B", f"rank of {name!r}")
        shape = unpack(f"<{rank}I", f"extents of {name!r}")
        n = math.prod(shape)
        start = take(4 * n, f"payload of {name!r}")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=start)
        try:
            arr = arr.reshape(shape)
        except ValueError:
            # a zero extent empties the payload, but numpy still refuses
            # shapes whose other extents overflow its size limit
            raise DataError(f"{path}: extents {shape} of {name!r} are too large") from None
        out[name] = arr.astype(np.float64)
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes after {count} tensors")
    return out


def load_into(store: ParameterStore, path) -> None:
    """Overwrite store parameters from a checkpoint; names must match."""
    arrays = load_checkpoint(path)
    for name, t in store.items():
        if name not in arrays:
            raise DataError(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != t.data.shape:
            raise DataError(
                f"shape mismatch for {name!r}: {arrays[name].shape} vs {t.data.shape}"
            )
        t.data[...] = arrays[name]
