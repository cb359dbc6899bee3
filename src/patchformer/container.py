"""The binary container of segment files and checkpoints; the only module
that knows its framing. Layout (little-endian):

    offset 0   magic (8 bytes)
    offset 8   u32 header length H
    offset 12  canonical JSON header (sorted keys, no whitespace)
    12 + H     payload: float32 arrays, one after another
    end - 4    u32 CRC-32 of all preceding bytes
"""

from __future__ import annotations

import json
import math
import os
import struct
import types
import typing
import uuid
import zlib
from pathlib import Path

import numpy as np

from .errors import DataFormatError

HEADER_OFFSET = 12
HEADER_WHERE = f"header at offset {HEADER_OFFSET}"


def canonical_json(obj) -> bytes:
    """Sorted keys, no whitespace: equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def write(path, magic: bytes, header: dict, arrays) -> None:
    """Write `header` and each array of `arrays`, as little-endian float32, in order."""
    blob = canonical_json(header)
    out = bytearray(magic + struct.pack("<I", len(blob)) + blob)
    for a in arrays:
        out += np.ascontiguousarray(a, dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(out))
    write_atomic(path, out)


def write_atomic(path, data) -> None:
    """Write `data` (bytes, or str as UTF-8) to `path` through a new file in
    the same directory that then replaces it (os.replace): a reader, or a
    run that fails midway, finds the previous file or the new one, never a
    torn one, and no temporary file is left behind. No fsync: the replace
    is atomic, not durable across a power cut."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are not data."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read(path, magic: bytes, keys: dict) -> tuple[dict, bytes, int, int]:
    """(header, raw, start, end): the header, holding every key of `keys` with a
    value of the type it maps to, the file's bytes and the payload bounds.
    Size, magic, header length and CRC-32 are checked, in that order, before the
    header is decoded; DataFormatError names the offset of the first fault."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_OFFSET + 4:
        raise DataFormatError(f"file truncated at offset {len(raw)}: too short for a header")
    if raw[:8] != magic:
        raise DataFormatError(f"bad magic at offset 0: {raw[:8]!r}, expected {magic!r}")
    (header_len,) = struct.unpack_from("<I", raw, 8)
    start, end = HEADER_OFFSET + header_len, len(raw) - 4
    if start > end:
        raise DataFormatError(f"header length {header_len} at offset 8 "
                              f"overruns the file ({len(raw)} bytes)")
    (stored_crc,) = struct.unpack_from("<I", raw, end)
    actual_crc = zlib.crc32(memoryview(raw)[:end])
    if stored_crc != actual_crc:
        raise DataFormatError(f"checksum mismatch at offset {end}: stored {stored_crc:#010x}, "
                              f"computed {actual_crc:#010x}")
    try:
        header = json.loads(raw[HEADER_OFFSET:start], parse_float=_finite,
                            parse_constant=_finite)
    except ValueError as exc:  # also bad UTF-8 and NaN / Infinity
        raise DataFormatError(f"invalid JSON {HEADER_WHERE}: {exc}") from exc
    require_keys(header, keys, HEADER_WHERE)
    return header, raw, start, end


def floats(raw: bytes, start: int, end: int, count: int) -> np.ndarray:
    """The payload raw[start:end] as `count` float32 values (a read-only view)."""
    if end - start != 4 * count:
        raise DataFormatError(f"file is {len(raw)} bytes but header implies "
                              f"{start + 4 * count + 4} (payload at offset {start})")
    return np.frombuffer(raw, dtype="<f4", count=count, offset=start)


def require_keys(obj, keys: dict, where: str) -> None:
    """Raise DataFormatError unless `obj` is a JSON object holding every key of
    `keys`, each with a value of the type the key maps to (see check_types)."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where} is a JSON {type(obj).__name__}, expected an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DataFormatError(f"{where} lacks key(s) {', '.join(map(repr, missing))}")
    check_types(obj, keys, where)


def check_types(obj: dict, expected: dict, where: str) -> None:
    """Raise DataFormatError if a key of `expected` that `obj` holds has a value
    of another type. A type is a class or a union such as `int | None`; float
    also accepts an integer, and only bool accepts true and false."""
    for key, kind in expected.items():
        if key not in obj:
            continue
        value = obj[key]
        allowed = typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,)
        if float in allowed:
            allowed += (int,)
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            name = getattr(kind, "__name__", kind)
            raise DataFormatError(f"{where}: key {key!r} is a JSON {type(value).__name__}, "
                                  f"expected {name}")


def check_entries(obj: dict, key: str, valid, expected: str, where: str,
                  length: int | None = None) -> None:
    """Raise DataFormatError unless `valid(entry)` holds for every entry of the
    list `obj[key]` and, if `length` is given, it holds that many entries;
    `expected` describes a valid entry."""
    values = obj[key]
    if length is not None and len(values) != length:
        raise DataFormatError(f"{where}: key {key!r} holds {len(values)} entries, "
                              f"expected {length}")
    for i, value in enumerate(values):
        if not valid(value):
            raise DataFormatError(f"{where}: key {key!r} entry {i} is {value!r}, "
                                  f"expected {expected}")
