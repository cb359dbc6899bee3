"""On-disk formats: the binary segment container and CSV recording import.

Segment file layout (little-endian):

    offset 0   magic "EEGSEG01" (8 bytes)
    offset 8   u32 header length H
    offset 12  canonical JSON header (sorted keys, no whitespace)
    12 + H     X payload: n*c*l float32 values
    end - 4    u32 CRC-32 of all preceding bytes

The header records n, c, l, f_s, channel_names, subject_ids, labels and
generator_metadata; a round trip is bit-exact.
"""

from __future__ import annotations

import csv
import json
import struct
import types
import typing
import zlib
from pathlib import Path

import numpy as np

from .data import Recording, SegmentSet
from .errors import DataFormatError

MAGIC = b"EEGSEG01"
_HEADER_LEN_OFFSET = 8
_HEADER_OFFSET = 12
_HEADER_TYPES = {"n": int, "c": int, "l": int, "f_s": float, "channel_names": list,
                 "subject_ids": list, "labels": list}
_OPTIONAL_TYPES = {"generator_metadata": dict | None}


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


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


def decode_header(raw: bytes, end: int, keys: dict) -> dict:
    """The JSON header between offset 12 and `end`, holding every key of `keys`
    with a value of the type it maps to.

    Shared with the checkpoint container, whose header sits at the same offset.
    """
    try:
        header = json.loads(raw[_HEADER_OFFSET:end])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"invalid JSON header at offset {_HEADER_OFFSET}: {exc}") from exc
    require_keys(header, keys, f"header at offset {_HEADER_OFFSET}")
    return header


def save_segments(ds: SegmentSet, path) -> None:
    header = {
        "n": ds.n,
        "c": ds.c,
        "l": ds.l,
        "f_s": float(ds.f_s),
        "channel_names": list(ds.channel_names),
        "subject_ids": ds.subject_ids.tolist(),
        "labels": ds.y.tolist(),
        "generator_metadata": ds.metadata,
    }
    blob = _canonical_json(header)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", len(blob))
    out += blob
    out += np.ascontiguousarray(ds.X, dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    Path(path).write_bytes(bytes(out))


def load_segments(path) -> SegmentSet:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_OFFSET + 4:
        raise DataFormatError(f"file truncated at offset {len(raw)}: too short for a header")
    if raw[:8] != MAGIC:
        raise DataFormatError(f"bad magic at offset 0: {raw[:8]!r}, expected {MAGIC!r}")
    (header_len,) = struct.unpack_from("<I", raw, _HEADER_LEN_OFFSET)
    payload_offset = _HEADER_OFFSET + header_len
    if payload_offset + 4 > len(raw):
        raise DataFormatError(f"header length {header_len} at offset {_HEADER_LEN_OFFSET} "
                              f"overruns the file ({len(raw)} bytes)")
    header = decode_header(raw, payload_offset, _HEADER_TYPES)
    where = f"header at offset {_HEADER_OFFSET}"
    check_types(header, _OPTIONAL_TYPES, where)
    n, c, l = int(header["n"]), int(header["c"]), int(header["l"])
    check_entries(header, "labels", lambda v: type(v) is int and v in (0, 1), "0 or 1", where, n)
    for key, length in (("subject_ids", n), ("channel_names", c)):
        check_entries(header, key, lambda v: isinstance(v, str), "a string", where, length)

    expected = payload_offset + 4 * n * c * l + 4
    if len(raw) != expected:
        raise DataFormatError(
            f"file is {len(raw)} bytes but header implies {expected} "
            f"(payload at offset {payload_offset})"
        )
    crc_offset = expected - 4
    (stored_crc,) = struct.unpack_from("<I", raw, crc_offset)
    actual_crc = zlib.crc32(raw[:crc_offset])
    if stored_crc != actual_crc:
        raise DataFormatError(
            f"checksum mismatch at offset {crc_offset}: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )

    X = np.frombuffer(raw, dtype="<f4", count=n * c * l, offset=payload_offset)
    return SegmentSet(
        X.reshape(n, c, l).copy(),
        np.asarray(header["labels"], dtype=np.int64),
        np.asarray(header["subject_ids"], dtype=str),
        float(header["f_s"]),
        list(header["channel_names"]),
        dict(header.get("generator_metadata") or {}),
    )


def load_recording_csv(path, f_s: float, subject_id: str, task_label: int,
                       task_onset: int = 0, task_offset: int | None = None) -> Recording:
    """Small hand-made fixtures: one row per sample, columns are channels."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            channels = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty CSV, expected a channel-name header row")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(channels):
                raise DataFormatError(
                    f"{path}:{lineno}: {len(row)} columns, expected {len(channels)}"
                )
            rows.append([float(v) for v in row])
    samples = np.asarray(rows, dtype=np.float64).T if rows else np.empty((len(channels), 0))
    return Recording(
        subject_id=subject_id,
        channels=[c.strip() for c in channels],
        samples=samples,
        f_s=f_s,
        task_label=task_label,
        task_onset=task_onset,
        task_offset=task_offset,
    )
