"""Model checkpoints: config plus named parameter/buffer arrays.

Layout mirrors the segment container: magic, u32 header length, canonical
JSON header (format version, config, array directory), float32 little-endian
payloads in directory order, trailing CRC-32.
"""

from __future__ import annotations

import json
import struct
import typing
import zlib
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import DataFormatError
from .model import PatchFormerModel, build
from .rng import Rng
from .segio import check_entries, check_types, decode_header, require_keys

MAGIC = b"EEGPFCK1"
FORMAT_VERSION = 1


def save_model(model: PatchFormerModel, path) -> None:
    arrays = [(name, p.data) for name, p in model.parameters.items()]
    arrays += [(name, buf) for name, buf in model.buffers.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "n_params": len(model.parameters),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", len(blob))
    out += blob
    for _, a in arrays:
        out += np.ascontiguousarray(a, dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    Path(path).write_bytes(bytes(out))


def load_model(path, dtype=np.float32) -> PatchFormerModel:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise DataFormatError(f"bad checkpoint magic at offset 0: {raw[:8]!r}")
    (header_len,) = struct.unpack_from("<I", raw, 8)
    payload_offset = 12 + header_len
    if payload_offset + 4 > len(raw):
        raise DataFormatError(f"header length {header_len} overruns the file ({len(raw)} bytes)")
    header = decode_header(raw, payload_offset,
                           {"format_version": int, "config": dict, "arrays": list})
    if header["format_version"] != FORMAT_VERSION:
        raise DataFormatError(f"unsupported checkpoint format version {header['format_version']}")

    crc_offset = len(raw) - 4
    (stored_crc,) = struct.unpack_from("<I", raw, crc_offset)
    if stored_crc != zlib.crc32(raw[:crc_offset]):
        raise DataFormatError(f"checksum mismatch at offset {crc_offset}")

    where = "checkpoint config in the header at offset 12"
    check_types(header["config"], typing.get_type_hints(ModelConfig), where)
    if header["config"].get("local_graphs") is not None:
        check_entries(header["config"], "local_graphs",
                      lambda g: isinstance(g, list) and all(type(i) is int for i in g),
                      "a list of channel indices", where)
    try:
        config = ModelConfig.from_dict(header["config"])
    except TypeError as exc:  # the message names the unknown or missing field
        raise DataFormatError(f"{where}: {exc}") from exc
    model = build(config, Rng(0), dtype=dtype)

    state = {}
    offset = payload_offset
    for i, entry in enumerate(header["arrays"]):
        where = f"array entry {i} in the header at offset 12"
        require_keys(entry, {"name": str, "shape": list}, where)
        shape = tuple(entry["shape"])
        if not all(type(d) is int and d >= 0 for d in shape):
            raise DataFormatError(f"{where}: shape {entry['shape']} is not a list of sizes")
        count = int(np.prod(shape)) if shape else 1
        end = offset + 4 * count
        if end > crc_offset:
            raise DataFormatError(f"array {entry['name']!r} overruns payload at offset {offset}")
        state[entry["name"]] = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape)
        offset = end
    if offset != crc_offset:
        raise DataFormatError(f"{crc_offset - offset} unexpected payload bytes at offset {offset}")

    expected = set(model.parameters) | set(model.buffers)
    if set(state) != expected:
        missing = expected - set(state)
        raise DataFormatError(f"checkpoint arrays do not match the config; missing {sorted(missing)}")
    model.load_state(state)
    return model
