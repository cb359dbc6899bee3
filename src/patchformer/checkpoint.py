"""Model checkpoints: config plus named parameter/buffer arrays.

A checkpoint is a `container` file with magic "EEGPFCK1". Its header holds a
format version, the config and an array directory, which must equal the
config's layout: parameter_shapes() then buffer_shapes(), names and shapes
in order. The payload holds those arrays as one float32 block.
"""

from __future__ import annotations

import itertools
import math
import typing

import numpy as np

from . import container
from .config import ModelConfig
from .container import HEADER_WHERE, canonical_json, check_entries, check_types, require_keys
from .errors import DataFormatError
from .model import PatchFormerModel, buffer_shapes, build, parameter_shapes
from .rng import Rng

MAGIC = b"EEGPFCK1"
FORMAT_VERSION = 1


def save_model(model: PatchFormerModel, path) -> None:
    arrays = {name: p.data for name, p in model.parameters.items()} | model.buffers
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
        "n_params": len(model.parameters),
    }
    container.write(path, MAGIC, header, arrays.values())


def _check_directory(directory: list, layout: dict) -> None:
    """Raise DataFormatError naming the first entry of `directory` that is not the
    layout's {name, shape}; as canonical JSON, so 4.0 or true is not 4 or 1."""
    expected = [{"name": n, "shape": list(s)} for n, s in layout.items()]
    for i, (got, want) in enumerate(itertools.zip_longest(directory, expected)):
        if canonical_json(got) != canonical_json(want):
            where = f"array entry {i} in the {HEADER_WHERE}"
            if got is not None:
                require_keys(got, {"name": str, "shape": list}, where)
            raise DataFormatError(f"{where} is {got}; the config implies {want}")


def load_model(path, dtype=np.float32) -> PatchFormerModel:
    header, raw, start, end = container.read(
        path, MAGIC, {"format_version": int, "config": dict, "arrays": list})
    if header["format_version"] != FORMAT_VERSION:
        raise DataFormatError(f"unsupported checkpoint format version {header['format_version']}")
    where = f"checkpoint config in the {HEADER_WHERE}"
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

    layout = {**parameter_shapes(config), **buffer_shapes(config)}
    _check_directory(header["arrays"], layout)
    counts = [math.prod(shape) for shape in layout.values()]
    pieces = np.split(container.floats(raw, start, end, sum(counts)), np.cumsum(counts)[:-1])
    model.load_state({name: piece.reshape(shape)
                      for (name, shape), piece in zip(layout.items(), pieces)})
    return model
