"""Segment files and CSV recording import.

A segment file is a `container` file with magic "EEGSEG01" whose payload is
X, n*c*l float32 values. The header records n, c, l, f_s, channel_names,
subject_ids, labels and generator_metadata; a round trip is bit-exact.
"""

from __future__ import annotations

import csv

import numpy as np

from . import container
from .container import HEADER_WHERE, check_entries, check_types
from .data import Recording, SegmentSet
from .errors import DataFormatError

MAGIC = b"EEGSEG01"
_HEADER_TYPES = {"n": int, "c": int, "l": int, "f_s": float, "channel_names": list,
                 "subject_ids": list, "labels": list}


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
    container.write(path, MAGIC, header, [ds.X])


def load_segments(path) -> SegmentSet:
    header, raw, start, end = container.read(path, MAGIC, _HEADER_TYPES)
    check_types(header, {"generator_metadata": dict | None}, HEADER_WHERE)
    n, c, l, f_s = header["n"], header["c"], header["l"], header["f_s"]
    if min(n, c, l) < 0 or not f_s > 0:
        raise DataFormatError(f"{HEADER_WHERE}: n={n}, c={c}, l={l}, f_s={f_s}; expected "
                              f"sizes of at least 0 and a positive sampling rate")
    check_entries(header, "labels", lambda v: type(v) is int and v in (0, 1), "0 or 1",
                  HEADER_WHERE, n)
    for key, length in (("subject_ids", n), ("channel_names", c)):
        check_entries(header, key, lambda v: isinstance(v, str), "a string", HEADER_WHERE, length)
    X = container.floats(raw, start, end, n * c * l)
    return SegmentSet(
        X.reshape(n, c, l).copy(),
        np.asarray(header["labels"], dtype=np.int64),
        np.asarray(header["subject_ids"], dtype=str),
        float(f_s),
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
