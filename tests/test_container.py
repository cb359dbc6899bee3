"""Both container formats, byte for byte against an independent writer of the
README layout, the order in which a read checks a file, and artifact writes
that leave the previous file whole when they fail."""

import errno
import os
from dataclasses import replace

import numpy as np
import pytest

from patchformer import container
from patchformer.checkpoint import load_model, save_model
from patchformer.config import ABLATIONS
from patchformer.data import SegmentSet
from patchformer.errors import DataFormatError
from patchformer.model import build
from patchformer.rng import Rng
from patchformer.runners import ExperimentReport, SubjectResult
from patchformer.segio import load_segments, save_segments
from patchformer.synth import SynthEffect, synth_generate

import oracles

EMPTY = SegmentSet(np.empty((0, 3, 8), dtype=np.float32), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=str), 16.0, ["A", "B", "C"])


@pytest.mark.parametrize("ds", [synth_generate(2, 3, 4, 32, 16.0, SynthEffect(), Rng(5)), EMPTY],
                         ids=["synth", "empty"])
def test_segment_bytes_follow_the_layout(tmp_path, ds):
    path = tmp_path / "d.seg"
    save_segments(ds, path)
    header = {"n": len(ds.y), "c": len(ds.channel_names), "l": ds.X.shape[2], "f_s": ds.f_s,
              "channel_names": ds.channel_names, "subject_ids": [str(s) for s in ds.subject_ids],
              "labels": [int(y) for y in ds.y], "generator_metadata": ds.metadata}
    assert path.read_bytes() == oracles.container_layout(b"EEGSEG01", header, [ds.X])


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_checkpoint_bytes_follow_the_layout(tiny_config, tmp_path, ablation):
    model = build(replace(tiny_config, ablation=ablation), Rng(4))
    path = tmp_path / "m.ckpt"
    save_model(model, path)
    arrays = {name: p.data for name, p in model.parameters.items()} | model.buffers
    header = {"format_version": 1, "config": model.config.to_dict(),
              "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
              "n_params": len(model.parameters)}
    assert path.read_bytes() == oracles.container_layout(b"EEGPFCK1", header,
                                                          list(arrays.values()))


@pytest.mark.parametrize("write, load", [
    (lambda path, cfg: save_segments(synth_generate(1, 2, 2, 16, 8.0, SynthEffect(), Rng(1)),
                                     path), load_segments),
    (lambda path, cfg: save_model(build(cfg, Rng(9)), path), load_model),
], ids=["seg", "ckpt"])
def test_checksum_is_checked_before_the_header(tiny_config, tmp_path, write, load):
    path = tmp_path / "f"
    write(path, tiny_config)
    raw = bytearray(path.read_bytes())
    raw[12] = ord("[")  # the header no longer parses, and the CRC-32 no longer holds
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="checksum mismatch at offset"):
        load(path)


def _report(seed):
    rows = [SubjectResult("S01", 80.0 + seed, 0.9, 79.0, 3, 12)]
    return ExperimentReport("full", rows, ExperimentReport.aggregate_rows(rows), "abc", 1.5)


WRITERS = {
    "seg": lambda path, cfg, seed: save_segments(
        synth_generate(1, 2, 2, 16, 8.0, SynthEffect(), Rng(seed)), path),
    "ckpt": lambda path, cfg, seed: save_model(build(cfg, Rng(seed)), path),
    "report_json": lambda path, cfg, seed: _report(seed).save_json(path),
    "report_csv": lambda path, cfg, seed: _report(seed).save_csv(path),
    "text": lambda path, cfg, seed: container.write_atomic(path, f"run {seed}\n"),
}


class _HalfWriter:
    """A file that takes half of what it is given, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data[:len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("fault", ["write", "replace"])
@pytest.mark.parametrize("name", list(WRITERS))
def test_a_failed_write_keeps_the_previous_file(tiny_config, tmp_path, monkeypatch, name, fault):
    path = tmp_path / "artifact"
    WRITERS[name](path, tiny_config, 1)
    before = path.read_bytes()
    if fault == "write":
        monkeypatch.setattr(container, "open", lambda p, mode: _HalfWriter(open(p, mode)),
                            raising=False)
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        WRITERS[name](path, tiny_config, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    WRITERS[name](path, tiny_config, 2)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_atomic_writes_keep_the_permissions_of_a_plain_write(tmp_path):
    plain, atomic = tmp_path / "plain", tmp_path / "atomic"
    plain.write_bytes(b"x")
    container.write_atomic(atomic, b"x")
    assert atomic.stat().st_mode == plain.stat().st_mode
