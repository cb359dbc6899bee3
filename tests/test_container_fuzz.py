"""Corrupted segment and checkpoint files end in DataFormatError, nothing else.

Hypothesis flips one byte at any offset (by any non-zero XOR mask) or cuts
the file at any length; every load must raise DataFormatError.
"""

import pytest
from hypothesis import given, settings, strategies as st

from patchformer.checkpoint import load_model, save_model
from patchformer.config import ModelConfig
from patchformer.errors import DataFormatError
from patchformer.model import build
from patchformer.rng import Rng
from patchformer.segio import load_segments, save_segments
from patchformer.synth import SynthEffect, synth_generate

FUZZ = settings(max_examples=300, deadline=None)


def _segment_file(path):
    save_segments(synth_generate(2, 2, 2, 16, 8.0, SynthEffect(), Rng(1)), path)


def _checkpoint_file(path):
    cfg = ModelConfig(c=2, l=32, f_s=8.0, k=2, local_graphs=[[0], [1]], l_t=2, l_step=1,
                      l_token=4, n_head=2, n_layers=1, dropout_p=0.0)
    save_model(build(cfg, Rng(3)), path)


CONTAINERS = {"seg": (_segment_file, load_segments), "ckpt": (_checkpoint_file, load_model)}


@pytest.fixture(scope="module", params=list(CONTAINERS))
def container(request, tmp_path_factory):
    """(valid file bytes, loader, scratch path) for one container format."""
    write, load = CONTAINERS[request.param]
    path = tmp_path_factory.mktemp("fuzz") / f"valid.{request.param}"
    write(path)
    load(path)  # the untouched file loads
    return path.read_bytes(), load, path.with_name(f"bad.{request.param}")


def _must_be_format_error(load, path, raw):
    path.write_bytes(raw)
    with pytest.raises(DataFormatError):
        load(path)


@FUZZ
@given(data=st.data())
def test_one_flipped_byte(container, data):
    raw, load, path = container
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    bad = bytearray(raw)
    bad[offset] ^= mask
    _must_be_format_error(load, path, bytes(bad))


@FUZZ
@given(data=st.data())
def test_truncated(container, data):
    raw, load, path = container
    length = data.draw(st.integers(0, len(raw) - 1), label="length")
    _must_be_format_error(load, path, raw[:length])
