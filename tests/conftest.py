import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from patchformer.config import ModelConfig
from patchformer.rng import Rng
from patchformer.synth import SynthEffect, synth_generate


@pytest.fixture
def np_rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config():
    """Smallest valid full pipeline; cheap enough for per-test builds."""
    return ModelConfig(
        c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
        l_t=4, l_step=2, l_token=8, n_head=2, n_layers=1, dropout_p=0.0,
    )


@pytest.fixture
def small_loso_config():
    """6-channel config matched to the small synthetic datasets."""
    return ModelConfig(
        c=6, l=160, f_s=40.0, k=8, local_graphs=[[0, 1], [2, 3], [4, 5]],
        l_t=8, l_step=4, l_token=16, n_head=4, n_layers=1, dropout_p=0.25,
    )


@pytest.fixture
def front_end_state():
    """set(model, seed): random running statistics, gamma, beta and
    convolution bias for the front end's batch-norm blocks, so an eval
    forward is not the identity normalization of a new model."""

    def set_state(model, seed):
        rng = np.random.default_rng(seed)
        for prefix in ("tcnn", "fem"):
            if f"{prefix}.bias" not in model.parameters:
                continue
            k = model.config.k
            model.buffers[f"{prefix}.bn.running_mean"][:] = rng.normal(size=k)
            model.buffers[f"{prefix}.bn.running_var"][:] = rng.uniform(0.25, 4.0, size=k)
            for name in ("bias", "bn.gamma", "bn.beta"):
                model.parameters[f"{prefix}.{name}"].data[:] = rng.normal(size=k)

    return set_state


@pytest.fixture(scope="session")
def high_snr_dataset():
    return synth_generate(3, 12, 6, 160, 40.0, SynthEffect(amplitude=3.0), Rng(21))


@pytest.fixture
def rewrite_header():
    """rewrite(path, edit): replace the JSON header of a segment or checkpoint
    file with edit(header), a new header object or raw bytes, and re-seal the
    file with a valid CRC-32."""

    def rewrite(path, edit):
        raw = Path(path).read_bytes()
        (length,) = struct.unpack_from("<I", raw, 8)
        new = edit(json.loads(raw[12:12 + length]))
        blob = new if isinstance(new, bytes) else json.dumps(new).encode()
        body = raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length:-4]
        Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    return rewrite
