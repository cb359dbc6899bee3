"""The five-stage patch transformer.

Pipeline, with x of shape (B, 1, c, l):

    temporal CNN      -> (B, k, c, l/4)    kernel (1, K), same padding, pool 4
    feature enhance   -> (B, k, c, l/8)    1x1 kernel mixing feature maps, pool 2
    spatial patching  -> (B, p, k, l/8)    region-mean local branch + global conv
    temporal patching -> (B, q, l_token)   sliding windows, flatten, project
    transformer + FC  -> (B, n_classes)

p = |local graphs| + 1 and q = p * n_windows in the default wiring; the
ablation flags rewire exactly one stage each.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ModelConfig
from .errors import ConfigurationError, ShapeError
from .rng import Rng
from .tensor import (
    BatchNormState,
    Tensor,
    _conv_block,
    avg_pool_time,
    batch_norm,
    concat,
    conv_spatial,
    conv_temporal,
    dropout,
    layer_norm,
    leaky_relu,
    linear,
    multi_head_attention,
    recording,
    relu,
    sliding_windows,
    split,
)


def parameter_shapes(config: ModelConfig) -> dict:
    """Ordered name -> shape map of every trainable parameter.

    This is the single source of truth shared by build(), param_count(), the
    stage methods, which read their weights by these names, and the
    checkpoint format.
    """
    k, d = config.k, config.l_token
    shapes: dict = {}
    shapes["tcnn.kernels"] = (k, 1, 1, config.kernel_len)
    shapes["tcnn.bias"] = (k,)
    shapes["tcnn.bn.gamma"] = (k,)
    shapes["tcnn.bn.beta"] = (k,)
    if config.has_fem:
        shapes["fem.kernels"] = (k, k, 1, 1)
        shapes["fem.bias"] = (k,)
        shapes["fem.bn.gamma"] = (k,)
        shapes["fem.bn.beta"] = (k,)
    if config.has_spm:
        flat = k * config.t_spatial
        shapes["spm.local.weight"] = (config.c, flat)
        shapes["spm.local.bias"] = (config.c, flat)
        shapes["spm.global.kernels"] = (k, k, config.c, 1)
        shapes["spm.global.bias"] = (k,)
        shapes["spm.global.bn.gamma"] = (k,)
        shapes["spm.global.bn.beta"] = (k,)
    shapes["tpm.proj.weight"] = (config.token_in_dim, d)
    shapes["tpm.proj.bias"] = (d,)
    if config.positional_embedding:
        shapes["tpm.pos"] = (config.n_tokens, d)
    for i in range(config.n_layers):
        base = f"transformer.{i}"
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{base}.attn.{name}.weight"] = (d, d)
            shapes[f"{base}.attn.{name}.bias"] = (d,)
        shapes[f"{base}.norm1.gamma"] = (d,)
        shapes[f"{base}.norm1.beta"] = (d,)
        shapes[f"{base}.ffn_in.weight"] = (d, config.ffn_mult * d)
        shapes[f"{base}.ffn_in.bias"] = (config.ffn_mult * d,)
        shapes[f"{base}.ffn_out.weight"] = (config.ffn_mult * d, d)
        shapes[f"{base}.ffn_out.bias"] = (d,)
        shapes[f"{base}.norm2.gamma"] = (d,)
        shapes[f"{base}.norm2.beta"] = (d,)
    shapes["head.weight"] = (config.n_tokens * d, config.n_classes)
    shapes["head.bias"] = (config.n_classes,)
    return shapes


def buffer_shapes(config: ModelConfig) -> dict:
    """Non-trainable state: each batch norm's running mean and variance, of
    its gamma's shape, in parameter_shapes() order."""
    return {name.removesuffix("gamma") + stat: shape
            for name, shape in parameter_shapes(config).items() if name.endswith(".bn.gamma")
            for stat in ("running_mean", "running_var")}


def param_count(config: ModelConfig) -> int:
    """Exact trainable scalar count for a configuration."""
    config.validate()
    return sum(int(np.prod(s)) for s in parameter_shapes(config).values())


def _init_value(name: str, shape: tuple, rng: Rng) -> np.ndarray:
    """Initializer policy: what array a parameter starts from."""
    if name == "spm.local.weight" or name.endswith(".gamma"):
        return np.ones(shape)
    if name == "tpm.pos":
        return rng.normal(0.0, 0.02, shape)
    if name.endswith((".bias", ".beta")):
        return np.zeros(shape)
    if name.endswith("kernels"):
        fan_in = int(np.prod(shape[1:]))
    else:  # 2-D projection weights
        fan_in = shape[0]
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class PatchFormerModel:
    """Named parameters and buffers plus the forward computation of all five stages.

    `parameters` maps each name of parameter_shapes() to a leaf tensor that
    requires grad; `buffers` maps each name of buffer_shapes() to an array.
    Each stage reads its weights from them by name. Every parameter's data
    is a view into one flat array, `arena`, laid out in parameter_shapes()
    order; it holds the parameters only. A new model's parameters are zero
    and its running statistics have mean 0 and variance 1; build()
    initializes the parameters, a checkpoint load overwrites both.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        shapes = parameter_shapes(config)
        self.arena = np.zeros(sum(math.prod(s) for s in shapes.values()), self.dtype)
        self.parameters: dict[str, Tensor] = {
            name: Tensor(view, requires_grad=True)
            for name, view in zip(shapes, split(self.arena, shapes.values()))}
        self.buffers: dict[str, np.ndarray] = {
            name: (np.ones if name.endswith("running_var") else np.zeros)(shape, self.dtype)
            for name, shape in buffer_shapes(config).items()}

    # -- parameter bookkeeping ---------------------------------------------

    def zero_grad(self):
        for p in self.parameters.values():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, keyed by name; the parameters
        are views of one copy of the arena."""
        views = split(self.arena.copy(), [p.shape for p in self.parameters.values()])
        state = dict(zip(self.parameters, views))
        state.update({name: b.copy() for name, b in self.buffers.items()})
        return state

    def load_state(self, state: dict):
        targets = {name: p.data for name, p in self.parameters.items()}
        targets.update(self.buffers)
        for name, dst in targets.items():
            if np.shape(state[name]) != dst.shape:
                raise ShapeError(f"state for {name!r} has shape {np.shape(state[name])}, "
                                 f"expected {dst.shape}")
        np.concatenate([np.ravel(state[name]) for name in self.parameters],
                       out=self.arena, casting="unsafe")
        for name, dst in self.buffers.items():
            dst[...] = state[name]

    def _bn(self, prefix: str) -> BatchNormState:
        """The batch-norm layer named `prefix`; its running statistics update in place."""
        p, b = self.parameters, self.buffers
        return BatchNormState(p[f"{prefix}.gamma"], p[f"{prefix}.beta"],
                              b[f"{prefix}.running_mean"], b[f"{prefix}.running_var"])

    # -- forward stages ------------------------------------------------------

    def _conv_stage(self, x: Tensor, prefix: str, pool: int, mode: str) -> Tensor:
        """conv_temporal -> batch norm -> LeakyReLU -> pool of length and step
        `pool`, with the weights named `prefix`. An eval-mode call that records
        no graph runs them as one pooled pass, `tensor._conv_block`, which
        gives the same values without the full-size activations."""
        w = self.parameters
        kernels, bias, bn = w[f"{prefix}.kernels"], w[f"{prefix}.bias"], self._bn(f"{prefix}.bn")
        if mode == "eval" and not recording(x, kernels, bias, bn.gamma, bn.beta):
            return Tensor(_conv_block(x, kernels, bias, bn, self.config.leaky_slope, pool))
        z = conv_temporal(x, kernels, bias)
        z = batch_norm(z, bn, mode)
        z = leaky_relu(z, self.config.leaky_slope)
        return avg_pool_time(z, pool, pool)

    def temporal_cnn(self, x: Tensor, mode: str = "eval") -> Tensor:
        """(B, 1, c, l) -> (B, k, c, l/4). Without a graph, in eval mode, it
        is one pooled pass (see `_conv_stage`)."""
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2] != cfg.c or x.shape[3] != cfg.l:
            raise ShapeError(f"expected input (B, 1, {cfg.c}, {cfg.l}), got {x.shape}")
        return self._conv_stage(x, "tcnn", 4, mode)

    def feature_enhance(self, x: Tensor, mode: str = "eval") -> Tensor:
        """(B, k, c, l/4) -> (B, k, c, l/8): 1x1 feature-map mixing, pool 2.
        Without a graph, in eval mode, it is one pooled pass (see `_conv_stage`)."""
        if not self.config.has_fem:
            raise ConfigurationError("model was built without the feature-enhancement stage")
        return self._conv_stage(x, "fem", 2, mode)

    def spm_local_filter(self, x: Tensor) -> Tensor:
        """(B, k, c, T) -> (B, c, k*T): elementwise gate W .* z - b under ReLU."""
        if not self.config.has_spm:
            raise ConfigurationError("model was built without the spatial-patching stage")
        b, k, c, t = x.shape
        z = x.transpose(0, 2, 1, 3).reshape(b, c, k * t)
        return relu(z * self.parameters["spm.local.weight"] - self.parameters["spm.local.bias"])

    def spm_global(self, x: Tensor, mode: str = "eval") -> Tensor:
        """(B, k, c, T) -> (B, 1, k, T): full-height convolution over channels."""
        if not self.config.has_spm:
            raise ConfigurationError("model was built without the spatial-patching stage")
        w = self.parameters
        z = conv_spatial(x, w["spm.global.kernels"], w["spm.global.bias"])
        z = batch_norm(z, self._bn("spm.global.bn"), mode)
        z = leaky_relu(z, self.config.leaky_slope)
        # pool of length/step 1 keeps the time axes of both branches aligned
        z = avg_pool_time(z, 1, 1)
        return z.transpose(0, 2, 1, 3)

    def spm(self, x: Tensor, mode: str = "eval") -> Tensor:
        """(B, k, c, T) -> (B, p, k, T): local region patches plus one global patch."""
        b, k, c, t = x.shape
        filtered = self.spm_local_filter(x)
        local = aggregate(filtered, self.config.graphs)
        local = local.reshape(b, self.config.n_regions, k, t)
        global_patch = self.spm_global(x, mode)
        if global_patch.shape[-1] != local.shape[-1]:
            raise ShapeError(
                f"branch time mismatch: local {local.shape[-1]} vs global {global_patch.shape[-1]}"
            )
        return concat([local, global_patch], axis=1)

    def tpm(self, z: Tensor) -> Tensor:
        """(B, p, k, T) -> (B, q, l_token): windowed slices, flattened, projected."""
        cfg = self.config
        b, p, k, t = z.shape
        if cfg.l_t > t:
            raise ConfigurationError(f"patch length l_t={cfg.l_t} exceeds time length {t}")
        win = sliding_windows(z, cfg.l_t, cfg.step_effective)  # (B, p, k, n_w, l_t)
        n_w = win.shape[3]
        # patch-major ordering: all windows of patch 0, then patch 1, ...
        tok = win.transpose(0, 1, 3, 2, 4).reshape(b, p * n_w, k * cfg.l_t)
        w = self.parameters
        tok = linear(tok, w["tpm.proj.weight"], w["tpm.proj.bias"])
        if cfg.positional_embedding:
            tok = tok + w["tpm.pos"]
        return tok

    def transformer_encode(self, x: Tensor, mode: str = "eval", rng: Rng | None = None) -> Tensor:
        """(B, q, l_token) -> (B, q, l_token): post-norm residual encoder stack."""
        cfg = self.config
        w = self.parameters
        for i in range(cfg.n_layers):
            base = f"transformer.{i}"
            attn = multi_head_attention(
                x, cfg.n_head,
                *(w[f"{base}.attn.{name}.{part}"]
                  for name in ("wq", "wk", "wv", "wo") for part in ("weight", "bias")),
                dropout_p=cfg.dropout_p, rng=rng, mode=mode,
            )
            x = layer_norm(x + attn, w[f"{base}.norm1.gamma"], w[f"{base}.norm1.beta"])
            h = relu(linear(x, w[f"{base}.ffn_in.weight"], w[f"{base}.ffn_in.bias"]))
            h = linear(h, w[f"{base}.ffn_out.weight"], w[f"{base}.ffn_out.bias"])
            h = dropout(h, cfg.dropout_p, rng, mode)
            x = layer_norm(x + h, w[f"{base}.norm2.gamma"], w[f"{base}.norm2.beta"])
        return x

    def forward(self, x, mode: str = "eval", rng: Rng | None = None) -> Tensor:
        """Full pipeline to logits (B, n_classes)."""
        cfg = self.config
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if mode == "train" and cfg.dropout_p > 0 and rng is None:
            raise ValueError("train-mode forward needs an Rng for dropout")
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        elif x.dtype != self.dtype:
            x = Tensor(x.data.astype(self.dtype))

        z = self.temporal_cnn(x, mode)
        if cfg.has_fem:
            z = self.feature_enhance(z, mode)
        if cfg.has_spm:
            z = self.spm(z, mode)
        else:
            z = z.transpose(0, 2, 1, 3)  # each raw channel becomes a patch
        tok = self.tpm(z)
        tok = self.transformer_encode(tok, mode, rng)
        flat = tok.reshape(x.shape[0], cfg.n_tokens * cfg.l_token)
        flat = dropout(flat, cfg.dropout_p, rng, mode)
        return linear(flat, self.parameters["head.weight"], self.parameters["head.bias"])


def aggregate(z: Tensor, regions: list) -> Tensor:
    """Mean of each region's channel rows: (B, c, D) -> (B, n_regions, D)."""
    if z.ndim != 3:
        raise ShapeError(f"aggregate expects (B, c, D), got {z.shape}")
    c = z.shape[1]
    index_lists = []
    for gi, group in enumerate(regions):
        idx = [int(i) for i in group]
        if len(idx) == 0:
            raise ConfigurationError(f"region {gi} is empty")
        if any(not 0 <= i < c for i in idx):
            raise ConfigurationError(f"region {gi} references a channel outside [0, {c})")
        if len(set(idx)) != len(idx):
            # backward's fancy-index += would hand a repeated channel one share
            raise ConfigurationError(f"region {gi} lists a channel more than once")
        index_lists.append(idx)

    data = np.stack([z.data[:, idx, :].mean(axis=1) for idx in index_lists], axis=1)

    def bw(g):
        gz = np.zeros_like(z.data)
        for i, idx in enumerate(index_lists):
            gz[:, idx, :] += g[:, i : i + 1, :] / len(idx)
        return (gz,)

    return Tensor._from_op(data, (z,), bw)


def build(config: ModelConfig, rng: Rng, dtype=np.float32) -> PatchFormerModel:
    """Allocate and initialize every parameter and buffer; deterministic given the seed."""
    model = PatchFormerModel(config, dtype=dtype)
    init_rng = rng.spawn("init")
    for name, p in model.parameters.items():
        p.data[...] = _init_value(name, p.shape, init_rng)
    return model
