"""Independent brute-force reference implementations.

Everything here is written as plain loops over numpy scalars, deliberately
ignoring how the package computes the same quantities, so the two sides can
disagree when one is wrong. The two `*_einsum` functions are the exception:
they keep the convolutions' former einsum formulation as a float64 reference
for the im2col and matmul kernels that replaced it.
"""

import json
import math
import struct
import zlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_temporal_naive(x, kernels, bias):
    """Sliding dot product along time with same padding (loops)."""
    b, f_in, c, t = x.shape
    f_out, _, _, k = kernels.shape
    pad_l = (k - 1) // 2
    out = np.zeros((b, f_out, c, t), dtype=np.float64)
    for bi in range(b):
        for o in range(f_out):
            for ci in range(c):
                for ti in range(t):
                    acc = 0.0
                    for fi in range(f_in):
                        for kk in range(k):
                            src = ti + kk - pad_l
                            if 0 <= src < t:
                                acc += x[bi, fi, ci, src] * kernels[o, fi, 0, kk]
                    out[bi, o, ci, ti] = acc + bias[o]
    return out


def conv_temporal_einsum(x, kernels, bias, g):
    """(out, gx, gw, gb) of conv_temporal and its backward for cotangent g,
    as einsum contractions over sliding windows of the padded input and of
    the padded cotangent (the kernel's formulation before im2col)."""
    f_out, f_in, _, k = kernels.shape
    t = x.shape[3]
    pad_l = (k - 1) // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad_l, k - 1 - pad_l)))
    win = sliding_window_view(xpad, k, axis=3)
    w = kernels.reshape(f_out, f_in, k)
    out = np.einsum("bictk,oik->boct", win, w) + bias.reshape(1, f_out, 1, 1)
    gpad = np.pad(g, ((0, 0), (0, 0), (0, 0), (k - 1, k - 1)))
    gwin = sliding_window_view(gpad, k, axis=3)
    gx = np.einsum("boctk,oik->bict", gwin, w[:, :, ::-1])[..., pad_l:pad_l + t]
    gw = np.einsum("boct,bictk->oik", g, win).reshape(kernels.shape)
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def conv_spatial_einsum(x, kernels, bias, g):
    """(out, gx, gw, gb) of conv_spatial and its backward for cotangent g,
    as einsum contractions (the kernel's formulation before plain matmuls)."""
    f_out, f_in, c, _ = kernels.shape
    w = kernels.reshape(f_out, f_in, c)
    out = (np.einsum("bict,oic->bot", x, w) + bias.reshape(1, f_out, 1))[:, :, None, :]
    g2 = g[:, :, 0, :]
    gx = np.einsum("bot,oic->bict", g2, w)
    gw = np.einsum("bot,bict->oic", g2, x).reshape(kernels.shape)
    return out, gx, gw, g2.sum(axis=(0, 2))


def conv_spatial_naive(x, kernels, bias):
    b, f_in, c, t = x.shape
    f_out = kernels.shape[0]
    out = np.zeros((b, f_out, 1, t), dtype=np.float64)
    for bi in range(b):
        for o in range(f_out):
            for ti in range(t):
                acc = 0.0
                for fi in range(f_in):
                    for ci in range(c):
                        acc += x[bi, fi, ci, ti] * kernels[o, fi, ci, 0]
                out[bi, o, 0, ti] = acc + bias[o]
    return out


def avg_pool_naive(x, length, step):
    t = x.shape[-1]
    n = (t - length) // step + 1
    out = np.zeros(x.shape[:-1] + (n,), dtype=np.float64)
    for i in range(n):
        out[..., i] = x[..., i * step : i * step + length].mean(axis=-1)
    return out


def attention_naive(x, n_head, wq, bq, wk, bk, wv, bv, wo, bo):
    """Single-sequence scaled dot-product attention, one head at a time."""
    s, d = x.shape
    dh = d // n_head
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    ctx = np.zeros((s, d), dtype=np.float64)
    for h in range(n_head):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(s):
            scores = np.array([qh[i] @ kh[j] / math.sqrt(dh) for j in range(s)])
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            ctx[i, sl] = sum(weights[j] * vh[j] for j in range(s))
    return ctx @ wo + bo


def region_means_loops(z, regions):
    """Per-region channel means via explicit loops; z is (B, c, D)."""
    b, _, d = z.shape
    out = np.zeros((b, len(regions), d), dtype=z.dtype)
    for bi in range(b):
        for ri, region in enumerate(regions):
            acc = np.zeros(d, dtype=z.dtype)
            for ch in region:
                acc = acc + z[bi, ch]
            out[bi, ri] = acc / np.asarray(len(region), dtype=z.dtype)
    return out


def auc_pair_count(scores, labels):
    """(#concordant + 0.5 * #tied) / (n_pos * n_neg) over every pos/neg pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    concordant = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                concordant += 1
            elif p == n:
                ties += 1
    return (concordant + 0.5 * ties) / (len(pos) * len(neg))


def f1_from_definition(preds, labels, n_classes):
    """Macro F1 straight from precision/recall, 0/0 treated as 0."""
    total = 0.0
    for cls in range(n_classes):
        tp = sum(1 for p, y in zip(preds, labels) if p == cls and y == cls)
        fp = sum(1 for p, y in zip(preds, labels) if p == cls and y != cls)
        fn = sum(1 for p, y in zip(preds, labels) if p != cls and y == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return 100.0 * total / n_classes


def accuracy_from_definition(preds, labels):
    return 100.0 * sum(1 for p, y in zip(preds, labels) if p == y) / len(labels)


def window_count(n, length, step):
    """How many windows fit: count start positions one by one."""
    count = 0
    start = 0
    while start + length <= n:
        count += 1
        start += step
    return count


def container_layout(magic, header, arrays):
    """The README's container layout written out field by field: magic, u32
    header length, sorted-key compact JSON, each array's values as
    little-endian float32, then the CRC-32 of every byte before it."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = magic + struct.pack("<I", len(blob)) + blob
    for a in arrays:
        values = [float(v) for v in np.asarray(a).ravel()]
        body += struct.pack(f"<{len(values)}f", *values)
    return body + struct.pack("<I", zlib.crc32(body))


def adam_loop(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8,
              weight_decay=0.0, decoupled_decay=False):
    """Adam as one update per parameter, on dicts of arrays, in place: the
    formulation before the flat update. `t` is the step count after this step;
    a grad of None counts as zero."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, w in params.items():
        g = grads[name]
        g = np.zeros_like(w) if g is None else np.asarray(g, dtype=w.dtype)
        if weight_decay and not decoupled_decay:
            g = g + w.dtype.type(weight_decay) * w
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        if weight_decay and decoupled_decay:
            update = update + weight_decay * w
        w[...] -= w.dtype.type(lr) * update


def batch_norm_composite(x, gamma, beta, running_mean, running_var, mode, g,
                         eps=1e-5, momentum=0.1):
    """(out, dx, dgamma, dbeta) of batch norm over axes (0, 2, 3) for cotangent
    g, as the composite formulas written before the fused kernel; train mode
    updates the running statistics in place."""
    axes = (0, 2, 3)
    expand = (1, x.shape[1], 1, 1)
    gamma_b = gamma.reshape(expand)
    if mode == "train":
        n = x.size // x.shape[1]
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * (n / (n - 1))
    else:
        mean, var = running_mean, running_var
    inv_b = (1.0 / np.sqrt(var + eps)).reshape(expand)
    xhat = (x - mean.reshape(expand)) * inv_b
    out = gamma_b * xhat + beta.reshape(expand)
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxhat = g * gamma_b
    if mode == "train":
        dx = (dxhat - dxhat.mean(axis=axes, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True)) * inv_b
    else:
        dx = dxhat * inv_b
    return out, dx, dgamma, dbeta


def cross_entropy_composite(logits, labels):
    """(loss, dlogits) of mean cross entropy for a loss cotangent of 1, as the
    four recorded ops it was built from before it became one op: log_softmax,
    a fancy-index pick, mean and negation, each step rounded as that graph
    rounded it."""
    b = len(labels)
    rows = np.arange(b)
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = logp[rows, labels]
    loss = -picked.mean()
    g = -np.ones_like(loss)                       # negation
    g = np.broadcast_to(g / b, picked.shape)      # mean
    gx = np.zeros_like(logp)
    np.add.at(gx, (rows, labels), g)              # pick
    return loss, gx - np.exp(logp) * gx.sum(axis=-1, keepdims=True)  # log_softmax


def softmax_composite(x, axis, g):
    """(y, dx) of softmax along `axis` and its backward for cotangent g, as the
    whole-array formulas written before the row-blocked kernel."""
    y = x - x.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y, (g - dot) * y


def synth_segments_loop(n_subjects, segs_per_class, c, l, f_s, effect, rng):
    """(X, y, subject ids) of `synth_generate`, one segment at a time: its
    former formulation, kept as the reference for the grouped generator."""
    n_f = l // 2 + 1
    shaping = np.zeros(n_f)
    shaping[1:] = 1.0 / np.sqrt(np.arange(1, n_f))
    t = np.arange(l) / f_s
    target = effect.resolve_channels(c)
    X, y, ids = [], [], []
    for s in range(n_subjects):
        subject = f"S{s + 1:02d}"
        srng = rng.spawn(f"subject:{subject}")
        gain = 1.0 + effect.gain_jitter * srng.uniform(-1.0, 1.0)
        for label in (0, 1):
            for _ in range(segs_per_class):
                spectrum = srng.normal(0.0, 1.0, (c, n_f)) + 1j * srng.normal(0.0, 1.0, (c, n_f))
                signal = np.fft.irfft(spectrum * shaping, n=l, axis=1)
                seg = effect.noise_scale * (signal / (signal.std(axis=1, keepdims=True) + 1e-12))
                if label == 1 and effect.amplitude != 0.0:
                    phase = srng.uniform(0.0, 2.0 * np.pi)
                    wave = np.sin(2.0 * np.pi * effect.freq_hz * t + phase)
                    seg[target] += effect.amplitude * gain * wave
                X.append(seg)
                y.append(label)
                ids.append(subject)
    return np.array(X), np.array(y), np.array(ids, dtype=object)
