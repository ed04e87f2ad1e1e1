"""Batch, layer, and weight normalization, pluggable per model.

Conventions: activations are channel-major, (C, B, L) or (C, B), as in
``tensor``; batch norm computes its statistics per channel over every other
axis, layer norm normalizes each group's block of axis 0 (the channel axis)
independently at each instance and position.  Weight norm acts on
parameters, not activations, so swapping it in never changes hidden-unit
distributions.  In training, a weight-normed unit's weight norm and its conv
or linear op are one ``weight_normed`` node, which keeps no effective weight.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .tensor import Module, Tensor, _make, _row_dots

NORM_KINDS = ("wn", "bn", "ln", "none")


NORM_EPS = 1e-5  # added to every variance before its square root
BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics


class BatchNormParams(Module):
    """Affine gamma/beta and the running mean/variance of one batch-norm layer."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


class LayerNormParams(Module):
    """Affine gain/bias of one layer-norm layer."""

    def __init__(self, channels: int):
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)


def _check_ndim(x: Tensor, op: str) -> None:
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"{op} expects (C,B) or (C,B,L), got {x.data.shape}")


def _expand(arr: np.ndarray, ndim: int) -> np.ndarray:
    """A per-channel vector shaped to broadcast along axis 0."""
    return arr.reshape((-1,) + (1,) * (ndim - 1))


def batch_norm(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    """Normalize per channel over the batch (and length, if any); affine gamma/beta."""
    _check_ndim(x, "batch_norm")
    ndim = x.data.ndim
    axes = tuple(range(1, ndim))
    channels = x.data.shape[0]
    if p.gamma.data.shape != (channels,):
        raise DimensionError(f"batch_norm: gamma shape {p.gamma.data.shape} != ({channels},)")
    # a frozen layer (gamma not trained) normalizes with, and keeps, its
    # running statistics, so freezing a model part also freezes its buffers
    batch_stats = training and p.gamma.requires_grad
    n = x.data.size // channels  # the values behind each channel's statistics
    if batch_stats:
        if n < 2:
            raise ConfigError(f"batch_norm: training needs >= 2 values per channel, got {n}")
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        p.running_mean += BN_MOMENTUM * (mean - p.running_mean)
        p.running_var += BN_MOMENTUM * (var - p.running_var)
    else:
        mean = p.running_mean
        var = p.running_var

    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x.data - _expand(mean, ndim)) * _expand(inv_std, ndim)
    out = _expand(p.gamma.data, ndim) * xhat + _expand(p.beta.data, ndim)

    def grad_fn(g):
        g_gamma = (g * xhat).sum(axis=axes)
        g_beta = g.sum(axis=axes)
        g_hat = g * _expand(p.gamma.data, ndim)
        if batch_stats:
            term = (n * g_hat - _expand(g_hat.sum(axis=axes), ndim)
                    - xhat * _expand((g_hat * xhat).sum(axis=axes), ndim))
            g_x = term * _expand(inv_std, ndim) / n
        else:
            g_x = g_hat * _expand(inv_std, ndim)
        return (g_x, g_gamma, g_beta)

    return _make([x, p.gamma, p.beta], out, grad_fn)


def layer_norm(x: Tensor, p: LayerNormParams, groups: int = 1) -> Tensor:
    """Normalize each group's contiguous block of axis 0 per instance (and per
    position, if any); affine gain/bias.  Groups never read each other."""
    _check_ndim(x, "layer_norm")
    ndim = x.data.ndim
    shape = x.data.shape
    channels = shape[0]
    if groups < 1 or channels % groups:
        raise ConfigError(f"layer_norm: groups={groups} must divide {channels} channels")
    cpg = channels // groups
    if cpg < 2:
        raise ConfigError(f"layer_norm: each of {groups} groups needs >= 2 channels, got {cpg}")
    if p.gain.data.shape != (channels,):
        raise DimensionError(f"layer_norm: gain shape {p.gain.data.shape} != ({channels},)")

    grouped = (groups, cpg) + shape[1:]
    xg = x.data.reshape(grouped)
    mean = xg.mean(axis=1, keepdims=True)
    var = xg.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (xg - mean) * inv_std
    out = _expand(p.gain.data, ndim) * xhat.reshape(shape) + _expand(p.bias.data, ndim)
    stat_axes = tuple(range(1, ndim))

    def grad_fn(g):
        g_gain = (g * xhat.reshape(shape)).sum(axis=stat_axes)
        g_bias = g.sum(axis=stat_axes)
        g_hat = (g * _expand(p.gain.data, ndim)).reshape(grouped)
        term = (cpg * g_hat - g_hat.sum(axis=1, keepdims=True)
                - xhat * (g_hat * xhat).sum(axis=1, keepdims=True))
        return ((term * inv_std / cpg).reshape(shape), g_gain, g_bias)

    return _make([x, p.gain, p.bias], out, grad_fn)


def _weight_norms(v: Tensor, g: Tensor) -> np.ndarray:
    """Each output channel's ||v|| (axis 0), taken a block of rows at a time."""
    c_out = v.data.shape[0]
    if g.data.shape != (c_out,):
        raise DimensionError(f"weight_norm: g shape {g.data.shape} != ({c_out},)")
    flat = v.data.reshape(c_out, -1)
    norms = np.sqrt(_row_dots(flat, flat))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise NumericalError(f"weight_norm: zero-norm direction at output channels {bad.tolist()}")
    return norms


def _effective(v: np.ndarray, g: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The effective weight g * v/||v||, in a fresh array."""
    w = v / _expand(norms, v.ndim)
    w *= _expand(g, v.ndim)
    return w


def _weight_norm_grad(gw: np.ndarray, vhat: np.ndarray, g: np.ndarray,
                      norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, g) gradients for the effective weight's gradient ``gw``, given the
    direction ``vhat`` = v/||v||; v's is computed in ``vhat``'s array."""
    c_out = norms.size
    dots = _row_dots(gw.reshape(c_out, -1), vhat.reshape(c_out, -1))
    # g_v = g/||v|| * (gw - vhat*dots)
    g_v = vhat
    g_v *= _expand(dots, vhat.ndim)
    np.subtract(gw, g_v, out=g_v)
    g_v *= _expand(g / norms, vhat.ndim)
    return g_v, dots


def weight_norm_effective(v: Tensor, g: Tensor) -> Tensor:
    """Effective weight g * v/||v||, with ||v|| taken per output channel (axis 0).

    The model calls it only to hold its weights through ``RTNet.weights_held``;
    a training forward runs ``weight_normed`` instead."""
    norms = _weight_norms(v, g)

    def grad_fn(gw):
        # the direction is rebuilt, not kept: the optimizer moves v only after
        # backward, so this is the forward's v/||v|| bit for bit
        return _weight_norm_grad(gw, v.data / _expand(norms, v.data.ndim), g.data, norms)

    return _make([v, g], _effective(v.data, g.data, norms), grad_fn)


def weight_normed(kernels, x: Tensor, v: Tensor, g: Tensor, bias: Tensor, *options) -> Tensor:
    """``op(x, weight_norm_effective(v, g), bias, *options)`` as one node, where
    ``kernels`` is the op's (forward, backward) pair: ``tensor.CONV_KERNELS``
    or ``tensor.LINEAR_KERNELS``.

    The node keeps what the op keeps of ``x`` and the (c_out,) norms, but no
    effective weight.  Backward rebuilds g * v/||v|| with the forward's own
    operations, bit for bit, runs the op's backward on it, and then turns
    that array into v/||v|| for weight norm's backward.  Values and gradients
    are those of the composed ops, bit for bit.
    """
    forward, op_backward = kernels
    norms = _weight_norms(v, g)
    out, kept = forward(x.data, _effective(v.data, g.data, norms), bias.data, *options)
    need_gx = x.requires_grad

    def grad_fn(go):
        w = _effective(v.data, g.data, norms)
        g_x, g_w, g_b = op_backward(go, kept, w, need_gx, *options)
        vhat = np.divide(v.data, _expand(norms, v.data.ndim), out=w)
        return (g_x, *_weight_norm_grad(g_w, vhat, g.data, norms), g_b)

    return _make([x, v, g, bias], out, grad_fn)
