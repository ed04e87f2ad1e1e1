"""Batch, layer, and weight normalization, pluggable per model.

Conventions: activations are (B, C, L) or (B, F); batch norm computes its
statistics per channel over every other axis, layer norm normalizes each
group's block of axis 1 (the channel/feature axis) independently at each
position.  Weight norm acts on parameters, not activations, so swapping it in
never changes hidden-unit distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .tensor import Module, Tensor, _make

NORM_KINDS = ("wn", "bn", "ln", "none")


@dataclass
class BatchNormParams(Module):
    gamma: Tensor
    beta: Tensor
    eps: float = 1e-5
    momentum: float = 0.1
    running_mean: np.ndarray = field(default=None)  # type: ignore[assignment]
    running_var: np.ndarray = field(default=None)  # type: ignore[assignment]

    @classmethod
    def create(cls, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> "BatchNormParams":
        return cls(gamma=Tensor(np.ones(channels), requires_grad=True),
                   beta=Tensor(np.zeros(channels), requires_grad=True),
                   eps=eps, momentum=momentum,
                   running_mean=np.zeros(channels), running_var=np.ones(channels))


@dataclass
class LayerNormParams(Module):
    gain: Tensor
    bias: Tensor
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, eps: float = 1e-5) -> "LayerNormParams":
        return cls(gain=Tensor(np.ones(channels), requires_grad=True),
                   bias=Tensor(np.zeros(channels), requires_grad=True), eps=eps)


def _channel_stats_axes(x: Tensor) -> tuple[int, ...]:
    if x.data.ndim == 2:
        return (0,)
    if x.data.ndim == 3:
        return (0, 2)
    raise DimensionError(f"normalization expects (B,F) or (B,C,L), got {x.data.shape}")


def _expand(arr: np.ndarray, ndim: int) -> np.ndarray:
    return arr[None, :, None] if ndim == 3 else arr[None, :]


def batch_norm(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    """Normalize per channel over the batch (and length, if any); affine gamma/beta."""
    axes = _channel_stats_axes(x)
    ndim = x.data.ndim
    channels = x.data.shape[1]
    if p.gamma.data.shape != (channels,):
        raise DimensionError(f"batch_norm: gamma shape {p.gamma.data.shape} != ({channels},)")
    # a frozen layer (gamma not trained) normalizes with, and keeps, its
    # running statistics, so freezing a model part also freezes its buffers
    batch_stats = training and p.gamma.requires_grad
    if batch_stats:
        if x.data.shape[0] < 2:
            raise ConfigError("batch_norm: training requires batch size >= 2")
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        p.running_mean += p.momentum * (mean - p.running_mean)
        p.running_var += p.momentum * (var - p.running_var)
    else:
        mean = p.running_mean
        var = p.running_var

    inv_std = 1.0 / np.sqrt(var + p.eps)
    xhat = (x.data - _expand(mean, ndim)) * _expand(inv_std, ndim)
    out = _expand(p.gamma.data, ndim) * xhat + _expand(p.beta.data, ndim)
    n = x.data.size // channels

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
    """Normalize each group's contiguous block of axis 1 per instance (and per
    position, if any); affine gain/bias.  Groups never read each other."""
    ndim = x.data.ndim
    if ndim not in (2, 3):
        raise DimensionError(f"layer_norm expects (B,F) or (B,C,L), got {x.data.shape}")
    shape = x.data.shape
    channels = shape[1]
    if groups < 1 or channels % groups:
        raise ConfigError(f"layer_norm: groups={groups} must divide {channels} channels")
    cpg = channels // groups
    if cpg < 2:
        raise ConfigError(f"layer_norm: each of {groups} groups needs >= 2 channels, got {cpg}")
    if p.gain.data.shape != (channels,):
        raise DimensionError(f"layer_norm: gain shape {p.gain.data.shape} != ({channels},)")

    grouped = (shape[0], groups, cpg) + shape[2:]
    xg = x.data.reshape(grouped)
    mean = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + p.eps)
    xhat = (xg - mean) * inv_std
    out = _expand(p.gain.data, ndim) * xhat.reshape(shape) + _expand(p.bias.data, ndim)
    stat_axes = (0,) if ndim == 2 else (0, 2)

    def grad_fn(g):
        g_gain = (g * xhat.reshape(shape)).sum(axis=stat_axes)
        g_bias = g.sum(axis=stat_axes)
        g_hat = (g * _expand(p.gain.data, ndim)).reshape(grouped)
        term = (cpg * g_hat - g_hat.sum(axis=2, keepdims=True)
                - xhat * (g_hat * xhat).sum(axis=2, keepdims=True))
        return ((term * inv_std / cpg).reshape(shape), g_gain, g_bias)

    return _make([x, p.gain, p.bias], out, grad_fn)


def weight_norm_effective(v: Tensor, g: Tensor) -> Tensor:
    """Effective weight g * v/||v||, with ||v|| taken per output channel (axis 0)."""
    c_out = v.data.shape[0]
    if g.data.shape != (c_out,):
        raise DimensionError(f"weight_norm: g shape {g.data.shape} != ({c_out},)")
    flat = v.data.reshape(c_out, -1)
    norms = np.sqrt((flat ** 2).sum(axis=1))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise NumericalError(f"weight_norm: zero-norm direction at output channels {bad.tolist()}")
    shape = (c_out,) + (1,) * (v.data.ndim - 1)
    vhat = v.data / norms.reshape(shape)
    out = g.data.reshape(shape) * vhat

    def grad_fn(gw):
        dots = (gw.reshape(c_out, -1) * vhat.reshape(c_out, -1)).sum(axis=1)
        g_g = dots
        scale = (g.data / norms).reshape(shape)
        g_v = scale * (gw - vhat * dots.reshape(shape))
        return (g_v, g_g)

    return _make([v, g], out, grad_fn)
