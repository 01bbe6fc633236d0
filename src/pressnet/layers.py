"""Network layers with explicit forward and backward passes.

Layout: 4-D activations and gradients have the NCHW shape (B, C, H, W)
and, through the conv blocks, channels-last memory: the strides of a
C-contiguous (B, H, W, C) buffer, so a.transpose(0, 2, 3, 1) is a free
contiguous view. Layers accept inputs of any strides. Conv2D and
BatchNorm2D return channels-last arrays, as does MaxPool2D's backward;
MaxPool2D's forward, LeakyReLU and Dropout keep their input's layout.
BatchNorm2D works on the (B*H, W*C) view with its per-channel vectors tiled
W times, and sums per channel in two stages (_channel_sum). Dropout draws
its mask in NCHW index order. Flatten copies the final map to NCHW order,
so the dense features keep their meaning, and its backward hands the
gradient back in its input's layout.

Every layer has the same call form, forward(x, train, rng=None); only
Dropout reads rng, so a network runs any list of layers in one loop. Each
layer owns, after a training-mode forward, the cached activations its
backward pass needs. Backward methods consume the incoming gradient and
return the gradient w.r.t. their input (None from a Conv2D built with
needs_input_grad=False). MaxPool2D builds its argmax map, and LeakyReLU its
sign mask, only in train mode.

Trainable layers (Conv2D, BatchNorm2D, Dense) expose three dicts:

    params  trainable arrays, keyed w (Conv2D), w/b (Dense) or gamma/beta
    stats   running statistics (BatchNorm2D's running_mean/running_var;
            empty for the others)
    grads   parameter gradients, filled by backward under the keys of params

The arrays in params and stats are also the layer's attributes and are only
ever updated in place (by the optimizer, by set_params and by batch norm's
running averages), so the dicts stay live. collect() flattens one of these
dicts over a list of (name, layer) stages; the other layers add nothing.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .errors import ConfigError, ShapeError, UsageError


def collect(stages, attr: str) -> dict:
    """Merge each layer's `attr` dict ("params", "stats" or "grads") over a
    list of (name, layer) stages into one dict keyed "<name>.<key>", in stage
    order; a layer without the dict adds nothing."""
    return {f"{name}.{key}": value
            for name, layer in stages
            for key, value in getattr(layer, attr, {}).items()}


def _rows(a: np.ndarray) -> np.ndarray:
    """(B,C,H,W) -> its (B*H, W*C) view; a copy only when a is not
    channels-last."""
    b, c, h, w = a.shape
    return a.transpose(0, 2, 3, 1).reshape(b * h, w * c)


def _unrows(a2: np.ndarray, shape) -> np.ndarray:
    """Inverse of _rows: the (B,C,H,W)-shaped channels-last view of a2."""
    b, c, h, w = shape
    return a2.reshape(b, h, w, c).transpose(0, 3, 1, 2)


def _channel_sum(a2: np.ndarray, b: int, c: int) -> np.ndarray:
    """Per-channel sums, in float64, of a (B*H, W*C) rows view: first over
    the batch in a2's dtype (B terms per position), then over the H*W
    positions in float64. A plain reduction over a channels-last array
    would add all B*H*W rows one after another."""
    part = a2.reshape(b, -1).sum(axis=0)
    return part.reshape(-1, c).sum(axis=0, dtype=np.float64)


def init_std(fan_in: int, slope: float) -> float:
    """Fan-in-scaled He std with the gain for a leaky rectifier."""
    return float(np.sqrt(2.0 / ((1.0 + slope * slope) * fan_in)))


class Conv2D:
    """3x3 valid convolution, stride 1, no bias: a BatchNorm follows every
    conv, and its batch-mean subtraction would cancel one.

    With needs_input_grad false (a first layer, whose input is the data),
    backward computes only the parameter gradients and returns None.
    """

    def __init__(self, cin: int, cout: int, rng, slope: float,
                 dtype=np.float32, needs_input_grad: bool = True):
        self.w = tensor.gaussian((cout, cin, 3, 3), 0.0,
                                 init_std(cin * 9, slope), rng, dtype)
        self.params = {"w": self.w}
        self.stats = {}
        self.grads = {}
        self.needs_input_grad = needs_input_grad
        self._x = None

    def forward(self, x, train: bool, rng=None):
        if train:
            self._x = x
        return tensor.conv2d_valid(x, self.w)

    def backward(self, g):
        if self._x is None:
            raise UsageError("Conv2D.backward without a training forward")
        gx, self.grads["w"] = tensor.conv2d_valid_backward(
            self._x, self.w, g, need_x=self.needs_input_grad)
        return gx


class BatchNorm2D:
    """Per-channel batch normalization over batch and spatial dims.

    Every pass works on the (B*H, W*C) rows view of a channels-last array,
    with the per-channel vectors tiled W times, so each elementwise loop runs
    W*C long rather than C long. Each pass does its work in place on one
    fresh output array. The train forward first sums the squared deviations
    for the variance in it, and keeps x - mean, scaled in place, as the xhat
    that backward needs; the backward reuses one scratch array for g * xhat
    and xhat * sum(g * xhat). The input and the incoming gradient are never
    written. Per-channel sums (mean, variance, the gamma and beta gradients)
    come from _channel_sum; the elementwise steps are the plain expressions'
    operations in the same order, so eval mode has the plain expressions'
    bits.
    """

    def __init__(self, channels: int, dtype=np.float32,
                 eps: float = 1e-5, momentum: float = 0.99):
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.params = {"gamma": self.gamma, "beta": self.beta}
        self.stats = {"running_mean": self.running_mean,
                      "running_var": self.running_var}
        self.grads = {}
        self.eps = eps
        self.momentum = momentum
        self._cache = None

    def forward(self, x, train: bool, rng=None):
        b, c, h, w = x.shape
        x2 = _rows(x)
        if not train:
            inv_std = 1.0 / np.sqrt(self.running_var + x.dtype.type(self.eps))
            out = x2 - np.tile(self.running_mean, w)
            out *= np.tile(inv_std, w)
            out *= np.tile(self.gamma, w)
            out += np.tile(self.beta, w)
            return _unrows(out, x.shape)

        if b < 2:
            raise ConfigError("batch norm needs batch size >= 2 in train mode")
        n = b * h * w
        mean = (_channel_sum(x2, b, c) / n).astype(x.dtype)
        xhat = x2 - np.tile(mean, w)
        out = np.multiply(xhat, xhat)
        var = (_channel_sum(out, b, c) / n).astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + x.dtype.type(self.eps))
        xhat *= np.tile(inv_std, w)
        m = x.dtype.type(self.momentum)
        self.running_mean *= m
        self.running_mean += (1 - m) * mean
        self.running_var *= m
        self.running_var += (1 - m) * var
        self._cache = (xhat, inv_std)
        np.multiply(xhat, np.tile(self.gamma, w), out=out)
        out += np.tile(self.beta, w)
        return _unrows(out, x.shape)

    def backward(self, g):
        if self._cache is None:
            raise UsageError("BatchNorm2D.backward without a training forward")
        xhat, inv_std = self._cache
        b, c, h, w = g.shape
        g2 = _rows(g)
        n = g.dtype.type(b * h * w)
        prod = g2 * xhat
        sum_gx = _channel_sum(prod, b, c).astype(g.dtype)
        sum_g = _channel_sum(g2, b, c).astype(g.dtype)
        self.grads["gamma"], self.grads["beta"] = sum_gx, sum_g
        coef = self.gamma * inv_std
        # coef / n * (n * g - sum_g - xhat * sum_gx), step by step
        gx = n * g2
        gx -= np.tile(sum_g, w)
        gx -= np.multiply(xhat, np.tile(sum_gx, w), out=prod)
        gx *= np.tile(coef / n, w)
        return _unrows(gx, g.shape)


class MaxPool2D:
    def __init__(self, window: int = 3, stride: int = 2):
        self.window = window
        self.stride = stride
        self._argmax = None
        self._in_shape = None

    def forward(self, x, train: bool, rng=None):
        out, argmax = tensor.maxpool2d(x, window=self.window,
                                       stride=self.stride, need_argmax=train)
        if train:
            self._argmax = argmax
            self._in_shape = x.shape
        return out

    def backward(self, g):
        if self._argmax is None:
            raise UsageError("MaxPool2D.backward without a training forward")
        return tensor.maxpool2d_backward(g, self._argmax, self._in_shape)


class LeakyReLU:
    def __init__(self, slope: float = 0.2):
        if not 0.0 < slope < 1.0:
            raise ConfigError(f"leaky slope must be in (0,1), got {slope}")
        self.slope = slope
        self._pos = None

    def forward(self, x, train: bool, rng=None):
        # for 0 < slope < 1 the larger of x and slope * x is x where x > 0
        # and slope * x elsewhere, ±0 and ±inf included
        if train:
            self._pos = x > 0
        return np.maximum(x, x.dtype.type(self.slope) * x)

    def backward(self, g):
        if self._pos is None:
            raise UsageError("LeakyReLU.backward without a training forward")
        return np.where(self._pos, g, g.dtype.type(self.slope) * g)


class Dropout:
    """Inverted dropout: survivors scaled by 1/(1-p), inference is identity.

    The mask is drawn in x's index order, whatever x's memory layout, and
    stored in that layout.
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate
        self._scaled_mask = None

    def forward(self, x, train: bool, rng=None):
        if not train or self.rate == 0.0:
            self._scaled_mask = 1.0 if train else None
            return x
        if rng is None:
            raise UsageError("Dropout needs an rng in train mode")
        keep = rng.random(x.shape) >= self.rate
        scale = x.dtype.type(1.0 / (1.0 - self.rate))
        self._scaled_mask = np.multiply(keep, scale, out=np.empty_like(x))
        return x * self._scaled_mask

    def backward(self, g):
        if self._scaled_mask is None:
            raise UsageError("Dropout.backward without a training forward")
        return g * self._scaled_mask


class Flatten:
    """(B, ...) -> (B, features) in row-major index order, a copy when x is
    channels-last; backward returns the gradient in x's layout."""

    def __init__(self):
        self._x = None

    def forward(self, x, train: bool, rng=None):
        if train:
            self._x = x
        return x.reshape(x.shape[0], -1)

    def backward(self, g):
        if self._x is None:
            raise UsageError("Flatten.backward without a training forward")
        gx = np.empty_like(self._x, dtype=g.dtype)
        gx[...] = g.reshape(self._x.shape)
        return gx


class Dense:
    """Affine map x @ w + b."""

    def __init__(self, fan_in: int, units: int, rng, slope: float,
                 dtype=np.float32):
        self.w = tensor.gaussian((fan_in, units), 0.0,
                                 init_std(fan_in, slope), rng, dtype)
        self.b = tensor.zeros((units,), dtype)
        self.params = {"w": self.w, "b": self.b}
        self.stats = {}
        self.grads = {}
        self._x = None

    def forward(self, x, train: bool, rng=None):
        if x.shape[1] != self.w.shape[0]:
            raise ShapeError(
                f"dense expects {self.w.shape[0]} features, got {x.shape[1]}")
        if train:
            self._x = x
        return x @ self.w + self.b

    def backward(self, g):
        if self._x is None:
            raise UsageError("Dense.backward without a training forward")
        self.grads["w"] = self._x.T @ g
        self.grads["b"] = g.sum(axis=0)
        return g @ self.w.T
