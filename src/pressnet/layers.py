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
Dropout reads rng, so a network runs any list of layers in one loop. One
cache rule holds for every layer (Layer): a forward first clears the
layer's cache and, once its work is done in train mode, holds what
backward needs (its input, mask, argmax map or normalized activations);
backward takes the cache, clears it and returns the gradient w.r.t. the
layer's input (None from a Conv2D built with needs_input_grad=False). So
a training step holds no earlier batch's activations, an eval forward or
a forward that raises holds none, and a backward with no completed
train-mode forward since the last backward or other forward raises
UsageError. MaxPool2D builds its argmax map, and LeakyReLU its sign mask,
only in train mode.

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


def forward_stages(stages, h, train: bool, rng=None):
    """Run h through each layer of a list of (name, layer) stages, in order."""
    for _, layer in stages:
        h = layer.forward(h, train, rng)
    return h


def backward_stages(stages, g):
    """Run g back through the stages in reverse order; returns the gradient
    w.r.t. the first stage's input."""
    for _, layer in reversed(stages):
        g = layer.backward(g)
    return g


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
    the batch in a2's dtype (B terms per position, added in batch order, in
    column parts on the pool), then over the H*W positions in float64. A
    plain reduction over a channels-last array would add all B*H*W rows one
    after another."""
    rows = a2.reshape(b, -1)
    part = np.empty(rows.shape[1], dtype=a2.dtype)

    def add(cols):
        rows[:, cols].sum(axis=0, out=part[cols])

    # a one-column slice would be summed pairwise, not in batch order
    tensor.in_parts(add, rows.shape[1], rows.size, least=2)
    return part.reshape(-1, c).sum(axis=0, dtype=np.float64)


def init_std(fan_in: int) -> float:
    """Fan-in-scaled He std with the gain for LeakyReLU's slope."""
    slope = LeakyReLU.SLOPE
    return float(np.sqrt(2.0 / ((1.0 + slope * slope) * fan_in)))


class Layer:
    """The cache rule of every layer: forward calls _keep(False) first and
    _keep(train, ...) once its work is done, backward calls _take."""

    _cache = None

    def _keep(self, train: bool, *cache):
        """Hold cache after a train-mode forward, nothing after any other."""
        self._cache = cache if train else None

    def _take(self):
        """The held cache, which this clears; UsageError if none is held."""
        if self._cache is None:
            raise UsageError(
                f"{type(self).__name__}.backward without a training forward")
        cache, self._cache = self._cache, None
        return cache


class Conv2D(Layer):
    """3x3 (KERNEL) valid convolution, stride 1, no bias: a BatchNorm follows
    every conv, and its batch-mean subtraction would cancel one.

    With needs_input_grad false (a first layer, whose input is the data),
    backward computes only the parameter gradients and returns None.
    """

    KERNEL = 3

    def __init__(self, cin: int, cout: int, rng, dtype=np.float32,
                 needs_input_grad: bool = True):
        k = self.KERNEL
        self.w = rng.normal(0.0, init_std(cin * k * k),
                            size=(cout, cin, k, k)).astype(dtype)
        self.params = {"w": self.w}
        self.stats = {}
        self.grads = {}
        self.needs_input_grad = needs_input_grad

    def forward(self, x, train: bool, rng=None):
        self._keep(False)
        out = tensor.conv2d_valid(x, self.w)
        self._keep(train, x)
        return out

    def backward(self, g):
        (x,) = self._take()
        gx, self.grads["w"] = tensor.conv2d_valid_backward(
            x, self.w, g, need_x=self.needs_input_grad)
        return gx


class BatchNorm2D(Layer):
    """Per-channel batch normalization over batch and spatial dims.

    Every pass works on the (B*H, W*C) rows view of a channels-last array,
    with the per-channel vectors tiled W times, so each elementwise loop runs
    W*C long rather than C long. Each pass does its work in place on one
    fresh output array. The train forward first sums the squared deviations
    for the variance in it, and keeps x - mean, scaled in place, as the xhat
    that backward needs. The backward allocates one full-size array, prod,
    for g * xhat and then builds the input gradient in it, with the
    consumed xhat as its scratch for xhat * sum(g * xhat). The input and
    the incoming gradient are never written. Per-channel sums (mean,
    variance, the gamma and beta gradients) come from _channel_sum; the
    train steps are the plain expressions' operations in the same order,
    and so have their bits. In both modes each elementwise pass runs per
    row part on the pool.

    Eval mode is the affine map of Ioffe & Szegedy (2015, §3.2): two passes,
    x * scale + shift, with scale = gamma * inv_std and shift = beta -
    running_mean * scale computed per call from the running statistics
    (eval_affine), one multiply into the output and one add in place. Its
    bits are those of that scale/shift form, which
    differ from (x - mean) * inv_std * gamma + beta by a few ulps. Per
    channel the map never decreases as x grows where scale > 0, never
    increases where scale < 0 and is constant on finite x where scale is
    zero, so the network's inference runs it after the max-pool, on the
    pooled map, with the same bits. EPS is added to the variance before the
    square root; each train pass keeps MOMENTUM of the running statistics.
    """

    EPS = 1e-5
    MOMENTUM = 0.99

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.params = {"gamma": self.gamma, "beta": self.beta}
        self.stats = {"running_mean": self.running_mean,
                      "running_var": self.running_var}
        self.grads = {}

    def eval_affine(self):
        """The eval map's per-channel (scale, shift), from the running
        statistics as they are now."""
        inv_std = 1.0 / np.sqrt(self.running_var
                                + self.running_var.dtype.type(self.EPS))
        scale = self.gamma * inv_std
        return scale, self.beta - self.running_mean * scale

    def forward(self, x, train: bool, rng=None):
        self._keep(False)
        b, c, h, w = x.shape
        x2 = _rows(x)
        if not train:
            scale, shift = (np.tile(v, w) for v in self.eval_affine())
            out = np.empty_like(x2)

            def apply(rows):
                np.multiply(x2[rows], scale, out=out[rows])
                out[rows] += shift

            tensor.in_parts(apply, b * h, x2.size)
            return _unrows(out, x.shape)

        if b < 2:
            raise ConfigError("batch norm needs batch size >= 2 in train mode")
        n = b * h * w
        mean = (_channel_sum(x2, b, c) / n).astype(x.dtype)
        xhat, out = np.empty_like(x2), np.empty_like(x2)
        tiled = np.tile(mean, w)

        def centre(rows):
            np.subtract(x2[rows], tiled, out=xhat[rows])
            np.multiply(xhat[rows], xhat[rows], out=out[rows])

        tensor.in_parts(centre, b * h, x2.size)
        var = (_channel_sum(out, b, c) / n).astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + x.dtype.type(self.EPS))
        m = x.dtype.type(self.MOMENTUM)
        self.running_mean *= m
        self.running_mean += (1 - m) * mean
        self.running_var *= m
        self.running_var += (1 - m) * var
        scale, gamma, beta = (np.tile(v, w)
                              for v in (inv_std, self.gamma, self.beta))

        def affine(rows):
            xhat[rows] *= scale
            np.multiply(xhat[rows], gamma, out=out[rows])
            out[rows] += beta

        tensor.in_parts(affine, b * h, x2.size)
        self._keep(True, xhat, inv_std)
        return _unrows(out, x.shape)

    def backward(self, g):
        xhat, inv_std = self._take()
        b, c, h, w = g.shape
        g2 = _rows(g)
        n = g.dtype.type(b * h * w)
        prod = np.empty_like(g2)
        tensor.in_parts(lambda rows: np.multiply(g2[rows], xhat[rows],
                                                 out=prod[rows]),
                        b * h, g2.size)
        sum_gx = _channel_sum(prod, b, c).astype(g.dtype)
        sum_g = _channel_sum(g2, b, c).astype(g.dtype)
        self.grads["gamma"], self.grads["beta"] = sum_gx, sum_g
        coef = self.gamma * inv_std
        tiled_g, tiled_gx, scale = (np.tile(v, w)
                                    for v in (sum_g, sum_gx, coef / n))

        # coef / n * (n * g - sum_g - xhat * sum_gx), step by step, in prod
        # with xhat as scratch
        def grad(rows):
            gx = np.multiply(n, g2[rows], out=prod[rows])
            gx -= tiled_g
            gx -= np.multiply(xhat[rows], tiled_gx, out=xhat[rows])
            gx *= scale

        tensor.in_parts(grad, b * h, g2.size)
        return _unrows(prod, g.shape)


class MaxPool2D(Layer):
    """3x3 max-pooling with stride 2 (WINDOW, STRIDE), the network's only
    pool geometry, which PostureNet.feature_shapes reads."""

    WINDOW = 3
    STRIDE = 2

    @classmethod
    def reads(cls, h: int, w: int):
        """(rows, cols): the leading rows and columns of an h x w input that
        some window covers; the pool never reads the rest."""
        return tuple((n - cls.WINDOW) // cls.STRIDE * cls.STRIDE + cls.WINDOW
                     for n in (h, w))

    def forward(self, x, train: bool, rng=None):
        self._keep(False)
        out, argmax = tensor.maxpool2d(x, window=self.WINDOW,
                                       stride=self.STRIDE, need_argmax=train)
        self._keep(train, argmax, x.shape)
        return out

    def backward(self, g):
        argmax, in_shape = self._take()
        return tensor.maxpool2d_backward(g, argmax, in_shape)


class LeakyReLU(Layer):
    """max(x, SLOPE * x); SLOPE is also the gain of init_std. backward
    multiplies g by 1 where x > 0 and SLOPE elsewhere, from the train-mode
    mask: (1 - s) + s rounds to exactly 1 for every s in (0, 1), and a
    multiply, unlike a select, does not branch on mixed signs. Both
    passes run per batch part on the pool, the forward in either mode."""

    SLOPE = 0.2

    def forward(self, x, train: bool, rng=None):
        self._keep(False)
        # for 0 < slope < 1 the larger of x and slope * x is x where x > 0
        # and slope * x elsewhere, ±0 and ±inf included
        s = x.dtype.type(self.SLOPE)
        out = np.empty_like(x)
        pos = np.empty_like(x, dtype=bool) if train else None

        def act(part):
            if train:
                np.greater(x[part], 0, out=pos[part])
            np.multiply(s, x[part], out=out[part])
            np.maximum(x[part], out[part], out=out[part])

        tensor.in_parts(act, len(x), x.size)
        self._keep(train, pos)
        return out

    def backward(self, g):
        (pos,) = self._take()
        s = g.dtype.type(self.SLOPE)
        factor = np.empty_like(pos, dtype=g.dtype)

        def grad(part):
            f = factor[part]
            f[...] = pos[part]
            f *= 1 - s
            f += s
            np.multiply(g[part], f, out=f)

        tensor.in_parts(grad, len(g), g.size)
        return factor


class Dropout(Layer):
    """Inverted dropout: survivors scaled by 1/(1-p), inference is identity.

    The mask is drawn in x's index order, whatever x's memory layout, and
    stored in that layout. The draw is one serial call; the multiplies run
    per batch part on the pool.
    """

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate

    def forward(self, x, train: bool, rng=None):
        self._keep(False)
        if not train or self.rate == 0.0:
            self._keep(train, 1.0)
            return x
        if rng is None:
            raise UsageError("Dropout needs an rng in train mode")
        keep = rng.random(x.shape) >= self.rate
        scale = x.dtype.type(1.0 / (1.0 - self.rate))
        mask, out = np.empty_like(x), np.empty_like(x)

        def drop(part):
            np.multiply(keep[part], scale, out=mask[part])
            np.multiply(x[part], mask[part], out=out[part])

        tensor.in_parts(drop, len(x), x.size)
        self._keep(True, mask)
        return out

    def backward(self, g):
        (mask,) = self._take()
        if self.rate == 0.0:  # the mask is 1.0
            return g * mask
        out = np.empty_like(g)
        tensor.in_parts(lambda part: np.multiply(g[part], mask[part],
                                                 out=out[part]),
                        len(g), g.size)
        return out


class Flatten(Layer):
    """(B, ...) -> (B, features) in row-major index order, a copy when x is
    channels-last; backward returns the gradient in x's layout."""

    def forward(self, x, train: bool, rng=None):
        self._keep(False)
        out = x.reshape(x.shape[0], -1)
        self._keep(train, x)
        return out

    def backward(self, g):
        (x,) = self._take()
        gx = np.empty_like(x, dtype=g.dtype)
        gx[...] = g.reshape(x.shape)
        return gx


class Dense(Layer):
    """Affine map x @ w + b."""

    def __init__(self, fan_in: int, units: int, rng, dtype=np.float32):
        self.w = rng.normal(0.0, init_std(fan_in),
                            size=(fan_in, units)).astype(dtype)
        self.b = np.zeros(units, dtype)
        self.params = {"w": self.w, "b": self.b}
        self.stats = {}
        self.grads = {}

    def forward(self, x, train: bool, rng=None):
        self._keep(False)
        if x.shape[1] != self.w.shape[0]:
            raise ShapeError(
                f"dense expects {self.w.shape[0]} features, got {x.shape[1]}")
        self._keep(train, x)
        return x @ self.w + self.b

    def backward(self, g):
        (x,) = self._take()
        self.grads["w"] = x.T @ g
        self.grads["b"] = g.sum(axis=0)
        return g @ self.w.T
