"""Dense tensor kernels.

The layers are built on the handful of kernels here: seeded generators,
valid 3x3-style convolution and max-pooling, each with its backward pass.

Layout: images have the NCHW shape (B, C, H, W), one frame being a batch
of one, and the kernels accept any strides. The convolution, its input
gradient and the pooling backward return channels-last memory: the strides
of a C-contiguous (B, H, W, C) buffer, so a.transpose(0, 2, 3, 1) is a free
contiguous view. The pooling forward keeps its input's layout. Kernel
weights stay (Cout, Cin, kh, kw). The convolution reads its column matrix
from the input's NHWC view, offset-major and channel-minor, so a
channels-last input is copied in runs of C contiguous values, and its GEMM
output already is the channels-last result. A one-channel input (the
network's conv1) has a column matrix only kh*kw wide, gathered by one
shifted slice copy per column.

Kernels compute only what their caller uses: the convolution backward
skips the input gradient when asked (the first layer's input is the data)
and otherwise builds it from one small GEMM per kernel offset, with no
padded column matrix; max-pooling builds its argmax map only when asked
(training, where the backward pass routes through it). All kernels are
deterministic for identical inputs; randomness only enters through an
explicitly passed generator.

Training code runs these kernels in float32; gradient-check tests
instantiate the exact same code paths in float64.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Reproducible generator for (seed, key...).

    The same seed and key path gives the same stream on every platform
    (PCG64 is specified bit-for-bit). Key integers let callers derive
    independent streams (per epoch, per worker) from one master seed.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, key)]))
    )


def _im2col(x: np.ndarray, kh: int, kw: int):
    """(B,C,H,W), any strides -> column matrix (B*Ho*Wo, kh*kw*C) plus
    (Ho, Wo). Columns are offset-major and channel-minor: each window row
    is read from the NHWC view, a run of C contiguous floats per offset
    when x is channels-last. A one-channel input is gathered by kh*kw
    shifted slice copies, one column each, which beats the 6-D window
    copy at C = 1 and loses to it from C = 2 on."""
    b, c, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    if c == 1:
        cols = np.empty((b, ho, wo, kh * kw), dtype=x.dtype)
        for u in range(kh):
            for v in range(kw):
                cols[..., u * kw + v] = x[:, 0, u:u + ho, v:v + wo]
        return cols.reshape(b * ho * wo, kh * kw), ho, wo
    windows = sliding_window_view(x.transpose(0, 2, 3, 1), (kh, kw),
                                  axis=(1, 2))  # (B,Ho,Wo,C,kh,kw)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * ho * wo,
                                                       kh * kw * c)
    return cols, ho, wo


def conv2d_valid(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Valid (no padding) stride-1 cross-correlation.

    x: (B,Cin,H,W), any strides; kernels: (Cout,Cin,kh,kw).
    out[b,o,y,x] = sum_{c,u,v} x[b,c,y+u,x+v] * kernels[o,c,u,v]
    The result is channels-last: a view of the GEMM's (B,Ho,Wo,Cout) output.
    """
    cout, cin, kh, kw = kernels.shape
    b, c, h, w = x.shape
    if c != cin:
        raise ShapeError(f"input has {c} channels, kernels expect {cin}")
    if h < kh or w < kw:
        raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
    cols, ho, wo = _im2col(x, kh, kw)
    # kernel rows in the columns' (kh, kw, Cin) order
    kmat = kernels.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin).T
    return (cols @ kmat).reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)


def conv2d_valid_backward(x: np.ndarray, kernels: np.ndarray,
                          grad_out: np.ndarray, need_x: bool = True):
    """Gradients of conv2d_valid w.r.t. input and kernels.

    x and grad_out are (B,C,H,W). Returns (grad_x, grad_kernels) shaped like
    x and kernels; grad_x is None when need_x is false, and channels-last
    otherwise. grad_k is one GEMM of grad_out's NHWC view against the
    input's column matrix, which is freed before grad_x is built. grad_x is
    one (B*Ho*Wo, Cout) @ (Cout, Cin) GEMM per kernel offset, each added
    into the Ho x Wo window of an NHWC buffer that the offset reaches; no
    zero-padded column matrix of grad_out is built.
    """
    cout, cin, kh, kw = kernels.shape
    b, c, h, w = x.shape

    cols, ho, wo = _im2col(x, kh, kw)
    g2 = grad_out.transpose(0, 2, 3, 1).reshape(b * ho * wo, cout)
    grad_k = np.ascontiguousarray(
        (g2.T @ cols).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
    del cols
    if not need_x:
        return None, grad_k

    # grad_x[:, c, y+u, x+v] += sum_o g[:, o, y, x] * kernels[o, c, u, v]:
    # one GEMM per kernel offset, accumulated into an NHWC buffer.
    gx = np.zeros((b, h, w, cin), dtype=np.result_type(g2, kernels))
    for u in range(kh):
        for v in range(kw):
            gx[:, u:u + ho, v:v + wo, :] += (g2 @ kernels[:, :, u, v]).reshape(
                b, ho, wo, cin)
    return gx.transpose(0, 3, 1, 2), grad_k


def _max_of(views):
    """Elementwise max of same-shape views, left to right, into a fresh
    array laid out like them: np.maximum of the first two, then the rest in
    place, with no copy of the first."""
    if len(views) == 1:
        return views[0].copy(order="K")
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


def maxpool2d(x: np.ndarray, window: int, stride: int,
              need_argmax: bool = True):
    """Max-pool a (B,C,H,W) array over window x window patches.

    Returns (out, argmax) where argmax holds, per output cell, the flat
    row-major index into that cell's HxW input plane, or None when
    need_argmax is false. Ties go to the lowest flat index, so the map (and
    the backward pass) is deterministic. A window holding NaN pools to NaN,
    and its argmax is the first NaN's index.

    The max is taken over strided views, columns first, then rows, into
    buffers laid out like x, so no window is ever copied and a channels-last
    input gives a channels-last output.
    """
    h, w = x.shape[2:]
    if h < window or w < window:
        raise ShapeError(f"pool window {window} exceeds input {h}x{w}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    span_h, span_w = (ho - 1) * stride + 1, (wo - 1) * stride + 1
    colmax = _max_of([x[..., v:v + span_w:stride] for v in range(window)])
    out = _max_of([colmax[:, :, u:u + span_h:stride] for u in range(window)])
    if not need_argmax:
        return out, None

    # In-window offset of the max, the lowest where several match, as
    # flat.argmax picks it (a NaN counts as the max): walk the offsets
    # downwards and overwrite. The store is arithmetic, because a masked
    # store branches on every element and runs several times slower.
    nan_seen = np.isnan(out).any()
    local = np.zeros_like(out, dtype=np.min_scalar_type(-window * window))
    for off in reversed(range(window * window)):
        u, v = divmod(off, window)
        vals = x[:, :, u:u + span_h:stride, v:v + span_w:stride]
        hit = vals == out
        if nan_seen:
            hit |= vals != vals
        local += hit * (off - local)  # local = off where hit
    corner = (np.arange(ho)[:, None] * w + np.arange(wo)) * stride
    offsets = (np.arange(window)[:, None] * w + np.arange(window)).ravel()
    return out, corner + offsets[local]


def maxpool2d_backward(grad_out: np.ndarray, argmax: np.ndarray,
                       input_shape) -> np.ndarray:
    """Route pooled gradients back to their argmax positions.

    input_shape is the pooled input's (B,C,H,W); the result has that shape
    and is channels-last. Overlapping windows may select the same input
    cell, so contributions accumulate, in output order, by one scatter-add
    on flat NHWC indices.
    """
    b, c, h, w = input_shape
    # flat NHWC index of plane cell a of (n, ch): (n*H*W + a)*C + ch
    base = np.arange(b)[:, None, None, None] * (h * w)
    flat = (argmax + base) * c + np.arange(c)[:, None, None]
    gx = np.zeros((b, h, w, c), dtype=grad_out.dtype)
    np.add.at(gx.reshape(-1), flat.transpose(0, 2, 3, 1).reshape(-1),
              grad_out.transpose(0, 2, 3, 1).reshape(-1))
    return gx.transpose(0, 3, 1, 2)
