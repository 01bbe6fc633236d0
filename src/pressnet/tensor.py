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

Training kernels share the process's allowed cores through one private
pool of threads (one worker per core in os.sched_getaffinity, the calling
thread being one), and only in parts whose results are exact by
construction: each part writes its own slice of a buffer the caller
allocated, with the operations the whole would run on it, so the bytes do
not depend on the worker count. Max-pooling with argmax, its backward and
the train-mode im2col copies run per batch part; the convolution backward
runs its kernel-gradient GEMM and its input-gradient GEMMs as two
concurrent tasks, each one single-threaded BLAS call at a time once
pin_blas_threads has run. in_parts and concurrently are the pool's two
entry points for the layers and the optimizer. A kernel under SPLIT_MIN
elements per part, and all of inference, runs whole on the calling thread.
Tasks run in the caller's contextvars context, so np.errstate holds in
them; an exception in a task is re-raised in the caller once every task
has ended; a forked child drops the pool and starts its own. A task calls
numpy and private helpers only, never a public kernel, so that every
public call stays on the calling thread (bench/spans.py's tracer keeps one
stack of open spans).
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import os
import threading
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError

# elements per part; a smaller kernel runs whole: waking a worker costs
# about what two float32 passes over 2**17 elements take
SPLIT_MIN = 1 << 17


class _Pool:
    """workers - 1 daemon helper threads that, with the calling thread,
    run the tasks of one run() call. A call made while another holds the
    pool (a task calling back in, or a second caller thread) runs its
    tasks itself, in order."""

    def __init__(self, workers: int):
        import queue  # here, not at import time, which set-up pays for

        self.workers = workers
        self._queue = queue.SimpleQueue
        self._lock = threading.Lock()
        self._inboxes = [self._queue() for _ in range(workers - 1)]
        for inbox in self._inboxes:
            threading.Thread(target=self._serve, args=(inbox,), daemon=True,
                             name="pressnet-pool").start()

    def _serve(self, inbox):
        while (job := inbox.get()) is not None:
            context, drain, done = job
            context.run(drain)
            done.put(None)

    def close(self):
        """End the helper threads once they are idle."""
        for inbox in self._inboxes:
            inbox.put(None)

    def run(self, tasks):
        """Results of the zero-argument callables in tasks, in order. Each
        thread takes the next task not yet taken until none is left; the
        first exception, in task order, is raised once all have ended."""
        helpers = self._inboxes[:len(tasks) - 1]
        if not helpers or not self._lock.acquire(blocking=False):
            return [task() for task in tasks]
        results, errors = [None] * len(tasks), [None] * len(tasks)
        take = itertools.count().__next__
        done = self._queue()  # this call's own, should a wait be cut short

        def drain():
            i = take()
            while i < len(tasks):
                try:
                    results[i] = tasks[i]()
                except BaseException as exc:  # re-raised below, in order
                    errors[i] = exc
                i = take()

        try:
            for inbox in helpers:
                inbox.put((contextvars.copy_context(), drain, done))
            drain()
            for _ in helpers:
                done.get()
        finally:
            self._lock.release()
        for exc in errors:
            if exc is not None:
                raise exc
        return results


_pool, _pool_lock = None, threading.Lock()


def _get_pool() -> _Pool:
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                _pool = _Pool(len(os.sched_getaffinity(0))
                              if hasattr(os, "sched_getaffinity")
                              else os.cpu_count() or 1)
    return _pool


def _forget_pool():
    global _pool, _pool_lock
    # the helper threads do not exist in a forked child, and the lock may
    # have been held by a thread that does not either
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def pool_workers() -> int:
    """Threads a split kernel runs on, the calling one included."""
    return _get_pool().workers


def concurrently(tasks) -> list:
    """Run zero-argument callables on the pool; their results, in order."""
    return _get_pool().run(tasks)


def in_parts(fn, n: int, size: int, least: int = 1) -> None:
    """Call fn(part) for contiguous slices that cover range(n) in order,
    one per worker, each at least `least` long and, with size the elements
    the kernel touches, SPLIT_MIN elements' worth; fn(slice(0, n)) alone
    when no split meets both. A small kernel never reaches the pool."""
    k = 1 if size < 2 * SPLIT_MIN else min(pool_workers(), n // least,
                                           size // SPLIT_MIN)
    if k <= 1:
        fn(slice(0, n))
        return
    bounds = [n * i // k for i in range(k + 1)]
    concurrently([partial(fn, slice(a, b))
                  for a, b in zip(bounds, bounds[1:])])


def pin_blas_threads() -> dict:
    """Run BLAS on one thread for the rest of the process, so results do
    not depend on the thread count of the environment; returns
    {"threads": the effective count, "core": OpenBLAS's kernel set}, each
    None where the library numpy links does not say."""
    core = np._core if hasattr(np, "_core") else np.core
    # a handle's symbol lookup also searches the libraries it links
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    info = {"threads": None, "core": None}
    for name in ("scipy_openblas_%s64_", "openblas_%s"):
        setter = getattr(lib, name % "set_num_threads", None)
        if setter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        getter = getattr(lib, name % "get_num_threads", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            info["threads"] = getter()
        corename = getattr(lib, name % "get_corename", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            info["core"] = corename().decode()
        break
    return info


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Reproducible generator for (seed, key...).

    The same seed and key path gives the same stream on every platform
    (PCG64 is specified bit-for-bit). Key integers let callers derive
    independent streams (per epoch, per worker) from one master seed.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, key)]))
    )


def _im2col(x: np.ndarray, kh: int, kw: int, split: bool = False):
    """(B,C,H,W), any strides -> column matrix (B*Ho*Wo, kh*kw*C) plus
    (Ho, Wo). Columns are offset-major and channel-minor: each window row
    is read from the NHWC view, a run of C contiguous floats per offset
    when x is channels-last. A one-channel input is gathered by kh*kw
    shifted slice copies, one column each, which beats the 6-D window
    copy at C = 1 and loses to it from C = 2 on. With split, the copies
    run per batch part on the pool."""
    b, c, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    cols = np.empty((b, ho, wo, kh, kw, c), dtype=x.dtype)
    if c == 1:
        def copy(part):
            for u in range(kh):
                for v in range(kw):
                    cols[part, :, :, u, v, 0] = x[part, 0, u:u + ho, v:v + wo]
    else:
        windows = sliding_window_view(x.transpose(0, 2, 3, 1), (kh, kw),
                                      axis=(1, 2))  # (B,Ho,Wo,C,kh,kw)

        def copy(part):
            cols[part] = windows[part].transpose(0, 1, 2, 4, 5, 3)
    if split:
        in_parts(copy, b, cols.size)
    else:
        copy(slice(None))
    return cols.reshape(b * ho * wo, kh * kw * c), ho, wo


def conv2d_valid(x: np.ndarray, kernels: np.ndarray,
                 split: bool = False) -> np.ndarray:
    """Valid (no padding) stride-1 cross-correlation.

    x: (B,Cin,H,W), any strides; kernels: (Cout,Cin,kh,kw).
    out[b,o,y,x] = sum_{c,u,v} x[b,c,y+u,x+v] * kernels[o,c,u,v]
    The result is channels-last: a view of the GEMM's (B,Ho,Wo,Cout) output.
    split (training) copies the column matrix in batch parts on the pool;
    the GEMM is one call either way.
    """
    cout, cin, kh, kw = kernels.shape
    b, c, h, w = x.shape
    if c != cin:
        raise ShapeError(f"input has {c} channels, kernels expect {cin}")
    if h < kh or w < kw:
        raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
    cols, ho, wo = _im2col(x, kh, kw, split)
    # kernel rows in the columns' (kh, kw, Cin) order
    kmat = kernels.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin).T
    return (cols @ kmat).reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)


def conv2d_valid_backward(x: np.ndarray, kernels: np.ndarray,
                          grad_out: np.ndarray, need_x: bool = True):
    """Gradients of conv2d_valid w.r.t. input and kernels.

    x and grad_out are (B,C,H,W). Returns (grad_x, grad_kernels) shaped like
    x and kernels; grad_x is None when need_x is false, and channels-last
    otherwise. grad_k is one GEMM of grad_out's NHWC view against the
    input's column matrix (copied in batch parts on the pool). grad_x is
    one (B*Ho*Wo, Cout) @ (Cout, Cin) GEMM per kernel offset, each added
    into the Ho x Wo window of an NHWC buffer that the offset reaches; no
    zero-padded column matrix of grad_out is built. The two gradients run
    as concurrent tasks, in buffers allocated here.
    """
    cout, cin, kh, kw = kernels.shape
    b, c, h, w = x.shape

    cols, ho, wo = _im2col(x, kh, kw, split=True)
    g2 = grad_out.transpose(0, 2, 3, 1).reshape(b * ho * wo, cout)

    def kernel_grad():
        return np.ascontiguousarray(
            (g2.T @ cols).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))

    if not need_x:
        return None, kernel_grad()

    # grad_x[:, c, y+u, x+v] += sum_o g[:, o, y, x] * kernels[o, c, u, v]:
    # one GEMM per kernel offset, accumulated into an NHWC buffer.
    dtype = np.result_type(g2, kernels)
    gx = np.zeros((b, h, w, cin), dtype=dtype)
    term = np.empty((b * ho * wo, cin), dtype=dtype)

    def input_grad():
        for u in range(kh):
            for v in range(kw):
                np.matmul(g2, kernels[:, :, u, v], out=term)
                gx[:, u:u + ho, v:v + wo, :] += term.reshape(b, ho, wo, cin)

    grad_k, _ = concurrently([kernel_grad, input_grad])
    return gx.transpose(0, 3, 1, 2), grad_k


def _max_of(views, out=None):
    """Elementwise max of same-shape views, left to right, into out or a
    fresh array laid out like them: np.maximum of the first two, then the
    rest in place, with no copy of the first."""
    if len(views) == 1:
        if out is None:
            return views[0].copy(order="K")
        out[...] = views[0]
        return out
    out = np.maximum(views[0], views[1], out=out)
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
    input gives a channels-last output. With the argmax (training) it runs
    per batch part on the pool.
    """
    b, c, h, w = x.shape
    if h < window or w < window:
        raise ShapeError(f"pool window {window} exceeds input {h}x{w}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    span_h, span_w = (ho - 1) * stride + 1, (wo - 1) * stride + 1
    if not need_argmax:
        colmax = _max_of([x[..., v:v + span_w:stride] for v in range(window)])
        return _max_of([colmax[:, :, u:u + span_h:stride]
                        for u in range(window)]), None

    # every buffer laid out like x, so a channels-last x gives channels-last
    # results and the backward reads its argmax map in NHWC order
    colmax = np.empty_like(x[..., :wo])
    out = np.empty_like(x[:, :, :ho, :wo])
    local = np.zeros_like(out, dtype=np.min_scalar_type(-window * window))
    argmax = np.empty_like(out, dtype=np.intp)
    corner = (np.arange(ho)[:, None] * w + np.arange(wo)) * stride

    def pool(part):
        xp, mp, lp, ap = x[part], out[part], local[part], argmax[part]
        cm = _max_of([xp[..., v:v + span_w:stride] for v in range(window)],
                     out=colmax[part])
        _max_of([cm[:, :, u:u + span_h:stride] for u in range(window)], out=mp)
        # In-window offset of the max, the lowest where several match, as
        # flat.argmax picks it (a NaN counts as the max): walk the offsets
        # downwards and overwrite. The store is arithmetic, because a masked
        # store branches on every element and runs several times slower.
        nan_seen = np.isnan(mp).any()
        for off in reversed(range(window * window)):
            u, v = divmod(off, window)
            vals = xp[:, :, u:u + span_h:stride, v:v + span_w:stride]
            hit = vals == mp
            if nan_seen:
                hit |= vals != vals
            lp += hit * (off - lp)  # local = off where hit
        # offset (u, v) = divmod(local, window) is plane cell u * w + v
        # from the window's corner: local + (w - window) * u
        np.floor_divide(lp, window, out=ap)
        ap *= w - window
        ap += lp
        ap += corner

    in_parts(pool, b, x.size)
    return out, argmax


def maxpool2d_backward(grad_out: np.ndarray, argmax: np.ndarray,
                       input_shape) -> np.ndarray:
    """Route pooled gradients back to their argmax positions.

    input_shape is the pooled input's (B,C,H,W); the result has that shape
    and is channels-last. Overlapping windows may select the same input
    cell, so contributions accumulate, in output order, by one scatter-add
    on flat NHWC indices per batch part, run on the pool.
    """
    b, c, h, w = input_shape
    gx = np.zeros((b, h, w, c), dtype=grad_out.dtype)
    channel = np.arange(c)[:, None, None]
    flat = np.empty(np.array(argmax.shape)[[0, 2, 3, 1]],
                    dtype=np.intp).transpose(0, 3, 1, 2)

    def route(part):
        # flat NHWC index of plane cell a of (n, ch) within the part:
        # (n*H*W + a)*C + ch, built in an NHWC buffer
        f = flat[part]
        np.add(argmax[part],
               np.arange(len(f))[:, None, None, None] * (h * w), out=f)
        f *= c
        f += channel
        np.add.at(gx[part].reshape(-1), f.transpose(0, 2, 3, 1).reshape(-1),
                  grad_out[part].transpose(0, 2, 3, 1).reshape(-1))

    in_parts(route, b, gx.size)
    return gx.transpose(0, 3, 1, 2)
