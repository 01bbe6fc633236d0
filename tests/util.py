"""Shared helpers for the test suite: finite differences, error norms and
reference implementations that vectorized code is checked against."""

import json
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pressnet.checkpoint import VERSION
from pressnet.dataio import GRID_COLS, GRID_ROWS
from pressnet.synthetic import synthetic_frame
from pressnet.tensor import make_rng


def central_diff_grad(f, x, h=1e-6):
    """Gradient of scalar f at x by central finite differences (float64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def max_rel_err(analytic, numeric, floor=1e-8):
    """Max elementwise relative error with a small denominator floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def knn_classify(train_x, train_y, query, k=10):
    """Single-query kNN: majority vote over the k Euclidean-nearest training
    points (stable order on equal distances). Vote ties break by smallest
    summed distance among the tied labels' neighbors, then by lowest label.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    d = np.sqrt(((train_x - np.asarray(query, dtype=np.float64)) ** 2).sum(axis=1))
    near = np.argsort(d, kind="stable")[:k]
    votes = {}
    for lab, dist in zip(np.asarray(train_y)[near].tolist(), d[near].tolist()):
        cnt, total = votes.get(lab, (0, 0.0))
        votes[lab] = (cnt + 1, total + dist)
    return min(votes, key=lambda lab: (-votes[lab][0], votes[lab][1], lab))


def pool_oracle(x, window, stride):
    """Max-pool by scanning every window in row-major order; any leading
    dims. The argmax is the flat index into the HxW plane of the first
    maximum (strict >, so ties keep the lowest index) or of the first NaN,
    which pools to NaN, as ndarray.argmax treats it."""
    x = np.asarray(x)
    h, w = x.shape[-2:]
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((*x.shape[:-2], ho, wo), dtype=x.dtype)
    arg = np.zeros(out.shape, dtype=np.int64)
    for lead in np.ndindex(*x.shape[:-2]):
        plane = x[lead]
        for y in range(ho):
            for xx in range(wo):
                best, best_idx = None, -1
                for u in range(window):
                    for v in range(window):
                        r, c = y * stride + u, xx * stride + v
                        val = plane[r, c]
                        if best is None or (not np.isnan(best)
                                            and (val > best or np.isnan(val))):
                            best, best_idx = val, r * w + c
                out[lead + (y, xx)] = best
                arg[lead + (y, xx)] = best_idx
    return out, arg


def channels_last(a):
    """Copy of a (B,C,H,W) array with the same shape and values, stored
    channels-last: the strides of a C-contiguous (B,H,W,C) buffer."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(a):
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def _chw_columns(x, kh, kw):
    """(B,C,H,W) -> (B*Ho*Wo, C*kh*kw) columns, channel-major: each row is
    the window's C planes in turn, as an NCHW gather reads them."""
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    b, c, ho, wo = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo,
                                                      c * kh * kw)
    return cols, ho, wo


def conv_forward_oracle(x, kernels):
    """Valid stride-1 cross-correlation of (B,Cin,H,W) with (Cout,Cin,kh,kw)
    kernels as one GEMM over (C, kh, kw)-ordered columns; NCHW-contiguous
    (B,Cout,Ho,Wo) result."""
    cout, _, kh, kw = kernels.shape
    cols, ho, wo = _chw_columns(x, kh, kw)
    out = (cols @ kernels.reshape(cout, -1).T).reshape(x.shape[0], ho, wo,
                                                        cout)
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def conv_kernel_grad_oracle(x, kernels, grad_out):
    """Kernel gradient of that cross-correlation: grad_out's (B*Ho*Wo, Cout)
    rows against the (C, kh, kw)-ordered columns of x."""
    cout = kernels.shape[0]
    cols, _, _ = _chw_columns(x, *kernels.shape[2:])
    g2 = grad_out.transpose(0, 2, 3, 1).reshape(-1, cout)
    return (g2.T @ cols).reshape(kernels.shape)


def conv_input_grad_oracle(kernels, grad_out):
    """Input gradient of a valid stride-1 cross-correlation, (B,Cin,H,W),
    as the full correlation of grad_out (B,Cout,Ho,Wo) with the flipped
    kernels: zero-pad grad_out by kh-1 / kw-1 on each side, build its
    column matrix and multiply it once by the flipped kernels."""
    b, cout, ho, wo = grad_out.shape
    _, cin, kh, kw = kernels.shape
    gpad = np.zeros((b, cout, ho + 2 * (kh - 1), wo + 2 * (kw - 1)),
                    dtype=grad_out.dtype)
    gpad[:, :, kh - 1:kh - 1 + ho, kw - 1:kw - 1 + wo] = grad_out
    cols, h, w = _chw_columns(gpad, kh, kw)
    kflip = kernels[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(
        cout * kh * kw, cin)
    return (cols @ kflip).reshape(b, h, w, cin).transpose(0, 3, 1, 2)


def _per_channel(v):
    return v[None, :, None, None]


def channel_sum(a):
    """Per-channel float64 sums of a (B,C,H,W) array, in BatchNorm2D's
    order: over the batch in a's dtype, then over the H*W positions in
    float64."""
    nhwc = np.ascontiguousarray(a.transpose(0, 2, 3, 1))
    return nhwc.sum(axis=0).reshape(-1, a.shape[1]).sum(axis=0,
                                                        dtype=np.float64)


def bn_train_oracle(x, gamma, beta, eps):
    """Batch-norm train forward as plain expressions, each building a new
    array, with the batch statistics from channel_sum: returns
    (out, mean, var, xhat, inv_std)."""
    n = x.size // x.shape[1]
    mean = (channel_sum(x) / n).astype(x.dtype)
    dev = x - _per_channel(mean)
    var = (channel_sum(dev * dev) / n).astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x - _per_channel(mean)) * _per_channel(inv_std)
    return (_per_channel(gamma) * xhat + _per_channel(beta),
            mean, var, xhat, inv_std)


def bn_eval_oracle(x, gamma, beta, running_mean, running_var, eps):
    """Batch-norm eval forward as plain expressions."""
    inv_std = 1.0 / np.sqrt(running_var + x.dtype.type(eps))
    xhat = (x - _per_channel(running_mean)) * _per_channel(inv_std)
    return _per_channel(gamma) * xhat + _per_channel(beta)


def bn_backward_oracle(g, xhat, inv_std, gamma):
    """Batch-norm backward as plain expressions, with the sums from
    channel_sum: (grad_x, grad_gamma, grad_beta)."""
    b, _, h, w = g.shape
    n = g.dtype.type(b * h * w)
    ggamma = channel_sum(g * xhat).astype(g.dtype)
    gbeta = channel_sum(g).astype(g.dtype)
    coef = _per_channel(gamma * inv_std)
    gx = coef / n * (n * g - _per_channel(gbeta) - xhat * _per_channel(ggamma))
    return gx, ggamma, gbeta


def pack_checkpoint(header, tensors, version=VERSION):
    """Bytes of a PNET1 checkpoint of the given version holding `header` (a
    JSON-able object) and the (name, array) pairs in `tensors`, with no check
    of either: the container layout spelled out for corrupt-file tests."""
    body = json.dumps(header, sort_keys=True).encode()
    parts = [b"PNET1", struct.pack("<HI", version, len(body)), body,
             struct.pack("<I", len(tensors))]
    for name, arr in tensors:
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        nb, db = name.encode(), arr.dtype.str.encode()
        parts += [struct.pack("<H", len(nb)), nb, struct.pack("<B", len(db)),
                  db, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    return b"".join(parts)


def pack_version1_checkpoint(ckpt):
    """Bytes of the version-1 file the format-1 writer made for the net and
    Adam state of `ckpt` (a loaded Checkpoint): each conv<i>.w is followed
    by a zero bias conv<i>.b, with zero Adam moments, and the adam header
    also holds the default learning-rate schedule."""
    def with_biases(tensors):
        out = {}
        for key, arr in tensors.items():
            out[key] = arr
            if key.startswith("conv") and key.endswith(".w"):
                out[key[:-1] + "b"] = np.zeros(arr.shape[0], arr.dtype)
        return out

    header = {"config": ckpt.config.as_dict(), "epoch": ckpt.epoch,
              "seed": ckpt.seed, "dtype": ckpt.dtype, "adam": None}
    tensors = [(f"param:{k}", v) for k, v in with_biases(ckpt.params).items()]
    tensors += [(f"stat:{k}", v) for k, v in ckpt.bn_stats.items()]
    if ckpt.adam is not None:
        a = ckpt.adam
        header["adam"] = {"t": a.t, "base_lr": 2e-5, "beta1": a.beta1,
                          "beta2": a.beta2, "eps": a.eps, "decay_rate": 0.95,
                          "decay_every": 10}
        tensors += [(f"adam.m:{k}", v) for k, v in with_biases(a.m).items()]
        tensors += [(f"adam.v:{k}", v) for k, v in with_biases(a.v).items()]
    return pack_checkpoint(header, tensors, version=1)


def synthetic_batch(n, num_subjects, num_postures, seed=0):
    """n labeled synthetic frames cycling over (subject, posture) pairs:
    (x, subject_labels, posture_labels), x shaped (n, 1, 32, 64) and the
    labels 0-based, ready for the training loop."""
    rng = make_rng(seed, 91)
    x = np.empty((n, 1, GRID_ROWS, GRID_COLS), dtype=np.float32)
    ys = np.empty(n, dtype=np.int64)
    yp = np.empty(n, dtype=np.int64)
    for i in range(n):
        s = i % num_subjects
        p = (i * 7 + i // num_subjects) % num_postures
        x[i, 0] = synthetic_frame(s + 1, p + 1, rng)
        ys[i] = s
        yp[i] = p
    return x, ys, yp
