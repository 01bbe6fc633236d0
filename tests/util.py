"""Shared helpers for the test suite: finite differences, error norms and
reference implementations that vectorized code is checked against."""

import json
import re
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pressnet import tensor
from pressnet.baselines import ACTIVE_THRESHOLD
from pressnet.checkpoint import VERSION
from pressnet.dataio import GRID_COLS, GRID_ROWS
from pressnet.losses import softmax
from pressnet.model import PostureNet
from pressnet.synthetic import synthetic_frame
from pressnet.tensor import make_rng


# PostureNet's architecture constants for fast tests: four narrow conv
# blocks, narrow dense layers and no dropout, on the real 32x64 grid
SMALL_NET = dict(CONV_CHANNELS=(1, 1, 2, 2), CONV_DROPOUT=(0.0,) * 4,
                 DENSE_WIDTH=8, DENSE_DROPOUT=0.0)


def set_net_constants(monkeypatch, **constants):
    """Set PostureNet class constants for one test; a name PostureNet does
    not have is an AttributeError."""
    for name, value in constants.items():
        monkeypatch.setattr(PostureNet, name, value)


@pytest.fixture
def small_net(monkeypatch):
    """Build every PostureNet of the test with SMALL_NET's constants.
    Returns a function that sets more, e.g. small_net(DENSE_DROPOUT=0.2)."""
    set_net_constants(monkeypatch, **SMALL_NET)
    return partial(set_net_constants, monkeypatch)


@contextmanager
def workers(n, split_min=1):
    """Inside the block, tensor's split kernels run on a pool of n workers
    and split any array of at least split_min elements per part (the
    default 1 splits every one). The first min(n, tasks) tasks of each
    pool call wait for each other before they run, so they run on as many
    threads, whatever the timing; a task must not call the pool again.
    The pool's threads end with the block."""
    pool, saved = tensor._Pool(n), (tensor._pool, tensor.SPLIT_MIN)
    run = pool.run

    def spread(tasks):
        k = min(n, len(tasks))
        if k > 1:
            barrier = threading.Barrier(k, timeout=60)
            tasks = [partial(_after, barrier.wait, t) for t in tasks[:k]] + [
                *tasks[k:]]
        return run(tasks)

    pool.run = spread
    tensor._pool, tensor.SPLIT_MIN = pool, split_min
    try:
        yield pool
    finally:
        tensor._pool, tensor.SPLIT_MIN = saved
        close(pool)


def close(pool):
    """End a tensor._Pool's helper threads once they are idle."""
    for inbox in pool._inboxes:
        inbox.put(None)


def _after(first, task):
    first()
    return task()


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


def best_split_oracle(x, y, n_classes):
    """Greedy Gini split as one loop over the features, each feature's cuts
    scored on its own stable sort: (feature, threshold, score) of the lowest
    score, the lowest feature and then the lowest cut among equal scores, or
    None when no feature's value changes."""
    n = y.size
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    best = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        cum = np.cumsum(onehot[order], axis=0)  # class counts left of cut
        total = cum[-1]
        # cut after position i (1..n-1), only where the value changes
        valid = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        if valid.size == 0:
            continue
        nl = valid.astype(np.float64)
        nr = n - nl
        left = cum[valid - 1]
        right = total - left
        gini_l = 1.0 - (left ** 2).sum(axis=1) / nl ** 2
        gini_r = 1.0 - (right ** 2).sum(axis=1) / nr ** 2
        score = (nl * gini_l + nr * gini_r) / n
        j = int(np.argmin(score))
        cand = (float(score[j]), f,
                float((xs[valid[j] - 1] + xs[valid[j]]) / 2.0))
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        return None
    return best[1], best[2], best[0]


def extract_features(frame):
    """The 18-entry feature vector of one 2-D frame, one statistic at a
    time: moments by power, regions by np.array_split."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    mean = frame.mean()
    std = frame.std()
    centered = frame - mean
    if std > 1e-12:
        skew = float((centered ** 3).mean() / std ** 3)
        kurt = float((centered ** 4).mean() / std ** 4)
    else:
        skew = kurt = 0.0
    active = float((frame > ACTIVE_THRESHOLD).sum())
    total = frame.sum()
    if total > 0:
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        cop_r = float((rows * frame).sum() / total)
        cop_c = float((cols * frame).sum() / total)
    else:
        cop_r, cop_c = (h - 1) / 2.0, (w - 1) / 2.0
    regions = [part for half in np.array_split(frame, 2, axis=0)
               for part in np.array_split(half, 3, axis=1)]
    feats = [mean, std, skew, kurt, active, cop_r, cop_c]
    feats += [r.mean() for r in regions]
    feats += [r.std() for r in regions[:5]]
    return np.asarray(feats, dtype=np.float64)


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: int = -1


def grow_tree(x, y, n_classes, max_depth, depth=0):
    """Greedy Gini tree grown depth-first, one node and one
    best_split_oracle call at a time: a node is a leaf at max_depth, when
    it is pure or when no value changes; its label is its lowest most
    frequent class, and rows with value <= threshold go left."""
    counts = np.bincount(y, minlength=n_classes)
    label = int(counts.argmax())
    if depth >= max_depth or counts[label] == y.size:
        return TreeNode(label=label)
    split = best_split_oracle(x, y, n_classes)
    if split is None:
        return TreeNode(label=label)
    f, thr, _ = split
    mask = x[:, f] <= thr
    grow = [grow_tree(x[m], y[m], n_classes, max_depth, depth + 1)
            for m in (mask, ~mask)]
    return TreeNode(f, thr, *grow, label)


def bagged_trees_oracle(x, y, n_trees=50, max_depth=12, seed=0):
    """train_bagged_trees' trees grown one at a time by grow_tree, on the
    same bootstrap draws."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    trees = []
    for t in range(n_trees):
        idx = make_rng(seed, 80, t).integers(0, x.shape[0], size=x.shape[0])
        trees.append(grow_tree(x[idx], y[idx], n_classes, max_depth))
    return trees


def oracle_nodes(node):
    """(feature, threshold, label) of every node of a TreeNode tree, depth
    first, left before right."""
    out = [(node.feature, node.threshold, node.label)]
    if node.feature >= 0:
        out += oracle_nodes(node.left) + oracle_nodes(node.right)
    return out


def ensemble_nodes(ensemble, t):
    """The same list for tree t of a TreeEnsemble."""
    out, stack = [], [int(ensemble.roots[t])]
    while stack:
        i = stack.pop()
        out.append((int(ensemble.feature[i]), float(ensemble.threshold[i]),
                    int(ensemble.label[i])))
        if ensemble.feature[i] >= 0:
            stack += [int(ensemble.right[i]), int(ensemble.left[i])]
    return out


def tree_walk(node, q):
    """The leaf label one query reaches in a TreeNode tree."""
    while node.feature >= 0:
        node = node.left if q[node.feature] <= node.threshold else node.right
    return node.label


def collapse_confusion(cm, group, n_groups):
    """Block-sum a fine confusion matrix through a class -> group map."""
    out = np.zeros((n_groups, n_groups), dtype=cm.dtype)
    for i in range(cm.shape[0]):
        for j in range(cm.shape[1]):
            out[group[i], group[j]] += cm[i, j]
    return out


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


def median_oracle(volume):
    """3x3x3 median with clamp-to-edge, straight from the definition: the
    27 neighbours of each voxel by clamped index (no padding), fully
    sorted, the 14th taken; same dtype as volume."""
    t, h, w = volume.shape
    tt, rr, cc = np.meshgrid(np.arange(t), np.arange(h), np.arange(w),
                             indexing="ij")
    offsets = (-1, 0, 1)
    neighbours = [volume[np.clip(tt + dt, 0, t - 1),
                         np.clip(rr + dr, 0, h - 1),
                         np.clip(cc + dc, 0, w - 1)]
                  for dt in offsets for dr in offsets for dc in offsets]
    return np.sort(np.stack(neighbours), axis=0)[13]


def np_median_oracle(volume):
    """The same median as np.median over the 27-wide windows of the
    edge-padded volume, cast back to volume's dtype."""
    windows = sliding_window_view(np.pad(volume, 1, mode="edge"), (3, 3, 3))
    return np.median(windows, axis=(-3, -2, -1)).astype(volume.dtype)


def trim_sequence(frames, n):
    """frames without their first and last n (none left when there are
    at most 2n): the trim that preprocessing applies after filtering."""
    return frames[n:len(frames) - n] if len(frames) > 2 * n else frames[:0]


def parse_oracle(path):
    """(T, 32, 64) frames of a well-formed recording file, one np.array per
    non-blank line, each on-disk 64x32 record transposed."""
    frames = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                flat = np.array(line.split(), dtype=np.float32)
                frames.append(flat.reshape(GRID_COLS, GRID_ROWS).T)
    return np.stack(frames)


def float_twin(src, dst):
    """Write dst as the count file src with ".0" after every field: the
    same values, as floats, which the count parse refuses; returns dst."""
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_bytes(re.sub(rb"\d+", rb"\g<0>.0", src.read_bytes()))
    return dst


def leaky_relu_backward_oracle(x, g, slope):
    """LeakyReLU's gradient as a select: g where x > 0, slope * g
    elsewhere, in g's dtype."""
    return np.where(x > 0, g, g.dtype.type(slope) * g)


def channels_last(a):
    """Copy of a (B,C,H,W) array with the same shape and values, stored
    channels-last: the strides of a C-contiguous (B,H,W,C) buffer."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(a):
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def im2col_oracle(x, kh, kw):
    """The column matrix of tensor._im2col, (B*Ho*Wo, kh*kw*C) plus (Ho, Wo),
    by one 6-D copy of the NHWC view's windows for any C: offset-major,
    channel-minor."""
    windows = sliding_window_view(x.transpose(0, 2, 3, 1), (kh, kw),
                                  axis=(1, 2))  # (B,Ho,Wo,C,kh,kw)
    b, ho, wo, c = windows.shape[:4]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * ho * wo,
                                                       kh * kw * c)
    return cols, ho, wo


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
    """Batch-norm eval forward as plain expressions: one per-channel scale
    and one shift, both from the running statistics."""
    inv_std = 1.0 / np.sqrt(running_var + x.dtype.type(eps))
    scale = gamma * inv_std
    shift = beta - running_mean * scale
    return x * _per_channel(scale) + _per_channel(shift)


def bn_eval_textbook(x, gamma, beta, running_mean, running_var, eps):
    """Batch-norm eval forward in the textbook order,
    (x - mean) * inv_std * gamma + beta."""
    inv_std = 1.0 / np.sqrt(running_var + x.dtype.type(eps))
    xhat = (x - _per_channel(running_mean)) * _per_channel(inv_std)
    return xhat * _per_channel(gamma) + _per_channel(beta)


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


def one_pass_forward(net, x, train=False, rng=None):
    """net's stage loop and heads over the whole batch in one pass, with no
    blocking: (subject_probs, posture_probs)."""
    h = x.astype(net.dtype, copy=False)
    for _, layer in net.stages:
        h = layer.forward(h, train, rng)
    return tuple(softmax(head.forward(h, train)) for _, head in net.heads)


def held_activations(layer):
    """Names of a layer's attributes that hold an array, or a tuple with an
    array, other than the arrays of its params, stats and grads dicts: its
    cached activations."""
    owned = {id(a) for attr in ("params", "stats", "grads")
             for a in getattr(layer, attr, {}).values()}
    return [name for name, value in vars(layer).items()
            if any(isinstance(a, np.ndarray) and id(a) not in owned
                   for a in (value if isinstance(value, tuple) else (value,)))]


def grads_state(stages):
    """The identity and bytes of every array in the grads dicts of a list
    of (name, layer) stages, keyed (name, key): unchanged by a call that
    writes no gradient."""
    return {(name, key): (id(g), g.tobytes())
            for name, layer in stages
            for key, g in getattr(layer, "grads", {}).items()}


def tensor_table(tensors):
    """The header's table of contents for the (name, array) pairs in
    `tensors`: one [name, little-endian dtype str, shape] each, in order."""
    return [[name, arr.dtype.newbyteorder("<").str, list(arr.shape)]
            for name, arr in tensors]


def pack_checkpoint(header, tensors, version=VERSION):
    """Bytes of a PNET1 checkpoint of the given version holding `header` (a
    JSON-able object, its tensor table included) and then the little-endian
    bytes of each (name, array) pair in `tensors`, with no check of either:
    the container layout spelled out for corrupt-file tests."""
    body = json.dumps(header, sort_keys=True).encode()
    return b"".join(
        [b"PNET1", struct.pack("<HI", version, len(body)), body]
        + [np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).tobytes()
           for _, arr in tensors])


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


def kfold_split_oracle(n, k, seed):
    """[(train, test)] of a seeded k-fold over n samples, built the long way:
    shuffle by stream (seed, 1), cut contiguous test sets (the first n % k
    one larger), then sort each test set and concatenate and sort the rest."""
    order = make_rng(seed, 1).permutation(n)
    base, extra = divmod(n, k)
    folds, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = np.sort(order[start:start + size])
        train = np.sort(np.concatenate([order[:start], order[start + size:]]))
        folds.append((train, test))
        start += size
    return folds


def loso_split_oracle(subject_idx):
    """[(train, test)] of leave-one-subject-out, one mask per subject in
    ascending order."""
    subject_idx = np.asarray(subject_idx)
    all_idx = np.arange(subject_idx.size)
    return [(all_idx[subject_idx != s], all_idx[subject_idx == s])
            for s in np.unique(subject_idx)]


def sequence_split_oracle(seq_id, k, seed):
    """[(train, test)] of a recording-level k-fold over gap-free recording
    numbers 0..seq_id.max(): the k-fold of the recording numbers, each
    fold's test recordings mapped to their frames by a mask."""
    idx = np.arange(seq_id.size)
    folds = []
    for _, groups in kfold_split_oracle(int(seq_id.max()) + 1, k, seed):
        test = np.isin(seq_id, groups)
        folds.append((idx[~test], idx[test]))
    return folds
