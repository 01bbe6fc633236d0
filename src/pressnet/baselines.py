"""Classical comparators: statistical features + kNN, bagged trees, MLP.

The 18-entry feature vector (FEATURE_NAMES) is computed from a single
normalized 32x64 frame:

    0  global mean
    1  global std (population)
    2  skewness (0 for a constant frame)
    3  kurtosis, non-excess (0 for a constant frame)
    4  active-cell count (value > 0.05)
    5  center-of-pressure row (grid center 15.5 when the frame is empty)
    6  center-of-pressure col (grid center 31.5 when empty)
    7-12   mean of each region in a fixed 2x3 partition (row-major order;
           columns split 22/21/21)
    13-17  std of the first five of those regions

extract_feature_matrix takes each statistic as one reduction over a block
of FEATURE_BLOCK frames, so its float64 temporaries stay under 3 MB on any
corpus. The skewness and kurtosis numerators are products of the centred
values, not powers; every other feature has the bits a frame-at-a-time
computation gives it.

The bagged trees grow greedy Gini splits breadth-first, as many trees at a
time as fit in TREE_ROWS bootstrap rows (one tree when a tree alone has
more). One level pass scores every cut of every feature of every open node
of those trees: each feature's rows are sorted by (node, value) at once,
the class counts left of each cut are cumulative sums restarted at each
node, and np.minimum.reduceat takes each node's lowest score. Among equal
scores the lowest feature wins, then the lowest cut; a node's label is its
lowest most frequent class. The trees are stored as flat node arrays
(TreeEnsemble), and predict_trees walks every tree for every query at once,
one level a step. A tree of n = 20000 rows, F = 18, K = 3 peaks at 34 MB in
its set-up and first level pass, about four n*F*K float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio, losses
from .errors import ConfigError, ShapeError, UsageError
from .layers import Dense, LeakyReLU, backward_stages, collect, forward_stages
from .optim import AdamState, adam_step
from .tensor import make_rng

FEATURE_NAMES = (
    "mean", "std", "skewness", "kurtosis", "active_count",
    "cop_row", "cop_col",
    "region_mean_0", "region_mean_1", "region_mean_2",
    "region_mean_3", "region_mean_4", "region_mean_5",
    "region_std_0", "region_std_1", "region_std_2",
    "region_std_3", "region_std_4",
)
ACTIVE_THRESHOLD = 0.05
KNN_K = 10  # neighbours of the kNN comparator in METHODS
KNN_CHUNK = 512  # queries per distance matrix in knn_predict
FEATURE_BLOCK = 32  # frames per block in extract_feature_matrix
TREE_ROWS = 1024  # bootstrap rows of the trees grown in one level pass
N_TREES = 50  # trees in the bagged ensemble
MAX_DEPTH = 12  # levels below a tree's root


def _block_features(frames: np.ndarray) -> np.ndarray:
    """The (n, 18) feature matrix of an (n, H, W) float64 block of frames."""
    n, h, w = frames.shape
    flat = frames.reshape(n, h * w)
    mean = flat.mean(axis=1)
    std = flat.std(axis=1)
    c = flat - mean[:, None]
    c2 = c * c
    varied = std > 1e-12  # rounding noise on a constant frame is ~1e-17
    s = np.where(varied, std, 1.0)
    skew = np.where(varied, (c2 * c).mean(axis=1) / s ** 3, 0.0)
    kurt = np.where(varied, (c2 * c2).mean(axis=1) / s ** 4, 0.0)
    active = (flat > ACTIVE_THRESHOLD).sum(axis=1).astype(np.float64)
    total = flat.sum(axis=1)
    pressed = total > 0
    t = np.where(pressed, total, 1.0)
    rows = np.repeat(np.arange(h, dtype=np.float64), w)
    cols = np.tile(np.arange(w, dtype=np.float64), h)
    cop_r = np.where(pressed, (flat * rows).sum(axis=1) / t, (h - 1) / 2.0)
    cop_c = np.where(pressed, (flat * cols).sum(axis=1) / t, (w - 1) / 2.0)
    regions = [part for half in np.array_split(frames, 2, axis=1)
               for part in np.array_split(half, 3, axis=2)]
    feats = [mean, std, skew, kurt, active, cop_r, cop_c]
    feats += [r.mean(axis=(1, 2)) for r in regions]
    feats += [r.std(axis=(1, 2)) for r in regions[:5]]
    return np.stack(feats, axis=1)


def extract_feature_matrix(x: np.ndarray) -> np.ndarray:
    """Feature vectors for a stack of frames: (N,H,W) or (N,1,H,W)."""
    x = np.asarray(x)
    if x.ndim == 4 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 3:
        raise ShapeError(f"expected (N,H,W) or (N,1,H,W) frames, "
                         f"got shape {x.shape}")
    out = np.empty((x.shape[0], len(FEATURE_NAMES)))
    for s in range(0, x.shape[0], FEATURE_BLOCK):
        out[s:s + FEATURE_BLOCK] = _block_features(
            x[s:s + FEATURE_BLOCK].astype(np.float64))
    return out


def standardize_fit(train: np.ndarray):
    """Per-feature mean/std from the training fold (std floor 1e-12)."""
    mu = train.mean(axis=0)
    sd = train.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return mu, sd


def standardize_apply(x: np.ndarray, mu, sd) -> np.ndarray:
    return (x - mu) / sd


# ---------------------------------------------------------------------------
# k-nearest neighbors


def _vote(labels: np.ndarray, dists: np.ndarray) -> int:
    candidates = {}
    for lab, dist in zip(labels.tolist(), dists.tolist()):
        cnt, s = candidates.get(lab, (0, 0.0))
        candidates[lab] = (cnt + 1, s + dist)
    # max count, then min summed distance, then lowest label
    best = min(candidates.items(),
               key=lambda item: (-item[1][0], item[1][1], item[0]))
    return int(best[0])


def _check_neighbours(n: int, k: int) -> None:
    if n < k:
        raise ConfigError(f"need at least k={k} training points, got {n}")


def knn_predict(train_x, train_y, queries, k: int = KNN_K) -> np.ndarray:
    """Majority vote over the k Euclidean-nearest training points, for each
    query, with distances for KNN_CHUNK queries at a time.

    Vote ties break by smallest summed distance among the tied labels'
    neighbors, then by lowest label id.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y)
    queries = np.asarray(queries, dtype=np.float64)
    _check_neighbours(train_x.shape[0], k)
    out = np.empty(queries.shape[0], dtype=np.int64)
    for s in range(0, queries.shape[0], KNN_CHUNK):
        q = queries[s:s + KNN_CHUNK]
        d = np.sqrt(((q[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2))
        near = np.argsort(d, axis=1, kind="stable")[:, :k]
        for i in range(q.shape[0]):
            out[s + i] = _vote(train_y[near[i]], d[i, near[i]])
    return out


# ---------------------------------------------------------------------------
# bagged decision trees


@dataclass
class TreeEnsemble:
    """Every tree as flat node arrays. Node i sends a query to left[i] when
    its feature[i] value is <= threshold[i] and to right[i] otherwise, or
    is a leaf when feature[i] is -1 (left and right are -1 there); label[i]
    is the lowest most frequent class of its training rows. Tree t starts
    at node roots[t]."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray
    n_classes: int


def _best_splits(xs, ys, rank, rows, node, counts):
    """Best Gini cut of every node of one level, as (feature, threshold)
    arrays; feature is -1 for a node where no value changes.

    xs and ys are each feature's values and classes in the group's sorted
    order, (F, R), and rank[f, r] is row r's place in that order. rows are
    the level's rows, node[i] the node of rows[i], and counts the nodes'
    (nodes, K) class counts; every node has two or more rows.
    """
    r = xs.shape[1]
    size = counts.sum(axis=1)
    start = np.cumsum(size) - size
    # sort by (node, value): a key is unique, since rank is a permutation
    order = rank[:, rows]
    order += node * r
    order.sort(axis=1)
    order %= r
    order += np.arange(0, xs.size, r)[:, None]  # each place's flat index
    xv = xs.take(order)
    cut = np.zeros(order.shape, dtype=bool)  # where the value changes
    np.greater(xv[:, 1:], xv[:, :-1], out=cut[:, :-1])
    del xv
    cut[:, start + size - 1] = False  # after a node's last row
    yv = ys.take(order)
    at = np.repeat(np.arange(size.size), size)  # node of each sorted place
    nl = np.arange(at.size) - start[at] + 1.0  # rows left of the cut after it
    n = size[at].astype(np.float64)
    nr = n - nl
    # the sums of squared class counts left and right of each cut: exact
    # integers, so each score has the bits of the one-node formula
    gl = np.zeros(order.shape)
    gr = np.zeros(order.shape)
    for k in range(counts.shape[1]):
        left = (yv == k).astype(np.int64)
        left[:, start[1:]] -= counts[:-1, k]  # restart the sum at each node
        np.cumsum(left, axis=1, out=left)
        right = counts[at, k] - left
        left *= left
        gl += left
        right *= right
        gr += right
    del yv, left, right
    with np.errstate(divide="ignore", invalid="ignore"):  # nr is 0 at a
        gl /= nl ** 2                                     # node's last row
        gr /= nr ** 2
    np.subtract(1.0, gl, out=gl)
    np.subtract(1.0, gr, out=gr)
    gl *= nl
    gr *= nr
    score = gl
    score += gr
    score /= n
    score[~cut] = np.inf
    best = np.minimum.reduceat(score, start, axis=1)
    f = best.argmin(axis=0)  # first min -> lowest feature
    low = best[f, np.arange(size.size)]
    place = np.arange(at.size)
    hit = score[f[at], place] == low[at]
    j = np.minimum.reduceat(np.where(hit, place, at.size), start)
    found = low < np.inf
    thr = (xs.take(order[f, j]) + xs.take(order[f, j + 1])) / 2.0
    return np.where(found, f, -1), np.where(found, thr, 0.0)


def _grow_group(x, y, root, n_roots, n_classes, max_depth):
    """Grow n_roots trees breadth-first, row i of (x, y) starting in tree
    root[i]: the TreeEnsemble node arrays (feature, threshold, left, right,
    label) of the group, tree t's root being node t."""
    order = np.argsort(x.T, axis=1, kind="stable")
    xs = np.take_along_axis(x.T, order, axis=1)
    ys = y[order]
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(x.shape[0]), axis=1)
    del order
    rows, node, width, base = np.arange(x.shape[0]), root, n_roots, 0
    levels = []
    for depth in range(max_depth + 1):
        counts = np.bincount(node * n_classes + y[rows],
                             minlength=width * n_classes
                             ).reshape(width, n_classes)
        label = counts.argmax(axis=1)  # first max -> lowest label on ties
        feature = np.full(width, -1)
        threshold = np.zeros(width)
        if depth < max_depth:
            mixed = counts[np.arange(width), label] < counts.sum(axis=1)
            if mixed.any():
                keep = mixed[node]
                rows, node = rows[keep], (np.cumsum(mixed) - 1)[node[keep]]
                feature[mixed], threshold[mixed] = _best_splits(
                    xs, ys, rank, rows, node, counts[mixed])
                node = np.flatnonzero(mixed)[node]
        split = feature >= 0
        child = base + width + 2 * (np.cumsum(split) - 1)
        levels.append((feature, threshold, np.where(split, child, -1),
                       np.where(split, child + 1, -1), label))
        if not split.any():
            break
        keep = split[node]
        rows, node = rows[keep], node[keep]
        go_left = x[rows, feature[node]] <= threshold[node]
        node = child[node] - base - width + ~go_left
        base, width = base + width, 2 * int(split.sum())
    return [np.concatenate(a) for a in zip(*levels)]


def train_bagged_trees(x: np.ndarray, y: np.ndarray,
                       seed: int = 0) -> TreeEnsemble:
    """N_TREES bootstrap-resampled Gini trees of at most MAX_DEPTH levels;
    prediction is a majority vote."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ConfigError("empty training set")
    n_classes = int(y.max()) + 1
    per_group = max(1, TREE_ROWS // n)
    groups, roots, base = [], [], 0
    for t0 in range(0, N_TREES, per_group):
        trees = range(t0, min(t0 + per_group, N_TREES))
        idx = np.concatenate([make_rng(seed, 80, t).integers(0, n, size=n)
                              for t in trees])
        feature, threshold, left, right, label = _grow_group(
            x[idx], y[idx], np.repeat(np.arange(len(trees)), n), len(trees),
            n_classes, MAX_DEPTH)
        shift = np.where(left >= 0, base, 0)
        groups.append((feature, threshold, left + shift, right + shift,
                       label))
        roots.append(base + np.arange(len(trees)))
        base += feature.size
    return TreeEnsemble(*(np.concatenate(a) for a in zip(*groups)),
                        roots=np.concatenate(roots), n_classes=n_classes)


def predict_trees(ensemble: TreeEnsemble, queries: np.ndarray) -> np.ndarray:
    """Majority vote of the trees for each query, ties to the lowest label.
    Every tree walks every query at once, one level a step."""
    e = ensemble
    queries = np.asarray(queries, dtype=np.float64)
    q = np.arange(queries.shape[0])[:, None]
    node = np.broadcast_to(e.roots, (q.size, e.roots.size))
    inner = e.feature[node] >= 0
    while inner.any():
        go_left = queries[q, e.feature[node]] <= e.threshold[node]
        node = np.where(inner, np.where(go_left, e.left[node], e.right[node]),
                        node)
        inner = e.feature[node] >= 0
    votes = np.bincount((q * e.n_classes + e.label[node]).ravel(),
                        minlength=q.size * e.n_classes)
    return votes.reshape(q.size, e.n_classes).argmax(axis=1)  # first max


# ---------------------------------------------------------------------------
# MLP baseline


class MLPBaseline:
    """Five hidden dense layers (128/256/256/128/64), leaky activations.

    It takes features already standardized with the training fold's
    statistics, as run_baselines passes them. The layers are one ordered
    list of (name, layer) stages, d0 act0 d1 act1 ... d4 act4 d5, run by
    the same dense/activation/optimizer kernels as the convolutional model.
    """

    WIDTHS = (128, 256, 256, 128, 64)
    DTYPE = np.float32
    # mlp_baseline's fitting recipe: Adam at LR for EPOCHS epochs of
    # BATCH_SIZE-row minibatches
    EPOCHS = 40
    BATCH_SIZE = 64
    LR = 1e-3

    def __init__(self, in_features: int, n_classes: int, rng):
        dtype = self.DTYPE
        self.stages = []
        prev = in_features
        for i, w in enumerate(self.WIDTHS):
            self.stages += [(f"d{i}", Dense(prev, w, rng, dtype)),
                            (f"act{i}", LeakyReLU())]
            prev = w
        self.stages.append((f"d{len(self.WIDTHS)}",
                            Dense(prev, n_classes, rng, dtype)))
        self.n_classes = n_classes

    def params(self) -> dict:
        return collect(self.stages, "params")

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        h = np.asarray(x, dtype=self.DTYPE)
        return losses.softmax(forward_stages(self.stages, h, train))

    def backward(self, probs: np.ndarray, labels: np.ndarray) -> dict:
        g = losses.cross_entropy_grad_logits(probs, labels).astype(self.DTYPE)
        backward_stages(self.stages, g)
        return collect(self.stages, "grads")

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).argmax(axis=1)


def mlp_baseline(train_x, train_y, n_classes: int,
                 seed: int = 0) -> MLPBaseline:
    """Train the MLP comparator on standardized feature vectors, by
    MLPBaseline's EPOCHS, BATCH_SIZE and LR; returns the model."""
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    if train_x.ndim != 2 or train_x.shape[0] != train_y.shape[0]:
        raise ConfigError("features must be (N,D) with matching labels")
    model = MLPBaseline(train_x.shape[1], n_classes, make_rng(seed, 85))
    state = AdamState(model.params())
    n, batch = train_x.shape[0], model.BATCH_SIZE
    for epoch in range(model.EPOCHS):
        order = make_rng(seed, 86, epoch).permutation(n)
        for s in range(0, n, batch):
            idx = order[s:s + batch]
            probs = model.forward(train_x[idx], train=True)
            grads = model.backward(probs, train_y[idx])
            adam_step(model.params(), grads, state, model.LR)
    return model


# ---------------------------------------------------------------------------
# comparison runs


METHODS = {
    "knn": lambda tr, tr_y, te, seed: knn_predict(tr, tr_y, te, k=KNN_K),
    "trees": lambda tr, tr_y, te, seed: predict_trees(
        train_bagged_trees(tr, tr_y, seed=seed), te),
    "mlp": lambda tr, tr_y, te, seed: mlp_baseline(
        tr, tr_y, n_classes=len(dataio.CATEGORIES), seed=seed).predict(te),
}


def check_methods(methods) -> None:
    """UsageError naming the first entry of methods that is not in METHODS."""
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown baseline '{method}' "
                             f"(choose from {', '.join(METHODS)})")


def check_folds(methods, folds) -> None:
    """ConfigError when the smallest training fold of folds is too small
    for a method in methods: kNN needs KNN_K training points."""
    if "knn" in methods:
        _check_neighbours(min(train.size for train, _ in folds), KNN_K)


def run_baselines(x, coarse_idx, folds, methods, seed: int = 0) -> dict:
    """Coarse-posture accuracy (percent) of each method on each fold.

    Features are standardized with each training fold's statistics. Returns
    {method: {"accuracy_per_fold": [...], "accuracy_mean": ...}}; methods
    must name entries of METHODS (see check_methods).
    """
    feats = extract_feature_matrix(x)
    accs = {method: [] for method in methods}
    for train_idx, test_idx in folds:
        mu, sd = standardize_fit(feats[train_idx])
        tr = standardize_apply(feats[train_idx], mu, sd)
        te = standardize_apply(feats[test_idx], mu, sd)
        for method, fold_accs in accs.items():
            pred = METHODS[method](tr, coarse_idx[train_idx], te, seed)
            fold_accs.append(float((pred == coarse_idx[test_idx]).mean()) * 100.0)
    return {method: {"accuracy_per_fold": a, "accuracy_mean": float(np.mean(a))}
            for method, a in accs.items()}
