"""Classical comparators: statistical features + kNN, bagged trees, MLP.

The 18-entry feature vector (FEATURE_NAMES, version 1) is computed from a
single normalized 32x64 frame:

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

The ordering is frozen: downstream results are only comparable for equal
FEATURE_VERSION.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio, losses
from .errors import ConfigError, ShapeError, UsageError
from .layers import Dense, LeakyReLU, collect
from .optim import AdamState, adam_step
from .tensor import make_rng

FEATURE_VERSION = 1
FEATURE_NAMES = (
    "mean", "std", "skewness", "kurtosis", "active_count",
    "cop_row", "cop_col",
    "region_mean_0", "region_mean_1", "region_mean_2",
    "region_mean_3", "region_mean_4", "region_mean_5",
    "region_std_0", "region_std_1", "region_std_2",
    "region_std_3", "region_std_4",
)
ACTIVE_THRESHOLD = 0.05


def _regions(frame: np.ndarray):
    """Fixed 2x3 partition of the mat, row-major region order."""
    row_halves = np.array_split(frame, 2, axis=0)
    out = []
    for half in row_halves:
        out.extend(np.array_split(half, 3, axis=1))
    return out


def extract_features(frame: np.ndarray) -> np.ndarray:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ShapeError(f"expected a 2-D frame, got shape {frame.shape}")
    h, w = frame.shape
    mean = frame.mean()
    std = frame.std()
    centered = frame - mean
    if std > 1e-12:  # rounding noise on a constant frame is ~1e-17
        skew = float((centered ** 3).mean() / std ** 3)
        kurt = float((centered ** 4).mean() / std ** 4)
    else:
        skew = 0.0
        kurt = 0.0
    active = float((frame > ACTIVE_THRESHOLD).sum())
    total = frame.sum()
    if total > 0:
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        cop_r = float((rows * frame).sum() / total)
        cop_c = float((cols * frame).sum() / total)
    else:
        cop_r = (h - 1) / 2.0
        cop_c = (w - 1) / 2.0
    regions = _regions(frame)
    feats = [mean, std, skew, kurt, active, cop_r, cop_c]
    feats += [r.mean() for r in regions]
    feats += [r.std() for r in regions[:5]]
    return np.asarray(feats, dtype=np.float64)


def extract_feature_matrix(x: np.ndarray) -> np.ndarray:
    """Feature vectors for a stack of frames: (N,H,W) or (N,1,H,W)."""
    x = np.asarray(x)
    if x.ndim == 4:
        x = x[:, 0]
    return np.stack([extract_features(f) for f in x])


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


def knn_predict(train_x, train_y, queries, k: int = 10,
                chunk: int = 512) -> np.ndarray:
    """Majority vote over the k Euclidean-nearest training points, for each
    query.

    Vote ties break by smallest summed distance among the tied labels'
    neighbors, then by lowest label id.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y)
    queries = np.asarray(queries, dtype=np.float64)
    if train_x.shape[0] < k:
        raise ConfigError(f"need at least k={k} training points, "
                          f"got {train_x.shape[0]}")
    out = np.empty(queries.shape[0], dtype=np.int64)
    for s in range(0, queries.shape[0], chunk):
        q = queries[s:s + chunk]
        d = np.sqrt(((q[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2))
        near = np.argsort(d, axis=1, kind="stable")[:, :k]
        for i in range(q.shape[0]):
            out[s + i] = _vote(train_y[near[i]], d[i, near[i]])
    return out


# ---------------------------------------------------------------------------
# bagged decision trees


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: int = -1

    @property
    def is_leaf(self):
        return self.feature < 0


@dataclass
class TreeEnsemble:
    trees: list
    n_classes: int


def _majority(y: np.ndarray) -> int:
    vals, counts = np.unique(y, return_counts=True)
    return int(vals[np.argmax(counts)])  # argmax -> first max -> lowest label


def _best_split(x: np.ndarray, y: np.ndarray, n_classes: int):
    """Greedy Gini split; returns (feature, threshold, score) or None."""
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


def _grow(x: np.ndarray, y: np.ndarray, n_classes: int, depth: int,
          max_depth: int) -> TreeNode:
    if depth >= max_depth or np.unique(y).size == 1 or y.size < 2:
        return TreeNode(label=_majority(y))
    split = _best_split(x, y, n_classes)
    if split is None:
        return TreeNode(label=_majority(y))
    f, thr, _ = split
    mask = x[:, f] <= thr
    return TreeNode(feature=f, threshold=thr,
                    left=_grow(x[mask], y[mask], n_classes, depth + 1, max_depth),
                    right=_grow(x[~mask], y[~mask], n_classes, depth + 1,
                                max_depth),
                    label=_majority(y))


def train_bagged_trees(x: np.ndarray, y: np.ndarray, n_trees: int = 50,
                       max_depth: int = 12, seed: int = 0) -> TreeEnsemble:
    """Bootstrap-resampled Gini trees; prediction is a majority vote."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ConfigError("empty training set")
    n_classes = int(y.max()) + 1
    trees = []
    for t in range(n_trees):
        rng = make_rng(seed, 80, t)
        idx = rng.integers(0, x.shape[0], size=x.shape[0])
        trees.append(_grow(x[idx], y[idx], n_classes, 0, max_depth))
    return TreeEnsemble(trees=trees, n_classes=n_classes)


def _tree_predict_one(node: TreeNode, q: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if q[node.feature] <= node.threshold else node.right
    return node.label


def predict_trees(ensemble: TreeEnsemble, queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    votes = np.zeros((queries.shape[0], ensemble.n_classes), dtype=np.int64)
    for tree in ensemble.trees:
        for i in range(queries.shape[0]):
            votes[i, _tree_predict_one(tree, queries[i])] += 1
    return votes.argmax(axis=1)  # first max -> lowest label on ties


# ---------------------------------------------------------------------------
# MLP baseline


class MLPBaseline:
    """Five hidden dense layers (128/256/256/128/64), leaky activations.

    Features are standardized with training-fold statistics before the
    first layer. The layers are one ordered list of (name, layer) stages,
    d0 act0 d1 act1 ... d4 act4 d5, run by the same dense/activation/
    optimizer kernels as the convolutional model.
    """

    WIDTHS = (128, 256, 256, 128, 64)
    SLOPE = 0.2
    DTYPE = np.float32

    def __init__(self, in_features: int, n_classes: int, rng):
        slope, dtype = self.SLOPE, self.DTYPE
        self.stages = []
        prev = in_features
        for i, w in enumerate(self.WIDTHS):
            self.stages += [(f"d{i}", Dense(prev, w, rng, slope, dtype)),
                            (f"act{i}", LeakyReLU(slope))]
            prev = w
        self.stages.append((f"d{len(self.WIDTHS)}",
                            Dense(prev, n_classes, rng, slope, dtype)))
        self.n_classes = n_classes
        self.mu = np.zeros(in_features)
        self.sd = np.ones(in_features)

    def params(self) -> dict:
        return collect(self.stages, "params")

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        h = standardize_apply(np.asarray(x), self.mu, self.sd).astype(self.DTYPE)
        for _, layer in self.stages:
            h = layer.forward(h, train)
        return losses.softmax(h)

    def backward(self, probs: np.ndarray, labels: np.ndarray) -> dict:
        g = losses.cross_entropy_grad_logits(probs, labels).astype(self.DTYPE)
        for _, layer in reversed(self.stages):
            g = layer.backward(g)
        return collect(self.stages, "grads")

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).argmax(axis=1)


def mlp_baseline(train_x, train_y, n_classes: int | None = None,
                 epochs: int = 40, batch_size: int = 64, lr: float = 1e-3,
                 seed: int = 0) -> MLPBaseline:
    """Train the MLP comparator on feature vectors; returns the model."""
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    if train_x.ndim != 2 or train_x.shape[0] != train_y.shape[0]:
        raise ConfigError("features must be (N,D) with matching labels")
    if n_classes is None:
        n_classes = int(train_y.max()) + 1
    model = MLPBaseline(train_x.shape[1], n_classes, make_rng(seed, 85))
    model.mu, model.sd = standardize_fit(train_x)
    state = AdamState(model.params())
    n = train_x.shape[0]
    for epoch in range(epochs):
        order = make_rng(seed, 86, epoch).permutation(n)
        for s in range(0, n, batch_size):
            idx = order[s:s + batch_size]
            probs = model.forward(train_x[idx], train=True)
            grads = model.backward(probs, train_y[idx])
            adam_step(model.params(), grads, state, lr)
    return model


# ---------------------------------------------------------------------------
# comparison runs


METHODS = {
    "knn": lambda tr, tr_y, te, seed: knn_predict(tr, tr_y, te, k=10),
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
