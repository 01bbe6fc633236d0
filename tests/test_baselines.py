"""Feature extraction and the three classical comparators."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from pressnet import baselines, losses
from pressnet.baselines import (FEATURE_BLOCK, FEATURE_NAMES, TREE_ROWS,
                                MLPBaseline, TreeEnsemble)
from pressnet.errors import ConfigError, ShapeError, UsageError
from pressnet.synthetic import synthetic_frame
from pressnet.tensor import make_rng

from util import (bagged_trees_oracle, best_split_oracle, ensemble_nodes,
                  extract_features, grads_state, held_activations,
                  knn_classify, oracle_nodes, tree_walk)


def feature_oracle(frame):
    """Independent re-derivation of the 18-entry vector."""
    f = np.asarray(frame, dtype=np.float64)
    flat = f.ravel()
    mean = flat.mean()
    std = flat.std()
    if std > 1e-12:
        skew = scipy.stats.skew(flat, bias=True)
        kurt = scipy.stats.kurtosis(flat, fisher=False, bias=True)
    else:
        skew = kurt = 0.0
    active = float(np.count_nonzero(flat > 0.05))
    total = f.sum()
    if total > 0:
        cop_r = sum(i * f[i, j] for i in range(32) for j in range(64)) / total
        cop_c = sum(j * f[i, j] for i in range(32) for j in range(64)) / total
    else:
        cop_r, cop_c = 15.5, 31.5
    row_cuts = [(0, 16), (16, 32)]
    col_cuts = [(0, 22), (22, 43), (43, 64)]
    regions = [f[r0:r1, c0:c1] for r0, r1 in row_cuts for c0, c1 in col_cuts]
    vec = [mean, std, skew, kurt, active, cop_r, cop_c]
    vec += [r.mean() for r in regions]
    vec += [r.std() for r in regions[:5]]
    return np.asarray(vec)


def features(frame):
    """The feature vector of one frame, as a stack of one."""
    return baselines.extract_feature_matrix(np.asarray(frame)[None])[0]


def feature_stack(n, seed):
    """n pressure-like float32 frames, the first four of them constant at
    0.5 and at 0.3, empty and a single pixel."""
    rng = make_rng(seed)
    x = np.stack([synthetic_frame(1 + i % 3, 1 + i % 17, rng)
                  for i in range(n)]).astype(np.float32)
    specials = [np.full((32, 64), 0.5), np.full((32, 64), 0.3),
                np.zeros((32, 64)), np.zeros((32, 64))]
    specials[3][4, 50] = 1.0
    x[:4] = specials[:n]
    return x


class TestFeatures:
    def test_vector_length_and_names(self):
        assert len(FEATURE_NAMES) == 18
        frame = make_rng(0).random((32, 64))
        assert features(frame).shape == (18,)

    def test_uniform_frame(self):
        # 0.5 is exact in binary, so every moment here is exact
        v = features(np.full((32, 64), 0.5))
        assert v[0] == pytest.approx(0.5)
        assert v[1] == 0.0
        assert v[2] == 0.0 and v[3] == 0.0     # constant-frame convention
        assert v[4] == 32 * 64
        assert v[5] == pytest.approx(15.5)
        assert v[6] == pytest.approx(31.5)
        assert np.allclose(v[7:13], 0.5)
        assert np.allclose(v[13:], 0.0)

    def test_near_constant_frame_is_stable(self):
        # 0.3 is inexact in binary: the computed std is rounding noise
        # (~5e-17) and must not be amplified into skew/kurtosis garbage
        v = features(np.full((32, 64), 0.3))
        assert abs(v[1]) < 1e-12
        assert v[2] == 0.0 and v[3] == 0.0

    def test_empty_frame_center_of_pressure(self):
        v = features(np.zeros((32, 64)))
        assert v[4] == 0.0
        assert v[5] == 15.5 and v[6] == 31.5

    def test_single_pixel(self):
        frame = np.zeros((32, 64))
        frame[4, 50] = 1.0
        v = features(frame)
        assert v[4] == 1.0
        assert v[5] == pytest.approx(4.0)
        assert v[6] == pytest.approx(50.0)

    def test_active_threshold_is_strict(self):
        v = features(np.full((32, 64), 0.05))
        assert v[4] == 0.0

    def test_random_frames_match_oracle(self):
        rng = make_rng(41)
        for trial in range(5):
            frame = rng.random((32, 64))
            got = features(frame)
            want = feature_oracle(frame)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_rejects_wrong_rank(self):
        for shape in ((32, 64), (2, 1, 1, 32, 64)):
            with pytest.raises(ShapeError):
                baselines.extract_feature_matrix(np.zeros(shape))

    def test_rejects_more_than_one_channel(self):
        # x[:, 0] used to drop the second channel and return (2, 18)
        with pytest.raises(ShapeError, match="2, 2, 32, 64"):
            baselines.extract_feature_matrix(np.zeros((2, 2, 32, 64)))

    def test_matrix_equals_per_frame(self):
        # an (N, 1, H, W) stack in one block gives each frame's own bits
        x = feature_stack(6, 42)
        mat = baselines.extract_feature_matrix(x[:, None])
        assert mat.shape == (6, 18)
        assert np.array_equal(mat, np.stack([features(f) for f in x]))

    @pytest.mark.parametrize("n", [1, FEATURE_BLOCK - 1, FEATURE_BLOCK,
                                   FEATURE_BLOCK + 1, 70])
    def test_blocks_equal_the_per_frame_oracle(self, n):
        # skewness and kurtosis take their numerators as products, not
        # powers; every other column has the per-frame bits
        x = feature_stack(n, n)
        got = baselines.extract_feature_matrix(x)
        want = np.stack([extract_features(frame) for frame in x])
        moments = [FEATURE_NAMES.index("skewness"),
                   FEATURE_NAMES.index("kurtosis")]
        rest = [c for c in range(18) if c not in moments]
        assert np.array_equal(got[:, rest], want[:, rest])
        np.testing.assert_allclose(got[:, moments], want[:, moments],
                                   rtol=1e-15, atol=0)


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = make_rng(43)
        x = rng.normal(loc=5.0, scale=3.0, size=(200, 6))
        mu, sd = baselines.standardize_fit(x)
        z = baselines.standardize_apply(x, mu, sd)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_stays_finite(self):
        x = np.ones((10, 3))
        x[:, 1] = np.arange(10)
        mu, sd = baselines.standardize_fit(x)
        z = baselines.standardize_apply(x, mu, sd)
        assert np.all(np.isfinite(z))
        assert np.all(z[:, 0] == 0.0)


def vote_oracle(train_x, train_y, q, k):
    """Literal restatement of the kNN decision rule."""
    dists = [(math.dist(row, q), i) for i, row in enumerate(train_x)]
    dists.sort()
    near = dists[:k]
    per_label = {}
    for d, i in near:
        lab = int(train_y[i])
        cnt, s = per_label.get(lab, (0, 0.0))
        per_label[lab] = (cnt + 1, s + d)
    return min(per_label.items(),
               key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[0]


def knn_one(train_x, train_y, query, k):
    return int(baselines.knn_predict(train_x, train_y, [query], k=k)[0])


class TestKnn:
    def test_nearest_single(self):
        x = np.array([[0.0], [10.0]])
        y = np.array([3, 8])
        assert knn_one(x, y, np.array([1.0]), k=1) == 3
        assert knn_one(x, y, np.array([9.0]), k=1) == 8

    def test_two_clusters(self):
        rng = make_rng(44)
        a = rng.normal(loc=0.0, scale=0.1, size=(20, 2))
        b = rng.normal(loc=5.0, scale=0.1, size=(20, 2))
        x = np.vstack([a, b])
        y = np.array([0] * 20 + [1] * 20)
        assert knn_one(x, y, [0.1, -0.1], k=10) == 0
        assert knn_one(x, y, [5.1, 4.9], k=10) == 1

    def test_count_tie_breaks_by_distance(self):
        # one vote each; label 7's neighbor is nearer
        x = np.array([[0.0], [3.0]])
        y = np.array([7, 2])
        assert knn_one(x, y, np.array([1.0]), k=2) == 7

    def test_full_tie_breaks_by_lowest_label(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([5, 1])
        assert knn_one(x, y, np.array([1.0]), k=2) == 1

    def test_matches_vote_oracle(self):
        rng = make_rng(45)
        train_x = rng.random((50, 4))
        train_y = rng.integers(0, 5, size=50)
        queries = rng.random((30, 4))
        got = baselines.knn_predict(train_x, train_y, queries, k=10)
        for i, q in enumerate(queries):
            assert got[i] == vote_oracle(train_x, train_y, q, 10)

    def test_batch_equals_single(self, monkeypatch):
        monkeypatch.setattr(baselines, "KNN_CHUNK", 2)
        rng = make_rng(46)
        train_x = rng.random((30, 3))
        train_y = rng.integers(0, 3, size=30)
        queries = rng.random((7, 3))
        batch = baselines.knn_predict(train_x, train_y, queries, k=5)
        singles = [knn_classify(train_x, train_y, q, k=5) for q in queries]
        assert batch.tolist() == singles

    def test_training_order_irrelevant(self):
        rng = make_rng(47)
        train_x = rng.random((40, 3))
        train_y = rng.integers(0, 4, size=40)
        queries = rng.random((10, 3))
        perm = rng.permutation(40)
        a = baselines.knn_predict(train_x, train_y, queries, k=7)
        b = baselines.knn_predict(train_x[perm], train_y[perm], queries, k=7)
        assert a.tolist() == b.tolist()

    def test_too_few_training_points(self):
        with pytest.raises(ConfigError):
            baselines.knn_predict(np.zeros((3, 2)), np.zeros(3, int),
                                  np.zeros((1, 2)), k=10)


def recipe(monkeypatch, n_trees, max_depth=baselines.MAX_DEPTH):
    """Grow n_trees trees of at most max_depth levels in this test."""
    monkeypatch.setattr(baselines, "N_TREES", n_trees)
    monkeypatch.setattr(baselines, "MAX_DEPTH", max_depth)


class TestTrees:
    def test_single_class(self, monkeypatch):
        recipe(monkeypatch, 5, 3)
        x = make_rng(48).random((20, 5))
        y = np.full(20, 3)
        ens = baselines.train_bagged_trees(x, y)
        pred = baselines.predict_trees(ens, make_rng(49).random((6, 5)))
        assert np.all(pred == 3)

    def test_threshold_rule_learned(self, monkeypatch):
        recipe(monkeypatch, 10, 3)
        rng = make_rng(50)
        x = rng.random((60, 1))
        y = (x[:, 0] > 0.5).astype(int)
        ens = baselines.train_bagged_trees(x, y, seed=1)
        pred = baselines.predict_trees(ens, x)
        assert np.mean(pred == y) == 1.0

    def test_xor_needs_depth(self, monkeypatch):
        recipe(monkeypatch, 40, 5)
        rng = make_rng(51)
        centers = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        xs, ys = [], []
        for cx, cy, lab in centers:
            xs.append(rng.normal(loc=(cx, cy), scale=0.03, size=(20, 2)))
            ys.append(np.full(20, lab))
        x = np.vstack(xs)
        y = np.concatenate(ys)
        ens = baselines.train_bagged_trees(x, y, seed=2)
        pred = baselines.predict_trees(ens, x)
        assert np.mean(pred == y) == 1.0

    def test_depth_zero_gives_majority_stump(self, monkeypatch):
        recipe(monkeypatch, 3, 0)
        x = make_rng(52).random((30, 2))
        y = np.array([0] * 20 + [1] * 10)
        ens = baselines.train_bagged_trees(x, y, seed=3)
        assert ens.roots.tolist() == [0, 1, 2]
        assert ens.feature.tolist() == [-1, -1, -1]

    def test_same_seed_same_predictions(self, monkeypatch):
        recipe(monkeypatch, 8)
        rng = make_rng(53)
        x = rng.random((40, 4))
        y = rng.integers(0, 3, size=40)
        q = rng.random((10, 4))
        a = baselines.predict_trees(
            baselines.train_bagged_trees(x, y, seed=9), q)
        b = baselines.predict_trees(
            baselines.train_bagged_trees(x, y, seed=9), q)
        assert a.tolist() == b.tolist()

    def test_vote_tie_prefers_lowest_label(self):
        none = np.array([-1, -1])
        ens = TreeEnsemble(feature=none, threshold=np.zeros(2), left=none,
                           right=none, label=np.array([2, 0]),
                           roots=np.array([0, 1]), n_classes=3)
        pred = baselines.predict_trees(ens, np.zeros((1, 4)))
        assert pred[0] == 0

    def test_majority_tie_prefers_lowest_label(self, monkeypatch):
        # a depth-0 tree is the majority label of its bootstrap sample;
        # at seed 0 the one tree's sample holds two of each label
        recipe(monkeypatch, 1, 0)
        y = np.array([2, 2, 1, 1])
        draw = make_rng(0, 80, 0).integers(0, 4, size=4)
        assert np.bincount(y[draw]).tolist() == [0, 2, 2]
        ens = baselines.train_bagged_trees(np.zeros((4, 2)), y, seed=0)
        assert baselines.predict_trees(ens, np.zeros((1, 2)))[0] == 1

    def test_empty_training_set(self):
        with pytest.raises(ConfigError):
            baselines.train_bagged_trees(np.zeros((0, 3)), np.zeros(0, int))

    @pytest.mark.parametrize("n, f, k, levels, n_trees, max_depth", [
        (110, 18, 3, None, 20, 12),  # 9 trees a group, the last one 2
        (TREE_ROWS + 76, 5, 3, None, 2, 12),  # one tree a group
        (60, 6, 3, 2, 12, 12),
        (60, 6, 17, 5, 12, 12),
        (110, 18, 3, None, 5, 0),
        (110, 18, 3, None, 5, 1),
    ], ids=["grouped", "one-a-group", "levels-2", "levels-5", "depth-0",
            "depth-1"])
    def test_equal_to_the_depth_first_oracle(self, n, f, k, levels, n_trees,
                                             max_depth, monkeypatch):
        recipe(monkeypatch, n_trees, max_depth)
        x, y = split_case(n, f, k, n + f, levels)
        ens = baselines.train_bagged_trees(x, y, seed=4)
        trees = bagged_trees_oracle(x, y, n_trees, max_depth, seed=4)
        assert ens.roots.size == n_trees
        for t, tree in enumerate(trees):
            assert ensemble_nodes(ens, t) == oracle_nodes(tree)
        if max_depth > 1:  # the trees do grow
            assert sum(map(len, map(oracle_nodes, trees))) > 8 * n_trees

    def test_votes_equal_a_walk_per_query(self, monkeypatch):
        recipe(monkeypatch, 15)
        x, y = split_case(90, 6, 4, 70)
        q, _ = split_case(40, 6, 4, 71)
        q[:5] = x[:5]  # queries right at training values
        ens = baselines.train_bagged_trees(x, y, seed=2)
        trees = bagged_trees_oracle(x, y, 15, 12, seed=2)
        want = [np.bincount([tree_walk(t, row) for t in trees]).argmax()
                for row in q]
        assert baselines.predict_trees(ens, q).tolist() == want


def split_case(n, f, k, seed, levels=None):
    """Random (x, y): float features, or integers in [0, levels) when levels
    is given, so that many values tie."""
    rng = make_rng(seed)
    if levels is None:
        x = rng.normal(size=(n, f))
    else:
        x = rng.integers(0, levels, size=(n, f)).astype(np.float64)
    return x, rng.integers(0, k, size=n)


def root_splits(cases, k):
    """The (feature, threshold) the level pass picks for each (x, y) of
    cases, grown as the roots of one group; None where it does not split."""
    x = np.concatenate([c[0] for c in cases])
    y = np.concatenate([c[1] for c in cases])
    root = np.repeat(np.arange(len(cases)), [c[1].size for c in cases])
    feature, threshold, *_ = baselines._grow_group(x, y, root, len(cases), k,
                                                   max_depth=1)
    return [None if feature[t] < 0 else (int(feature[t]), float(threshold[t]))
            for t in range(len(cases))]


def oracle_split(x, y, k):
    split = best_split_oracle(x, y, k)
    return None if split is None else split[:2]


class TestBestSplit:
    """The level pass's cut against the per-feature loop, compared with ==."""

    @pytest.mark.parametrize("k", [2, 3, 17])
    @pytest.mark.parametrize("levels", [None, 2, 5])
    def test_matches_oracle(self, k, levels):
        cases = [split_case(40, 7, k, seed, levels) for seed in range(6)]
        want = [oracle_split(x, y, k) for x, y in cases]
        assert None not in want
        assert [root_splits([c], k)[0] for c in cases] == want
        assert root_splits(cases, k) == want  # six nodes in one pass

    def test_constant_columns_are_skipped(self):
        x, y = split_case(30, 6, 3, 7, levels=4)
        x[:, [0, 2, 5]] = 1.5
        got = root_splits([(x, y)], 3)[0]
        assert got == oracle_split(x, y, 3)
        assert got[0] in (1, 3, 4)

    def test_all_columns_constant(self):
        x = np.full((12, 4), -0.25)
        y = np.arange(12) % 3
        assert root_splits([(x, y)], 3) == [None]
        assert best_split_oracle(x, y, 3) is None

    def test_two_rows(self):
        x = np.array([[0.5, 3.0, 1.0], [0.5, -1.0, 2.0]])
        y = np.array([1, 0])
        assert root_splits([(x, y)], 2) == [oracle_split(x, y, 2)] \
            == [(1, 1.0)]

    def test_equal_scores_take_the_lowest_feature_then_cut(self):
        # column 2 is column 1 reversed, so both score alike; under the
        # second labelling each column has two best cuts, after 0 and 2
        col = np.arange(4.0)
        x = np.stack([np.zeros(4), col, col[::-1]], axis=1)
        for labels, threshold in (([0, 0, 1, 1], 1.5), ([0, 1, 0, 1], 0.5)):
            y = np.array(labels)
            assert root_splits([(x, y)], 2) == [oracle_split(x, y, 2)] \
                == [(1, threshold)]

    def test_trees_equal_oracle_grown_trees(self, monkeypatch):
        # a bench-shaped fold: about 110 standardized rows of 18 features
        # and 3 coarse classes
        recipe(monkeypatch, 12)
        x, y = split_case(110, 18, 3, 60)
        x[:, 4] = np.round(x[:, 4] * 3)  # a count-like column with ties
        fast = baselines.train_bagged_trees(x, y, seed=1)
        slow = bagged_trees_oracle(x, y, n_trees=12, seed=1)
        assert ([ensemble_nodes(fast, t) for t in range(12)]
                == [oracle_nodes(t) for t in slow])
        assert fast.feature.size > 12 * 9

    def test_temporary_memory_is_a_few_copies_of_the_counts(self,
                                                             monkeypatch):
        # n*F*K float64 class counts at a real-corpus size are 8.64 MB; a
        # tree's set-up and first level pass measured 33.9 MB (3.92 times
        # that)
        recipe(monkeypatch, 1, 1)
        n, f, k = 20000, 18, 3
        x, y = split_case(n, f, k, 61)
        tracemalloc.start()
        try:
            baselines.train_bagged_trees(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * f * k * 8


class TinyMLP(MLPBaseline):
    WIDTHS = (5, 4)
    DTYPE = np.float64


class TestMlp:
    def test_architecture_widths(self):
        assert MLPBaseline.WIDTHS == (128, 256, 256, 128, 64)
        model = MLPBaseline(18, 17, make_rng(54))
        shapes = [model.params()[f"d{i}.w"].shape for i in range(6)]
        assert shapes == [(18, 128), (128, 256), (256, 256), (256, 128),
                          (128, 64), (64, 17)]

    def test_stage_names_and_param_order(self):
        model = MLPBaseline(18, 17, make_rng(54))
        assert [n for n, _ in model.stages] == [
            "d0", "act0", "d1", "act1", "d2", "act2", "d3", "act3", "d4",
            "act4", "d5"]
        assert list(model.params()) == [f"d{i}.{k}" for i in range(6)
                                        for k in ("w", "b")]

    def test_fitting_recipe(self):
        assert (MLPBaseline.EPOCHS, MLPBaseline.BATCH_SIZE,
                MLPBaseline.LR) == (40, 64, 1e-3)

    def test_memorizes_small_feature_set(self, monkeypatch):
        monkeypatch.setattr(MLPBaseline, "EPOCHS", 150)
        monkeypatch.setattr(MLPBaseline, "BATCH_SIZE", 32)
        rng = make_rng(55)
        x = rng.normal(size=(32, 18))
        y = rng.integers(0, 4, size=32)
        model = baselines.mlp_baseline(x, y, n_classes=4, seed=7)
        assert np.mean(model.predict(x) == y) == 1.0

    def test_gradients_match_finite_differences(self):
        rng = make_rng(56)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        model = TinyMLP(3, 2, make_rng(57))

        probs = model.forward(x, train=True)
        grads = model.backward(probs, y)

        def loss():
            return losses.cross_entropy(model.forward(x, train=True), y)

        h = 1e-6
        for name, w in model.params().items():
            flat = w.reshape(-1)
            for j in range(0, flat.size, max(1, flat.size // 3)):
                orig = flat[j]
                flat[j] = orig + h
                up = loss()
                flat[j] = orig - h
                down = loss()
                flat[j] = orig
                fd = (up - down) / (2 * h)
                got = grads[name].reshape(-1)[j]
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-8), name

    def test_backward_consumes_every_cache_and_runs_once(self):
        rng = make_rng(59)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        model = TinyMLP(3, 2, make_rng(60))
        probs = model.forward(x, train=True)
        model.backward(probs, y)
        for name, layer in model.stages:
            assert held_activations(layer) == [], name
        with pytest.raises(UsageError):
            model.backward(probs, y)

    def test_eval_forward_clears_every_cache(self):
        # an eval forward (predict) used to leave every dense layer's train
        # input in place, for a later backward to take
        rng = make_rng(61)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        model = TinyMLP(3, 2, make_rng(62))
        model.backward(model.forward(x, train=True), y)  # fills the grads
        probs = model.forward(x, train=True)
        model.predict(x)
        for name, layer in model.stages:
            assert held_activations(layer) == [], name
        before = grads_state(model.stages)
        with pytest.raises(UsageError):
            model.backward(probs, y)
        assert grads_state(model.stages) == before

    def test_deterministic_training(self, monkeypatch):
        monkeypatch.setattr(MLPBaseline, "EPOCHS", 3)
        rng = make_rng(58)
        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 3, size=20)
        m1 = baselines.mlp_baseline(x, y, n_classes=3, seed=11)
        m2 = baselines.mlp_baseline(x, y, n_classes=3, seed=11)
        for k, v in m1.params().items():
            assert v.tobytes() == m2.params()[k].tobytes()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            baselines.mlp_baseline(np.zeros(10), np.zeros(10, int), 2)
