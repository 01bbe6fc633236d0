"""Feature extraction and the three classical comparators."""

import math

import numpy as np
import pytest
import scipy.stats

from pressnet import baselines, losses
from pressnet.baselines import (FEATURE_NAMES, MLPBaseline, TreeEnsemble,
                                TreeNode)
from pressnet.errors import ConfigError, ShapeError
from pressnet.tensor import make_rng

from util import knn_classify


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


class TestFeatures:
    def test_vector_length_and_names(self):
        assert len(FEATURE_NAMES) == 18
        frame = make_rng(0).random((32, 64))
        assert baselines.extract_features(frame).shape == (18,)

    def test_uniform_frame(self):
        # 0.5 is exact in binary, so every moment here is exact
        v = baselines.extract_features(np.full((32, 64), 0.5))
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
        v = baselines.extract_features(np.full((32, 64), 0.3))
        assert abs(v[1]) < 1e-12
        assert v[2] == 0.0 and v[3] == 0.0

    def test_empty_frame_center_of_pressure(self):
        v = baselines.extract_features(np.zeros((32, 64)))
        assert v[4] == 0.0
        assert v[5] == 15.5 and v[6] == 31.5

    def test_single_pixel(self):
        frame = np.zeros((32, 64))
        frame[4, 50] = 1.0
        v = baselines.extract_features(frame)
        assert v[4] == 1.0
        assert v[5] == pytest.approx(4.0)
        assert v[6] == pytest.approx(50.0)

    def test_active_threshold_is_strict(self):
        v = baselines.extract_features(np.full((32, 64), 0.05))
        assert v[4] == 0.0

    def test_random_frames_match_oracle(self):
        rng = make_rng(41)
        for trial in range(5):
            frame = rng.random((32, 64))
            got = baselines.extract_features(frame)
            want = feature_oracle(frame)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            baselines.extract_features(np.zeros((3, 32, 64)))

    def test_matrix_equals_per_frame(self):
        rng = make_rng(42)
        x = rng.random((4, 1, 32, 64)).astype(np.float32)
        mat = baselines.extract_feature_matrix(x)
        assert mat.shape == (4, 18)
        for i in range(4):
            np.testing.assert_array_equal(
                mat[i], baselines.extract_features(x[i, 0]))


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

    def test_batch_equals_single(self):
        rng = make_rng(46)
        train_x = rng.random((30, 3))
        train_y = rng.integers(0, 3, size=30)
        queries = rng.random((7, 3))
        batch = baselines.knn_predict(train_x, train_y, queries, k=5, chunk=2)
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


class TestTrees:
    def test_single_class(self):
        x = make_rng(48).random((20, 5))
        y = np.full(20, 3)
        ens = baselines.train_bagged_trees(x, y, n_trees=5, max_depth=3)
        pred = baselines.predict_trees(ens, make_rng(49).random((6, 5)))
        assert np.all(pred == 3)

    def test_threshold_rule_learned(self):
        rng = make_rng(50)
        x = rng.random((60, 1))
        y = (x[:, 0] > 0.5).astype(int)
        ens = baselines.train_bagged_trees(x, y, n_trees=10, max_depth=3,
                                           seed=1)
        pred = baselines.predict_trees(ens, x)
        assert np.mean(pred == y) == 1.0

    def test_xor_needs_depth(self):
        rng = make_rng(51)
        centers = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        xs, ys = [], []
        for cx, cy, lab in centers:
            xs.append(rng.normal(loc=(cx, cy), scale=0.03, size=(20, 2)))
            ys.append(np.full(20, lab))
        x = np.vstack(xs)
        y = np.concatenate(ys)
        ens = baselines.train_bagged_trees(x, y, n_trees=40, max_depth=5,
                                           seed=2)
        pred = baselines.predict_trees(ens, x)
        assert np.mean(pred == y) == 1.0

    def test_depth_zero_gives_majority_stump(self):
        x = make_rng(52).random((30, 2))
        y = np.array([0] * 20 + [1] * 10)
        ens = baselines.train_bagged_trees(x, y, n_trees=3, max_depth=0,
                                           seed=3)
        assert all(t.is_leaf for t in ens.trees)

    def test_same_seed_same_predictions(self):
        rng = make_rng(53)
        x = rng.random((40, 4))
        y = rng.integers(0, 3, size=40)
        q = rng.random((10, 4))
        a = baselines.predict_trees(
            baselines.train_bagged_trees(x, y, n_trees=8, seed=9), q)
        b = baselines.predict_trees(
            baselines.train_bagged_trees(x, y, n_trees=8, seed=9), q)
        assert a.tolist() == b.tolist()

    def test_vote_tie_prefers_lowest_label(self):
        ens = TreeEnsemble(trees=[TreeNode(label=2), TreeNode(label=0)],
                           n_classes=3)
        pred = baselines.predict_trees(ens, np.zeros((1, 4)))
        assert pred[0] == 0

    def test_majority_tie_prefers_lowest_label(self):
        assert baselines._majority(np.array([2, 2, 1, 1])) == 1

    def test_empty_training_set(self):
        with pytest.raises(ConfigError):
            baselines.train_bagged_trees(np.zeros((0, 3)), np.zeros(0, int))


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

    def test_memorizes_small_feature_set(self):
        rng = make_rng(55)
        x = rng.normal(size=(32, 18))
        y = rng.integers(0, 4, size=32)
        model = baselines.mlp_baseline(x, y, epochs=150, batch_size=32,
                                       lr=1e-3, seed=7)
        assert np.mean(model.predict(x) == y) == 1.0

    def test_gradients_match_finite_differences(self):
        rng = make_rng(56)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        model = TinyMLP(3, 2, make_rng(57))
        model.mu, model.sd = baselines.standardize_fit(x)

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

    def test_deterministic_training(self):
        rng = make_rng(58)
        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 3, size=20)
        m1 = baselines.mlp_baseline(x, y, epochs=3, seed=11)
        m2 = baselines.mlp_baseline(x, y, epochs=3, seed=11)
        for k, v in m1.params().items():
            assert v.tobytes() == m2.params()[k].tobytes()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            baselines.mlp_baseline(np.zeros(10), np.zeros(10, int))
