"""Splits, metrics, Welch test, training loop, and experiment artifacts."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from pressnet import harness, synthetic
from pressnet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from pressnet.errors import (ConfigError, NumericFault, TrainingFault,
                             UsageError)
from pressnet.harness import TrainConfig
from pressnet.model import ModelConfig, PostureNet
from pressnet.tensor import make_rng

from util import (bagged_trees_oracle, collapse_confusion, extract_features,
                  kfold_split_oracle, loso_split_oracle, oracle_nodes,
                  sequence_split_oracle, small_net, SMALL_NET,
                  synthetic_batch, tree_walk)

CFG = ModelConfig(num_subjects=2, num_postures=3)


class TestKFold:
    def test_100_by_10(self):
        plan = harness.kfold_split(100, k=10, seed=0)
        assert len(plan) == 10
        assert all(test.size == 10 for _, test in plan.folds)

    def test_partition_properties(self):
        plan = harness.kfold_split(57, k=10, seed=3)
        tests = [set(test.tolist()) for _, test in plan.folds]
        union = set().union(*tests)
        assert union == set(range(57))
        for i in range(len(tests)):
            for j in range(i + 1, len(tests)):
                assert not tests[i] & tests[j]
        for train, test in plan.folds:
            assert not set(train.tolist()) & set(test.tolist())
            assert len(train) + len(test) == 57

    def test_103_by_10_sizes(self):
        plan = harness.kfold_split(103, k=10, seed=1)
        sizes = sorted(test.size for _, test in plan.folds)
        assert sizes == [10] * 7 + [11] * 3

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            harness.kfold_split(9, k=10)

    def test_config_refuses_fewer_than_two_folds(self):
        for k in (1, 0, -3):
            with pytest.raises(ConfigError, match="k must be >= 2"):
                TrainConfig(k=k)

    def test_config_refuses_negative_seed(self):
        # the seed used to reach numpy's SeedSequence and die there
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_seed_changes_assignment(self):
        a = harness.kfold_split(50, k=5, seed=0)
        b = harness.kfold_split(50, k=5, seed=1)
        assert any(not np.array_equal(x[1], y[1])
                   for x, y in zip(a.folds, b.folds))

    def test_deterministic(self):
        a = harness.kfold_split(50, k=5, seed=7)
        b = harness.kfold_split(50, k=5, seed=7)
        for (tr1, te1), (tr2, te2) in zip(a.folds, b.folds):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("batch_size", 8.0), ("seed", np.int64(3)),
        ("seed", 1.5), ("augment", "no"), ("augment_eval", 1),
        ("lam", True), ("base_lr", "1e-3"), ("k", True), ("scheme", None),
        ("split_level", 0),
        # an int no float can hold used to escape as an OverflowError
        pytest.param("base_lr", 10**400, id="base_lr-huge-int")])
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            TrainConfig(**{field: value})

    def test_types_checked_before_ranges(self):
        # a float epochs count in range is refused for its type
        with pytest.raises(ConfigError, match="epochs must be int"):
            TrainConfig(epochs=2.0, k=1)

    def test_ints_and_float_subclasses_fill_float_fields(self):
        # each is stored as a Python float, the one form JSON writes
        cfg = TrainConfig(lam=0, base_lr=1)
        assert (cfg.lam, cfg.base_lr) == (0.0, 1.0)
        assert (type(cfg.lam), type(cfg.base_lr)) == (float, float)
        lr = TrainConfig(base_lr=np.float64(0.5)).base_lr
        assert lr == 0.5 and type(lr) is float

    def test_lambda_default_follows_scheme(self):
        assert TrainConfig().lam == 0.5
        assert TrainConfig(scheme="kfold").lam == 0.5
        assert TrainConfig(scheme="loso").lam == 0.2
        assert TrainConfig(scheme="loso", lam=0.5).lam == 0.5
        assert TrainConfig(scheme="kfold", lam=0.2).lam == 0.2
        # replace() passes the resolved lambda on as a given one
        assert replace(TrainConfig(scheme="loso"), epochs=1).lam == 0.2

    def test_negative_zero_lambda_is_lambda_0(self):
        lam = TrainConfig(lam=-0.0).lam
        assert lam == 0.0 and str(lam) == "0.0"
        lam = TrainConfig(lam=1).lam
        assert lam == 1.0 and str(lam) == "1.0"


class TestLoso:
    def test_one_fold_per_subject(self):
        subj = np.repeat(np.arange(13), 5)
        plan = harness.loso_split(subj)
        assert len(plan) == 13
        assert sum(test.size for _, test in plan.folds) == subj.size

    def test_subject_exclusion(self):
        subj = np.array([0, 1, 2, 1, 0, 2, 1])
        plan = harness.loso_split(subj)
        for (train, test), s in zip(plan.folds, np.unique(subj)):
            assert np.all(subj[test] == s)
            assert not np.any(subj[train] == s)

    def test_single_subject_rejected(self):
        with pytest.raises(ConfigError):
            harness.loso_split(np.zeros(10, dtype=int))


class TestSplitProperties:
    def test_random_plans_hold_invariants(self):
        rng = make_rng(202)
        for trial in range(100):
            n = int(rng.integers(12, 300))
            k = int(rng.integers(2, min(n, 15)))
            plan = harness.kfold_split(n, k=k, seed=int(rng.integers(1 << 30)))
            tests = [t for _, t in plan.folds]
            assert sum(t.size for t in tests) == n
            assert len(np.unique(np.concatenate(tests))) == n
            sizes = {t.size for t in tests}
            assert max(sizes) - min(sizes) <= 1


def labels_only(labels):
    """A FlatDataset of one-pixel frames whose subject and recording labels
    are both `labels`: all that split_for reads."""
    zeros = np.zeros(labels.size, dtype=np.int64)
    return harness.FlatDataset(
        x=np.zeros((labels.size, 1, 1, 1), dtype=np.float32),
        subject_idx=labels, posture_idx=zeros, coarse_idx=zeros,
        seq_id=labels, subject_ids=[], posture_ids=[])


def assert_same_plan(plan, want):
    """plan's folds equal want's (train, test) pairs in dtype and bytes."""
    assert len(plan) == len(want)
    for got, expected in zip(plan.folds, want):
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


class TestSplitsMatchTheOldRule:
    """The one hold-out rule against the three separate fold rules it
    replaced (tests/util.py), byte for byte, 300 random cases a kind."""

    def test_kfold(self):
        rng = make_rng(303)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            k = int(rng.integers(2, min(n, 20) + 1))
            seed = int(rng.integers(1 << 30))
            want = kfold_split_oracle(n, k, seed)
            assert_same_plan(harness.kfold_split(n, k=k, seed=seed), want)
            assert_same_plan(harness.split_for(
                labels_only(np.arange(n)),
                TrainConfig(k=k, seed=seed)), want)

    def test_loso(self):
        rng = make_rng(304)
        for _ in range(300):
            # subject numbers with gaps, in any order
            labels = rng.choice(50, size=int(rng.integers(2, 12)),
                                replace=False)
            n = int(rng.integers(labels.size, 200))
            subj = labels[rng.integers(0, labels.size, size=n)]
            subj[rng.permutation(n)[:labels.size]] = labels
            want = loso_split_oracle(subj)
            assert_same_plan(harness.loso_split(subj), want)
            assert_same_plan(harness.split_for(
                labels_only(subj),
                TrainConfig(scheme="loso", k=int(rng.integers(2, 9)))), want)

    def test_sequence(self):
        rng = make_rng(305)
        for _ in range(300):
            # every recording 0..n_rec-1 holds a frame, as without an
            # empty recording; frames in recording order or shuffled
            n_rec = int(rng.integers(2, 40))
            n = int(rng.integers(n_rec, 300))
            seq_id = rng.integers(0, n_rec, size=n)
            seq_id[rng.permutation(n)[:n_rec]] = np.arange(n_rec)
            if rng.random() < 0.5:
                seq_id.sort()
            k = int(rng.integers(2, min(n_rec, 12) + 1))
            seed = int(rng.integers(1 << 30))
            assert_same_plan(harness.split_for(
                labels_only(seq_id),
                TrainConfig(k=k, seed=seed, split_level="sequence")),
                sequence_split_oracle(seq_id, k, seed))

    def test_sequence_folds_hold_out_recordings_present(self):
        # recording numbers with gaps, as empty recordings leave them: each
        # fold tests whole recordings and none tests nothing
        rng = make_rng(306)
        for _ in range(100):
            present = np.sort(rng.choice(60, size=int(rng.integers(2, 20)),
                                         replace=False))
            seq_id = np.repeat(present, rng.integers(1, 6, size=present.size))
            k = int(rng.integers(2, present.size + 1))
            plan = harness.split_for(labels_only(seq_id), TrainConfig(
                k=k, seed=int(rng.integers(1 << 30)), split_level="sequence"))
            assert len(plan) == k
            held = [np.unique(seq_id[test]) for _, test in plan.folds]
            assert all(h.size for h in held)
            assert np.array_equal(np.sort(np.concatenate(held)), present)
            sizes = {h.size for h in held}
            assert max(sizes) - min(sizes) <= 1
            for (train, test), h in zip(plan.folds, held):
                assert not np.isin(seq_id[train], h).any()
                assert train.size + test.size == seq_id.size


class TestEmptyRecording:
    """S1/1, an empty S1/2, S2/1 and S2/2, 4 frames each: flattening skips
    the empty recording and leaves a gap in seq_id."""

    def build_data(self):
        from pressnet.dataio import SampleSequence, default_taxonomy
        seqs = [synthetic.synthetic_sequence(s, p, 4, seed=3)
                for s, p in ((1, 1), (1, 2), (2, 1), (2, 2))]
        seqs[1] = SampleSequence(frames=seqs[1].frames[:0], subject_id=1,
                                 posture_id=2)
        return harness.flatten_sequences(seqs, default_taxonomy())

    def test_every_fold_tests_a_recording(self):
        data = self.build_data()
        plan = harness.split_for(data, TrainConfig(k=3,
                                                   split_level="sequence"))
        assert [(tr.size, te.size) for tr, te in plan.folds] == [(8, 4)] * 3

    def test_more_folds_than_recordings_refused_before_the_run(self,
                                                               tmp_path):
        # the k-fold used to count the empty recording: its fourth fold
        # trained on all 12 frames and tested none, and only then did
        # evaluate_model refuse the empty test split
        data = self.build_data()
        config = TrainConfig(k=4, split_level="sequence", epochs=1)
        with pytest.raises(ConfigError,
                           match="cannot make 4 folds from 3 recordings"):
            harness.split_for(data, config)
        with pytest.raises(ConfigError, match="3 recordings"):
            harness.run_experiment(data, config, tmp_path / "run")
        assert not (tmp_path / "run").exists()


class TestFlatten:
    def test_labels_and_stride(self):
        seqs = [synthetic.synthetic_sequence(1, 1, 10, seed=0),
                synthetic.synthetic_sequence(5, 14, 10, seed=0)]
        from pressnet.dataio import default_taxonomy
        data = harness.flatten_sequences(seqs, default_taxonomy(), stride=2)
        assert len(data) == 10
        assert data.x.shape == (10, 1, 32, 64)
        assert data.x.dtype == np.float32
        assert data.subject_ids == [1, 5]
        assert data.posture_ids == [1, 14]
        assert np.all(data.subject_idx[:5] == 0)
        assert np.all(data.subject_idx[5:] == 1)
        assert np.all(data.coarse_idx[:5] == 0)    # posture 1 -> supine
        assert np.all(data.coarse_idx[5:] == 2)    # posture 14 -> left
        assert np.all(data.seq_id[:5] == 0) and np.all(data.seq_id[5:] == 1)

    def test_sequence_level_split_keeps_recordings_whole(self):
        from pressnet.dataio import default_taxonomy
        seqs = [synthetic.synthetic_sequence(s, p, 8, seed=1)
                for s in (1, 2) for p in (1, 2, 3)]
        data = harness.flatten_sequences(seqs, default_taxonomy())
        config = TrainConfig(k=3, split_level="sequence", seed=4)
        plan = harness.split_for(data, config)
        for train, test in plan.folds:
            assert not set(data.seq_id[train]) & set(data.seq_id[test])

    def test_frame_level_split_is_kfold_over_frames(self):
        from pressnet.dataio import default_taxonomy
        seqs = [synthetic.synthetic_sequence(s, p, 7, seed=2)
                for s in (1, 2) for p in (1, 10)]
        data = harness.flatten_sequences(seqs, default_taxonomy())
        for k in (2, 3, 7):
            for seed in (0, 5, 91):
                plan = harness.split_for(data, TrainConfig(k=k, seed=seed))
                want = harness.kfold_split(len(data), k=k, seed=seed)
                assert len(plan) == len(want) == k
                for (train, test), (w_train, w_test) in zip(plan.folds,
                                                            want.folds):
                    assert train.tobytes() == w_train.tobytes()
                    assert test.tobytes() == w_test.tobytes()


class TestConfusionAndMetrics:
    def test_aggregate_writes_none_where_no_fold_has_a_rate(self):
        # class 2 is never predicted, class 1 only in the second fold
        folds = [harness.compute_metrics(np.array(cm)) for cm in (
            [[2, 0, 0], [3, 0, 0], [1, 0, 0]],
            [[1, 1, 0], [0, 2, 0], [1, 1, 0]])]
        agg = harness.aggregate_reports(
            [{"posture_fine": m, "posture_coarse": m, "subject": None}
             for m in folds])["posture_fine"]
        assert agg["precision_mean_per_class"][1:] == [50.0, None]
        assert agg["precision_mean"] == pytest.approx(
            np.mean([agg["precision_mean_per_class"][0], 50.0]))
        json.dumps(agg, allow_nan=False)

    def test_hand_confusion(self):
        cm = harness.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], k=2)
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_identity_matrix_all_100(self):
        m = harness.compute_metrics(np.eye(3, dtype=int) * 10)
        assert m.accuracy == 100.0
        assert np.all(m.precision == 100.0)
        assert np.all(m.recall == 100.0)
        assert np.all(m.specificity == 100.0)

    def test_hand_metrics_two_class(self):
        m = harness.compute_metrics(np.array([[8, 2], [1, 9]]))
        assert m.precision[0] == pytest.approx(8 / 9 * 100)
        assert m.recall[0] == pytest.approx(80.0)
        assert m.specificity[0] == pytest.approx(90.0)
        assert m.accuracy == pytest.approx(85.0)

    def test_degenerate_predictor(self):
        # everything predicted as class 0 on a balanced 2-class set
        m = harness.compute_metrics(np.array([[5, 0], [5, 0]]))
        assert m.precision[0] == pytest.approx(50.0)
        assert m.recall[0] == pytest.approx(100.0)
        assert m.recall[1] == pytest.approx(0.0)
        assert np.isnan(m.precision[1])  # class 1 never predicted

    def test_random_matrices_match_definition_oracle(self):
        rng = make_rng(9)
        for trial in range(100):
            k = int(rng.integers(2, 7))
            cm = rng.integers(0, 12, size=(k, k))
            if cm.sum() == 0:
                cm[0, 0] = 1
            m = harness.compute_metrics(cm)
            total = cm.sum()
            correct = sum(cm[i, i] for i in range(k))
            assert m.accuracy == pytest.approx(correct / total * 100, abs=1e-12)
            for c in range(k):
                tp = cm[c, c]
                fp = cm[:, c].sum() - tp
                fn = cm[c, :].sum() - tp
                tn = total - tp - fp - fn
                if tp + fp > 0:
                    assert m.precision[c] == pytest.approx(
                        tp / (tp + fp) * 100, abs=1e-12)
                else:
                    assert np.isnan(m.precision[c])
                if tp + fn > 0:
                    assert m.recall[c] == pytest.approx(
                        tp / (tp + fn) * 100, abs=1e-12)
                else:
                    assert np.isnan(m.recall[c])
                if tn + fp > 0:
                    assert m.specificity[c] == pytest.approx(
                        tn / (tn + fp) * 100, abs=1e-12)
                else:
                    assert np.isnan(m.specificity[c])

    def test_empty_matrix_rejected(self):
        with pytest.raises(UsageError):
            harness.compute_metrics(np.zeros((3, 3), dtype=int))
        with pytest.raises(UsageError):
            harness.compute_metrics(np.zeros((0, 0), dtype=int))


class TestWelch:
    def test_hand_example(self):
        # means 3 and 4, both variances 2.5 over n=5:
        # t = -1 exactly, Welch-Satterthwaite df = 8
        t, p, df = harness.welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert t == pytest.approx(-1.0, abs=1e-15)
        assert df == pytest.approx(8.0, abs=1e-12)
        assert p == pytest.approx(0.3465935, abs=1e-6)

    def test_identical_samples(self):
        t, p, _ = harness.welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_matches_reference_implementation(self):
        rng = make_rng(10)
        for trial in range(100):
            a = rng.normal(size=int(rng.integers(2, 30)))
            b = rng.normal(loc=rng.uniform(-1, 1),
                           size=int(rng.integers(2, 30)))
            t, p, _ = harness.welch_t_test(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert t == pytest.approx(ref.statistic, rel=1e-12)
            assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_scale_invariance(self):
        a = [1.0, 2.0, 5.0, 7.0]
        b = [2.0, 4.0, 4.5]
        t1, _, _ = harness.welch_t_test(a, b)
        t2, _, _ = harness.welch_t_test([3 * v for v in a], [3 * v for v in b])
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(NumericFault):
            harness.welch_t_test([2.0, 2.0, 2.0], [5.0, 5.0])

    def test_short_sample(self):
        with pytest.raises(ConfigError):
            harness.welch_t_test([1.0], [1.0, 2.0])


def small_training_set(n=24, subjects=2, postures=3, seed=0):
    return synthetic_batch(n, subjects, postures, seed=seed)


@pytest.mark.usefixtures("small_net")
class TestTrainModel:
    def test_same_seed_bitwise_identical(self):
        x, yu, yp = small_training_set()
        cfg = TrainConfig(epochs=2, batch_size=8, base_lr=1e-3, seed=11)
        mc = CFG
        net1, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        net2, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        for k, v in net1.params().items():
            assert v.tobytes() == net2.params()[k].tobytes(), k

    def test_augmented_run_is_deterministic(self):
        x, yu, yp = small_training_set(n=16)
        cfg = TrainConfig(epochs=2, batch_size=8, base_lr=1e-3, seed=3,
                          augment=True)
        mc = CFG
        net1, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        net2, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        for k, v in net1.params().items():
            assert v.tobytes() == net2.params()[k].tobytes(), k

    def test_curve_lengths_and_finiteness(self):
        x, yu, yp = small_training_set()
        cfg = TrainConfig(epochs=3, batch_size=8, base_lr=1e-3, seed=2)
        _, _, curves = harness.train_model(x, yu, yp, cfg, CFG)
        for key, series in curves.items():
            assert len(series) == 3, key
            assert all(np.isfinite(v) for v in series), key

    def test_lambda_zero_trains_posture_not_subject(self):
        x, yu, yp = small_training_set(n=24)
        cfg = TrainConfig(lam=0.0, epochs=30, batch_size=8, base_lr=2e-3,
                          seed=5)
        net, _, curves = harness.train_model(x, yu, yp, cfg, CFG)
        assert curves["acc_posture"][-1] >= 0.75
        # with zero weight on the subject loss, the subject labels must not
        # influence training at all: scrambling them changes nothing
        scrambled = (yu + 1) % 2
        net2, _, _ = harness.train_model(x, scrambled, yp, cfg, CFG)
        for k, v in net.params().items():
            assert v.tobytes() == net2.params()[k].tobytes(), k

    def test_partial_batch_smaller_than_two_dropped(self):
        # 9 samples, batch 4 -> chunk sizes 4,4,1; the singleton must be
        # dropped (batch statistics need >= 2 rows)
        x, yu, yp = small_training_set(n=9)
        cfg = TrainConfig(epochs=1, batch_size=4, base_lr=1e-3, seed=6)
        _, state, _ = harness.train_model(x, yu, yp, cfg, CFG)
        assert state.t == 2  # two optimizer steps, not three

    def test_nan_input_aborts_with_location(self):
        x, yu, yp = small_training_set(n=8)
        x[3, 0, 5, 5] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        with pytest.raises(TrainingFault, match="epoch 0 batch 0"):
            harness.train_model(x, yu, yp, cfg, CFG)

    def test_empty_training_set(self):
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(ConfigError):
            harness.train_model(np.zeros((0, 1, 32, 64)), np.zeros(0, int),
                                np.zeros(0, int), cfg, CFG)

    def test_label_out_of_range(self):
        x, yu, yp = small_training_set(n=8)
        with pytest.raises(Exception) as exc_info:
            harness.train_model(x, yu + 10, yp,
                                TrainConfig(epochs=1, seed=0), CFG)
        assert "subject" in str(exc_info.value)

    def test_resume_equals_uninterrupted(self, tmp_path, small_net):
        # dropout on, so the per-epoch rng stream alignment is exercised
        small_net(CONV_DROPOUT=(0.1, 0.0, 0.0, 0.0), DENSE_DROPOUT=0.2)
        x, yu, yp = small_training_set(n=16)
        mc = CFG
        full_cfg = TrainConfig(epochs=3, batch_size=8, base_lr=1e-3, seed=21)
        net_full, state_full, curves_full = harness.train_model(
            x, yu, yp, full_cfg, mc)

        part_cfg = TrainConfig(epochs=2, batch_size=8, base_lr=1e-3, seed=21)
        net_part, state_part, _ = harness.train_model(x, yu, yp, part_cfg, mc)
        ckpt_path = tmp_path / "part.ckpt"
        save_checkpoint(ckpt_path, net_part, adam=state_part, epoch=2, seed=21)

        resumed = load_checkpoint(ckpt_path)
        net_res, state_res, curves_res = harness.train_model(
            x, yu, yp, full_cfg, mc, resume=resumed)

        for k, v in net_full.params().items():
            assert v.tobytes() == net_res.params()[k].tobytes(), k
        for k, v in net_full.bn_stats().items():
            assert v.tobytes() == net_res.bn_stats()[k].tobytes(), k
        for k in state_full.m:
            assert state_full.m[k].tobytes() == state_res.m[k].tobytes(), k
            assert state_full.v[k].tobytes() == state_res.v[k].tobytes(), k
        assert state_full.t == state_res.t
        assert curves_res["loss_total"][-1] == curves_full["loss_total"][-1]

    def test_epoch_hook_contract(self, tmp_path):
        # once per epoch, in order, with the curves so far; resumed from a
        # checkpoint at epoch 1 it starts there, and the curves hold the
        # epochs run since then, equal to the uninterrupted run's
        x, yu, yp = small_training_set(n=16)
        mc = CFG
        cfg = TrainConfig(epochs=3, batch_size=8, base_lr=1e-3, seed=4)
        calls = []

        def hook(epoch, curves):
            calls.append((epoch, {k: list(v) for k, v in curves.items()}))

        _, _, full = harness.train_model(x, yu, yp, cfg, mc, epoch_hook=hook)
        assert calls == [(e, {k: v[:e + 1] for k, v in full.items()})
                         for e in range(3)]

        net, state, _ = harness.train_model(x, yu, yp,
                                            replace(cfg, epochs=1), mc)
        save_checkpoint(tmp_path / "c.ckpt", net, adam=state, epoch=1, seed=4)
        calls.clear()
        harness.train_model(x, yu, yp, cfg, mc,
                            resume=load_checkpoint(tmp_path / "c.ckpt"),
                            epoch_hook=hook)
        assert calls == [(e, {k: v[1:e + 1] for k, v in full.items()})
                         for e in (1, 2)]

    def test_resume_demands_matching_seed(self, tmp_path):
        x, yu, yp = small_training_set(n=8)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=1)
        net, state, _ = harness.train_model(x, yu, yp, cfg, CFG)
        save_checkpoint(tmp_path / "c.ckpt", net, adam=state, epoch=1, seed=1)
        ckpt = load_checkpoint(tmp_path / "c.ckpt")
        bad = TrainConfig(epochs=2, batch_size=8, seed=2)
        with pytest.raises(UsageError, match="seed"):
            harness.train_model(x, yu, yp, bad, CFG, resume=ckpt)

    def test_resume_demands_matching_model_config(self, tmp_path,
                                                  monkeypatch):
        # a checkpoint of 3 postures used to resume under a 4-posture
        # config: the labels were checked against 4, the net had 3
        x, yu, yp = small_training_set(n=8)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=1)
        net, state, _ = harness.train_model(x, yu, yp, cfg, CFG)
        save_checkpoint(tmp_path / "c.ckpt", net, adam=state, epoch=1, seed=1)
        ckpt = load_checkpoint(tmp_path / "c.ckpt")
        monkeypatch.setattr(PostureNet, "forward", None)  # no batch runs
        other = ModelConfig(num_subjects=2, num_postures=4)
        with pytest.raises(UsageError) as info:
            harness.train_model(x, yu, yp, replace(cfg, epochs=2), other,
                                resume=ckpt)
        assert str(info.value) == f"checkpoint config {CFG} != model config " \
            f"{other}"


@pytest.mark.usefixtures("small_net")
class TestEvaluate:
    def build(self, postures=(1, 10, 14), model_config=None):
        from pressnet.dataio import default_taxonomy
        seqs = [synthetic.synthetic_sequence(s, p, 5, seed=2)
                for s in (1, 2) for p in postures]
        data = harness.flatten_sequences(seqs, default_taxonomy())
        mc = model_config or CFG
        net = PostureNet(mc, make_rng(33))
        return data, net

    def test_report_structure_and_consistency(self):
        data, net = self.build()
        idx = np.arange(len(data))
        report = harness.evaluate_model(net, data, idx)
        fine = report["posture_fine"]
        coarse = report["posture_coarse"]
        # row sums equal true class counts
        counts = np.bincount(data.posture_idx, minlength=3)
        assert np.array_equal(fine.confusion.sum(axis=1), counts)
        # coarse matrix is exactly the taxonomy collapse of the fine one
        expect = collapse_confusion(fine.confusion,
                                    harness.posture_group(data), 3)
        assert np.array_equal(coarse.confusion, expect)
        assert report["subject"] is not None
        assert set(report["subject_by_category"]) <= {"supine", "right", "left"}

    def test_subject_skipped_when_disabled(self):
        data, net = self.build()
        report = harness.evaluate_model(net, data, np.arange(len(data)),
                                        include_subject=False)
        assert report["subject"] is None
        assert report["subject_by_category"] is None

    def test_empty_test_split_rejected(self):
        data, net = self.build()
        with pytest.raises(UsageError):
            harness.evaluate_model(net, data, np.array([], dtype=int))

    @pytest.mark.parametrize("postures", [(1, 10, 14), (1, 2, 10, 14, 15)])
    def test_posture_count_mismatch_refused(self, postures):
        # a 4-posture net used to raise LabelError on 5 postures and a bare
        # IndexError on 3
        data, net = self.build(postures, ModelConfig(2, 4))
        with pytest.raises(UsageError, match="^checkpoint expects 4 postures, "
                           f"dataset has {len(postures)}$"):
            harness.evaluate_model(net, data, np.arange(len(data)))

    @staticmethod
    def frames(n):
        """n random frames over 2 subjects and 3 postures, and a tiny net."""
        rng, cls = make_rng(35), np.arange(n) % 3
        data = harness.FlatDataset(
            x=rng.random((n, 1, 32, 64), dtype=np.float32),
            subject_idx=np.arange(n) % 2, posture_idx=cls, coarse_idx=cls,
            seq_id=np.zeros(n, dtype=np.int64), subject_ids=[1, 2],
            posture_ids=[1, 10, 14])
        return data, PostureNet(CFG, make_rng(33))

    @pytest.mark.parametrize("augment", [False, True])
    def test_split_is_not_copied_whole(self, augment):
        # the split used to be gathered (and augmented) whole before the
        # chunked forward: under `pressnet evaluate`, the whole dataset
        data, net = self.frames(1536)
        aug_rng = make_rng(5) if augment else None
        tracemalloc.start()
        try:
            harness.evaluate_model(net, data, np.arange(len(data)),
                                   augment_rng=aug_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.x.nbytes / 2, (peak, data.x.nbytes)

    def test_augmented_chunks_draw_as_one_pass(self, monkeypatch):
        # each chunk is augmented in test_idx order from the one rng, so the
        # frames scored are those of augmenting the whole split at once
        data, net = self.frames(300)
        idx = np.arange(len(data))[::-1]
        seen, forward = [], net.forward
        monkeypatch.setattr(net, "forward", lambda x, train=False: (
            seen.append(x.copy()), forward(x, train))[1])
        harness.evaluate_model(net, data, idx, augment_rng=make_rng(5))
        chunk = harness.EVAL_CHUNK
        assert [len(x) for x in seen] == [chunk, len(data) - chunk]
        expect = harness._augment_batch(data.x[idx], make_rng(5))
        assert np.concatenate(seen).tobytes() == expect.tobytes()

    def test_subject_count_mismatch_skips_subject(self):
        # a 3-subject net used to score its subject head on 2 subjects
        data, net = self.build(model_config=ModelConfig(3, 3))
        report = harness.evaluate_model(net, data, np.arange(len(data)))
        assert report["subject"] is None
        assert report["subject_by_category"] is None
        assert report["posture_fine"].confusion.shape == (3, 3)


class TestRunExperiment:
    def build_data(self):
        from pressnet.dataio import default_taxonomy
        seqs = [synthetic.synthetic_sequence(s, p, 6, seed=7)
                for s in (1, 2) for p in (1, 10)]
        return harness.flatten_sequences(seqs, default_taxonomy())

    def config(self, **kw):
        base = dict(epochs=1, batch_size=8, base_lr=1e-3, seed=9, k=2)
        base.update(kw)
        return TrainConfig(**base)

    def test_artifacts_written(self, tmp_path, small_net):
        data = self.build_data()
        out = tmp_path / "run"
        aggregate = harness.run_experiment(data, self.config(), out)
        assert (out / "config.json").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "summary.txt").exists()
        assert (out / "DONE").exists()
        assert not (out / ".lock").exists()
        for i in range(2):
            # each confusion matrix lives only in metrics.json
            assert sorted(p.name for p in (out / f"fold_{i:02d}").iterdir()) \
                == ["curves.tsv", "metrics.json", "model.ckpt"]
        accs = aggregate["posture_fine"]["accuracy_per_fold"]
        assert aggregate["posture_fine"]["accuracy_mean"] == pytest.approx(
            np.mean(accs))
        assert harness.read_run(out)[1] is None  # no baselines were fitted

    def test_folds_are_not_alive_at_once(self, tmp_path):
        # peak traced allocation of a two-fold run against that of its
        # costliest fold trained and evaluated alone: a run that keeps the
        # previous fold's net and optimizer state while the next fold
        # trains goes over by their size
        data = self.build_data()
        config = self.config()

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = max(peak(lambda: harness.run_fold(data, train_idx, test_idx,
                                                  config, i))
                    for i, (train_idx, test_idx)
                    in enumerate(harness.split_for(data, config).folds))
        whole = peak(lambda: harness.run_experiment(
            data, config, tmp_path / "run"))
        assert whole <= alone + 2**20, (whole, alone)

    def test_run_fold_does_no_io_and_matches_written_fold(
            self, tmp_path, monkeypatch, small_net):
        data = self.build_data()
        config = self.config(augment=True, augment_eval=True)
        train_idx, test_idx = harness.split_for(data, config).folds[1]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        net, state, curves, report = harness.run_fold(
            data, train_idx, test_idx, config, 1)
        assert list(cwd.iterdir()) == []
        assert state.t > 0 and len(curves["loss_total"]) == config.epochs
        harness.run_experiment(data, config, tmp_path / "run")
        written = json.loads((harness.fold_dir(tmp_path / "run", 1)
                              / "metrics.json").read_text())
        assert {k: v.as_dict() if isinstance(v, harness.Metrics) else v
                for k, v in report.items()} == written

    def test_read_run_returns_every_fold(self, tmp_path, small_net):
        data = self.build_data()
        out = tmp_path / "run"
        reports = []
        harness.run_experiment(data, self.config(k=3), out,
                               progress=lambda i, n, r: reports.append(r),
                               baselines=["knn"])
        summary, baselines, folds = harness.read_run(out)
        assert summary == (out / "summary.txt").read_text()
        assert baselines == json.loads((out / "baselines.json").read_text())
        assert len(folds) == len(reports) == 3
        for i, (metrics, curves) in enumerate(folds):
            fdir = harness.fold_dir(out, i)
            assert metrics == json.loads((fdir / "metrics.json").read_text())
            assert curves == (fdir / "curves.tsv").read_text()
        pooled = sum(np.array(m["posture_coarse"]["confusion"])
                     for m, _ in folds)
        assert np.array_equal(
            pooled, sum(r["posture_coarse"].confusion for r in reports))

    def test_deterministic_artifacts(self, tmp_path, small_net):
        data = self.build_data()
        a1 = harness.run_experiment(data, self.config(), tmp_path / "r1")
        a2 = harness.run_experiment(data, self.config(), tmp_path / "r2")
        assert a1 == a2
        b1 = (tmp_path / "r1" / "aggregate.json").read_bytes()
        b2 = (tmp_path / "r2" / "aggregate.json").read_bytes()
        assert b1 == b2
        c1 = (tmp_path / "r1" / "fold_00" / "model.ckpt").read_bytes()
        c2 = (tmp_path / "r2" / "fold_00" / "model.ckpt").read_bytes()
        assert c1 == c2

    def test_model_is_the_two_class_counts(self, tmp_path, small_net):
        # config.json's model and every checkpoint header's config hold
        # the two class counts, and nothing about the architecture
        out = tmp_path / "run"
        harness.run_experiment(self.build_data(), self.config(), out)
        want = {"num_postures": 2, "num_subjects": 2}
        assert json.loads((out / "config.json").read_text())["model"] == want
        for i in range(2):
            blob = (harness.fold_dir(out, i) / "model.ckpt").read_bytes()
            (hlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 2)
            header = json.loads(blob[len(MAGIC) + 6:][:hlen])
            assert header["config"] == want

    def test_int_and_float_lambda_write_the_same_files(self, tmp_path,
                                                       small_net):
        # lam=1 used to write "lam": 1 and lambda=1, where 1.0 wrote 1.0
        data = self.build_data()
        for lam in (1, 1.0):
            harness.run_experiment(data, self.config(epochs=0, lam=lam),
                                   tmp_path / repr(lam))
        for name in ("config.json", "summary.txt"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "1.0" / name).read_bytes()

    def test_loso_skips_subject_metrics(self, tmp_path, small_net):
        data = self.build_data()
        aggregate = harness.run_experiment(
            data, self.config(scheme="loso", lam=0.2), tmp_path / "run")
        assert aggregate["subject"] is None
        m = json.loads((tmp_path / "run" / "fold_00" / "metrics.json")
                       .read_text())
        assert m["subject"] is None

    def test_baselines_written_under_lock_before_done(
            self, tmp_path, monkeypatch, small_net):
        data = self.build_data()
        out = tmp_path / "run"
        seen = {}
        fit = harness.classical.run_baselines

        def spy(*args, **kwargs):
            seen["lock"] = (out / ".lock").exists()
            seen["done"] = (out / "DONE").exists()
            return fit(*args, **kwargs)

        monkeypatch.setattr(harness.classical, "run_baselines", spy)
        harness.run_experiment(data, self.config(), out,
                               baselines=["knn", "mlp"])
        assert seen == {"lock": True, "done": False}
        results = json.loads((out / "baselines.json").read_text())
        assert sorted(results) == ["knn", "mlp"]
        assert all(len(r["accuracy_per_fold"]) == 2 for r in results.values())

    def test_baselines_equal_the_per_frame_and_depth_first_oracles(
            self, tmp_path, monkeypatch, small_net):
        # 3 subjects x 4 postures x 12 frames, the postures from all three
        # coarse classes and chosen so that no method is at ceiling in both
        # folds; features by frame blocks and trees breadth-first against
        # one frame and one node at a time
        from pressnet.dataio import default_taxonomy
        seqs = [synthetic.synthetic_sequence(s, p, 12, seed=5)
                for s in (1, 2, 3) for p in (8, 9, 13, 17)]
        data = harness.flatten_sequences(seqs, default_taxonomy())
        methods = ("knn", "trees", "mlp")
        harness.run_experiment(data, self.config(), tmp_path / "arrays",
                               baselines=methods)
        grown = []
        monkeypatch.setattr(
            harness.classical, "extract_feature_matrix",
            lambda x: np.stack([extract_features(f[0]) for f in x]))
        monkeypatch.setattr(
            harness.classical, "train_bagged_trees",
            lambda x, y, seed: grown.append(
                bagged_trees_oracle(x, y, seed=seed)) or grown[-1])
        monkeypatch.setattr(
            harness.classical, "predict_trees",
            lambda trees, q: np.array(
                [np.bincount([tree_walk(t, row) for t in trees]).argmax()
                 for row in q]))
        harness.run_experiment(data, self.config(), tmp_path / "oracles",
                               baselines=methods)
        assert len(grown) == 2
        assert sum(len(oracle_nodes(t)) for trees in grown for t in trees) \
            > 3 * 2 * 50
        assert (tmp_path / "arrays" / "baselines.json").read_bytes() \
            == (tmp_path / "oracles" / "baselines.json").read_bytes()

    def test_unknown_baseline_creates_nothing(self, tmp_path):
        with pytest.raises(UsageError, match="svm"):
            harness.run_experiment(self.build_data(), self.config(),
                                   tmp_path / "run",
                                   baselines=["svm"])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad", [
        {"base_lr": -1.0}, {"base_lr": 0.0}, {"base_lr": float("nan")},
        {"base_lr": float("inf")}])
    def test_bad_schedule_refused_before_out_dir(self, tmp_path, bad):
        # base_lr -1 used to train by gradient ascent
        data = self.build_data()
        with pytest.raises(ConfigError, match=next(iter(bad))):
            harness.run_experiment(data, self.config(**bad), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("batch_size", 8.0), ("seed", np.int64(3)),
        ("augment", "no"), ("seed", 1.5), ("lam", True)])
    def test_wrongly_typed_value_refused_before_out_dir(self, tmp_path, field,
                                                        value):
        # epochs 1.5 and batch_size 8.0 used to fail in fold 0, seed
        # np.int64(3) half way through config.json; the rest trained
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=field):
            harness.run_experiment(self.build_data(),
                                   self.config(**{field: value}), out)
        assert not out.exists()

    def test_rerun_clears_what_it_does_not_write(self, tmp_path, small_net):
        data = self.build_data()
        out = tmp_path / "run"
        harness.run_experiment(data, self.config(k=3), out,
                               baselines=["knn"])
        assert harness.fold_dir(out, 2).is_dir()
        for other in ("fold_7", "fold_xx", "notes.txt"):
            (out / other).write_text("kept\n")
        harness.run_experiment(data, self.config(k=2), out)
        assert sorted(p.name for p in out.iterdir()) == [
            "DONE", "aggregate.json", "config.json", "fold_00", "fold_01",
            "fold_7", "fold_xx", "notes.txt", "summary.txt", "timing.txt"]
        assert harness.read_run(out)[1] is None

    @pytest.mark.parametrize("lams, error, match", [
        ([0, 0.5, 0.5], UsageError, "0.5 twice"),
        ([0.0, 0.5, 0.5000000001], UsageError, "0.5 twice"),
        ([0, 0, 1], UsageError, "0 twice"),
        ([0, -0.0], UsageError, "0 twice"),
        ([0, 0.5, 1.5], ConfigError, "lam must be in"),
        ([0, float("nan")], ConfigError, "lam must be in"),
        ([0, True], ConfigError, "lam must be float"),
        ([0.5, 1], UsageError, "include 0"),
    ])
    def test_bad_sweep_refused_before_training(self, tmp_path, lams, error,
                                               match):
        # a lambda listed twice used to train lam_0.5/ twice and keep the
        # second run
        with pytest.raises(error, match=match):
            harness.run_sweep(self.build_data(), self.config(), lams,
                              tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_negative_zero_sweeps_as_lambda_0(self, tmp_path, small_net):
        # -0 used to train into lam_-0/ and key sweep.json with "-0"
        out = tmp_path / "sweep"
        result = harness.run_sweep(self.build_data(), self.config(),
                                   [-0.0, 0.5], out)
        assert set(result["accuracy_per_fold"]) == {"0", "0.5"}
        assert sorted(p.name for p in out.iterdir()) == [
            "lam_0", "lam_0.5", "sweep.json"]
        assert " lambda=0.0 " in (out / "lam_0" / "summary.txt").read_text()

    def test_locked_directory_refused(self, tmp_path):
        data = self.build_data()
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("pid 12345\n")
        with pytest.raises(UsageError, match="locked"):
            harness.run_experiment(data, self.config(), out)


# OpenBLAS's thread count before and after argv[1] ("train" or "evaluate")
# runs on a small net, read through the getter pin_runtime finds
BLAS_AFTER = """
import ctypes, sys
import numpy as np
from pressnet import harness, synthetic
from pressnet.dataio import default_taxonomy
from pressnet.model import ModelConfig, PostureNet
from pressnet.tensor import make_rng

core = np._core if hasattr(np, "_core") else np.core
lib = ctypes.CDLL(core._multiarray_umath.__file__)
for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
    getter = getattr(lib, name, None)
    if getter is not None:
        break
else:
    sys.exit("no OpenBLAS thread getter")
getter.argtypes, getter.restype = [], ctypes.c_int
for name, value in %r.items():
    setattr(PostureNet, name, value)
seqs = [synthetic.synthetic_sequence(s, p, 5, seed=2)
        for s in (1, 2) for p in (1, 10)]
data = harness.flatten_sequences(seqs, default_taxonomy())
config = ModelConfig(data.num_subjects, data.num_postures)
before = getter()
if sys.argv[1] == "train":
    harness.train_model(data.x, data.subject_idx, data.posture_idx,
                        harness.TrainConfig(epochs=1, batch_size=4), config)
else:
    harness.evaluate_model(PostureNet(config, make_rng(1)), data,
                           np.arange(len(data)))
print(before, getter())
""" % SMALL_NET


@pytest.mark.parametrize("job", ["train", "evaluate"])
def test_blas_is_pinned_where_compute_starts(job):
    # conv backward's concurrent GEMMs assume single-threaded BLAS, and a
    # library caller of train_model or evaluate_model must get it too
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", BLAS_AFTER, job], env=env,
                          capture_output=True, text=True)
    if "no OpenBLAS thread getter" in done.stderr:
        pytest.skip("numpy's BLAS reports no thread count")
    assert done.returncode == 0, done.stderr
    before, after = map(int, done.stdout.split())
    if before != 2:
        pytest.skip(f"OpenBLAS starts on {before} threads, not 2")
    assert after == 1
