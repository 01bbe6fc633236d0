"""Splits, metrics, Welch test, training loop, and experiment artifacts."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from pressnet import harness, synthetic
from pressnet.checkpoint import load_checkpoint, save_checkpoint
from pressnet.errors import (ConfigError, NumericFault, TrainingFault,
                             UsageError)
from pressnet.harness import TrainConfig
from pressnet.model import ModelConfig
from pressnet.tensor import make_rng

from util import synthetic_batch


def tiny_model(num_subjects=2, num_postures=3, **kw):
    defaults = dict(conv_channels=(1, 1, 2, 2), dense_width=8,
                    conv_dropout=(0.0, 0.0, 0.0, 0.0), dense_dropout=0.0,
                    input_hw=(32, 64))
    defaults.update(kw)
    return ModelConfig(num_subjects=num_subjects, num_postures=num_postures,
                       **defaults)


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


class TestConfusionAndMetrics:
    def test_hand_confusion(self):
        cm = harness.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], k=2)
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_collapse_matches_loop_oracle(self):
        rng = make_rng(8)
        cm = rng.integers(0, 20, size=(5, 5))
        group = np.array([0, 0, 1, 2, 1])
        out = harness.collapse_confusion(cm, group, 3)
        expect = np.zeros((3, 3), dtype=cm.dtype)
        for i in range(5):
            for j in range(5):
                expect[group[i], group[j]] += cm[i, j]
        assert np.array_equal(out, expect)

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


class TestTrainModel:
    def test_same_seed_bitwise_identical(self):
        x, yu, yp = small_training_set()
        cfg = TrainConfig(epochs=2, batch_size=8, base_lr=1e-3, seed=11)
        mc = tiny_model()
        net1, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        net2, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        for k, v in net1.params().items():
            assert v.tobytes() == net2.params()[k].tobytes(), k

    def test_augmented_run_is_deterministic(self):
        x, yu, yp = small_training_set(n=16)
        cfg = TrainConfig(epochs=2, batch_size=8, base_lr=1e-3, seed=3,
                          augment=True)
        mc = tiny_model()
        net1, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        net2, _, _ = harness.train_model(x, yu, yp, cfg, mc)
        for k, v in net1.params().items():
            assert v.tobytes() == net2.params()[k].tobytes(), k

    def test_curve_lengths_and_finiteness(self):
        x, yu, yp = small_training_set()
        cfg = TrainConfig(epochs=3, batch_size=8, base_lr=1e-3, seed=2)
        _, _, curves = harness.train_model(x, yu, yp, cfg, tiny_model())
        for key, series in curves.items():
            assert len(series) == 3, key
            assert all(np.isfinite(v) for v in series), key

    def test_lambda_zero_trains_posture_not_subject(self):
        x, yu, yp = small_training_set(n=24)
        cfg = TrainConfig(lam=0.0, epochs=30, batch_size=8, base_lr=2e-3,
                          seed=5)
        net, _, curves = harness.train_model(x, yu, yp, cfg, tiny_model())
        assert curves["acc_posture"][-1] >= 0.75
        # with zero weight on the subject loss, the subject labels must not
        # influence training at all: scrambling them changes nothing
        scrambled = (yu + 1) % 2
        net2, _, _ = harness.train_model(x, scrambled, yp, cfg, tiny_model())
        for k, v in net.params().items():
            assert v.tobytes() == net2.params()[k].tobytes(), k

    def test_partial_batch_smaller_than_two_dropped(self):
        # 9 samples, batch 4 -> chunk sizes 4,4,1; the singleton must be
        # dropped (batch statistics need >= 2 rows)
        x, yu, yp = small_training_set(n=9)
        cfg = TrainConfig(epochs=1, batch_size=4, base_lr=1e-3, seed=6)
        _, state, _ = harness.train_model(x, yu, yp, cfg, tiny_model())
        assert state.t == 2  # two optimizer steps, not three

    def test_nan_input_aborts_with_location(self):
        x, yu, yp = small_training_set(n=8)
        x[3, 0, 5, 5] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        with pytest.raises(TrainingFault, match="epoch 0 batch 0"):
            harness.train_model(x, yu, yp, cfg, tiny_model())

    def test_empty_training_set(self):
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(ConfigError):
            harness.train_model(np.zeros((0, 1, 32, 64)), np.zeros(0, int),
                                np.zeros(0, int), cfg, tiny_model())

    def test_label_out_of_range(self):
        x, yu, yp = small_training_set(n=8)
        with pytest.raises(Exception) as exc_info:
            harness.train_model(x, yu + 10, yp,
                                TrainConfig(epochs=1, seed=0), tiny_model())
        assert "subject" in str(exc_info.value)

    def test_resume_equals_uninterrupted(self, tmp_path):
        # dropout on, so the per-epoch rng stream alignment is exercised
        x, yu, yp = small_training_set(n=16)
        mc = tiny_model(conv_dropout=(0.1, 0.0, 0.0, 0.0), dense_dropout=0.2)
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
        mc = tiny_model()
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
        net, state, _ = harness.train_model(x, yu, yp, cfg, tiny_model())
        save_checkpoint(tmp_path / "c.ckpt", net, adam=state, epoch=1, seed=1)
        ckpt = load_checkpoint(tmp_path / "c.ckpt")
        bad = TrainConfig(epochs=2, batch_size=8, seed=2)
        with pytest.raises(UsageError, match="seed"):
            harness.train_model(x, yu, yp, bad, tiny_model(), resume=ckpt)


class TestEvaluate:
    def build(self, n=30):
        from pressnet.dataio import default_taxonomy
        seqs = [synthetic.synthetic_sequence(s, p, 5, seed=2)
                for s in (1, 2) for p in (1, 10, 14)]
        data = harness.flatten_sequences(seqs, default_taxonomy())
        from pressnet.model import PostureNet
        mc = tiny_model(num_subjects=2, num_postures=3)
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
        expect = harness.collapse_confusion(fine.confusion,
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

    def test_artifacts_written(self, tmp_path):
        data = self.build_data()
        out = tmp_path / "run"
        aggregate = harness.run_experiment(data, self.config(), out,
                                           model_config=tiny_model(2, 2))
        assert (out / "config.json").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "summary.txt").exists()
        assert (out / "DONE").exists()
        assert not (out / ".lock").exists()
        for i in range(2):
            fdir = out / f"fold_{i:02d}"
            for name in ("metrics.json", "cm_fine.txt", "cm_coarse.txt",
                         "curves.tsv", "model.ckpt"):
                assert (fdir / name).exists(), name
        accs = aggregate["posture_fine"]["accuracy_per_fold"]
        assert aggregate["posture_fine"]["accuracy_mean"] == pytest.approx(
            np.mean(accs))

    def test_deterministic_artifacts(self, tmp_path):
        data = self.build_data()
        a1 = harness.run_experiment(data, self.config(), tmp_path / "r1",
                                    model_config=tiny_model(2, 2))
        a2 = harness.run_experiment(data, self.config(), tmp_path / "r2",
                                    model_config=tiny_model(2, 2))
        assert a1 == a2
        b1 = (tmp_path / "r1" / "aggregate.json").read_bytes()
        b2 = (tmp_path / "r2" / "aggregate.json").read_bytes()
        assert b1 == b2
        c1 = (tmp_path / "r1" / "fold_00" / "model.ckpt").read_bytes()
        c2 = (tmp_path / "r2" / "fold_00" / "model.ckpt").read_bytes()
        assert c1 == c2

    def test_loso_skips_subject_metrics(self, tmp_path):
        data = self.build_data()
        aggregate = harness.run_experiment(
            data, self.config(scheme="loso", lam=0.2), tmp_path / "run",
            model_config=tiny_model(2, 2))
        assert aggregate["subject"] is None
        m = json.loads((tmp_path / "run" / "fold_00" / "metrics.json")
                       .read_text())
        assert m["subject"] is None

    def test_baselines_written_under_lock_before_done(self, tmp_path,
                                                      monkeypatch):
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
                               model_config=tiny_model(2, 2),
                               baselines=["knn", "mlp"])
        assert seen == {"lock": True, "done": False}
        results = json.loads((out / "baselines.json").read_text())
        assert sorted(results) == ["knn", "mlp"]
        assert all(len(r["accuracy_per_fold"]) == 2 for r in results.values())

    def test_unknown_baseline_creates_nothing(self, tmp_path):
        with pytest.raises(UsageError, match="svm"):
            harness.run_experiment(self.build_data(), self.config(),
                                   tmp_path / "run",
                                   model_config=tiny_model(2, 2),
                                   baselines=["svm"])
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad", [
        {"base_lr": -1.0}, {"base_lr": 0.0}, {"base_lr": float("nan")},
        {"base_lr": float("inf")}, {"lr_decay_rate": 0.0},
        {"lr_decay_rate": 1.5}, {"lr_decay_every": 0}])
    def test_bad_schedule_refused_before_out_dir(self, tmp_path, bad):
        # base_lr -1 used to train by gradient ascent; lr_decay_every 0
        # used to create the run directory, then divide by zero in fold 0
        data = self.build_data()
        with pytest.raises(ConfigError, match=next(iter(bad))):
            harness.run_experiment(data, self.config(**bad), tmp_path / "run",
                                   model_config=tiny_model(2, 2))
        assert not (tmp_path / "run").exists()

    def test_locked_directory_refused(self, tmp_path):
        data = self.build_data()
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("pid 12345\n")
        with pytest.raises(UsageError, match="locked"):
            harness.run_experiment(data, self.config(), out,
                                   model_config=tiny_model(2, 2))
