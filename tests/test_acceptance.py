"""Acceptance gate: one test per shipping criterion.

Each test prints a single `criterion NN <name>: PASS` line on success (run
with -s to see them; `pytest -v` shows one PASSED/FAILED/SKIPPED line per
criterion either way). Criteria 6-8 exercise the real recorded dataset and
skip with an explicit reason when $PRESSNET_DATA_ROOT is not set — they are
multi-hour CPU runs documented in the README.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.stats

from pressnet import baselines, harness, losses, signal, synthetic, tensor
from pressnet.checkpoint import save_checkpoint
from pressnet.harness import TrainConfig
from pressnet.model import ModelConfig, PostureNet
from pressnet.tensor import make_rng

from util import median_oracle, pool_oracle, small_net, synthetic_batch

DATA_ROOT = os.environ.get("PRESSNET_DATA_ROOT")
dataset_required = pytest.mark.skipif(
    DATA_ROOT is None,
    reason="needs the recorded pressure-map dataset, which is not bundled "
           "in this environment; set PRESSNET_DATA_ROOT to its layout root "
           "(<root>/S<subject>/<posture>.txt) to run the desk-scale "
           "reproduction")


def _ok(n, name):
    print(f"criterion {n:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: full-model gradient correctness


def test_criterion_01_gradient_correctness(small_net):
    """Finite differences vs the hand-written backward pass.

    Miniature configuration: channels 2/2/4/4, dense width 8, 3 subjects,
    4 postures, batch 4, 64-bit floats. Max relative error over sampled
    coordinates of every parameter tensor must be <= 1e-4.
    """
    small_net(CONV_CHANNELS=(2, 2, 4, 4))
    mc = ModelConfig(num_subjects=3, num_postures=4)
    net = PostureNet(mc, make_rng(1), dtype=np.float64)
    rng = make_rng(2)
    x = rng.random((4, 1, 32, 64))
    yu = rng.integers(0, 3, size=4)
    yp = rng.integers(0, 4, size=4)
    lam = 0.4

    def total_loss():
        pu, pp = net.forward(x, train=True)
        return net.loss(pu, pp, yu, yp, lam)[0]

    pu, pp = net.forward(x, train=True)
    grads = net.backward(pu, pp, yu, yp, lam)

    h = 1e-5
    worst = 0.0
    for name, w in net.params().items():
        flat = w.reshape(-1)
        idx = np.unique(np.linspace(0, flat.size - 1,
                                    num=min(5, flat.size)).astype(int))
        for j in idx:
            orig = flat[j]
            flat[j] = orig + h
            up = total_loss()
            flat[j] = orig - h
            down = total_loss()
            flat[j] = orig
            fd = (up - down) / (2 * h)
            an = float(grads[name].reshape(-1)[j])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{name}[{j}]: fd={fd:.3e} grad={an:.3e}"
    _ok(1, f"gradient correctness (max rel err {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 2: kernel brute-force oracles, >= 100 random instances each


def _conv_oracle(x, k):
    cout, cin, kh, kw = k.shape
    b, _, hh, ww = x.shape
    out = np.zeros((b, cout, hh - kh + 1, ww - kw + 1))
    for bi in range(b):
        for o in range(cout):
            for y in range(hh - kh + 1):
                for xx in range(ww - kw + 1):
                    out[bi, o, y, xx] = float(
                        (x[bi, :, y:y + kh, xx:xx + kw] * k[o]).sum())
    return out


def _metrics_oracle(cm):
    k = cm.shape[0]
    total = cm.sum()
    acc = sum(cm[i, i] for i in range(k)) / total * 100
    prec, rec, spec = [], [], []
    for c in range(k):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        tn = total - tp - fp - fn
        prec.append(tp / (tp + fp) * 100 if tp + fp else np.nan)
        rec.append(tp / (tp + fn) * 100 if tp + fn else np.nan)
        spec.append(tn / (tn + fp) * 100 if tn + fp else np.nan)
    return acc, np.array(prec), np.array(rec), np.array(spec)


def test_criterion_02_kernel_oracles():
    rng = make_rng(300)

    for _ in range(100):  # valid convolution
        b, cin, cout = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                        int(rng.integers(1, 4)))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        hh, ww = int(rng.integers(kh, 7)), int(rng.integers(kw, 7))
        x = rng.normal(size=(b, cin, hh, ww))
        k = rng.normal(size=(cout, cin, kh, kw))
        np.testing.assert_allclose(tensor.conv2d_valid(x, k),
                                   _conv_oracle(x, k), rtol=1e-12, atol=1e-12)

    for _ in range(100):  # max pooling with deterministic tie handling
        b, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        window = int(rng.integers(2, 4))
        stride = int(rng.integers(1, 3))
        hh, ww = int(rng.integers(window, 9)), int(rng.integers(window, 9))
        x = rng.integers(0, 4, size=(b, c, hh, ww)).astype(np.float64)
        out, arg = tensor.maxpool2d(x, window=window, stride=stride)
        want_out, want_arg = pool_oracle(x, window, stride)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(arg, want_arg)

    for _ in range(100):  # 3x3x3 median with edge clamping
        t = int(rng.integers(1, 6))
        hh, ww = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        vol = rng.integers(0, 50, size=(t, hh, ww)).astype(np.float32)
        np.testing.assert_array_equal(signal.median_filter_3d(vol),
                                      median_oracle(vol))

    for _ in range(100):  # confusion-matrix derived rates
        k = int(rng.integers(2, 7))
        cm = rng.integers(0, 12, size=(k, k))
        if cm.sum() == 0:
            cm[0, 0] = 1
        m = harness.compute_metrics(cm)
        acc, prec, rec, spec = _metrics_oracle(cm)
        assert abs(m.accuracy - acc) <= 1e-12
        for got, want in ((m.precision, prec), (m.recall, rec),
                          (m.specificity, spec)):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            np.testing.assert_allclose(got[ok], want[ok], atol=1e-12)

    for _ in range(100):  # Welch statistic, df, and two-sided p
        a = rng.normal(size=int(rng.integers(2, 30)))
        b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(2, 30)))
        t_got, p_got, df_got = harness.welch_t_test(a, b)
        sa, sb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
        t_want = (a.mean() - b.mean()) / np.sqrt(sa + sb)
        df_want = (sa + sb) ** 2 / (sa ** 2 / (a.size - 1)
                                    + sb ** 2 / (b.size - 1))
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert abs(t_got - t_want) <= 1e-12 * max(1.0, abs(t_want))
        assert abs(df_got - df_want) <= 1e-12 * df_want
        assert np.isclose(p_got, ref.pvalue, rtol=1e-12, atol=1e-15)

    _ok(2, "kernel oracles (5 kernels x 100 instances)")


# ---------------------------------------------------------------------------
# criterion 3: augmentation firing frequencies


def test_criterion_03_augmentation_statistics():
    rng = make_rng(2024, 3)
    draws = 10_000
    counts = np.zeros(4)
    for _ in range(draws):
        rot180, dx, dy, angle = signal.augment_plan(rng)
        counts += [rot180, dx is not None, dy is not None, angle is not None]
    freqs = counts / draws
    for got, want in zip(freqs, (0.50, 0.20, 0.20, 0.20)):
        assert abs(got - want) <= 0.02, f"fired {got:.4f}, configured {want}"
    _ok(3, "augmentation statistics "
           f"({'/'.join(f'{f:.3f}' for f in freqs)})")


# ---------------------------------------------------------------------------
# criterion 4: loss algebra and head isolation


def test_criterion_04_loss_algebra(small_net):
    rng = make_rng(400)
    for _ in range(100):
        lu = float(rng.uniform(0, 5))
        lp = float(rng.uniform(0, 5))
        lam = float(rng.uniform(0, 1))
        assert losses.combined_loss(lu, lp, 0.0) == lp
        assert losses.combined_loss(lu, lp, 1.0) == lu
        assert losses.combined_loss(lu, lp, lam) == lam * lu + (1.0 - lam) * lp

    small_net(CONV_CHANNELS=(2, 2, 4, 4))
    mc = ModelConfig(num_subjects=3, num_postures=4)
    net = PostureNet(mc, make_rng(3), dtype=np.float64)
    x = rng.random((6, 1, 32, 64))
    yu = rng.integers(0, 3, size=6)
    yp = rng.integers(0, 4, size=6)

    def grads_for(labels_u, labels_p, lam):
        pu, pp = net.forward(x, train=True)
        return {k: v.copy()
                for k, v in net.backward(pu, pp, labels_u, labels_p,
                                         lam).items()}

    # lambda=1: posture labels must not influence any gradient
    g_base = grads_for(yu, yp, 1.0)
    g_perm = grads_for(yu, (yp + 1) % 4, 1.0)
    for k in g_base:
        assert np.array_equal(g_base[k], g_perm[k]), k
    # lambda=0: symmetric claim for subject labels
    g_base = grads_for(yu, yp, 0.0)
    g_perm = grads_for((yu + 1) % 3, yp, 0.0)
    for k in g_base:
        assert np.array_equal(g_base[k], g_perm[k]), k
    _ok(4, "loss algebra & head isolation")


# ---------------------------------------------------------------------------
# criteria 5 & 9: memorization sanity and bitwise determinism


MEMO_SEED = 5


def _memo_setup():
    x, yu, yp = synthetic_batch(64, 4, 4, seed=MEMO_SEED)
    mc = ModelConfig(num_subjects=4, num_postures=4)
    cfg = TrainConfig(lam=0.5, epochs=100, batch_size=16, base_lr=1e-3,
                      seed=MEMO_SEED)
    return x, yu, yp, mc, cfg


@pytest.fixture(scope="module")
def memo_run():
    x, yu, yp, mc, cfg = _memo_setup()
    t0 = time.time()
    net, state, curves = harness.train_model(x, yu, yp, cfg, mc)
    return dict(net=net, state=state, curves=curves,
                seconds=time.time() - t0)


def test_criterion_05_memorization(memo_run):
    """64 samples, lambda=0.5: both heads hit 100% training accuracy."""
    curves = memo_run["curves"]
    hit = [e for e in range(len(curves["acc_user"]))
           if curves["acc_user"][e] == 1.0 and curves["acc_posture"][e] == 1.0]
    assert hit, "never reached 100% on both heads"
    assert hit[0] < 200
    assert memo_run["seconds"] <= 120, f"took {memo_run['seconds']:.0f}s"
    _ok(5, f"memorization (100% both heads at epoch {hit[0]}, "
           f"{memo_run['seconds']:.0f}s)")


def test_criterion_09_determinism(memo_run, tmp_path):
    """Rerunning the criterion-5 training bit-identically reproduces the
    checkpoint and the evaluation report."""
    x, yu, yp, mc, cfg = _memo_setup()
    net2, state2, curves2 = harness.train_model(x, yu, yp, cfg, mc)

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, memo_run["net"], adam=memo_run["state"],
                    epoch=cfg.epochs, seed=cfg.seed)
    save_checkpoint(p2, net2, adam=state2, epoch=cfg.epochs, seed=cfg.seed)
    assert p1.read_bytes() == p2.read_bytes()
    assert memo_run["curves"] == curves2

    from pressnet.dataio import default_taxonomy
    seqs = [synthetic.synthetic_sequence(s, p, 4, seed=2)
            for s in (1, 2, 3, 4) for p in (1, 2, 3, 4)]
    data = harness.flatten_sequences(seqs, default_taxonomy())
    idx = np.arange(len(data))

    def report_bytes(net):
        rep = harness.evaluate_model(net, data, idx)
        doc = {k: (rep[k].as_dict() if hasattr(rep[k], "as_dict") else rep[k])
               for k in ("posture_fine", "posture_coarse", "subject",
                         "subject_by_category")}
        return json.dumps(doc, sort_keys=True).encode()

    assert report_bytes(memo_run["net"]) == report_bytes(net2)
    _ok(9, "determinism (checkpoint, curves, and report bytes identical)")


# ---------------------------------------------------------------------------
# criteria 6-8: desk-scale reproduction on the recorded dataset


@pytest.fixture(scope="session")
def real_data(tmp_path_factory):
    cache = tmp_path_factory.mktemp("acceptance_cache")
    manifest, _ = signal.preprocess_dataset(DATA_ROOT, cache)
    seqs = signal.load_clean_sequences(manifest)
    # every 4th frame bounds the runtime of the desk-scale runs
    return harness.flatten_sequences(seqs, manifest.taxonomy, stride=4)


@pytest.fixture(scope="session")
def cnn_kfold(real_data, tmp_path_factory):
    cfg = TrainConfig(scheme="kfold", lam=0.5)
    out = tmp_path_factory.mktemp("acceptance_runs") / "kfold"
    return harness.run_experiment(real_data, cfg, out)


@pytest.fixture(scope="session")
def cnn_loso(real_data, tmp_path_factory):
    cfg = TrainConfig(scheme="loso", lam=0.2)
    out = tmp_path_factory.mktemp("acceptance_runs") / "loso"
    return harness.run_experiment(real_data, cfg, out)


@pytest.fixture(scope="session")
def cnn_loso_lam0(real_data, tmp_path_factory):
    cfg = TrainConfig(scheme="loso", lam=0.0)
    out = tmp_path_factory.mktemp("acceptance_runs") / "loso_lam0"
    return harness.run_experiment(real_data, cfg, out)


@dataset_required
def test_criterion_06_desk_scale_reproduction(cnn_kfold, cnn_loso):
    """Subsampled (stride 4) reproduction; budget <= 4h CPU for (a)+(b)."""
    coarse_kfold = cnn_kfold["posture_coarse"]["accuracy_mean"]
    subject_kfold = cnn_kfold["subject"]["accuracy_mean"]
    assert coarse_kfold >= 97.0, f"(a) coarse accuracy {coarse_kfold:.2f}%"
    assert subject_kfold >= 97.0, f"(a) subject accuracy {subject_kfold:.2f}%"
    coarse_prec = cnn_loso["posture_coarse"]["precision_mean"]
    assert coarse_prec >= 95.0, f"(b) coarse mean precision {coarse_prec:.2f}%"
    fine_loso = cnn_loso["posture_fine"]["accuracy_mean"]
    assert fine_loso >= 75.0, f"(c) 17-class accuracy {fine_loso:.2f}%"
    _ok(6, f"desk-scale reproduction (a={coarse_kfold:.1f}/{subject_kfold:.1f}"
           f" b={coarse_prec:.1f} c={fine_loso:.1f})")


@dataset_required
def test_criterion_07_lambda_effect_direction(cnn_loso, cnn_loso_lam0):
    with_task = cnn_loso["posture_fine"]["accuracy_per_fold"]
    without = cnn_loso_lam0["posture_fine"]["accuracy_per_fold"]
    t, p, df = harness.welch_t_test(with_task, without)
    assert np.mean(with_task) > np.mean(without)
    assert 0.0 <= p <= 1.0
    _ok(7, f"lambda effect (+{np.mean(with_task) - np.mean(without):.2f} "
           f"points, p={p:.4f})")


@dataset_required
def test_criterion_08_baseline_collapse(real_data, cnn_kfold, cnn_loso):
    feats = baselines.extract_feature_matrix(real_data.x)
    results = {}
    for scheme in ("kfold", "loso"):
        plan = harness.split_for(real_data, TrainConfig(scheme=scheme))
        for method in ("knn", "trees"):
            accs = []
            for train_idx, test_idx in plan.folds:
                mu, sd = baselines.standardize_fit(feats[train_idx])
                tr = baselines.standardize_apply(feats[train_idx], mu, sd)
                te = baselines.standardize_apply(feats[test_idx], mu, sd)
                tr_y = real_data.coarse_idx[train_idx]
                te_y = real_data.coarse_idx[test_idx]
                if method == "knn":
                    pred = baselines.knn_predict(tr, tr_y, te, k=10)
                else:
                    ens = baselines.train_bagged_trees(tr, tr_y, seed=0)
                    pred = baselines.predict_trees(ens, te)
                accs.append(float((pred == te_y).mean()) * 100.0)
            results[(method, scheme)] = float(np.mean(accs))

    for method in ("knn", "trees"):
        kf, lo = results[(method, "kfold")], results[(method, "loso")]
        assert kf >= 95.0, f"{method} 10-fold accuracy {kf:.2f}%"
        assert kf - lo >= 15.0, f"{method} drop only {kf - lo:.2f} points"
    cnn_drop = (cnn_kfold["posture_coarse"]["accuracy_mean"]
                - cnn_loso["posture_coarse"]["accuracy_mean"])
    assert cnn_drop <= 5.0, f"model drop {cnn_drop:.2f} points"
    _ok(8, "baseline collapse (classical drop >= 15, model drop <= 5)")


# ---------------------------------------------------------------------------
# criterion 10: split invariants as a property test


def test_criterion_10_split_properties():
    rng = make_rng(777)
    for _ in range(600):
        n = int(rng.integers(10, 400))
        k = int(rng.integers(2, min(n, 20)))
        plan = harness.kfold_split(n, k=k, seed=int(rng.integers(1 << 30)))
        tests = [t for _, t in plan.folds]
        allidx = np.concatenate(tests)
        assert allidx.size == n and np.unique(allidx).size == n
        sizes = {t.size for t in tests}
        assert max(sizes) - min(sizes) <= 1
        for train, test in plan.folds:
            assert not set(train.tolist()) & set(test.tolist())
            assert train.size + test.size == n

    for _ in range(400):
        n_subjects = int(rng.integers(2, 14))
        n = int(rng.integers(n_subjects, 200))
        subj = rng.integers(0, n_subjects, size=n)
        subj[:n_subjects] = np.arange(n_subjects)  # every subject occurs
        plan = harness.loso_split(subj)
        assert len(plan) == n_subjects
        covered = []
        for train, test in plan.folds:
            held = np.unique(subj[test])
            assert held.size == 1
            assert held[0] not in subj[train]
            assert train.size + test.size == n
            covered.append(test)
        allidx = np.concatenate(covered)
        assert allidx.size == n and np.unique(allidx).size == n
    _ok(10, "split properties (1000 random plans)")
