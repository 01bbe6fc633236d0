"""Training loop, cross-validation splits, metrics, and experiment runs.

Randomness is organized as named streams derived from the run seed:

    stream 0          parameter initialization
    stream 1          split shuffling
    stream (2, epoch) minibatch shuffle for that epoch
    stream (3, epoch) dropout masks for that epoch
    stream (4, epoch) augmentation draws for that epoch
    stream (5, fold)  test-set augmentation (augment-both mode)

Keying per-epoch streams by the absolute epoch index makes checkpoint
resume bit-equivalent to uninterrupted training.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import special as _special

from . import baselines as classical
from . import dataio, signal
from .checkpoint import Checkpoint, restore_net, save_checkpoint
from .errors import (ConfigError, LabelError, NumericFault, TrainingFault,
                     UsageError)
from .model import ModelConfig, PostureNet
from .optim import AdamState, adam_step, lr_schedule
from .tensor import make_rng

__all__ = [
    "TrainConfig", "FoldPlan", "FlatDataset", "Metrics",
    "kfold_split", "loso_split", "flatten_sequences",
    "train_model", "evaluate_model", "confusion_matrix", "collapse_confusion",
    "compute_metrics", "welch_t_test", "run_experiment", "run_sweep",
]

STREAM_INIT = 0
STREAM_SPLIT = 1
STREAM_SHUFFLE = 2
STREAM_DROPOUT = 3
STREAM_AUGMENT = 4
STREAM_EVAL_AUGMENT = 5


@dataclass
class TrainConfig:
    lam: float = 0.5            # subject-loss weight; posture gets 1-lam
    base_lr: float = 2e-5
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    augment: bool = False       # augment training batches
    augment_eval: bool = False  # also augment test frames at evaluation
    scheme: str = "kfold"
    k: int = 10
    split_level: str = "frame"  # "sequence" keeps recordings intact (stricter)
    lr_decay_rate: float = 0.95
    lr_decay_every: int = 10

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0,1], got {self.lam}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch statistics)")
        if self.scheme not in ("kfold", "loso"):
            raise ConfigError(f"unknown scheme '{self.scheme}'")
        if self.split_level not in ("frame", "sequence"):
            raise ConfigError(f"unknown split_level '{self.split_level}'")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0.0):
            raise ConfigError(f"base_lr must be finite and > 0, "
                              f"got {self.base_lr}")
        if not 0.0 < self.lr_decay_rate <= 1.0:
            raise ConfigError(f"lr_decay_rate must be in (0,1], "
                              f"got {self.lr_decay_rate}")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1, "
                              f"got {self.lr_decay_every}")


@dataclass
class FoldPlan:
    folds: list   # of (train_indices, test_indices) int arrays

    def __len__(self):
        return len(self.folds)


def kfold_split(n: int, k: int = 10, seed: int = 0) -> FoldPlan:
    """Seeded shuffle, then contiguous partition into k test sets.

    The first n % k folds are one element larger, so sizes differ by at
    most one.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if n < k:
        raise ConfigError(f"cannot make {k} folds from {n} samples")
    order = make_rng(seed, STREAM_SPLIT).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = np.sort(order[start:start + size])
        train = np.sort(np.concatenate([order[:start], order[start + size:]]))
        folds.append((train, test))
        start += size
    return FoldPlan(folds)


def loso_split(subject_idx: np.ndarray) -> FoldPlan:
    """One fold per subject: its samples test, everyone else's train."""
    subject_idx = np.asarray(subject_idx)
    subjects = np.unique(subject_idx)
    if subjects.size < 2:
        raise ConfigError("leave-one-subject-out needs at least 2 subjects")
    all_idx = np.arange(subject_idx.size)
    folds = []
    for s in subjects:
        mask = subject_idx == s
        folds.append((all_idx[~mask], all_idx[mask]))
    return FoldPlan(folds)


# ---------------------------------------------------------------------------
# dataset flattening


@dataclass
class FlatDataset:
    """Sequences unrolled to single frames with aligned label arrays."""

    x: np.ndarray             # (N, 1, H, W) float32
    subject_idx: np.ndarray   # 0-based class indices
    posture_idx: np.ndarray   # 0-based fine posture indices
    coarse_idx: np.ndarray    # 0-based coarse category indices
    seq_id: np.ndarray        # sequence of origin, for sequence-level splits
    subject_ids: list         # position -> original subject id
    posture_ids: list         # position -> original posture id

    def __len__(self):
        return self.x.shape[0]

    @property
    def num_subjects(self):
        return len(self.subject_ids)

    @property
    def num_postures(self):
        return len(self.posture_ids)


def flatten_sequences(sequences, taxonomy, stride: int = 1) -> FlatDataset:
    """Unroll sequences into per-frame samples.

    stride > 1 keeps every stride-th frame (runtime bound for desk-scale
    runs). Class indices are positions in the sorted list of ids actually
    present, so models size themselves to the data.
    """
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if not sequences:
        raise ConfigError("no sequences to flatten")
    subject_ids = sorted({s.subject_id for s in sequences})
    posture_ids = sorted({s.posture_id for s in sequences})
    s_index = {sid: i for i, sid in enumerate(subject_ids)}
    p_index = {pid: i for i, pid in enumerate(posture_ids)}

    xs, su, po, co, sq = [], [], [], [], []
    for seq_no, seq in enumerate(sequences):
        frames = seq.frames[::stride]
        if frames.shape[0] == 0:
            continue
        xs.append(np.asarray(frames, dtype=np.float32)[:, None])
        n = frames.shape[0]
        su.append(np.full(n, s_index[seq.subject_id], dtype=np.int64))
        po.append(np.full(n, p_index[seq.posture_id], dtype=np.int64))
        cat = dataio.coarse_label(seq.posture_id, taxonomy)
        co.append(np.full(n, cat, dtype=np.int64))
        sq.append(np.full(n, seq_no, dtype=np.int64))
    return FlatDataset(x=np.concatenate(xs), subject_idx=np.concatenate(su),
                       posture_idx=np.concatenate(po),
                       coarse_idx=np.concatenate(co),
                       seq_id=np.concatenate(sq),
                       subject_ids=subject_ids, posture_ids=posture_ids)


def split_for(data: FlatDataset, config: TrainConfig) -> FoldPlan:
    """Build the FoldPlan a TrainConfig asks for over a flat dataset."""
    if config.scheme == "loso":
        return loso_split(data.subject_idx)
    if config.split_level == "sequence":
        n_seq = int(data.seq_id.max()) + 1
        plan = kfold_split(n_seq, k=config.k, seed=config.seed)
        folds = []
        for train_s, test_s in plan.folds:
            train_mask = np.isin(data.seq_id, train_s)
            idx = np.arange(len(data))
            folds.append((idx[train_mask], idx[~train_mask]))
        return FoldPlan(folds)
    return kfold_split(len(data), k=config.k, seed=config.seed)


# ---------------------------------------------------------------------------
# training


def _iter_batches(n: int, batch_size: int, order: np.ndarray):
    """Yield index chunks; a trailing chunk of 1 is dropped (batch norm)."""
    for start in range(0, n, batch_size):
        chunk = order[start:start + batch_size]
        if chunk.size >= 2:
            yield chunk


def _augment_batch(xb: np.ndarray, rng) -> np.ndarray:
    policy = signal.AugmentPolicy()
    out = np.empty_like(xb)
    for i in range(xb.shape[0]):
        out[i, 0] = signal.augment_sample(xb[i, 0], policy, rng)
    return out


def train_model(x, y_user, y_posture, config: TrainConfig,
                model_config: ModelConfig, resume: Checkpoint | None = None,
                epoch_hook=None):
    """Train the dual-head network; returns (net, adam_state, curves).

    curves maps each of loss_user/loss_posture/loss_total/l2/acc_user/
    acc_posture to one value per epoch (training-mode statistics).
    resume continues a checkpointed run: same seed, epochs counted from the
    checkpoint's epoch, bit-equivalent to never having stopped.
    epoch_hook(epoch, curves) runs after each epoch (progress reporting).
    """
    x = np.asarray(x, dtype=np.float32)
    y_user = np.asarray(y_user)
    y_posture = np.asarray(y_posture)
    n = x.shape[0]
    if n == 0:
        raise ConfigError("empty training set")
    if y_user.shape != (n,) or y_posture.shape != (n,):
        raise ConfigError("label arrays must match sample count")
    if y_user.max() >= model_config.num_subjects or y_user.min() < 0:
        raise LabelError("subject label outside model range")
    if y_posture.max() >= model_config.num_postures or y_posture.min() < 0:
        raise LabelError("posture label outside model range")

    if resume is not None:
        if resume.seed != config.seed:
            raise UsageError(
                f"checkpoint seed {resume.seed} != config seed {config.seed}")
        net = restore_net(resume)
        state = resume.adam
        if state is None:
            raise UsageError("checkpoint carries no optimizer state")
        # moments must drive the live parameter arrays
        state.m = {k: state.m[k] for k in net.params()}
        state.v = {k: state.v[k] for k in net.params()}
        start_epoch = resume.epoch
    else:
        net = PostureNet(model_config, make_rng(config.seed, STREAM_INIT))
        state = AdamState(net.params())
        start_epoch = 0

    curves = {k: [] for k in ("loss_user", "loss_posture", "loss_total",
                              "l2", "acc_user", "acc_posture")}
    params = net.params()
    for epoch in range(start_epoch, config.epochs):
        lr = lr_schedule(config.base_lr, epoch, config.lr_decay_rate,
                         config.lr_decay_every)
        order = make_rng(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
        drop_rng = make_rng(config.seed, STREAM_DROPOUT, epoch)
        aug_rng = make_rng(config.seed, STREAM_AUGMENT, epoch)

        sums = {k: 0.0 for k in curves}
        seen = 0
        for batch_no, idx in enumerate(_iter_batches(n, config.batch_size, order)):
            xb = x[idx]
            if config.augment:
                xb = _augment_batch(xb, aug_rng)
            yu, yp = y_user[idx], y_posture[idx]

            probs_u, probs_p = net.forward(xb, train=True, rng=drop_rng)
            total, lu, lp, l2 = net.loss(probs_u, probs_p, yu, yp, config.lam)
            if not math.isfinite(total):
                raise TrainingFault(
                    f"non-finite loss at epoch {epoch} batch {batch_no}: "
                    f"user={lu} posture={lp} l2={l2}")

            grads = net.backward(probs_u, probs_p, yu, yp, config.lam)
            adam_step(params, grads, state, lr)

            b = idx.size
            sums["loss_user"] += lu * b
            sums["loss_posture"] += lp * b
            sums["loss_total"] += total * b
            sums["l2"] += l2 * b
            sums["acc_user"] += float((probs_u.argmax(axis=1) == yu).sum())
            sums["acc_posture"] += float((probs_p.argmax(axis=1) == yp).sum())
            seen += b
        if seen == 0:
            raise ConfigError("no usable batches (need at least 2 samples)")
        for k in curves:
            curves[k].append(sums[k] / seen)
        if epoch_hook is not None:
            epoch_hook(epoch, curves)
    return net, state, curves


# ---------------------------------------------------------------------------
# evaluation


def confusion_matrix(y_true, y_pred, k: int) -> np.ndarray:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise UsageError("empty evaluation set")
    if y_true.min() < 0 or y_true.max() >= k or y_pred.min() < 0 or y_pred.max() >= k:
        raise LabelError(f"labels outside [0,{k})")
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def collapse_confusion(cm: np.ndarray, group: np.ndarray, n_groups: int) -> np.ndarray:
    """Block-sum a fine confusion matrix through a class->group map."""
    group = np.asarray(group)
    out = np.zeros((n_groups, n_groups), dtype=cm.dtype)
    np.add.at(out, (group[:, None].repeat(cm.shape[1], axis=1),
                    group[None, :].repeat(cm.shape[0], axis=0)), cm)
    return out


@dataclass
class Metrics:
    """Per-class rates in percent; NaN marks an undefined entry."""

    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    specificity: np.ndarray
    accuracy: float

    def as_dict(self):
        def clean(a):
            return [None if math.isnan(v) else round(v, 6) for v in a.tolist()]
        return {"confusion": self.confusion.tolist(),
                "precision": clean(self.precision),
                "recall": clean(self.recall),
                "specificity": clean(self.specificity),
                "accuracy": round(self.accuracy, 6)}


def compute_metrics(cm: np.ndarray) -> Metrics:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.size == 0:
        raise UsageError(f"confusion matrix must be square, got {cm.shape}")
    total = cm.sum()
    if total == 0:
        raise UsageError("confusion matrix has no observations")
    tp = np.diag(cm).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)   # actual counts
    col = cm.sum(axis=0).astype(np.float64)   # predicted counts
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, tp / col, np.nan) * 100.0
        recall = np.where(row > 0, tp / row, np.nan) * 100.0
        tn = total - row - col + tp
        fp = col - tp
        denom = tn + fp
        specificity = np.where(denom > 0, tn / denom, np.nan) * 100.0
    accuracy = float(tp.sum() / total) * 100.0
    return Metrics(confusion=cm.astype(np.int64), precision=precision,
                   recall=recall, specificity=specificity, accuracy=accuracy)


def _forward_in_chunks(net: PostureNet, x: np.ndarray, chunk: int = 256):
    pu, pp = [], []
    for s in range(0, x.shape[0], chunk):
        u, p = net.forward(x[s:s + chunk], train=False)
        pu.append(u)
        pp.append(p)
    return np.concatenate(pu), np.concatenate(pp)


def evaluate_model(net: PostureNet, data: FlatDataset, test_idx,
                   include_subject: bool = True, augment_rng=None) -> dict:
    """Inference-mode evaluation on one test split.

    Returns a dict with 'posture_fine', 'posture_coarse', and (unless
    disabled, as under leave-one-subject-out) 'subject' Metrics, plus
    per-category subject accuracy so subject results can be read either
    pooled or split by posture category.
    """
    test_idx = np.asarray(test_idx)
    if test_idx.size == 0:
        raise UsageError("empty test split")
    x = data.x[test_idx]
    if augment_rng is not None:
        x = _augment_batch(x, augment_rng)
    yu = data.subject_idx[test_idx]
    yp = data.posture_idx[test_idx]
    yc = data.coarse_idx[test_idx]

    probs_u, probs_p = _forward_in_chunks(net, x)
    pred_u = probs_u.argmax(axis=1)
    pred_p = probs_p.argmax(axis=1)

    fine_cm = confusion_matrix(yp, pred_p, net.config.num_postures)
    coarse_cm = collapse_confusion(fine_cm, posture_group(data),
                                   len(dataio.CATEGORIES))

    report = {"posture_fine": compute_metrics(fine_cm),
              "posture_coarse": compute_metrics(coarse_cm),
              "subject": None, "subject_by_category": None}
    if include_subject:
        subj_cm = confusion_matrix(yu, pred_u, net.config.num_subjects)
        by_cat = {}
        for c, name in enumerate(dataio.CATEGORIES):
            mask = yc == c
            if mask.any():
                acc = float((pred_u[mask] == yu[mask]).mean()) * 100.0
                by_cat[name] = acc
        report["subject"] = compute_metrics(subj_cm)
        report["subject_by_category"] = by_cat
    return report


def posture_group(data: FlatDataset) -> np.ndarray:
    """Fine-posture position -> coarse category index, from the data itself."""
    group = np.zeros(data.num_postures, dtype=np.int64)
    for pos in range(data.num_postures):
        mask = data.posture_idx == pos
        if mask.any():
            group[pos] = int(data.coarse_idx[np.argmax(mask)])
    return group


# ---------------------------------------------------------------------------
# statistics


def welch_t_test(sample_a, sample_b):
    """Two-sided Welch unequal-variance t-test.

    Returns (t, p, df). The statistic and Welch-Satterthwaite degrees of
    freedom follow the textbook formulas; the tail probability comes from
    the t-distribution CDF.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ConfigError("each sample needs at least 2 values")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise NumericFault("both samples have zero variance; t undefined")
    sa = va / a.size
    sb = vb / b.size
    t = (a.mean() - b.mean()) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa ** 2 / (a.size - 1) + sb ** 2 / (b.size - 1))
    # two-sided tail P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2); the incomplete
    # beta form stays accurate far into the tail where 1-CDF underflows
    p = float(_special.betainc(0.5 * df, 0.5, df / (df + t * t)))
    return float(t), float(p), float(df)


# ---------------------------------------------------------------------------
# experiment runner


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_curves(path, curves: dict):
    keys = sorted(curves)
    with open(path, "w") as fh:
        fh.write("epoch\t" + "\t".join(keys) + "\n")
        for e in range(len(curves[keys[0]])):
            row = "\t".join(f"{curves[k][e]:.10g}" for k in keys)
            fh.write(f"{e}\t{row}\n")


def _fold_report_dict(report: dict) -> dict:
    out = {}
    for name, metrics in report.items():
        if metrics is None:
            out[name] = None
        elif isinstance(metrics, Metrics):
            out[name] = metrics.as_dict()
        else:
            out[name] = metrics
    return out


def acquire_run_dir(out_dir) -> None:
    """Create the run directory and its lock marker; refuse a locked one."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        fd = os.open(os.path.join(out_dir, ".lock"),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise UsageError(
            f"run directory '{out_dir}' is locked by another run "
            "(remove .lock if that run is dead)") from None
    with os.fdopen(fd, "w") as fh:
        fh.write(f"pid {os.getpid()}\n")


def release_run_dir(out_dir) -> None:
    lock = os.path.join(out_dir, ".lock")
    if os.path.exists(lock):
        os.remove(lock)


def run_experiment(data: FlatDataset, config: TrainConfig, out_dir,
                   model_config: ModelConfig | None = None,
                   progress=None, baselines=()) -> dict:
    """Cross-validated training and evaluation with persisted artifacts.

    Writes into out_dir: config.json, per-fold directories (metrics.json,
    confusion grids, curves.tsv, model.ckpt), baselines.json when
    `baselines` names methods from baselines.METHODS (fitted on the same
    folds), aggregate.json, summary.txt, timing.txt (kept separate so every
    other artifact is a deterministic function of config + seed) and,
    last, DONE. Everything is checked before out_dir is created.
    progress(fold_no, n_folds, report) runs after each fold.
    """
    classical.check_methods(baselines)
    if model_config is None:
        model_config = ModelConfig(num_subjects=data.num_subjects,
                                   num_postures=data.num_postures)
    plan = split_for(data, config)
    include_subject = config.scheme != "loso"

    acquire_run_dir(out_dir)
    try:
        _write_json(os.path.join(out_dir, "config.json"), {
            "train": asdict(config), "model": model_config.as_dict(),
            "samples": len(data), "folds": len(plan),
            "subject_ids": data.subject_ids, "posture_ids": data.posture_ids,
        })

        fold_reports = []
        timings = []
        for fold_no, (train_idx, test_idx) in enumerate(plan.folds):
            t0 = time.time()
            try:
                net, state, curves = train_model(
                    data.x[train_idx], data.subject_idx[train_idx],
                    data.posture_idx[train_idx], config, model_config)
                aug_rng = (make_rng(config.seed, STREAM_EVAL_AUGMENT, fold_no)
                           if config.augment_eval else None)
                report = evaluate_model(net, data, test_idx,
                                        include_subject=include_subject,
                                        augment_rng=aug_rng)
            except Exception as exc:
                raise TrainingFault(f"fold {fold_no} failed: {exc}") from exc
            timings.append(time.time() - t0)

            fdir = os.path.join(out_dir, f"fold_{fold_no:02d}")
            os.makedirs(fdir, exist_ok=True)
            _write_json(os.path.join(fdir, "metrics.json"),
                        _fold_report_dict(report))
            np.savetxt(os.path.join(fdir, "cm_fine.txt"),
                       report["posture_fine"].confusion, fmt="%d")
            np.savetxt(os.path.join(fdir, "cm_coarse.txt"),
                       report["posture_coarse"].confusion, fmt="%d")
            if report["subject"] is not None:
                np.savetxt(os.path.join(fdir, "cm_subject.txt"),
                           report["subject"].confusion, fmt="%d")
            _write_curves(os.path.join(fdir, "curves.tsv"), curves)
            save_checkpoint(os.path.join(fdir, "model.ckpt"), net, adam=state,
                            epoch=config.epochs, seed=config.seed)
            fold_reports.append(report)
            if progress is not None:
                progress(fold_no, len(plan), report)

        if baselines:
            _write_json(os.path.join(out_dir, "baselines.json"),
                        classical.run_baselines(data.x, data.coarse_idx,
                                                plan.folds, baselines,
                                                seed=config.seed))
        aggregate = aggregate_reports(fold_reports)
        _write_json(os.path.join(out_dir, "aggregate.json"), aggregate)
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write(render_summary(aggregate, config))
        with open(os.path.join(out_dir, "timing.txt"), "w") as fh:
            for i, dt in enumerate(timings):
                fh.write(f"fold {i}: {dt:.2f} s\n")
            fh.write(f"total: {sum(timings):.2f} s\n")
        with open(os.path.join(out_dir, "DONE"), "w") as fh:
            fh.write("ok\n")
        return aggregate
    finally:
        release_run_dir(out_dir)


def check_sweep(lams) -> None:
    """A lambda sweep needs 0 (the t-test's single-task anchor) and values
    in [0,1]; UsageError otherwise."""
    for lam in lams:
        if not 0.0 <= lam <= 1.0:
            raise UsageError(f"sweep lambda {lam:g} outside [0,1]")
    if 0.0 not in lams:
        raise UsageError("the lambda sweep must include 0 "
                         "(the single-task anchor for the t-test)")


def run_sweep(data: FlatDataset, config: TrainConfig, lams, out_dir,
              progress=None) -> dict:
    """One run_experiment per lambda, each in out_dir/lam_<lambda>/, then a
    Welch t-test of each nonzero lambda's per-fold fine-posture accuracy
    against lambda=0's. Writes sweep.json into out_dir and returns its
    contents.
    """
    check_sweep(lams)
    per_lam = {}
    for lam in lams:
        aggregate = run_experiment(data, replace(config, lam=lam),
                                   os.path.join(out_dir, f"lam_{lam:g}"),
                                   progress=progress)
        per_lam[lam] = aggregate["posture_fine"]["accuracy_per_fold"]
    anchor = per_lam[0.0]
    tests = {}
    for lam, accs in per_lam.items():
        if lam == 0.0:
            continue
        t, p, df = welch_t_test(accs, anchor)
        tests[f"{lam:g}"] = {"t": t, "p": p, "df": df,
                             "mean_lambda": float(np.mean(accs)),
                             "mean_zero": float(np.mean(anchor))}
    result = {"accuracy_per_fold": {f"{k:g}": v for k, v in per_lam.items()},
              "welch_vs_zero": tests}
    _write_json(os.path.join(out_dir, "sweep.json"), result)
    return result


def _nanmean(values):
    arr = np.asarray(values, dtype=np.float64)
    good = arr[~np.isnan(arr)]
    return float(good.mean()) if good.size else float("nan")


def _denan(obj):
    """Replace NaN floats with None so JSON output stays valid."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _denan(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_denan(v) for v in obj]
    return obj


def aggregate_reports(fold_reports: list) -> dict:
    """Unweighted mean over folds; per-class rates averaged ignoring NaN."""
    out = {"folds": len(fold_reports)}
    for task in ("posture_fine", "posture_coarse", "subject"):
        reports = [r[task] for r in fold_reports]
        if any(r is None for r in reports):
            out[task] = None
            continue
        acc = [r.accuracy for r in reports]
        agg = {
            "accuracy_mean": _nanmean(acc),
            "accuracy_per_fold": [round(a, 6) for a in acc],
            "precision_mean_per_class": [
                _nanmean([r.precision[c] for r in reports])
                for c in range(reports[0].precision.size)],
            "recall_mean_per_class": [
                _nanmean([r.recall[c] for r in reports])
                for c in range(reports[0].recall.size)],
            "specificity_mean_per_class": [
                _nanmean([r.specificity[c] for r in reports])
                for c in range(reports[0].specificity.size)],
        }
        agg["precision_mean"] = _nanmean(agg["precision_mean_per_class"])
        out[task] = agg
    by_cat = [r.get("subject_by_category") for r in fold_reports]
    if all(b is not None for b in by_cat):
        cats = sorted({c for b in by_cat for c in b})
        out["subject_by_category"] = {
            c: _nanmean([b[c] for b in by_cat if c in b]) for c in cats}
    else:
        out["subject_by_category"] = None
    return _denan(out)


def render_summary(aggregate: dict, config: TrainConfig) -> str:
    lines = [
        f"scheme={config.scheme} lambda={config.lam} epochs={config.epochs} "
        f"seed={config.seed} augment={config.augment}",
        f"folds: {aggregate['folds']}",
    ]
    for task in ("posture_fine", "posture_coarse", "subject"):
        agg = aggregate.get(task)
        if agg is None:
            lines.append(f"{task}: not evaluated")
            continue
        fmt = lambda v, nd=2: "n/a" if v is None else f"{v:.{nd}f}"
        lines.append(
            f"{task}: accuracy {fmt(agg['accuracy_mean'])}%  "
            f"mean precision {fmt(agg['precision_mean'])}%")
        per = " ".join(fmt(v, 1) for v in agg["precision_mean_per_class"])
        lines.append(f"  precision per class: {per}")
    if aggregate.get("subject_by_category"):
        parts = ", ".join(f"{c}: {v:.2f}%"
                          for c, v in aggregate["subject_by_category"].items())
        lines.append(f"subject accuracy by posture category: {parts}")
    return "\n".join(lines) + "\n"
