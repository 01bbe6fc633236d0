"""Training loop, cross-validation splits, metrics, and experiment runs.

Randomness is organized as named streams derived from the run seed, one
key per use across the package (tensor.make_rng), so a new use takes a
key not listed here:

    stream 0            parameter initialization
    stream 1            split shuffling
    stream (2, epoch)   minibatch shuffle for that epoch
    stream (3, epoch)   dropout masks for that epoch
    stream (4, epoch)   augmentation draws for that epoch
    stream (5, fold)    test-set augmentation (augment-both mode)
    stream (80, tree)   bagged trees' bootstrap draws (baselines)
    stream 85           MLP baseline initialization (baselines)
    stream (86, epoch)  MLP baseline minibatch shuffle for that epoch
    stream (90, s, p)   synthetic recording of subject s, posture p
    stream 95           augment-stats draws (signal.plan_firing_counts)

Keying per-epoch streams by the absolute epoch index makes checkpoint
resume bit-equivalent to uninterrupted training.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines as classical
from . import dataio, signal, tensor
from .checkpoint import Checkpoint, restore_net, save_checkpoint
from .errors import (ConfigError, LabelError, NumericFault, TrainingFault,
                     UsageError, check_field_types)
from .model import ModelConfig, PostureNet
from .optim import AdamState, adam_step, lr_schedule
from .tensor import make_rng

__all__ = [
    "TrainConfig", "FoldPlan", "FlatDataset", "Metrics",
    "kfold_split", "loso_split", "flatten_sequences",
    "train_model", "evaluate_model", "confusion_matrix", "compute_metrics",
    "welch_t_test", "run_fold", "write_fold", "read_run", "run_experiment",
    "run_sweep",
]

STREAM_INIT = 0
STREAM_SPLIT = 1
STREAM_SHUFFLE = 2
STREAM_DROPOUT = 3
STREAM_AUGMENT = 4
STREAM_EVAL_AUGMENT = 5

EVAL_CHUNK = 256  # frames per inference forward in evaluate_model

# evaluate_model's tasks, in report order
TASKS = ("posture_fine", "posture_coarse", "subject")


@dataclass
class TrainConfig:
    """Every training setting; a value of the wrong type or out of range
    raises ConfigError naming the field."""

    lam: float | None = None    # subject-loss weight; posture gets 1-lam.
                                # None: 0.2 under loso, else 0.5
    base_lr: float = 2e-5
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    augment: bool = False       # augment training batches
    augment_eval: bool = False  # also augment test frames at evaluation
    scheme: str = "kfold"
    k: int = 10
    split_level: str = "frame"  # "sequence" keeps recordings intact (stricter)

    def __post_init__(self):
        check_field_types(self)
        if self.lam is None:
            self.lam = 0.2 if self.scheme == "loso" else 0.5
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0,1], got {self.lam}")
        self.lam = abs(self.lam)  # -0 is lambda 0
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0.0):
            raise ConfigError(f"base_lr must be finite and > 0, "
                              f"got {self.base_lr}")


@dataclass
class FoldPlan:
    folds: list   # of (train_indices, test_indices) int arrays

    def __len__(self):
        return len(self.folds)


def _hold_out(group: np.ndarray, held) -> FoldPlan:
    """Fold i tests every row whose group is in held[i] and trains on the
    rest, both as ascending int64 row indices."""
    folds = []
    for h in held:
        test = np.isin(group, h)
        folds.append((np.flatnonzero(~test), np.flatnonzero(test)))
    return FoldPlan(folds)


def _shuffled_parts(n: int, k: int, seed: int, what: str) -> list:
    """np.array_split of a seeded permutation of arange(n) into k parts;
    ConfigError, naming n `what`, unless 2 <= k <= n."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if n < k:
        raise ConfigError(f"cannot make {k} folds from {n} {what}")
    return np.array_split(make_rng(seed, STREAM_SPLIT).permutation(n), k)


def kfold_split(n: int, k: int = 10, seed: int = 0) -> FoldPlan:
    """Seeded shuffle, then contiguous partition into k test sets; the
    first n % k are one element larger, so sizes differ by at most one."""
    return _hold_out(np.arange(n), _shuffled_parts(n, k, seed, "samples"))


def loso_split(subject_idx: np.ndarray) -> FoldPlan:
    """One fold per subject: its samples test, everyone else's train."""
    subject_idx = np.asarray(subject_idx)
    subjects = np.unique(subject_idx)
    if subjects.size < 2:
        raise ConfigError("leave-one-subject-out needs at least 2 subjects")
    return _hold_out(subject_idx, subjects[:, None])


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
    """Build the FoldPlan a TrainConfig asks for over a flat dataset.

    k-fold splits partition single frames at frame level and whole
    recordings, those present in data, at sequence level; no fold's test
    set is empty.
    """
    if config.scheme == "loso":
        return loso_split(data.subject_idx)
    if config.split_level == "frame":
        return kfold_split(len(data), config.k, config.seed)
    recordings = np.unique(data.seq_id)
    parts = _shuffled_parts(recordings.size, config.k, config.seed,
                            "recordings")
    return _hold_out(data.seq_id, [recordings[p] for p in parts])


# ---------------------------------------------------------------------------
# training


def _iter_batches(n: int, batch_size: int, order: np.ndarray):
    """Yield index chunks; a trailing chunk of 1 is dropped (batch norm)."""
    for start in range(0, n, batch_size):
        chunk = order[start:start + batch_size]
        if chunk.size >= 2:
            yield chunk


def _augment_batch(xb: np.ndarray, rng) -> np.ndarray:
    out = np.empty_like(xb)
    for i in range(xb.shape[0]):
        out[i, 0] = signal.augment_sample(xb[i, 0], rng)
    return out


def train_model(x, y_user, y_posture, config: TrainConfig,
                model_config: ModelConfig, resume: Checkpoint | None = None,
                epoch_hook=None):
    """Train the dual-head network; returns (net, adam_state, curves).

    curves maps each of loss_user/loss_posture/loss_total/l2/acc_user/
    acc_posture to one value per epoch (training-mode statistics).
    resume continues a checkpointed run: same seed and model_config,
    epochs counted from the checkpoint's epoch, bit-equivalent to never
    having stopped; a checkpoint of another seed or config is a UsageError
    before the first batch.
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
        if resume.config != model_config:
            raise UsageError(f"checkpoint config {resume.config} != "
                             f"model config {model_config}")
        net = restore_net(resume)
        state = resume.adam
        start_epoch = resume.epoch
    else:
        net = PostureNet(model_config, make_rng(config.seed, STREAM_INIT))
        state = AdamState(net.params())
        start_epoch = 0

    curves = {k: [] for k in ("loss_user", "loss_posture", "loss_total",
                              "l2", "acc_user", "acc_posture")}
    params = net.params()
    for epoch in range(start_epoch, config.epochs):
        lr = lr_schedule(config.base_lr, epoch)
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


def evaluate_model(net: PostureNet, data: FlatDataset, test_idx,
                   include_subject: bool = True, augment_rng=None) -> dict:
    """Inference-mode evaluation on one test split.

    Returns a dict with 'posture_fine', 'posture_coarse' (the true coarse
    labels against each predicted posture's group), and (unless
    disabled, as under leave-one-subject-out, or the net's subject count is
    not the data's) 'subject' Metrics, plus per-category subject accuracy so
    subject results can be read either pooled or split by posture category.
    UsageError when the net's posture count is not the data's.
    Frames are gathered by index (the split is never copied whole),
    augmented and run EVAL_CHUNK at a time, in order.
    """
    if net.config.num_postures != data.num_postures:
        raise UsageError(f"checkpoint expects {net.config.num_postures} "
                         f"postures, dataset has {data.num_postures}")
    include_subject &= net.config.num_subjects == data.num_subjects
    test_idx = np.asarray(test_idx)
    if test_idx.size == 0:
        raise UsageError("empty test split")
    preds = []
    for s in range(0, test_idx.size, EVAL_CHUNK):
        x = data.x[test_idx[s:s + EVAL_CHUNK]]
        if augment_rng is not None:
            x = _augment_batch(x, augment_rng)
        preds.append([p.argmax(axis=1) for p in net.forward(x, train=False)])
    pred_u, pred_p = (np.concatenate(p) for p in zip(*preds))
    yu = data.subject_idx[test_idx]
    yp = data.posture_idx[test_idx]
    yc = data.coarse_idx[test_idx]

    fine_cm = confusion_matrix(yp, pred_p, net.config.num_postures)
    coarse_cm = confusion_matrix(yc, posture_group(data)[pred_p],
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
    group[data.posture_idx] = data.coarse_idx
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
    # beta form stays accurate far into the tail where 1-CDF underflows.
    # scipy is imported here, its only use, to keep it out of package import
    from scipy import special
    p = float(special.betainc(0.5 * df, 0.5, df / (df + t * t)))
    return float(t), float(p), float(df)


# ---------------------------------------------------------------------------
# experiment runner


# the run directory's files; no other module names them
CONFIG_FILE, BASELINES_FILE = "config.json", "baselines.json"
AGGREGATE_FILE, SUMMARY_FILE = "aggregate.json", "summary.txt"
TIMING_FILE, DONE_FILE = "timing.txt", "DONE"
METRICS_FILE, CURVES_FILE, MODEL_FILE = "metrics.json", "curves.tsv", "model.ckpt"
SWEEP_FILE, LAMBDA_DIR = "sweep.json", "lam_{:g}"  # a sweep's root, per lambda


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


@contextmanager
def _locked_run_dir(out: Path):
    """Create the run directory and its .lock, refusing a locked one, and
    drop an earlier run's DONE before anything else is written."""
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise UsageError(
            f"run directory '{out}' is locked by another run "
            f"(remove {lock.name} if that run is dead)") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"pid {os.getpid()}\n")
        (out / DONE_FILE).unlink(missing_ok=True)
        yield
    finally:
        lock.unlink(missing_ok=True)


def fold_dir(run_dir, fold_no: int) -> Path:
    return Path(run_dir, f"fold_{fold_no:02d}")


def run_fold(data: FlatDataset, train_idx, test_idx, config: TrainConfig,
             fold_no: int):
    """Train and evaluate one fold without any I/O, the net sized by data's
    class counts; returns (net, adam_state, curves, report), or raises
    TrainingFault naming the fold."""
    try:
        net, state, curves = train_model(
            data.x[train_idx], data.subject_idx[train_idx],
            data.posture_idx[train_idx], config,
            ModelConfig(data.num_subjects, data.num_postures))
        aug_rng = (make_rng(config.seed, STREAM_EVAL_AUGMENT, fold_no)
                   if config.augment_eval else None)
        report = evaluate_model(net, data, test_idx,
                                include_subject=config.scheme != "loso",
                                augment_rng=aug_rng)
    except Exception as exc:
        raise TrainingFault(f"fold {fold_no} failed: {exc}") from exc
    return net, state, curves, report


def write_fold(run_dir, fold_no: int, fold, config: TrainConfig) -> None:
    """Write a run_fold result into fold_dir: metrics.json (every task's
    metrics and confusion matrix), curves.tsv and a resumable model.ckpt."""
    net, state, curves, report = fold
    fdir = fold_dir(run_dir, fold_no)
    fdir.mkdir(parents=True, exist_ok=True)
    _write_json(fdir / METRICS_FILE, {
        name: m.as_dict() if isinstance(m, Metrics) else m
        for name, m in report.items()})
    _write_curves(fdir / CURVES_FILE, curves)
    save_checkpoint(fdir / MODEL_FILE, net, adam=state, epoch=config.epochs,
                    seed=config.seed)


def _read(path: Path, parse=str):
    try:
        return parse(path.read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _read_metrics(path: Path) -> dict:
    """A fold's metrics.json; UsageError unless posture_fine, posture_coarse
    and subject (or a null subject) each hold accuracy and confusion."""
    def holds(task):
        return (isinstance(task, dict) and isinstance(task.get("confusion"), list)
                and type(task.get("accuracy")) in (int, float))
    m = _read(path, json.loads)
    if not (isinstance(m, dict) and holds(m.get("posture_fine"))
            and holds(m.get("posture_coarse")) and "subject" in m
            and (m["subject"] is None or holds(m["subject"]))):
        raise UsageError(f"{path} lacks a task's accuracy or confusion")
    return m


def read_run(run_dir):
    """A finished run directory as (summary text, baselines dict or None,
    [(metrics dict, curves text) per fold]); UsageError if it is not a run
    directory, is incomplete, or holds a file that cannot be parsed."""
    run = Path(run_dir)
    if not (run / CONFIG_FILE).exists():
        raise UsageError(f"{run} is not a run directory (no {CONFIG_FILE})")
    cfg = _read(run / CONFIG_FILE, json.loads)
    if not (isinstance(cfg, dict) and type(cfg.get("folds")) is int
            and cfg["folds"] >= 1):
        raise UsageError(f"{run / CONFIG_FILE} holds no positive fold count")
    folds = [fold_dir(run, i) for i in range(cfg["folds"])]
    missing = [i for i, f in enumerate(folds) if not (f / METRICS_FILE).exists()]
    if missing or not (run / DONE_FILE).exists():
        raise UsageError(f"incomplete run: missing folds {missing}" if missing
                         else f"incomplete run: no {DONE_FILE} marker")
    baselines = run / BASELINES_FILE
    return (_read(run / SUMMARY_FILE),
            _read(baselines, json.loads) if baselines.exists() else None,
            [(_read_metrics(f / METRICS_FILE), _read(f / CURVES_FILE))
             for f in folds])


def run_experiment(data: FlatDataset, config: TrainConfig, out_dir,
                   progress=None, baselines=()) -> dict:
    """Cross-validated training and evaluation with persisted artifacts.

    Everything is checked before out_dir is created. BLAS is pinned to
    one thread (tensor.pin_blas_threads). Under out_dir's lock it removes
    an earlier run's DONE, its fold directories beyond this run's folds
    and, unless `baselines` names methods, its baselines.json; then it
    writes config.json (with the BLAS thread count and core type), one
    write_fold per run_fold (progress(fold_no, n_folds, report) runs after
    each), baselines.json when `baselines` names methods from
    baselines.METHODS (fitted on the same folds), aggregate.json,
    summary.txt, timing.txt (fold times by time.perf_counter and the split
    kernels' worker count, kept apart so every other artifact is a
    deterministic function of config + seed) and, last, DONE. It keeps
    only each finished fold's report: no two folds' nets are alive at once.
    """
    classical.check_methods(baselines)
    model_config = ModelConfig(data.num_subjects, data.num_postures)
    plan = split_for(data, config)
    classical.check_folds(baselines, plan.folds)
    blas = tensor.pin_blas_threads()

    out = Path(out_dir)
    with _locked_run_dir(out):
        # an earlier run's folds past this plan; folds are written in order
        stale = len(plan)
        while fold_dir(out, stale).is_dir():
            shutil.rmtree(fold_dir(out, stale))
            stale += 1
        if not baselines:
            (out / BASELINES_FILE).unlink(missing_ok=True)
        _write_json(out / CONFIG_FILE, {
            "train": asdict(config), "model": asdict(model_config),
            "samples": len(data), "folds": len(plan),
            "subject_ids": data.subject_ids, "posture_ids": data.posture_ids,
            "blas": blas,
        })
        reports, timings = [], []
        for fold_no, (train_idx, test_idx) in enumerate(plan.folds):
            t0 = time.perf_counter()
            fold = run_fold(data, train_idx, test_idx, config, fold_no)
            timings.append(time.perf_counter() - t0)
            write_fold(out, fold_no, fold, config)
            # keep only the report: the fold's net and optimizer state are
            # not alive while the next fold trains
            report = fold[3]
            del fold
            reports.append(report)
            if progress is not None:
                progress(fold_no, len(plan), report)

        if baselines:
            _write_json(out / BASELINES_FILE,
                        classical.run_baselines(data.x, data.coarse_idx,
                                                plan.folds, baselines,
                                                seed=config.seed))
        aggregate = aggregate_reports(reports)
        _write_json(out / AGGREGATE_FILE, aggregate)
        (out / SUMMARY_FILE).write_text(render_summary(aggregate, config))
        (out / TIMING_FILE).write_text("".join(
            f"fold {i}: {dt:.2f} s\n" for i, dt in enumerate(timings))
            + f"total: {sum(timings):.2f} s\n"
            + f"workers: {tensor.pool_workers()}\n")
        (out / DONE_FILE).write_text("ok\n")
        return aggregate


def run_sweep(data: FlatDataset, config: TrainConfig, lams, out_dir,
              progress=None) -> dict:
    """One run_experiment per lambda, each in out_dir/lam_<lambda>/, then a
    Welch t-test of each nonzero lambda's per-fold fine-posture accuracy
    against lambda=0's; t, p and df are None where both samples have zero
    variance. Writes sweep.json into out_dir and returns its contents.
    Before any training: UsageError unless lams lists 0, the t-test's
    single-task anchor, and no lambda twice (by its lam_<lambda> directory).
    """
    runs = {}  # lam_<lambda> directory -> config; TrainConfig makes -0 0
    for cfg in [replace(config, lam=lam) for lam in lams]:
        name = LAMBDA_DIR.format(cfg.lam)
        if name in runs:
            raise UsageError(f"the lambda sweep lists {cfg.lam:g} twice")
        runs[name] = cfg
    if LAMBDA_DIR.format(0.0) not in runs:
        raise UsageError("the lambda sweep must include 0 "
                         "(the single-task anchor for the t-test)")
    per_lam = {}
    for name, cfg in runs.items():
        aggregate = run_experiment(data, cfg, os.path.join(out_dir, name),
                                   progress=progress)
        per_lam[cfg.lam] = aggregate["posture_fine"]["accuracy_per_fold"]
    anchor = per_lam[0.0]
    tests = {}
    for lam, accs in per_lam.items():
        if lam == 0.0:
            continue
        try:
            t, p, df = welch_t_test(accs, anchor)
        except NumericFault:  # both samples constant: t is undefined
            t = p = df = None
        tests[f"{lam:g}"] = {"t": t, "p": p, "df": df,
                             "mean_lambda": float(np.mean(accs)),
                             "mean_zero": float(np.mean(anchor))}
    result = {"accuracy_per_fold": {f"{k:g}": v for k, v in per_lam.items()},
              "welch_vs_zero": tests}
    _write_json(os.path.join(out_dir, SWEEP_FILE), result)
    return result


def _nanmean(values):
    """Mean of the values that are not NaN or None; None if there are none,
    as JSON has no NaN."""
    arr = np.asarray(values, dtype=np.float64)
    good = arr[~np.isnan(arr)]
    return float(good.mean()) if good.size else None


def aggregate_reports(fold_reports: list) -> dict:
    """Unweighted mean over folds; per-class rates averaged ignoring NaN."""
    out = {"folds": len(fold_reports)}
    for task in TASKS:
        reports = [r[task] for r in fold_reports]
        if any(r is None for r in reports):
            out[task] = None
            continue
        acc = [r.accuracy for r in reports]
        agg = {"accuracy_mean": _nanmean(acc),
               "accuracy_per_fold": [round(a, 6) for a in acc]}
        for rate in ("precision", "recall", "specificity"):
            per_fold = [getattr(r, rate) for r in reports]
            agg[f"{rate}_mean_per_class"] = [
                _nanmean([p[c] for p in per_fold])
                for c in range(per_fold[0].size)]
        agg["precision_mean"] = _nanmean(agg["precision_mean_per_class"])
        out[task] = agg
    by_cat = [r.get("subject_by_category") for r in fold_reports]
    if all(b is not None for b in by_cat):
        cats = sorted({c for b in by_cat for c in b})
        out["subject_by_category"] = {
            c: _nanmean([b[c] for b in by_cat if c in b]) for c in cats}
    else:
        out["subject_by_category"] = None
    return out


def render_summary(aggregate: dict, config: TrainConfig) -> str:
    lines = [
        f"scheme={config.scheme} lambda={config.lam} epochs={config.epochs} "
        f"seed={config.seed} augment={config.augment}",
        f"folds: {aggregate['folds']}",
    ]
    for task in TASKS:
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
