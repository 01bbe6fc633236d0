"""Command-line surface: preprocess -> train -> evaluate -> report.

Subcommands:

    preprocess    run the cleaning pipeline over a dataset tree into a cache
    train         cross-validated training (or a lambda sweep) from a cache
    evaluate      score a saved checkpoint against a cached dataset
    report        render a completed run directory as plain-text tables
    frame-dump    ASCII view of one frame, raw vs preprocessed
    augment-stats empirical firing frequencies of the augmentation steps
    synth         write a small synthetic dataset tree (demos, smoke tests)

The default dataset root comes from $PRESSNET_DATA_ROOT when --data-root is
omitted. `train --config file.json` reads defaults from a JSON file; explicit
flags always win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import baselines, dataio, harness, signal, synthetic
from .checkpoint import load_checkpoint, restore_net
from .errors import ConfigError, PressnetError, UsageError
from .harness import TrainConfig

DATA_ROOT_ENV = "PRESSNET_DATA_ROOT"


# ---------------------------------------------------------------------------
# helpers


def _data_root(args) -> str:
    root = args.data_root or os.environ.get(DATA_ROOT_ENV)
    if not root:
        raise UsageError(
            "no dataset root: pass --data-root or set $" + DATA_ROOT_ENV
            + " (expected layout: <root>/S<subject>/<posture>.txt)")
    return root


def _load_cache(cache_dir, stride: int) -> harness.FlatDataset:
    manifest_path = Path(cache_dir) / "manifest.tsv"
    if not manifest_path.exists():
        raise UsageError(
            f"no preprocessed cache at {cache_dir} (run 'preprocess' first)")
    manifest = dataio.read_manifest(manifest_path)
    sequences = signal.load_clean_sequences(manifest)
    return harness.flatten_sequences(sequences, manifest.taxonomy,
                                     stride=stride)


def _lambda_list(text: str) -> list:
    """argparse type of --lambda-sweep: comma-separated floats."""
    try:
        lams = [float(v) for v in text.split(",")]
        harness.check_sweep(lams)
    except (ValueError, UsageError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lams


def _method_list(text: str) -> list:
    """argparse type of --baselines: comma-separated baselines.METHODS names."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    try:
        baselines.check_methods(methods)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return methods


ASCII_RAMP = " .:-=+*#%@"


def render_frame(frame: np.ndarray) -> str:
    """Map a [0,1] frame to a 32-line ASCII grid."""
    idx = np.clip(frame * (len(ASCII_RAMP) - 1), 0,
                  len(ASCII_RAMP) - 1).astype(int)
    return "\n".join("".join(ASCII_RAMP[v] for v in row) for row in idx)


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    root = _data_root(args)
    manifest, hit = signal.preprocess_dataset(
        root, args.cache_dir, taxonomy=args.taxonomy, trim=args.trim,
        empty_threshold=args.empty_threshold, delimiter=args.delimiter,
        force=args.force)
    if hit:
        print(f"cache hit: {args.cache_dir} already matches the raw data "
              f"({len(manifest.entries)} sequences)")
        return 0
    removed = (Path(args.cache_dir) / "removed.txt").read_text().splitlines()
    print(f"cached {len(manifest.entries)} sequences "
          f"({manifest.total_frames()} frames) into {args.cache_dir}")
    print(f"removed/short sequences: {len(removed)}")
    for line in removed:
        print("  " + line)
    if manifest.warnings:
        print(f"warnings: {len(manifest.warnings)} "
              "(missing subject/posture combinations; see manifest.tsv)")
    return 0


def _read_config_file(path) -> dict:
    """The --config file as a dict of TrainConfig fields; UsageError on a
    file that cannot be read or parsed, an unknown key or a wrongly typed
    value."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    if not isinstance(file_cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise UsageError(f"unknown key(s) in {path}: " + ", ".join(unknown))
    for key, value in file_cfg.items():
        want = type(defaults[key])
        allowed = (int, float) if want is float else want
        if isinstance(value, bool) is not (want is bool) \
                or not isinstance(value, allowed):
            raise UsageError(f"{key} in {path} must be a {want.__name__}, "
                             f"got {json.dumps(value)}")
    return file_cfg


def _train_config_from(args) -> TrainConfig:
    """TrainConfig from the --config file, overridden by the flags given.

    Unset values keep TrainConfig's defaults, except that lambda defaults
    to 0.2 under leave-one-subject-out.
    """
    file_cfg = _read_config_file(args.config) if args.config else {}
    # train flags are stored under their TrainConfig field names
    flags = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
             if getattr(args, f.name, None) is not None}
    merged = {**file_cfg, **flags}
    if merged.get("scheme") == "loso":
        merged.setdefault("lam", 0.2)
    return TrainConfig(**merged)


def _print_fold(fold_no, n_folds, report):
    acc = report["posture_coarse"].accuracy
    print(f"fold {fold_no + 1}/{n_folds}: "
          f"coarse posture accuracy {acc:.2f}%", flush=True)


def cmd_train(args) -> int:
    config = _train_config_from(args)
    data = _load_cache(args.cache_dir, args.stride)

    if args.lambda_sweep:
        sweep = harness.run_sweep(data, config, args.lambda_sweep,
                                  args.out_dir, progress=_print_fold)
        for lam, accs in sweep["accuracy_per_fold"].items():
            print(f"lambda={lam}: fine posture accuracy {np.mean(accs):.2f}%")
        for lam, t in sweep["welch_vs_zero"].items():
            print(f"lambda={lam} vs 0: t={t['t']:.4f} p={t['p']:.4f} "
                  f"(mean {t['mean_lambda']:.2f}% vs {t['mean_zero']:.2f}%)")
        return 0

    harness.run_experiment(data, config, args.out_dir, progress=_print_fold,
                           baselines=args.baselines or ())
    run = Path(args.out_dir)
    if args.baselines:
        results = json.loads((run / "baselines.json").read_text())
        for method in args.baselines:
            print(f"baseline {method}: coarse accuracy "
                  f"{results[method]['accuracy_mean']:.2f}%")
    print((run / "summary.txt").read_text(), end="")
    return 0


def cmd_evaluate(args) -> int:
    data = _load_cache(args.cache_dir, args.stride)
    ckpt = load_checkpoint(args.checkpoint)
    net = restore_net(ckpt)
    if net.config.num_postures != data.num_postures:
        raise UsageError(
            f"checkpoint expects {net.config.num_postures} postures, "
            f"dataset has {data.num_postures}")
    include_subject = net.config.num_subjects == data.num_subjects
    report = harness.evaluate_model(net, data, np.arange(len(data)),
                                    include_subject=include_subject)
    for task in ("posture_fine", "posture_coarse", "subject"):
        m = report[task]
        if m is None:
            print(f"{task}: skipped (subject count mismatch)")
            continue
        print(f"{task}: accuracy {m.accuracy:.2f}%")
    return 0


def cmd_report(args) -> int:
    run = Path(args.run_dir)
    cfg_path = run / "config.json"
    if not cfg_path.exists():
        raise UsageError(f"{run} is not a run directory (no config.json)")
    cfg = json.loads(cfg_path.read_text())
    n_folds = cfg["folds"]
    missing = [i for i in range(n_folds)
               if not (run / f"fold_{i:02d}" / "metrics.json").exists()]
    if missing or not (run / "DONE").exists():
        print(f"incomplete run: missing folds {missing}" if missing
              else "incomplete run: no DONE marker", file=sys.stderr)
        return 2

    print((run / "summary.txt").read_text(), end="")
    print()
    print("fold  fine-acc  coarse-acc  subject-acc")
    for i in range(n_folds):
        m = json.loads((run / f"fold_{i:02d}" / "metrics.json").read_text())
        subj = (f"{m['subject']['accuracy']:9.2f}"
                if m.get("subject") else "        -")
        print(f"{i:4d}  {m['posture_fine']['accuracy']:8.2f}  "
              f"{m['posture_coarse']['accuracy']:10.2f}  {subj}")
    if args.confusion:
        total = None
        for i in range(n_folds):
            cm = np.loadtxt(run / f"fold_{i:02d}" / "cm_coarse.txt",
                            dtype=np.int64, ndmin=2)
            total = cm if total is None else total + cm
        print("\npooled coarse confusion (rows true, cols predicted):")
        for r, name in zip(total, dataio.CATEGORIES):
            print(f"  {name:>7s} " + " ".join(f"{v:7d}" for v in r))
    if args.curves:
        for i in range(n_folds):
            print(f"\nfold {i} curves:")
            print((run / f"fold_{i:02d}" / "curves.tsv").read_text(), end="")
    return 0


def cmd_frame_dump(args) -> int:
    seq = dataio.parse_frame_file(args.file, delimiter=args.delimiter,
                                  subject_id=0, posture_id=0)
    if not 0 <= args.index < len(seq):
        raise UsageError(f"frame index {args.index} out of range "
                         f"(sequence has {len(seq)} frames)")
    raw = seq.frames[args.index]
    cleaned = signal.normalize_frames(signal.median_filter_3d(seq.frames))
    print(f"frame {args.index} of {args.file} (raw, scaled to sensor range):")
    print(render_frame(np.clip(raw / dataio.SENSOR_MAX, 0, 1)))
    print("\nsame frame after median filter + normalization (no trim):")
    print(render_frame(cleaned[args.index]))
    return 0


def cmd_augment_stats(args) -> int:
    policy = signal.AugmentPolicy()
    counts = signal.plan_firing_counts(policy, args.draws, args.seed)
    names = ("rotate-180", "translate-x", "translate-y", "rotate-free")
    expected = policy.probabilities()
    print(f"{args.draws} draws, seed {args.seed}:")
    for name, c, e in zip(names, counts, expected):
        print(f"  {name:12s} fired {c:6d} times "
              f"({c / args.draws:.4f}; configured {e:.2f})")
    return 0


def cmd_synth(args) -> int:
    synthetic.write_synthetic_dataset(args.out, subjects=args.subjects,
                                      postures=args.postures,
                                      frames_per_seq=args.frames,
                                      seed=args.seed)
    print(f"wrote {args.subjects} subjects x {args.postures} postures "
          f"x {args.frames} frames under {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pressnet",
        description="Pressure-map posture and subject recognition toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean a dataset tree into a cache")
    p.add_argument("--data-root", default=None)
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--taxonomy", default=None,
                   help="taxonomy file (default: built-in mapping)")
    p.add_argument("--trim", type=int, default=3)
    p.add_argument("--empty-threshold", type=float, default=1.0)
    p.add_argument("--delimiter", default=None)
    p.add_argument("--force", action="store_true",
                   help="recompute even when the cache fingerprint matches")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="cross-validated training from a cache")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--scheme", choices=("kfold", "loso"), default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    comparison = p.add_mutually_exclusive_group()
    comparison.add_argument("--lambda-sweep", type=_lambda_list, default=None,
                            help="comma list of lambda values in [0,1]; "
                            "must include 0")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", dest="base_lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--stride", type=int, default=1,
                   help="keep every n-th frame (runtime bound)")
    p.add_argument("--split-level", choices=("frame", "sequence"), default=None)
    p.add_argument("--augment", action="store_true", default=None)
    p.add_argument("--augment-eval", action="store_true", default=None)
    comparison.add_argument("--baselines", type=_method_list, default=None,
                            help="comma list from {knn,trees,mlp} to run "
                            "alongside")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against a cache")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render a completed run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--confusion", action="store_true",
                   help="print the pooled coarse confusion matrix")
    p.add_argument("--curves", action="store_true",
                   help="print per-epoch loss curves")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("frame-dump", help="ASCII view of one frame")
    p.add_argument("--file", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--delimiter", default=None)
    p.set_defaults(func=cmd_frame_dump)

    p = sub.add_parser("augment-stats",
                       help="empirical augmentation firing frequencies")
    p.add_argument("--draws", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment_stats)

    p = sub.add_parser("synth", help="write a synthetic dataset tree")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=3)
    p.add_argument("--postures", type=int, default=4)
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage and the error
        return exc.code
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PressnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
