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

from . import dataio, harness, signal, synthetic, tensor
from .baselines import METHODS
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
    manifest = dataio.read_manifest(Path(cache_dir) / dataio.MANIFEST_FILE)
    sequences = signal.load_clean_sequences(manifest)
    return harness.flatten_sequences(sequences, manifest.taxonomy,
                                     stride=stride)


def _comma_list(kind):
    """argparse type of a comma-separated list of kind (float, or str for
    stripped names); the library checks the values, so this only parses."""
    def parse(text: str) -> list:
        try:
            return [kind(v.strip()) for v in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


ASCII_RAMP = " .:-=+*#%@"


def render_frame(frame: np.ndarray) -> str:
    """Map a [0,1] frame to a 32-line ASCII grid."""
    idx = (frame * (len(ASCII_RAMP) - 1)).astype(int)
    return "\n".join("".join(ASCII_RAMP[v] for v in row) for row in idx)


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    root = _data_root(args)
    manifest, hit = signal.preprocess_dataset(
        root, args.cache_dir, taxonomy=args.taxonomy, force=args.force)
    if hit:
        print(f"cache hit: {args.cache_dir} already matches the raw data "
              f"({len(manifest.entries)} sequences)")
        return 0
    removed = Path(args.cache_dir, dataio.REMOVED_FILE).read_text().splitlines()
    print(f"cached {len(manifest.entries)} sequences "
          f"({manifest.total_frames()} frames) into {args.cache_dir}")
    print(f"removed/short sequences: {len(removed)}")
    for line in removed:
        print("  " + line)
    if manifest.warnings:
        print(f"warnings: {len(manifest.warnings)} "
              "(missing subject/posture combinations; see manifest.tsv)")
    return 0


def _train_config_from(args) -> TrainConfig:
    """TrainConfig from the --config file's JSON object, overridden by the
    flags given; UsageError on a file that cannot be read, is not an object
    or names a key that is not a TrainConfig field."""
    names = {f.name for f in fields(TrainConfig)}
    path, cfg = args.config, {}
    if path:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        if type(cfg) is not dict:
            raise UsageError(f"config {path} must hold a JSON object")
        unknown = sorted(cfg.keys() - names)
        if unknown:
            raise UsageError(f"unknown key(s) in {path}: " + ", ".join(unknown))
    # train flags are stored under their TrainConfig field names
    cfg.update((n, getattr(args, n)) for n in names
               if getattr(args, n, None) is not None)
    return TrainConfig(**cfg)


def _print_fold(fold_no, n_folds, report):
    acc = report["posture_coarse"].accuracy
    print(f"fold {fold_no + 1}/{n_folds}: "
          f"coarse posture accuracy {acc:.2f}%", flush=True)


def cmd_train(args) -> int:
    if args.lam is not None and args.lambda_sweep is not None:
        # run_sweep sets lambda for each of its runs
        raise UsageError("--lambda is not allowed with --lambda-sweep")
    config = _train_config_from(args)
    data = _load_cache(args.cache_dir, args.stride)

    if args.lambda_sweep:
        sweep = harness.run_sweep(data, config, args.lambda_sweep,
                                  args.out_dir, progress=_print_fold)
        for lam, accs in sweep["accuracy_per_fold"].items():
            print(f"lambda={lam}: fine posture accuracy {np.mean(accs):.2f}%")
        for lam, t in sweep["welch_vs_zero"].items():
            test = ("t undefined" if t["t"] is None
                    else f"t={t['t']:.4f} p={t['p']:.4f}")
            print(f"lambda={lam} vs 0: {test} "
                  f"(mean {t['mean_lambda']:.2f}% vs {t['mean_zero']:.2f}%)")
        return 0

    harness.run_experiment(data, config, args.out_dir, progress=_print_fold,
                           baselines=args.baselines or ())
    summary, results, _ = harness.read_run(args.out_dir)
    for method in args.baselines or ():
        print(f"baseline {method}: coarse accuracy "
              f"{results[method]['accuracy_mean']:.2f}%")
    print(summary, end="")
    return 0


def cmd_evaluate(args) -> int:
    tensor.pin_blas_threads()
    data = _load_cache(args.cache_dir, args.stride)
    net = restore_net(load_checkpoint(args.checkpoint))
    report = harness.evaluate_model(net, data, np.arange(len(data)))
    for task in harness.TASKS:
        m = report[task]
        if m is None:
            print(f"{task}: skipped (subject count mismatch)")
            continue
        print(f"{task}: accuracy {m.accuracy:.2f}%")
    return 0


def cmd_report(args) -> int:
    summary, _, folds = harness.read_run(args.run_dir)
    print(summary)
    print("fold  fine-acc  coarse-acc  subject-acc")
    for i, (m, _) in enumerate(folds):
        subj = (f"{m['subject']['accuracy']:9.2f}"
                if m.get("subject") else "        -")
        print(f"{i:4d}  {m['posture_fine']['accuracy']:8.2f}  "
              f"{m['posture_coarse']['accuracy']:10.2f}  {subj}")
    if args.confusion:
        total = sum(np.array(m["posture_coarse"]["confusion"], dtype=np.int64)
                    for m, _ in folds)
        print("\npooled coarse confusion (rows true, cols predicted):")
        for r, name in zip(total, dataio.CATEGORIES):
            print(f"  {name:>7s} " + " ".join(f"{v:7d}" for v in r))
    if args.curves:
        for i, (_, curves) in enumerate(folds):
            print(f"\nfold {i} curves:")
            print(curves, end="")
    return 0


def cmd_frame_dump(args) -> int:
    seq = dataio.parse_frame_file(args.file, subject_id=0, posture_id=0)
    if not 0 <= args.index < len(seq):
        raise UsageError(f"frame index {args.index} out of range "
                         f"(sequence has {len(seq)} frames)")
    raw = seq.frames[args.index]
    cleaned = signal.normalize_frames(signal.median_filter_3d(seq.frames))
    print(f"frame {args.index} of {args.file} (raw, scaled to sensor range):")
    print(render_frame(signal.normalize_frames(raw)))
    print("\nsame frame after median filter + normalization (no trim):")
    print(render_frame(cleaned[args.index]))
    return 0


def cmd_augment_stats(args) -> int:
    counts = signal.plan_firing_counts(args.draws, args.seed)
    print(f"{args.draws} draws, seed {args.seed}:")
    for (name, p), c in zip(signal.AUGMENT_STEPS, counts):
        print(f"  {name:12s} fired {c:6d} times "
              f"({c / args.draws:.4f}; configured {p:.2f})")
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
    p.add_argument("--force", action="store_true",
                   help="recompute even when the cache fingerprint matches")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="cross-validated training from a cache")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--scheme", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    comparison = p.add_mutually_exclusive_group()
    comparison.add_argument("--lambda-sweep", type=_comma_list(float),
                            default=None, help="comma list of lambda values "
                            "in [0,1]; must include 0")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", dest="base_lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--stride", type=int, default=1,
                   help="keep every n-th frame (runtime bound)")
    p.add_argument("--split-level", default=None)
    p.add_argument("--augment", action="store_true", default=None)
    p.add_argument("--augment-eval", action="store_true", default=None)
    comparison.add_argument("--baselines", type=_comma_list(str), default=None,
                            help=f"comma list from {{{','.join(METHODS)}}} "
                            "to run alongside")
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
