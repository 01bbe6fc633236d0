"""Benchmark worker: generates inputs, times set-up, runs one workload.

    worker.py gen   --workload W --seed S --dir D
    worker.py setup --workload W --dir D
    worker.py run   --workload W --seed S --dir D --seconds T --trace 0|1 --out F

`run.py` starts this script with PYTHONPATH pointing at the checkout's
`src` and the BLAS thread count pinned; it is not meant to be run by hand.
Every workload is a single-client closed loop in this one process: the next
operation starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import time
import traceback
from dataclasses import replace
from pathlib import Path
from statistics import median

SUBJECTS, POSTURES = 13, 17   # the paper's corpus shape, ModelConfig(13, 17)

# Hyperparameters of the train_cv run and of the baselines' fold plan.
TRAIN = dict(lam=0.5, base_lr=1e-3, epochs=2, batch_size=64, k=2, augment=True)
HIT_REPEATS = 15        # warm preprocess_dataset calls behind cache_hit_s
MINI_FRAMES = 132       # frames in the small coverage runs of the traced mode


def file_digest(root, pattern):
    h = hashlib.sha256()
    for path in sorted(Path(root).glob(pattern)):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# inputs


def input_set(workload):
    """(name, raw frames per sequence) of the inputs a workload runs on.

    Preprocessing trims three frames from each end of a sequence. train_cv
    and baselines share a set of 7 raw frames per sequence (221 cached
    frames); evaluate has one of 8 (442 frames). preprocess gets the
    synthetic default of 12 (2652 raw frames), so that per-frame parsing and
    filtering weigh against per-file work as in `pressnet synth` output."""
    return {"evaluate": ("evaluate", 8),
            "preprocess": ("preprocess", 12)}.get(workload, ("cv", 7))


def generate(workload, seed, d):
    """Raw tree, its cache (and for evaluate a checkpoint) from the seed."""
    import numpy as np
    from pressnet import checkpoint, harness, signal, synthetic
    from pressnet.model import ModelConfig

    t0 = time.perf_counter()
    frames_per_seq = input_set(workload)[1]
    synthetic.write_synthetic_dataset(d / "raw", SUBJECTS, POSTURES,
                                      frames_per_seq, seed=seed)
    manifest, _ = signal.preprocess_dataset(d / "raw", d / "cache")
    info = {"raw_sha256": file_digest(d / "raw", "S*/*.txt"),
            "cache_sha256": file_digest(d / "cache", "*.npy"),
            "raw_frames": SUBJECTS * POSTURES * frames_per_seq,
            "frames": manifest.total_frames()}
    if workload == "evaluate":
        data = harness.flatten_sequences(signal.load_clean_sequences(manifest),
                                         manifest.taxonomy)
        cfg = harness.TrainConfig(**{**TRAIN, "epochs": 1, "augment": False},
                                  seed=seed)
        idx = np.arange(128)
        net, state, _ = harness.train_model(
            data.x[idx], data.subject_idx[idx], data.posture_idx[idx], cfg,
            ModelConfig(data.num_subjects, data.num_postures))
        checkpoint.save_checkpoint(d / "model.ckpt", net, adam=state,
                                   epoch=cfg.epochs, seed=seed)
        info["checkpoint_sha256"] = file_digest(d, "model.ckpt")
    info["generate_s"] = time.perf_counter() - t0
    (d / "inputs.json").write_text(json.dumps(info, indent=2, sort_keys=True))


class Inputs:
    def __init__(self, d, manifest, data, ckpt, net):
        self.dir, self.manifest, self.data = d, manifest, data
        self.ckpt, self.net = ckpt, net


def setup(workload, d, after_import=None):
    """Import pressnet, read the manifest, load and flatten the cache; for
    evaluate also restore the checkpoint. Returns (seconds, Inputs)."""
    t0 = time.perf_counter()
    import pressnet
    from pressnet import checkpoint, dataio, harness, signal
    if after_import is not None:
        after_import()
    manifest = dataio.read_manifest(d / "cache" / "manifest.tsv")
    data = harness.flatten_sequences(signal.load_clean_sequences(manifest),
                                     manifest.taxonomy)
    ckpt = net = None
    if workload == "evaluate":
        ckpt = checkpoint.load_checkpoint(d / "model.ckpt")
        net = checkpoint.restore_net(ckpt)
    return time.perf_counter() - t0, Inputs(d, manifest, data, ckpt, net)


def subset(data, n):
    """The first n frames of a flat dataset, cycling when it has fewer."""
    import numpy as np
    idx = np.arange(n) % len(data)
    return replace(data, x=data.x[idx], subject_idx=data.subject_idx[idx],
                   posture_idx=data.posture_idx[idx],
                   coarse_idx=data.coarse_idx[idx], seq_id=data.seq_id[idx])


# ---------------------------------------------------------------------------
# workloads: op(n) -> (seconds, items, attempted, failed); finish() -> problems


class TrainCV:
    """One frame-level k-fold run_experiment with augmentation."""
    unit = "samples/s"

    def __init__(self, inp, seed, work):
        from pressnet import harness
        self.data, self.work, self.dir = inp.data, work, inp.dir
        self.cfg = harness.TrainConfig(**TRAIN, seed=seed)
        plan = harness.split_for(self.data, self.cfg)
        self.folds = len(plan)
        self.samples = [self.cfg.epochs * len(tr) for tr, _ in plan.folds]
        self.digests, self.final_loss = [], []
        self.last_run = None

    def op(self, n):
        """Samples are counted per fold: the progress callback marks each
        fold's end, so a fold's time covers its training, its evaluation
        and its artifact writes."""
        from pressnet import harness
        out = self.work / f"run{n}"
        marks = [time.perf_counter()]
        harness.run_experiment(self.data, self.cfg, out,
                               progress=lambda *a: marks.append(time.perf_counter()))
        failed = self.check(out)
        if self.last_run is not None:
            shutil.rmtree(self.last_run)
        self.last_run = out
        times = [b - a for a, b in zip(marks, marks[1:])]
        return times, self.samples, self.folds, failed

    def check(self, out):
        if not (out / "DONE").exists() or not (out / "aggregate.json").exists():
            return self.folds
        self.digests.append(file_digest(out, "aggregate.json"))
        failed, finals = 0, []
        for f in range(self.folds):
            fdir = out / f"fold_{f:02d}"
            try:
                rows = (fdir / "curves.tsv").read_text().split("\n")
                col = rows[0].split("\t").index("loss_total")
                loss = [float(r.split("\t")[col]) for r in rows[1:] if r]
                ok = ((fdir / "metrics.json").exists()
                      and (fdir / "model.ckpt").exists()
                      and len(loss) == self.cfg.epochs
                      and all(math.isfinite(v) for v in loss))
            except (OSError, ValueError, IndexError):
                ok = False
            failed += not ok
            if ok:
                finals.append(loss[-1])
        if finals:
            self.final_loss.append(sum(finals) / len(finals))
        return failed

    def finish(self):
        problems = []
        if len(set(self.digests)) > 1:
            problems.append("aggregate.json differs between operations")
        if self.digests:
            problems += expect(self.dir / "expected.json", "aggregate_sha256",
                               self.digests[0])
        extra = {}
        if self.final_loss:
            extra["train_loss_final"] = (self.final_loss[0], "nats")
        return problems, extra


class Evaluate:
    """evaluate_model over every frame of the cache, as `pressnet evaluate`."""
    unit = "frames/s"

    def __init__(self, inp, seed, work):
        import numpy as np
        from pressnet import checkpoint
        self.net, self.data = inp.net, inp.data
        self.idx = np.arange(len(self.data))
        self.first = None
        again = work / "roundtrip.ckpt"
        checkpoint.save_checkpoint(again, inp.net, adam=inp.ckpt.adam,
                                   epoch=inp.ckpt.epoch, seed=inp.ckpt.seed)
        self.roundtrip_ok = (again.read_bytes()
                             == (inp.dir / "model.ckpt").read_bytes())

    def op(self, n):
        from pressnet import harness
        t0 = time.perf_counter()
        report = harness.evaluate_model(self.net, self.data, self.idx)
        dt = time.perf_counter() - t0
        n_frames = len(self.idx)
        ok = self.roundtrip_ok and all(
            int(report[task].confusion.sum()) == n_frames
            for task in ("posture_fine", "posture_coarse", "subject"))
        accs = tuple(report[t].accuracy for t in ("posture_fine", "subject"))
        if self.first is None:
            self.first = accs
        ok = ok and accs == self.first
        return dt, n_frames, 1, int(not ok)

    def finish(self):
        problems = [] if self.roundtrip_ok else [
            "checkpoint save after load is not bit-exact"]
        extra = {"posture_fine_accuracy": (self.first[0], "%")} if self.first else {}
        return problems, extra


class Preprocess:
    """Cold preprocess_dataset into a fresh cache dir, then the warm re-run."""
    unit = "frames/s"

    def __init__(self, inp, seed, work):
        from pressnet import tensor
        self.raw, self.work, self.ref = inp.dir / "raw", work, inp.manifest
        self.items = json.loads((inp.dir / "inputs.json").read_text())["raw_frames"]
        self.rng = tensor.make_rng(seed, 7)
        self.warm = []

    def op(self, n):
        import numpy as np
        from pressnet import dataio, signal
        cache = self.work / f"cache{n}"
        t0 = time.perf_counter()
        manifest, hit = signal.preprocess_dataset(self.raw, cache)
        dt = time.perf_counter() - t0
        t0 = time.perf_counter()
        _, hit_again = signal.preprocess_dataset(self.raw, cache)
        self.warm.append(time.perf_counter() - t0)
        seqs = len(self.ref.entries)
        if hit or not hit_again or len(manifest.entries) != seqs:
            return dt, self.items, seqs, seqs
        failed = 0
        sample = set(self.rng.choice(seqs, size=3, replace=False).tolist())
        for i, entry in enumerate(manifest.entries):
            frames = np.load(entry.path)
            ok = bool(frames.min() >= 0.0 and frames.max() <= 1.0)
            if i in sample:
                raw = self.raw / f"S{entry.subject_id}" / f"{entry.posture_id}.txt"
                want = signal.preprocess_sequence(dataio.parse_frame_file(raw))
                ok = ok and np.array_equal(frames, want.frames)
            failed += not ok
        shutil.rmtree(cache)
        return dt, self.items, seqs, failed

    def finish(self):
        return [], {}


class Baselines:
    """Features, kNN, bagged trees and the feature MLP over every fold."""
    unit = "frames/s"

    def __init__(self, inp, seed, work):
        from pressnet import harness
        self.data = inp.data
        self.seed = seed
        self.plan = harness.split_for(self.data, harness.TrainConfig(
            **TRAIN, seed=seed))
        self.items = len(self.plan) * len(self.data)

    def op(self, n):
        from pressnet import baselines, dataio
        classes = len(dataio.CATEGORIES)
        y = self.data.coarse_idx
        preds = []
        t0 = time.perf_counter()
        feats = baselines.extract_feature_matrix(self.data.x)
        for train_idx, test_idx in self.plan.folds:
            mu, sd = baselines.standardize_fit(feats[train_idx])
            tr = baselines.standardize_apply(feats[train_idx], mu, sd)
            te = baselines.standardize_apply(feats[test_idx], mu, sd)
            preds.append((test_idx, baselines.knn_predict(tr, y[train_idx], te, k=10)))
            ens = baselines.train_bagged_trees(tr, y[train_idx], seed=self.seed)
            preds.append((test_idx, baselines.predict_trees(ens, te)))
            mlp = baselines.mlp_baseline(tr, y[train_idx], n_classes=classes,
                                         seed=self.seed)
            preds.append((test_idx, mlp.predict(te)))
        dt = time.perf_counter() - t0
        failed = sum(not (p.shape == idx.shape and (p >= 0).all()
                          and (p < classes).all()) for idx, p in preds)
        return dt, self.items, len(preds), failed

    def finish(self):
        return [], {}


JOBS = {"train_cv": TrainCV, "evaluate": Evaluate, "preprocess": Preprocess,
        "baselines": Baselines}


def expect(path, key, value):
    """Compare value with the one an earlier run recorded under key."""
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key not in seen:
        seen[key] = value
        path.write_text(json.dumps(seen, indent=2, sort_keys=True))
        return []
    return [] if seen[key] == value else [
        f"{key} differs from an earlier run on the same inputs"]


# ---------------------------------------------------------------------------
# measurement


class Tally:
    def __init__(self):
        self.times, self.items, self.attempted, self.failed = [], [], 0, 0
        self.ops = 0

    def rate(self, parts=None):
        """Median items per second over the given timed parts (default all)."""
        if parts is None:
            parts = range(len(self.times))
        rates = [self.items[i] / self.times[i] for i in parts]
        return median(rates) if rates else 0.0

    def one_op(self, job):
        """Run one operation; return the indices of the timed parts it added."""
        first = len(self.times)
        try:
            dt, items, attempted, failed = job.op(self.ops)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
        else:
            # an operation may report several timed parts (train_cv's folds)
            self.times += dt if isinstance(dt, list) else [dt]
            self.items += items if isinstance(items, list) else [items]
            self.attempted += attempted
            self.failed += failed
        self.ops += 1
        return range(first, len(self.times))


def closed_loop(job, seconds, tally, min_ops=1):
    """Run operations back to back. After the first min_ops, start one only
    if it should end in time; a fixed count keeps train_cv's long operations
    from running once in one run and twice in the next."""
    start = time.perf_counter()
    took = []
    while True:
        t0 = time.perf_counter()
        tally.one_op(job)
        took.append(time.perf_counter() - t0)
        if (len(took) >= min_ops
                and time.perf_counter() - start + median(took) > seconds):
            return


def alternate(job, seconds, tally, tracer):
    """One discarded warm-up operation, then pairs of an untraced and a
    traced operation, in the order untraced-traced, traced-untraced and so
    on: at least two pairs, and more while time is left. Neither side
    carries the first call's warm-up, and a steady drift in machine speed
    falls on both alike. Returns the timed parts of each side."""
    def traced_op():
        tracer.install()
        try:
            return tally.one_op(job)
        finally:
            tracer.uninstall()

    tally.one_op(job)
    plain, traced, pairs = [], [], 0
    start = time.perf_counter()
    while pairs < 2 or time.perf_counter() - start < seconds:
        if pairs % 2 == 0:
            plain += tally.one_op(job)
            traced += traced_op()
        else:
            traced += traced_op()
            plain += tally.one_op(job)
        pairs += 1
    return plain, traced


def cache_hit(d, times, problems):
    """Time one warm preprocess_dataset call, which must hit the cache."""
    from pressnet import signal
    t0 = time.perf_counter()
    _, hit = signal.preprocess_dataset(d / "raw", d / "cache")
    times.append(time.perf_counter() - t0)
    if not hit:
        problems.append("warm preprocess_dataset missed its cache")


def coverage_runs(workload, inp, seed, work, job):
    """Small traced runs of the other workloads, so that every per-layer
    metric has calls behind it whichever workload is traced."""
    from pressnet import checkpoint, harness, signal
    mini = subset(inp.data, MINI_FRAMES)
    if workload == "train_cv":
        ckpt = job.last_run / "fold_00" / "model.ckpt"
    else:
        cfg = harness.TrainConfig(**{**TRAIN, "epochs": 1}, seed=seed)
        harness.run_experiment(mini, cfg, work / "mini_train")
        ckpt = work / "mini_train" / "fold_00" / "model.ckpt"
    if workload != "evaluate":
        net = checkpoint.restore_net(checkpoint.load_checkpoint(ckpt))
        chunk = subset(inp.data, 256)
        harness.evaluate_model(net, chunk, range(len(chunk)))
    if workload != "preprocess":
        raw = work / "mini_raw"
        for s in ("S1", "S2"):
            shutil.copytree(inp.dir / "raw" / s, raw / s)
        signal.preprocess_dataset(raw, work / "mini_cache")
        signal.preprocess_dataset(raw, work / "mini_cache")
    if workload != "baselines":
        small = Inputs(inp.dir, inp.manifest, mini, inp.ckpt, inp.net)
        Baselines(small, seed, work).op(0)


def numeric_env(threads):
    import ctypes
    import glob
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"blas_threads": threads, "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads_effective"] = fn()
                break
    return env


def run(args):
    d = Path(args.dir)
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    setup_s, inp = setup(args.workload, d,
                         tracer.install if tracer is not None else None)
    if tracer is not None:
        tracer.uninstall()

    import pressnet
    src = Path(pressnet.__file__).resolve()
    if Path(args.src).resolve() not in src.parents:
        raise SystemExit(f"pressnet imported from {src}, not from {args.src}")
    env = numeric_env(int(os.environ["OPENBLAS_NUM_THREADS"]))
    problems = []
    if env.get("blas_threads_effective", env["blas_threads"]) != env["blas_threads"]:
        problems.append(f"BLAS runs {env['blas_threads_effective']} threads, "
                        f"not the pinned {env['blas_threads']}")

    job = JOBS[args.workload](inp, args.seed, work)
    result = {"setup_s": setup_s, "env": env, "unit": job.unit}
    tally = Tally()
    hits = []
    if not args.trace:
        closed_loop(job, args.seconds, tally, min_ops=2)
        for _ in range(HIT_REPEATS):
            cache_hit(d, hits, problems)
        if args.workload == "preprocess":
            hits += job.warm
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
    else:
        plain_parts, traced_parts = alternate(job, args.seconds, tally, tracer)
        tracer.install()
        try:
            for _ in range(3):
                cache_hit(d, hits, problems)
            own = len(tracer.spans)
            coverage_runs(args.workload, inp, args.seed, work, job)
        finally:
            tracer.uninstall()
        from catalog import COMPUTED
        from spans import PARENT, layer_metrics, span_summary
        # the workload's own calls take precedence over the coverage runs
        others = [s[:PARENT] + [max(s[PARENT] - own, -1)] + s[PARENT + 1:]
                  for s in tracer.spans[own:]]
        layer, trace_problems = layer_metrics(others)
        own_layer, own_problems = layer_metrics(tracer.spans[:own])
        layer.update(own_layer)
        problems += trace_problems + own_problems
        plain, traced = tally.rate(plain_parts), tally.rate(traced_parts)
        layer["trace.overhead_frac"] = (plain / traced - 1.0
                                        if plain and traced else 0.0)
        # shape-derived counts do not depend on the seed: one file per code
        problems += expect(d.parent / "computed_counts.json",
                           d.name.rsplit("-", 1)[1],
                           {k: layer.get(k) for k in COMPUTED})
        result["layer"] = layer
        result["spans"] = span_summary(tracer.spans)
        with open(args.out + ".spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s, default=str) + "\n")
    job_problems, extra = job.finish()
    if not args.trace:
        extra["cache_hit_s"] = (median(hits), "s")
    problems += job_problems
    if problems:
        tally.failed = tally.attempted
    result.update(throughput_per_s=tally.rate(),
                  ops=tally.ops, op_seconds=tally.times,
                  attempted=tally.attempted, failed=tally.failed,
                  problems=problems, extra=extra)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("gen", "setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(JOBS))
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--work")
    ap.add_argument("--src")
    args = ap.parse_args(argv)
    if args.mode == "gen":
        generate(args.workload, args.seed, Path(args.dir))
    elif args.mode == "setup":
        seconds, _ = setup(args.workload, Path(args.dir))
        print(json.dumps({"setup_s": seconds}))
    else:
        run(args)


if __name__ == "__main__":
    main()
