"""pressnet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train_cv --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It generates the workload's inputs from
the seed (once per seed and source tree, kept in .bench_inputs/), times
set-up in fresh interpreters, runs the workload as a single-client closed
loop for --seconds in one worker process with the BLAS thread count pinned,
checks every output, and prints the metrics named in BENCHMARK.json. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the worker
also records spans and the metrics are the per-layer ones. Details of each
run, the numeric environment and the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from catalog import COMPUTED, LAYER_METRICS
from worker import input_set

BLAS_THREADS = 1        # output digests only compare at a fixed thread count
SETUP_PROBES = 7        # fresh interpreters timing set-up, besides the worker
KEEP_INPUTS = 12        # generated input sets kept for reuse
TIME_LIMIT = 170        # seconds; the whole run must end within 180
HERE = Path(__file__).resolve().parent
# The roadmap's names for each workload's headline figure, for the report.
HEADLINE = {"train_cv": "train_samples_per_s", "evaluate": "eval_frames_per_s",
            "preprocess": "preprocess_frames_per_s", "baselines": "baselines_s"}


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def tree_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def worker(args, env, deadline):
    """Run worker.py; on timeout subprocess.run kills it and waits."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail(f"worker {args[0]} ran past the time limit")
    if proc.returncode != 0:
        fail(f"worker {args[0]} exited with {proc.returncode}")
    return proc.stdout.decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT
    # SystemExit inside subprocess.run makes it kill and reap the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "pressnet" / "__init__.py").is_file():
        fail(f"no pressnet sources under {src}; run from a checkout's root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if {m["name"] for m in spec["per_layer"]} != set(LAYER_METRICS):
        fail("BENCHMARK.json per_layer and bench/catalog.py disagree")

    # inputs depend on the seed and on the code that generates them
    key = tree_digest(sorted(src.rglob("*.py")) + sorted(HERE.glob("*.py")))
    store = root / ".bench_inputs"
    inputs = store / f"{input_set(args.workload)[0]}-seed{args.seed}-{key}"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    common = ["--workload", args.workload, "--dir", str(inputs)]
    if not (inputs / "inputs.json").exists():
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        worker(["gen", *common, "--seed", str(args.seed)], env, deadline)
    os.utime(inputs)
    for old in sorted((p for p in store.iterdir() if p.is_dir()),
                      key=lambda p: p.stat().st_mtime, reverse=True)[KEEP_INPUTS:]:
        shutil.rmtree(old, ignore_errors=True)

    def probe_setup(n):
        return [json.loads(worker(["setup", *common], env, deadline))["setup_s"]
                for _ in range(n if not args.trace else 0)]

    # probes before and after the worker, so that the fastest is taken over
    # the whole run rather than over a few seconds of it
    setups = probe_setup(SETUP_PROBES // 2)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    worker(["run", *common, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out), "--work", str(out_dir / "work"),
            "--src", str(src)], env, deadline)
    setups += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    res = json.loads(out.read_text())
    res["inputs"] = json.loads((inputs / "inputs.json").read_text())

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        missing = sorted(set(LAYER_METRICS) - set(res["layer"]))
        if missing:
            fail(f"traced run yielded no value for {missing}")
        values = {name: res["layer"][name] for name in LAYER_METRICS}
    else:
        setups.append(res["setup_s"])
        # the fastest timing is the one least disturbed by other load
        values = {"setup_s": min(setups),
                  "throughput_per_s": res["throughput_per_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        res["setup_samples_s"] = setups
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in values}
    correct = res["failed"] == 0 and not res["problems"]
    res.update(metrics=metrics, correct=correct)
    out.write_text(json.dumps(res, indent=2, sort_keys=True))

    env_line = " ".join(f"{k}={v}" for k, v in sorted(res["env"].items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"ops {res['ops']}")
    print(f"env {env_line}")
    print(f"inputs raw_sha256={res['inputs']['raw_sha256'][:16]} "
          f"cache_sha256={res['inputs']['cache_sha256'][:16]} "
          f"frames={res['inputs']['frames']}")
    if args.trace:
        for name, m in metrics.items():
            layer, moves = LAYER_METRICS[name]
            kind = "computed" if name in COMPUTED else "measured"
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']:9s} "
                  f"{kind} [{layer}] moves {moves}")
    else:
        ops = res["op_seconds"]
        headline = (f"{median(ops):.4f} s" if args.workload == "baselines"
                    else f"{res['throughput_per_s']:.4f} {res['unit']}")
        print(f"  {HEADLINE[args.workload]:28s} {headline}")
        for name, (value, unit) in sorted(res["extra"].items()):
            print(f"  {name:28s} {value:.6g} {unit}")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    rate = res["failed"] / max(res["attempted"], 1)
    print(f"  {'error_rate':28s} {rate:.6g} fraction "
          f"({res['failed']}/{res['attempted']})")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
