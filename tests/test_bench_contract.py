"""The names the benchmark's span tracer relies on.

bench/spans.py labels each layer's timing spans by the stage it belongs to
(catalog.STAGES), through attributes of PostureNet. A layer it cannot place
falls back to a catch-all label and its stage's metrics go missing, so one
traced train step and eval forward must give every stage its spans. It
times preprocessing through module functions it patches by name, so a
traced preprocess must call them. bench/worker.py builds its folds with
harness.split_for and fits the MLP comparator by keyword. The tracer keeps
one stack of open spans, so a traced function called from a pool thread
would corrupt it: every span must open on the calling thread.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from pressnet import baselines, harness, optim, signal, synthetic, tensor
from pressnet.dataio import GRID_COLS, GRID_ROWS
from pressnet.layers import MaxPool2D
from pressnet.model import ModelConfig, PostureNet

from util import set_net_constants, small_net, workers

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_labels_every_stage(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import catalog
    import spans

    # small channels, the paper's dropout rates: train mode draws masks
    set_net_constants(monkeypatch, CONV_CHANNELS=(2, 2, 2, 2), DENSE_WIDTH=4)
    tracer = spans.Tracer()
    opened_on = []
    open_span = tracer._open

    def record_thread(name, attrs):
        opened_on.append(threading.get_ident())
        open_span(name, attrs)

    monkeypatch.setattr(tracer, "_open", record_thread)
    # two workers, and every kernel split however small
    with workers(2):
        tracer.install()
        try:
            net = PostureNet(ModelConfig(num_subjects=2, num_postures=3),
                             tensor.make_rng(90))
            rng = tensor.make_rng(91)
            x = rng.random((4, 1, GRID_ROWS, GRID_COLS)).astype(np.float32)
            yu, yp = rng.integers(0, 2, 4), rng.integers(0, 3, 4)
            pu, pp = net.forward(x, train=True, rng=tensor.make_rng(92))
            grads = net.backward(pu, pp, yu, yp, 0.5)
            optim.adam_step(net.params(), grads,
                            optim.AdamState(net.params()), lr=1e-3)
            net.forward(x)
        finally:
            tracer.uninstall()

    assert opened_on == [threading.get_ident()] * len(tracer.spans)
    assert all(-1 <= s[spans.PARENT] < i for i, s in enumerate(tracer.spans))
    names = {s[spans.NAME] for s in tracer.spans}
    want = {f"layers.{stage}.{phase}" for stage in catalog.STAGES
            for phase in ("fwd", "bwd", "eval")}
    assert not want - names, sorted(want - names)
    # the defaults a layer gets when no stage is found for it
    fallback = sorted(n for n in names
                      if n.startswith("layers.")
                      and n.split(".")[1].endswith(("_other", "dense_small")))
    assert not fallback, fallback


def test_import_starts_no_executor():
    # concurrent.futures takes milliseconds to import, which set-up would
    # pay; the pool is built on threading alone, when a kernel first splits
    code = ("import sys, pressnet, pressnet.cli; "
            "print('concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_tracer_times_parse_and_median(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    synthetic.write_synthetic_dataset(tmp_path / "raw", subjects=1,
                                      postures=2, frames_per_seq=8, seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        signal.preprocess_dataset(tmp_path / "raw", tmp_path / "cache")
    finally:
        tracer.uninstall()

    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("signal.median_filter_3d") == 2
    assert names.count("dataio.parse_frame_file") == 2
    metrics, _ = spans.layer_metrics(tracer.spans)
    assert {"signal.median_filter_ms_per_frame",
            "dataio.parse_ms_per_frame"} <= set(metrics)


def test_eval_chunk_is_one_span_over_its_blocks(monkeypatch, small_net):
    # a chunk of evaluate_model's EVAL_CHUNK loop is one model.forward_eval
    # span whatever blocks the network runs it in, so the per-chunk metrics
    # sum every block's layer spans and count one chunk's im2col bytes
    monkeypatch.syspath_prepend(str(BENCH))
    import catalog
    import spans

    n = spans.CHUNK
    assert n > PostureNet.EVAL_BLOCK
    tracer = spans.Tracer()
    tracer.install()
    try:
        cfg = ModelConfig(num_subjects=2, num_postures=3)
        net = PostureNet(cfg, tensor.make_rng(93))
        net.forward(tensor.make_rng(94).random(
            (n, 1, GRID_ROWS, GRID_COLS)).astype(np.float32))
    finally:
        tracer.uninstall()

    evals = [i for i, s in enumerate(tracer.spans)
             if s[spans.NAME] == "model.forward_eval"]
    assert len(evals) == 1
    assert tracer.spans[evals[0]][spans.ATTRS]["batch"] == n
    for stage in catalog.STAGES:
        calls = [s for s in tracer.spans
                 if s[spans.NAME] == f"layers.{stage}.eval"]
        assert calls and all(s[spans.PARENT] == evals[0] for s in calls), stage
    blocks = [s for s in tracer.spans if s[spans.NAME] == "layers.conv1.eval"]
    assert len(blocks) == -(-n // PostureNet.EVAL_BLOCK)

    metrics, problems = spans.layer_metrics(tracer.spans)
    assert not problems
    assert {f"layers.{st}.eval_fwd_ms" for st in catalog.STAGES} <= set(metrics)
    # a pooled block's conv computes only the rows and columns its pool
    # reads
    shapes = PostureNet.feature_shapes()
    one_pass = sum(n * h * w * 9 * cin * 4 for (h, w), cin in zip(
        (MaxPool2D.reads(*shapes[0]), MaxPool2D.reads(*shapes[2]),
         shapes[4], shapes[5]),
        (1, *PostureNet.CONV_CHANNELS[:3])))
    assert metrics["tensor.im2col_mb_per_eval_chunk"] == one_pass / 1e6



def test_worker_fold_plan_and_mlp_calls(monkeypatch):
    # bench/worker.py reads len(plan) and plan.folds as (train, test)
    # pairs, and calls mlp_baseline(tr, y, n_classes=..., seed=...)
    labels = np.array([0, 0, 1, 1, 2, 2])
    data = harness.FlatDataset(
        x=np.zeros((6, 1, 1, 1), dtype=np.float32), subject_idx=labels,
        posture_idx=labels, coarse_idx=labels, seq_id=np.arange(6),
        subject_ids=[1, 2, 3], posture_ids=[1, 2, 3])
    plan = harness.split_for(data, harness.TrainConfig(k=2, seed=1))
    assert len(plan) == len(plan.folds) == 2
    for train, test in plan.folds:
        assert train.size + test.size == len(data)

    monkeypatch.setattr(baselines.MLPBaseline, "EPOCHS", 1)
    feats = tensor.make_rng(95).normal(size=(6, 3))
    mlp = baselines.mlp_baseline(feats, labels, n_classes=4, seed=2)
    assert mlp.predict(feats).shape == (6,) and mlp.n_classes == 4
