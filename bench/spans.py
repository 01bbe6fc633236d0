"""In-memory span recorder and the per-layer metrics derived from it.

`Tracer.install()` wraps the public functions of each pressnet module, and
the forward/backward methods of the layer classes, with a recorder that
appends one span per call: name, start, end, parent span, attributes and
whether the call raised. Nothing is written until the run ends. A train
step (`harness.step`) opens when the network's train-mode forward starts
and closes when the following `adam_step` returns, so the tree reads
run_experiment -> train_model (one fold) -> step -> stage -> kernel.

The untraced benchmark run never imports this module.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import defaultdict
from statistics import median, quantiles

from catalog import STAGES

BATCH = 64      # train batch size whose steps the per-step metrics use
CHUNK = 256     # chunk size of harness._forward_in_chunks
NAME, START, END, PARENT, ATTRS, OK = range(6)


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _batch(args, kwargs):
    return {"batch": args[1].shape[0]}


def _conv_shape(args, kwargs):
    x, k = args[0], args[1]
    b = x.shape[0] if x.ndim == 4 else 1
    return {"shape": (b, *x.shape[-2:], *k.shape), "item": x.itemsize}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self._stage = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ recording

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs, True])
        self._stack.append(len(self.spans) - 1)

    def _close(self, idx, ok=True):
        now = time.perf_counter()
        # a step left open by an exception is closed, as failed, with its caller
        while self._stack and self._stack[-1] != idx:
            dangling = self.spans[self._stack.pop()]
            dangling[END], dangling[OK] = now, False
        if self._stack:
            self._stack.pop()
        self.spans[idx][END] = now
        self.spans[idx][OK] = ok

    def _wrap(self, name, fn, attrs=None, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            self._open(label, attrs(args, kwargs) if attrs else {})
            idx = len(self.spans) - 1
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, ok=False)
                raise
            self._close(idx)
            if after is not None:
                after(self.spans[idx][ATTRS], args, out)
            return out
        return traced

    def _open_step(self, args, kwargs):
        if _arg(args, kwargs, 2, "train", False):
            self._open("harness.step", _batch(args, kwargs))

    def _close_step(self, attrs, args, out):
        if self._stack and self.spans[self._stack[-1]][NAME] == "harness.step":
            self._close(self._stack[-1])

    def _label_net(self, attrs, args, out):
        net = args[0]
        for i, (conv, bn) in enumerate(zip(net.convs, net.bns), start=1):
            self._stage[conv] = f"conv{i}"
            self._stage[bn] = f"bn{i}"
        for i, pool in enumerate(p for p in net.pools if p is not None):
            self._stage[pool] = f"pool{i + 1}"
        for layer in (*net.conv_acts, *net.conv_drops, net.fc1_act,
                      net.fc1_drop, net.fc2_act, net.fc2_drop):
            self._stage[layer] = "act_drop"
        self._stage[net.fc1] = "fc1"
        self._stage[net.fc2] = "fc2"
        self._stage[net.head_subject] = "heads"
        self._stage[net.head_posture] = "heads"

    def _layer_name(self, default, backward):
        def name(args, kwargs):
            stage = self._stage.get(args[0], default)
            if backward:
                return f"layers.{stage}.bwd"
            train = _arg(args, kwargs, 2, "train", False)
            return f"layers.{stage}.{'fwd' if train else 'eval'}"
        return name

    # --------------------------------------------------------- installation

    def _patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module, fname, **kw):
        """Wrap module.fname in every pressnet module that binds the name."""
        orig = getattr(module, fname)
        wrapped = self._wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{fname}",
                             orig, **kw)
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "pressnet":
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapped)

    def install(self):
        from pressnet import (baselines, checkpoint, dataio, harness, layers,
                              losses, model, optim, signal, tensor)

        def mark_grad_x(attrs, args, out):
            attrs["grad_x"] = out[0] is not None

        self._patch_function(tensor, "conv2d_valid", attrs=_conv_shape)
        self._patch_function(tensor, "conv2d_valid_backward",
                             attrs=_conv_shape, after=mark_grad_x)
        self._patch_function(tensor, "maxpool2d")
        self._patch_function(tensor, "maxpool2d_backward")
        for fn in ("softmax", "cross_entropy", "cross_entropy_grad_logits",
                   "combined_loss", "l2_penalty"):
            self._patch_function(losses, fn)
        self._patch_function(optim, "adam_step", after=self._close_step)

        net = model.PostureNet
        self._patch(net, "__init__", self._wrap("model.init", net.__init__,
                                                after=self._label_net))
        self._patch(net, "forward", self._wrap(
            lambda a, kw: "model.forward_train"
            if _arg(a, kw, 2, "train", False) else "model.forward_eval",
            net.forward, attrs=_batch, before=self._open_step))
        self._patch(net, "loss", self._wrap("model.loss", net.loss))
        self._patch(net, "backward", self._wrap("model.backward", net.backward))
        for cls, default in ((layers.Conv2D, "conv_other"),
                             (layers.BatchNorm2D, "bn_other"),
                             (layers.MaxPool2D, "pool_other"),
                             (layers.LeakyReLU, "act_other"),
                             (layers.Dropout, "act_other"),
                             (layers.Dense, "dense_small")):
            self._patch(cls, "forward", self._wrap(
                self._layer_name(default, False), cls.forward, attrs=_batch))
            self._patch(cls, "backward", self._wrap(
                self._layer_name(default, True), cls.backward))

        for fn in ("augment_sample", "dataset_fingerprint",
                   "load_clean_sequences", "preprocess_sequence"):
            self._patch_function(signal, fn)
        self._patch_function(signal, "median_filter_3d",
                             attrs=lambda a, kw: {"frames": a[0].shape[0]})
        self._patch_function(signal, "preprocess_dataset",
                             after=lambda at, a, out: at.update(hit=out[1]))
        self._patch_function(dataio, "parse_frame_file",
                             after=lambda at, a, out: at.update(frames=len(out)))
        for fn in ("build_manifest", "read_manifest", "write_manifest"):
            self._patch_function(dataio, fn)
        self._patch_function(
            checkpoint, "save_checkpoint",
            after=lambda at, a, out: at.update(bytes=os.path.getsize(a[0])))
        self._patch_function(checkpoint, "load_checkpoint")
        self._patch_function(checkpoint, "restore_net")
        self._patch_function(
            harness, "train_model",
            attrs=lambda a, kw: {"offered": len(a[0]) * a[3].epochs})
        for fn in ("run_experiment", "evaluate_model", "flatten_sequences",
                   "split_for"):
            self._patch_function(harness, fn)
        self._patch_function(baselines, "extract_feature_matrix",
                             attrs=lambda a, kw: {"frames": len(a[0])})
        for fn in ("knn_predict", "train_bagged_trees", "predict_trees",
                   "mlp_baseline"):
            self._patch_function(baselines, fn)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# metrics


def conv_counts(kernel_spans):
    """(fwd flop, bwd flop, discarded bwd flop, im2col bytes) of conv calls.

    kernel_spans holds (name, attrs, stage) for tensor.conv2d_valid and
    tensor.conv2d_valid_backward calls. The input gradient of conv1 is
    discarded, because conv1's input is the data.
    """
    fwd = bwd = wasted = im2col = 0
    for name, attrs, stage in kernel_spans:
        b, h, w, cout, cin, kh, kw = attrs["shape"]
        ho, wo = h - kh + 1, w - kw + 1
        flop = 2 * b * ho * wo * cout * cin * kh * kw
        im2col += b * ho * wo * cin * kh * kw * attrs["item"]
        if name == "tensor.conv2d_valid":
            fwd += flop
            continue
        bwd += flop
        if attrs.get("grad_x", True):
            flop_x = 2 * b * h * w * cin * cout * kh * kw
            bwd += flop_x
            im2col += b * h * w * cout * kh * kw * attrs["item"]
            if stage == "layers.conv1.bwd":
                wasted += flop_x
    return fwd, bwd, wasted, im2col


def layer_metrics(spans):
    """Per-layer metrics from one run's spans; returns (metrics, problems).

    Per-step and per-chunk figures are medians over full train steps (batch
    BATCH) and full evaluation chunks (CHUNK frames); other times are
    per-call medians. Metrics whose calls did not happen are left out.
    """
    kids = defaultdict(list)
    named = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s[PARENT]].append(i)
        named[s[NAME]].append(i)
    out, problems = {}, []

    def dur(i):
        return spans[i][END] - spans[i][START]

    def put(name, values, scale=1.0):
        if values:
            out[name] = median(values) * scale

    def subtree(i):
        todo, found = list(kids[i]), []
        while todo:
            j = todo.pop()
            found.append(j)
            todo.extend(kids[j])
        return found

    def kernels(i):
        return [(spans[j][NAME], spans[j][ATTRS], spans[spans[j][PARENT]][NAME])
                for j in subtree(i) if spans[j][NAME].startswith("tensor.conv")]

    def calls(name, per=None, where=None):
        vals = []
        for i in named[name]:
            if where is None or where(i):
                vals.append(dur(i) / (spans[i][ATTRS][per] if per else 1))
        return vals

    # --- train steps
    steps = [i for i in named["harness.step"]
             if spans[i][OK] and spans[i][ATTRS]["batch"] == BATCH]
    per_stage = defaultdict(list)
    loss_ms, covered, counts = [], [], set()
    for i in steps:
        sums = defaultdict(float)
        for j in subtree(i):
            sums[spans[j][NAME]] += dur(j)
        for st in STAGES:
            per_stage[f"layers.{st}.fwd_ms"].append(sums[f"layers.{st}.fwd"])
            per_stage[f"layers.{st}.bwd_ms"].append(sums[f"layers.{st}.bwd"])
        losses = sum(v for k, v in sums.items() if k.startswith("losses."))
        loss_ms.append(losses)
        stages = sum(sums[f"layers.{st}.{p}"] for st in STAGES
                     for p in ("fwd", "bwd"))
        covered.append((stages + losses + sums["optim.adam_step"]) / dur(i))
        counts.add(conv_counts(kernels(i)))
    for name, vals in per_stage.items():
        put(name, vals, 1e3)
    put("harness.step_ms", [dur(i) for i in steps], 1e3)
    put("losses.ms_per_step", loss_ms, 1e3)
    put("harness.step_covered_frac", covered)
    if len(counts) > 1:
        problems.append(f"conv counts differ between steps: {sorted(counts)}")
    if counts:
        fwd, bwd, wasted, im2col = min(counts)
        out["tensor.conv_fwd_mflop_per_step"] = fwd / 1e6
        out["tensor.conv_bwd_mflop_per_step"] = bwd / 1e6
        out["tensor.conv_bwd_useful_frac"] = (bwd - wasted) / bwd
        out["tensor.im2col_mb_per_step"] = im2col / 1e6
    in_step = {i for i in named["optim.adam_step"]
               if spans[spans[i][PARENT]][NAME] == "harness.step"}
    put("optim.adam_step_ms", calls("optim.adam_step",
                                    where=lambda i: i in in_step), 1e3)
    put("optim.adam_step_small_ms", calls("optim.adam_step",
                                          where=lambda i: i not in in_step), 1e3)
    full = set(steps)
    for name, metric in (("model.forward_train", "model.forward_train_ms"),
                         ("model.loss", "model.loss_ms"),
                         ("model.backward", "model.backward_ms")):
        put(metric, calls(name, where=lambda i: spans[i][PARENT] in full), 1e3)

    # --- the data path between steps: gather plus augmentation
    waits, augment, used, offered = [], [], 0, 0
    for t in named["harness.train_model"]:
        fold_steps = [j for j in kids[t] if spans[j][NAME] == "harness.step"]
        aug = [j for j in kids[t] if spans[j][NAME] == "signal.augment_sample"]
        prev_end = spans[t][START]
        for n, j in enumerate(fold_steps):
            if n:
                waits.append(spans[j][START] - prev_end)
            if aug and spans[j][ATTRS]["batch"] == BATCH:
                augment.append(sum(dur(a) for a in aug
                                   if prev_end <= spans[a][START] < spans[j][START]))
            prev_end = spans[j][END]
            used += spans[j][ATTRS]["batch"]
        offered += spans[t][ATTRS]["offered"]
    put("harness.data_wait_ms", waits, 1e3)
    put("signal.augment_ms_per_batch", augment, 1e3)
    if offered:
        out["harness.samples_used_frac"] = used / offered
    put("harness.train_model_s", calls("harness.train_model"))
    put("harness.evaluate_model_s", calls("harness.evaluate_model"))
    put("harness.run_experiment.self_s",
        [dur(i) - sum(dur(j) for j in kids[i])
         for i in named["harness.run_experiment"]])

    # --- inference chunks
    chunks = [i for i in named["model.forward_eval"]
              if spans[i][ATTRS]["batch"] == CHUNK]
    per_chunk = defaultdict(list)
    chunk_counts = set()
    for i in chunks:
        sums = defaultdict(float)
        for j in subtree(i):
            sums[spans[j][NAME]] += dur(j)
        for st in STAGES:
            per_chunk[f"layers.{st}.eval_fwd_ms"].append(sums[f"layers.{st}.eval"])
        chunk_counts.add(conv_counts(kernels(i))[3])
    for name, vals in per_chunk.items():
        put(name, vals, 1e3)
    if len(chunk_counts) > 1:
        problems.append(f"im2col bytes differ between chunks: {chunk_counts}")
    if chunk_counts:
        out["tensor.im2col_mb_per_eval_chunk"] = min(chunk_counts) / 1e6
    put("model.forward_eval_ms_per_frame",
        calls("model.forward_eval", per="batch"), 1e3)

    # --- kernels, small layers, optimizer
    put("tensor.conv2d_valid_ms", calls("tensor.conv2d_valid"), 1e3)
    put("tensor.conv2d_valid_backward_ms",
        calls("tensor.conv2d_valid_backward"), 1e3)
    put("tensor.maxpool2d_ms", calls("tensor.maxpool2d"), 1e3)
    put("tensor.maxpool2d_backward_ms", calls("tensor.maxpool2d_backward"), 1e3)
    put("layers.dense_small_ms",
        sum((calls(f"layers.dense_small.{p}") for p in ("fwd", "eval", "bwd")),
            []), 1e3)

    # --- preprocessing, data files, checkpoints
    put("signal.median_filter_ms_per_frame",
        calls("signal.median_filter_3d", per="frames"), 1e3)
    put("signal.fingerprint_ms", calls("signal.dataset_fingerprint"), 1e3)
    put("signal.preprocess_dataset.self_ms",
        [dur(i) - sum(dur(j) for j in kids[i])
         for i in named["signal.preprocess_dataset"]
         if spans[i][ATTRS].get("hit") is False], 1e3)
    put("signal.load_clean_sequences_ms", calls("signal.load_clean_sequences"), 1e3)
    put("dataio.parse_ms_per_frame",
        calls("dataio.parse_frame_file", per="frames",
              where=lambda i: spans[i][OK]), 1e3)
    put("dataio.build_manifest_ms", calls("dataio.build_manifest"), 1e3)
    put("dataio.read_manifest_ms", calls("dataio.read_manifest"), 1e3)
    put("checkpoint.save_ms", calls("checkpoint.save_checkpoint"), 1e3)
    put("checkpoint.load_ms", calls("checkpoint.load_checkpoint"), 1e3)
    put("checkpoint.bytes", [spans[i][ATTRS]["bytes"]
                             for i in named["checkpoint.save_checkpoint"]
                             if spans[i][OK]])

    # --- baselines
    put("baselines.features_ms_per_frame",
        calls("baselines.extract_feature_matrix", per="frames"), 1e3)
    put("baselines.knn_ms", calls("baselines.knn_predict"), 1e3)
    put("baselines.trees_fit_s", calls("baselines.train_bagged_trees"))
    put("baselines.trees_predict_ms", calls("baselines.predict_trees"), 1e3)
    put("baselines.mlp_fit_s", calls("baselines.mlp_baseline"))
    return out, problems


def span_summary(spans):
    """Per span name: calls, failures, median and p90 duration in ms."""
    by_name = defaultdict(list)
    failed = defaultdict(int)
    for s in spans:
        by_name[s[NAME]].append((s[END] - s[START]) * 1e3)
        failed[s[NAME]] += not s[OK]
    summary = {}
    for name, vals in sorted(by_name.items()):
        p90 = quantiles(vals, n=10)[-1] if len(vals) > 1 else vals[0]
        summary[name] = {"calls": len(vals), "failed": failed[name],
                         "median_ms": median(vals), "p90_ms": p90}
    return summary
