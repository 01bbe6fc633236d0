"""What each per-layer metric belongs to and which end-to-end figure it moves.

Units, directions and bounds live in BENCHMARK.json at the repository root;
this table adds the layer (a module of the pressnet package) and the
end-to-end metric, per workload, that a change to the layer should move.
`run.py` refuses to run when the two disagree on the set of names.
"""

STAGES = ("conv1", "conv2", "conv3", "conv4", "bn1", "bn2", "bn3", "bn4",
          "pool1", "pool2", "fc1", "fc2", "heads", "act_drop")

_TRAIN = "throughput_per_s on train_cv"
_EVAL = "throughput_per_s on evaluate"
_PRE = "throughput_per_s on preprocess"
_BASE = "throughput_per_s on baselines"
_HIT = "cache_hit_s (printed, not in BENCHMARK.json) on every workload"
_SETUP = "setup_s on every workload"

LAYER_METRICS = {
    "harness.step_ms": ("harness", _TRAIN),
    "harness.data_wait_ms": ("harness", _TRAIN),
    "harness.train_model_s": ("harness", _TRAIN),
    "harness.evaluate_model_s": ("harness", f"{_TRAIN}; {_EVAL}"),
    "harness.run_experiment.self_s": ("harness", _TRAIN),
    "harness.samples_used_frac": ("harness", _TRAIN),
    "harness.step_covered_frac": ("harness", "none: checks the trace itself"),
    "model.forward_train_ms": ("model", _TRAIN),
    "model.backward_ms": ("model", _TRAIN),
    "model.loss_ms": ("model", _TRAIN),
    "model.forward_eval_ms_per_frame": ("model", _EVAL),
    "layers.dense_small_ms": ("layers", _BASE),
    "tensor.conv2d_valid_ms": ("tensor", f"{_TRAIN}; {_EVAL}"),
    "tensor.conv2d_valid_backward_ms": ("tensor", _TRAIN),
    "tensor.maxpool2d_ms": ("tensor", f"{_TRAIN}; {_EVAL}"),
    "tensor.maxpool2d_backward_ms": ("tensor", _TRAIN),
    "tensor.conv_fwd_mflop_per_step": ("tensor", _TRAIN),
    "tensor.conv_bwd_mflop_per_step": ("tensor", _TRAIN),
    "tensor.conv_bwd_useful_frac": ("tensor", _TRAIN),
    "tensor.im2col_mb_per_step": ("tensor", _TRAIN),
    "tensor.im2col_mb_per_eval_chunk": ("tensor",
                                        f"{_EVAL}; peak_rss_mb on evaluate"),
    "optim.adam_step_ms": ("optim", _TRAIN),
    "optim.adam_step_small_ms": ("optim", _BASE),
    "losses.ms_per_step": ("losses", _TRAIN),
    "signal.augment_ms_per_batch": ("signal", _TRAIN),
    "signal.median_filter_ms_per_frame": ("signal", _PRE),
    "signal.fingerprint_ms": ("signal", _HIT),
    "signal.preprocess_dataset.self_ms": ("signal", _PRE),
    "signal.load_clean_sequences_ms": ("signal", _SETUP),
    "dataio.parse_ms_per_frame": ("dataio", _PRE),
    "dataio.build_manifest_ms": ("dataio", f"{_PRE}; {_HIT}"),
    "dataio.read_manifest_ms": ("dataio", f"{_HIT}; {_SETUP}"),
    "checkpoint.save_ms": ("checkpoint", _TRAIN),
    "checkpoint.load_ms": ("checkpoint", "setup_s on evaluate"),
    "checkpoint.bytes": ("checkpoint", f"{_TRAIN}; setup_s on evaluate"),
    "baselines.features_ms_per_frame": ("baselines", _BASE),
    "baselines.knn_ms": ("baselines", _BASE),
    "baselines.trees_fit_s": ("baselines", _BASE),
    "baselines.trees_predict_ms": ("baselines", _BASE),
    "baselines.mlp_fit_s": ("baselines", _BASE),
    "trace.overhead_frac": ("trace", "none: the cost of tracing itself"),
}
for _stage in STAGES:
    LAYER_METRICS[f"layers.{_stage}.fwd_ms"] = ("layers", _TRAIN)
    LAYER_METRICS[f"layers.{_stage}.bwd_ms"] = ("layers", _TRAIN)
    LAYER_METRICS[f"layers.{_stage}.eval_fwd_ms"] = ("layers", _EVAL)

# Counts derived from argument shapes, not timed; they must repeat exactly.
COMPUTED = ("tensor.conv_fwd_mflop_per_step", "tensor.conv_bwd_mflop_per_step",
            "tensor.conv_bwd_useful_frac", "tensor.im2col_mb_per_step",
            "tensor.im2col_mb_per_eval_chunk")
