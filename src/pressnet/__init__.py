"""Pressure-map posture and subject recognition, trained from first principles.

The package turns raw pressure-mat recordings (32x64 grids at 1 Hz) into a
jointly trained dual-head convolutional classifier — one head identifies the
subject, the other the in-bed posture — plus classical baselines and a
cross-validation harness. All numerical kernels (convolution, batch norm,
backpropagation, Adam) are implemented directly on numpy arrays.
"""

from .dataio import (CATEGORIES, DatasetManifest, SampleSequence,
                     build_manifest, default_taxonomy, load_taxonomy,
                     map_posture_category, parse_frame_file)
from .errors import (CheckpointError, ConfigError, LabelError, NumericFault,
                     ParseError, PressnetError, ShapeError, TrainingFault,
                     UsageError)
from .harness import (FlatDataset, FoldPlan, Metrics, TrainConfig,
                      compute_metrics, evaluate_model, flatten_sequences,
                      kfold_split, loso_split, run_experiment, train_model,
                      welch_t_test)
from .model import ModelConfig, PostureNet
from .signal import (AUGMENT_STEPS, augment_sample, drop_empty_samples,
                     median_filter_3d, normalize_frames, preprocess_sequence)

__version__ = "1.0.0"

__all__ = [
    "CATEGORIES", "DatasetManifest", "SampleSequence", "build_manifest",
    "default_taxonomy", "load_taxonomy", "map_posture_category",
    "parse_frame_file",
    "PressnetError", "ShapeError", "ConfigError", "NumericFault",
    "ParseError", "LabelError", "CheckpointError", "TrainingFault",
    "UsageError",
    "FlatDataset", "FoldPlan", "Metrics", "TrainConfig", "compute_metrics",
    "evaluate_model", "flatten_sequences", "kfold_split", "loso_split",
    "run_experiment", "train_model", "welch_t_test",
    "ModelConfig", "PostureNet",
    "AUGMENT_STEPS", "augment_sample", "drop_empty_samples",
    "median_filter_3d", "normalize_frames", "preprocess_sequence",
    "__version__",
]
