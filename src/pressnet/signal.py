"""Frame preprocessing and stochastic augmentation.

Preprocessing pipeline (fixed order): 3x3x3 spatio-temporal median filter ->
normalize to [0,1] -> trim sequence ends -> drop all-empty sequences.
Augmentation is a four-step pipeline applied per frame, each step firing
independently with its own probability.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dataio
from .dataio import SENSOR_MAX, SampleSequence
from .errors import ConfigError, ShapeError
from .tensor import make_rng


# ---------------------------------------------------------------------------
# preprocessing


def median_filter_3d(frames: np.ndarray) -> np.ndarray:
    """3x3x3 median over (time, row, col) with clamp-to-edge boundaries.

    Output has the same shape as the input; a single frame degenerates to a
    purely spatial 3x3 median (the time axis sees three copies of it).
    """
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ShapeError(f"expected (T, H, W) frames, got {frames.shape}")
    padded = np.pad(frames, 1, mode="edge")
    out = np.empty_like(frames)
    # block over time so the 27-wide window buffer stays modest
    block = 128
    for s in range(0, frames.shape[0], block):
        e = min(frames.shape[0], s + block)
        windows = sliding_window_view(padded[s:e + 2], (3, 3, 3))
        out[s:e] = np.median(windows, axis=(-3, -2, -1))
    return out


def normalize_frames(frames: np.ndarray) -> np.ndarray:
    """Scale raw counts by the fixed sensor range and clamp to [0,1].

    Fixed-range (not per-frame max) normalization preserves absolute
    pressure levels across frames and subjects.
    """
    return np.clip(np.asarray(frames, dtype=np.float32) / SENSOR_MAX, 0.0, 1.0)


def trim_sequence(frames: np.ndarray, n: int = 3) -> np.ndarray:
    """Drop the first and last n frames (settling artifacts at the ends)."""
    frames = np.asarray(frames)
    if n < 0:
        raise ShapeError("trim count must be nonnegative")
    if frames.shape[0] <= 2 * n:
        return frames[:0]
    return frames[n:frames.shape[0] - n] if n else frames


def drop_empty_samples(sequences, threshold: float = 1.0):
    """Remove sequences whose every frame sums below threshold.

    Operates on normalized sequences; the default threshold of 1.0 means a
    frame carrying less than 0.01% of full-scale total pressure counts as
    empty. Returns (kept, report) where report lists one line per removal.
    """
    kept, report = [], []
    for seq in sequences:
        top = float(seq.frames.sum(axis=(1, 2)).max()) if len(seq) else 0.0
        if len(seq) == 0 or top < threshold:
            report.append(
                f"dropped subject {seq.subject_id} posture {seq.posture_id}"
                f" ({len(seq)} frames, max frame sum {top:.4f})")
        else:
            kept.append(seq)
    return kept, report


def preprocess_sequence(seq: SampleSequence, trim: int = 3) -> SampleSequence:
    """Median filter, normalize, and trim one raw sequence."""
    frames = median_filter_3d(seq.frames)
    frames = normalize_frames(frames)
    frames = trim_sequence(frames, n=trim)
    return SampleSequence(frames=frames, subject_id=seq.subject_id,
                          posture_id=seq.posture_id, path=seq.path)


# ---------------------------------------------------------------------------
# augmentation


def rotate180(frame: np.ndarray) -> np.ndarray:
    """Exact half-turn: pixel (r, c) moves to (H-1-r, W-1-c)."""
    return frame[::-1, ::-1].copy()


def _translate(frame: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Integer pixel shift, zero fill. dx moves columns, dy moves rows."""
    h, w = frame.shape
    out = np.zeros_like(frame)
    src_r = slice(max(0, -dy), min(h, h - dy))
    src_c = slice(max(0, -dx), min(w, w - dx))
    dst_r = slice(max(0, dy), min(h, h + dy))
    dst_c = slice(max(0, dx), min(w, w + dx))
    out[dst_r, dst_c] = frame[src_r, src_c]
    return out


def _rotate_bilinear(frame: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate about the grid center, bilinear sampling, zero outside."""
    h, w = frame.shape
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # inverse map: output pixel pulls from the source rotated the other way
    ry = rows - cy
    rx = cols - cx
    src_r = cos_t * ry + sin_t * rx + cy
    src_c = -sin_t * ry + cos_t * rx + cx

    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0

    out = np.zeros((h, w), dtype=np.float64)
    for dr, dc, weight in ((0, 0, (1 - fr) * (1 - fc)),
                           (0, 1, (1 - fr) * fc),
                           (1, 0, fr * (1 - fc)),
                           (1, 1, fr * fc)):
        rr = r0 + dr
        cc = c0 + dc
        ok = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        vals = np.where(ok, frame[np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)], 0.0)
        out += weight * vals
    return out.astype(frame.dtype)


@dataclass
class AugmentPolicy:
    """Four-step augmentation schedule; steps fire independently, in order."""

    p_rot180: float = 0.5
    p_shift_x: float = 0.2
    p_shift_y: float = 0.2
    p_rotate: float = 0.2
    max_shift_frac: float = 0.1   # of the axis length, rounded down
    max_angle: float = 25.0       # degrees

    def __post_init__(self):
        for name in ("p_rot180", "p_shift_x", "p_shift_y", "p_rotate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")

    def probabilities(self):
        return (self.p_rot180, self.p_shift_x, self.p_shift_y, self.p_rotate)


def augment_plan(policy: AugmentPolicy, rng, shape=(32, 64)):
    """Draw one realization of the policy: fire flags plus magnitudes.

    Separating the draw from the application keeps the randomness auditable
    (the augment-stats command counts plans without touching any frames).
    Draw order is fixed: one uniform per step, then magnitudes for the steps
    that fired, in step order.
    """
    h, w = shape
    fires = [bool(rng.random() < p) for p in policy.probabilities()]
    dx = dy = 0
    angle = 0.0
    if fires[1]:
        mx = int(policy.max_shift_frac * w)
        dx = int(rng.integers(-mx, mx + 1))
    if fires[2]:
        my = int(policy.max_shift_frac * h)
        dy = int(rng.integers(-my, my + 1))
    if fires[3]:
        angle = float(rng.uniform(-policy.max_angle, policy.max_angle))
    return {"rot180": fires[0], "dx": dx if fires[1] else None,
            "dy": dy if fires[2] else None,
            "angle": angle if fires[3] else None}


def apply_plan(frame: np.ndarray, plan: dict) -> np.ndarray:
    out = frame
    if plan["rot180"]:
        out = rotate180(out)
    if plan["dx"] is not None:
        out = _translate(out, plan["dx"], 0)
    if plan["dy"] is not None:
        out = _translate(out, 0, plan["dy"])
    if plan["angle"] is not None:
        out = _rotate_bilinear(out, plan["angle"])
    # bilinear weights are a convex combination of in-range values, but
    # float arithmetic can overshoot by an ulp; clamp to the invariant
    return np.clip(out, 0.0, 1.0) if out is not frame else frame.copy()


def augment_sample(frame: np.ndarray, policy: AugmentPolicy, rng) -> np.ndarray:
    """Apply one random realization of the policy to a single frame."""
    return apply_plan(frame, augment_plan(policy, rng, shape=frame.shape))


def plan_firing_counts(policy: AugmentPolicy, draws: int, seed: int):
    """Firings of rotate-180, translate-x, translate-y and free rotation in
    `draws` (at least 1) plans drawn from stream (seed, 95)."""
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}")
    rng = make_rng(seed, 95)
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(draws):
        plan = augment_plan(policy, rng)
        counts += [plan["rot180"], plan["dx"] is not None,
                   plan["dy"] is not None, plan["angle"] is not None]
    return counts


# ---------------------------------------------------------------------------
# preprocessed cache

def cache_path(cache_dir, subject_id: int, posture_id: int) -> Path:
    return Path(cache_dir) / f"S{subject_id}_{posture_id}.npy"


def dataset_fingerprint(manifest: dataio.DatasetManifest, trim: int,
                        empty_threshold: float, delimiter) -> str:
    """Content hash of the raw files plus the preprocessing parameters and
    the manifest's taxonomy."""
    h = hashlib.sha256()
    h.update(f"trim={trim};thr={empty_threshold};delim={delimiter!r}".encode())
    taxonomy = manifest.taxonomy
    h.update(f";tax={[(p, taxonomy[p]) for p in sorted(taxonomy)]}".encode())
    for e in manifest.entries:
        h.update(f"\n{e.subject_id}/{e.posture_id}\n".encode())
        with open(e.path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def preprocess_dataset(root, cache_dir, taxonomy=None, trim: int = 3,
                       empty_threshold: float = 1.0, delimiter=None,
                       force: bool = False):
    """Run the full pipeline over a dataset tree and cache the results.

    Writes one .npy file per surviving sequence into cache_dir, plus
    'manifest.tsv' (paths pointing at the cache), the taxonomy the coarse
    labels follow (dataio.TAXONOMY_FILE, which read_manifest picks up),
    'removed.txt' (the removal report and any too-short-after-trim
    warnings), and a fingerprint of the raw inputs and the taxonomy. When
    the fingerprint already matches, the cached manifest is returned
    untouched. Returns (manifest, hit). ConfigError, before cache_dir is
    created, unless trim >= 0 and empty_threshold is finite and >= 0.
    """
    if trim < 0:
        raise ConfigError(f"trim must be >= 0, got {trim}")
    if not (math.isfinite(empty_threshold) and empty_threshold >= 0.0):
        raise ConfigError(f"empty threshold must be finite and >= 0, "
                          f"got {empty_threshold}")
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    manifest = dataio.build_manifest(root, taxonomy=taxonomy)

    fingerprint = dataset_fingerprint(manifest, trim, empty_threshold,
                                      delimiter)
    marker = cache_dir / "fingerprint.txt"
    if (not force and marker.exists()
            and marker.read_text().strip() == fingerprint
            and (cache_dir / "manifest.tsv").exists()
            and (cache_dir / dataio.TAXONOMY_FILE).exists()):
        cached = dataio.read_manifest(cache_dir / "manifest.tsv",
                                      taxonomy=manifest.taxonomy)
        return cached, True

    cleaned = []
    short_warnings = []
    for entry in manifest.entries:
        seq = dataio.parse_frame_file(entry.path, delimiter=delimiter,
                                      subject_id=entry.subject_id,
                                      posture_id=entry.posture_id)
        clean = preprocess_sequence(seq, trim=trim)
        if len(clean) == 0:
            short_warnings.append(
                f"subject {seq.subject_id} posture {seq.posture_id}: "
                f"empty after trimming {trim} frames from each end")
            continue
        cleaned.append(clean)

    kept, removal_report = drop_empty_samples(cleaned, threshold=empty_threshold)

    out_entries = []
    for seq in kept:
        path = cache_path(cache_dir, seq.subject_id, seq.posture_id)
        np.save(path, seq.frames.astype(np.float32))
        out_entries.append(dataio.ManifestEntry(
            path=str(path), subject_id=seq.subject_id,
            posture_id=seq.posture_id, frame_count=len(seq)))

    out = dataio.DatasetManifest(entries=out_entries,
                                 taxonomy=manifest.taxonomy,
                                 warnings=manifest.warnings + short_warnings)
    dataio.write_manifest(cache_dir / "manifest.tsv", out)
    dataio.write_taxonomy(cache_dir / dataio.TAXONOMY_FILE, manifest.taxonomy)
    with open(cache_dir / "removed.txt", "w") as fh:
        for line in short_warnings:
            fh.write(f"short: {line}\n")
        for line in removal_report:
            fh.write(line + "\n")
    marker.write_text(fingerprint + "\n")
    return out, False


def load_clean_sequences(manifest: dataio.DatasetManifest) -> list:
    """Load cached sequences (written by preprocess_dataset) in order."""
    out = []
    for e in manifest.entries:
        frames = np.load(e.path)
        out.append(SampleSequence(frames=frames, subject_id=e.subject_id,
                                  posture_id=e.posture_id, path=e.path))
    return out
