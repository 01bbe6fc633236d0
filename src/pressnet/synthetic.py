"""Synthetic pressure-map generator for tests, demos, and smoke runs.

Frames are sums of Gaussian blobs on the 32x64 grid. Blob geometry is a
deterministic function of the posture id (so postures are separable) and
blob amplitude/width of the subject id (so subjects are separable), with
seeded per-frame jitter and sensor noise on top. The generator can emit
raw-count text files in the same on-disk layout the ingestion code expects,
which makes end-to-end pipeline tests possible without any recording
hardware.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataio import (FILE_COLS, FILE_ROWS, GRID_COLS, GRID_ROWS, NUM_POSTURES,
                     SENSOR_MAX, SampleSequence)
from .errors import ConfigError
from .tensor import make_rng

NOISE = 0.01  # std of the Gaussian sensor noise on a [0,1] frame


def _blob(rows, cols, cr, cc, sr, sc, amp):
    return amp * np.exp(-(((rows - cr) / sr) ** 2 + ((cols - cc) / sc) ** 2))


def synthetic_frame(subject_id: int, posture_id: int, rng) -> np.ndarray:
    """One normalized frame in [0,1] with subject- and posture-coded blobs."""
    rows, cols = np.meshgrid(np.arange(GRID_ROWS), np.arange(GRID_COLS),
                             indexing="ij")
    # posture sets where the mass sits; subject sets how heavy/wide the
    # body is and where on the mat it rests
    pr = posture_id * 2.39
    torso_r = 10.0 + 12.0 * abs(np.sin(pr))
    torso_c = 18.0 + 28.0 * abs(np.sin(pr * 0.37))
    head_c = torso_c + 14.0 * np.cos(pr * 0.61)
    head_r = torso_r + 8.0 * np.sin(pr * 0.83)

    amp = 0.45 + 0.035 * ((subject_id * 7) % 13)
    width = 4.0 + 0.45 * ((subject_id * 5) % 9)
    length = 9.0 + 0.8 * ((subject_id * 3) % 7)
    sr_off = 3.0 * np.sin(subject_id * 1.7)
    sc_off = 5.0 * np.cos(subject_id * 2.3)
    torso_r += sr_off
    torso_c += sc_off
    head_r += sr_off
    head_c += sc_off

    jr = rng.normal(scale=0.4)
    jc = rng.normal(scale=0.4)
    frame = _blob(rows, cols, torso_r + jr, torso_c + jc, width, length, amp)
    frame += _blob(rows, cols, head_r + jr, np.clip(head_c + jc, 0, 63),
                   width * 0.5, width * 0.5, amp * 0.75)
    frame += rng.normal(scale=NOISE, size=frame.shape)
    return np.clip(frame, 0.0, 1.0).astype(np.float32)


def synthetic_sequence(subject_id: int, posture_id: int, n_frames: int,
                       seed: int = 0) -> SampleSequence:
    rng = make_rng(seed, 90, subject_id, posture_id)
    frames = np.stack([synthetic_frame(subject_id, posture_id, rng)
                       for _ in range(n_frames)])
    return SampleSequence(frames=frames, subject_id=subject_id,
                          posture_id=posture_id)


def write_synthetic_dataset(root, subjects=3, postures=4, frames_per_seq=12,
                            seed: int = 0) -> Path:
    """Materialize a raw-count dataset tree: root/S<k>/<p>.txt.

    Values are scaled back to the sensor's 0-10000 range and written in the
    on-disk 64x32 row-major record layout. ConfigError, before anything is
    written, unless there is at least one subject and one frame per
    sequence, the postures are 1..n of the taxonomy's NUM_POSTURES and the
    seed is >= 0.
    """
    if subjects < 1 or frames_per_seq < 1:
        raise ConfigError(f"need at least 1 subject and 1 frame, got "
                          f"{subjects} subjects x {frames_per_seq} frames")
    if not 1 <= postures <= NUM_POSTURES:
        raise ConfigError(f"postures must be in [1,{NUM_POSTURES}], "
                          f"got {postures}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    root = Path(root)
    for s in range(1, subjects + 1):
        d = root / f"S{s}"
        d.mkdir(parents=True, exist_ok=True)
        for p in range(1, postures + 1):
            seq = synthetic_sequence(s, p, frames_per_seq, seed=seed)
            with open(d / f"{p}.txt", "w") as fh:
                for frame in seq.frames:
                    raw = np.rint(frame * SENSOR_MAX).astype(np.int64)
                    record = raw.T.reshape(FILE_ROWS * FILE_COLS)
                    fh.write(" ".join(str(v) for v in record) + "\n")
    return root
