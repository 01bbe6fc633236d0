"""Frame preprocessing and stochastic augmentation.

Preprocessing pipeline (fixed order): 3x3x3 spatio-temporal median filter ->
normalize to [0,1] -> trim sequence ends -> drop all-empty sequences. The
median filter is an exact network of elementwise minima and maxima over
sorted triples shared between neighbouring windows, and preprocessing
filters only the frames the trim keeps.
Augmentation is the paper's four-step pipeline (AUGMENT_STEPS) applied per
frame, each step firing independently with its own fixed probability.
The pipeline is the paper's and has no settings: TRIM and EMPTY_THRESHOLD
are its constants, read when it runs.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import GRID_COLS, GRID_ROWS, SENSOR_MAX, SampleSequence
from .errors import ConfigError, NumericFault, ShapeError, UsageError
from .tensor import make_rng


# ---------------------------------------------------------------------------
# preprocessing

TRIM = 3                # frames trimmed from each sequence end
EMPTY_THRESHOLD = 1.0   # empty-frame sum (see drop_empty_samples)


def _odd_even_merge(ops, x, y):
    """Batcher's odd-even merge (Knuth, TAOCP vol. 3, 5.3.4) of the sorted
    wire lists x and y; returns the merged wires, smallest first.

    A wire is an index into ops, whose first entries stand for the
    network's inputs; each compare-exchange appends its min and its max as
    (ufunc, a, b).
    """
    if not x or not y:
        return x + y
    if len(x) == len(y) == 1:
        ops += [(np.minimum, x[0], y[0]), (np.maximum, x[0], y[0])]
        return [len(ops) - 2, len(ops) - 1]
    odd = _odd_even_merge(ops, x[0::2], y[0::2])
    even = _odd_even_merge(ops, x[1::2], y[1::2])
    out = odd[:1]
    for i, wire in enumerate(even):
        out += (_odd_even_merge(ops, [wire], [odd[i + 1]])
                if i + 1 < len(odd) else [wire])
    return out + odd[len(even) + 1:]


def _compile(n_in, wanted):
    """The min/max network over n_in input wires whose outputs are the
    wires wanted(merge) returns, merge being _odd_even_merge over it.

    Returns (program, outputs, slots). program is a tuple of (ufunc, a, b,
    dst) indexing env = inputs + scratch slots, and outputs index the
    slots. Ops no output depends on are dropped. A slot is free again once
    its wire is read for the last time, already for the op reading it:
    every operand of an op is aligned with its result.
    """
    ops = [None] * n_in
    outputs = wanted(lambda x, y: _odd_even_merge(ops, x, y))
    live = set(outputs)
    for w in range(len(ops) - 1, n_in - 1, -1):
        if w in live:
            live.update(ops[w][1:])
    kept = sorted(live.difference(range(n_in)))
    last_read = {src: w for w in kept for src in ops[w][1:] if src >= n_in}
    for w in outputs:
        last_read[w] = None
    at = {w: w for w in range(n_in)}  # wire -> its index into env
    free, program, slots = [], [], 0
    for w in kept:
        ufunc, a, b = ops[w]
        free += [at[src] for src in (a, b) if last_read.get(src) == w]
        if not free:
            free.append(n_in + slots)
            slots += 1
        at[w] = free.pop()
        program.append((ufunc, at[a], at[b], at[w]))
    return tuple(program), [at[w] - n_in for w in outputs], slots


# The median filter's three stages. Each is a network over the sorted
# outputs of the stage before, read at three neighbouring offsets along one
# axis. Stage 1 sorts each time triple (6 ops). Stage 2 merges the sorted
# triples of three rows into a sorted 9 (36 ops). Stage 3 takes the 14th of
# the sorted 9s of three columns (66 ops): the 14th of 27 lies within ranks
# 5..14 of the first two 9s merged, since the third holds only 9 values, and
# those ten merged with the third give it as their 10th.
_SORT3 = _compile(3, lambda merge: merge(merge([0], [1]), [2]))
_SORT9 = _compile(9, lambda merge: merge(merge([0, 1, 2], [3, 4, 5]),
                                         [6, 7, 8]))
_MEDIAN27 = _compile(27, lambda merge: merge(
    merge(list(range(9)), list(range(9, 18)))[4:14],
    list(range(18, 27)))[9:10])
_BLOCK = 8  # frames filtered at a time, which bounds the scratch rows


def _run(network, inputs, rows):
    """Run a compiled network over equal-length 1-D inputs, with its slots
    in the leading part of rows; returns the rows holding its outputs."""
    program, outputs, _ = network
    n = len(inputs[0])
    env = inputs + [row[:n] for row in rows]
    for ufunc, a, b, dst in program:
        ufunc(env[a], env[b], out=env[dst])
    return [rows[i] for i in outputs]


def _shifted(rows, step, n):
    """Each row read n values long at offsets 0, step and 2 * step: the
    three neighbours along one axis of a flattened padded volume."""
    return [row[k * step:k * step + n] for k in range(3) for row in rows]


def _checked_frames(frames) -> np.ndarray:
    """frames as a (T, H, W) array; ShapeError otherwise, and NumericFault
    on a NaN or infinite value, which the median filter would spread.
    Integer frames (raw counts) hold neither and are not scanned."""
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ShapeError(f"expected (T, H, W) frames, got {frames.shape}")
    if frames.dtype.kind not in "biu" and not np.isfinite(frames).all():
        raise NumericFault("median filter input holds a non-finite value")
    return frames


def median_filter_3d(frames: np.ndarray) -> np.ndarray:
    """3x3x3 median over (time, row, col) with clamp-to-edge boundaries.

    Output has the same shape and dtype as the input; a single frame
    degenerates to a purely spatial 3x3 median (the time axis sees three
    copies of it). The volume is edge-padded once and flattened, so a
    neighbour along an axis is a fixed 1-D offset, and each stage above is
    one elementwise minimum or maximum per op over whole offset slices. A
    sorted time triple is shared by the 9 windows that hold it, and a
    sorted 3x3 block by 3. The result is the 14th smallest of each 27-wide
    window, as a full sort gives it, with one freedom: where +0 and -0 meet
    at the middle rank, either sign may come out. The network runs in the
    input's dtype; an order statistic commutes with any exact increasing
    cast, so uint16 counts filter to the float32 filter's values, in half
    the bytes. NumericFault on a NaN or infinite input.
    """
    frames = _checked_frames(frames)
    t, h, w = frames.shape
    out = np.empty(frames.shape, dtype=frames.dtype)
    if out.size == 0:  # an empty axis has no edge to pad with
        return out
    row, plane = w + 2, (h + 2) * (w + 2)
    # edge padding in half of np.pad's time: each face, whole, copies the
    # layer inside it, so a corner is right once its last face is copied
    padded = np.empty((t + 2, h + 2, w + 2), dtype=frames.dtype)
    padded[1:-1, 1:-1, 1:-1] = frames
    padded[..., 0], padded[..., -1] = padded[..., 1], padded[..., -2]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    padded[0], padded[-1] = padded[1], padded[-2]
    padded = padded.reshape(-1)
    block = min(t, _BLOCK)
    # stage 2's sorted 9s, then the slots of stages 1 and 3 in turn
    work = np.empty((_SORT9[2] + max(_SORT3[2], _MEDIAN27[2]), block * plane),
                    dtype=frames.dtype)
    nines, scratch = work[:_SORT9[2]], work[_SORT9[2]:]
    for s in range(0, t, block):
        # the block's windows, one per padded voxel from its first plane
        # on; those of the two last rows and columns of each plane span
        # the edge and are never read
        n = min(block, t - s) * plane
        volume = padded[s * plane:s * plane + n + 2 * plane]
        triples = _run(_SORT3, _shifted([volume], plane, n), scratch)
        sorted9 = _run(_SORT9, _shifted(triples, row, n - 2 * row), nines)
        (median,) = _run(_MEDIAN27, _shifted(sorted9, 1, n - 2 * row - 2),
                         scratch)
        out[s:s + block] = median[:n].reshape(-1, h + 2, w + 2)[:, :h, :w]
    return out


def normalize_frames(frames: np.ndarray) -> np.ndarray:
    """Scale raw counts by the fixed sensor range and clamp to [0,1].

    Fixed-range (not per-frame max) normalization preserves absolute
    pressure levels across frames and subjects. Counts of any dtype are
    cast to float32 before the division, so uint16 counts and the same
    counts as float32 give the same bytes.
    """
    return np.clip(np.asarray(frames, dtype=np.float32) / SENSOR_MAX, 0.0, 1.0)


def drop_empty_samples(sequences):
    """Remove sequences whose every frame sums below EMPTY_THRESHOLD.

    Operates on normalized sequences; an EMPTY_THRESHOLD of 1.0 means a
    frame carrying less than 0.01% of full-scale total pressure counts as
    empty. Returns (kept, report), one report line per removal.
    """
    kept, report = [], []
    for seq in sequences:
        top = float(seq.frames.sum(axis=(1, 2)).max()) if len(seq) else 0.0
        if len(seq) == 0 or top < EMPTY_THRESHOLD:
            report.append(
                f"dropped subject {seq.subject_id} posture {seq.posture_id}"
                f" ({len(seq)} frames, max frame sum {top:.4f})")
        else:
            kept.append(seq)
    return kept, report


def preprocess_sequence(seq: SampleSequence) -> SampleSequence:
    """Median filter, normalize, and trim TRIM frames per end of a sequence.

    Only the kept frames are filtered. The windows of the kept frames
    [TRIM, T - TRIM) read raw frames [TRIM - 1, T - TRIM + 1) and never the
    clamped time edge, so that slice is filtered and its first and last
    frame dropped: the bytes of filtering every frame and then trimming. A
    sequence of at most 2 * TRIM frames comes out empty. NumericFault on a
    non-finite value in any frame, trimmed ones included.
    """
    frames = _checked_frames(seq.frames)
    t = frames.shape[0]
    if t <= 2 * TRIM:
        frames = frames[:0]
    else:
        frames = median_filter_3d(frames[TRIM - 1:t - TRIM + 1])[1:-1]
    return SampleSequence(normalize_frames(frames), seq.subject_id,
                          seq.posture_id)


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


# The paper's augmentation: (step, probability) in application order.
AUGMENT_STEPS = (("rotate-180", 0.5), ("translate-x", 0.2),
                 ("translate-y", 0.2), ("rotate-free", 0.2))
MAX_SHIFT_FRAC = 0.1  # largest shift, as a fraction of the axis length
MAX_ANGLE = 25.0      # largest free rotation, degrees


def augment_plan(rng, shape=(GRID_ROWS, GRID_COLS)):
    """Draw one realization of AUGMENT_STEPS: (rot180, dx, dy, angle).

    rot180 is a bool; each magnitude is None unless its step fired. Shifts
    are whole pixels up to MAX_SHIFT_FRAC of the axis, rounded down.
    Separating the draw from the application keeps the randomness auditable
    (the augment-stats command counts plans without touching any frames).
    Draw order is fixed: one uniform per step, then magnitudes for the steps
    that fired, in step order.
    """
    h, w = shape
    rot180, fx, fy, fr = (bool(rng.random() < p) for _, p in AUGMENT_STEPS)
    dx = dy = angle = None
    if fx:
        mx = int(MAX_SHIFT_FRAC * w)
        dx = int(rng.integers(-mx, mx + 1))
    if fy:
        my = int(MAX_SHIFT_FRAC * h)
        dy = int(rng.integers(-my, my + 1))
    if fr:
        angle = float(rng.uniform(-MAX_ANGLE, MAX_ANGLE))
    return rot180, dx, dy, angle


def apply_plan(frame: np.ndarray, plan) -> np.ndarray:
    """Apply an augment_plan tuple to one frame; always a new array."""
    rot180, dx, dy, angle = plan
    out = frame
    if rot180:
        out = rotate180(out)
    if dx is not None or dy is not None:
        # zero-fill shifts compose exactly, so x and y move in one pass
        out = _translate(out, dx or 0, dy or 0)
    if angle is not None:
        out = _rotate_bilinear(out, angle)
    # bilinear weights are a convex combination of in-range values, but
    # float arithmetic can overshoot by an ulp; clamp to the invariant
    return np.clip(out, 0.0, 1.0) if out is not frame else frame.copy()


def augment_sample(frame: np.ndarray, rng) -> np.ndarray:
    """Apply one random realization of AUGMENT_STEPS to a single frame."""
    return apply_plan(frame, augment_plan(rng, shape=frame.shape))


def plan_firing_counts(draws: int, seed: int):
    """Firings of each AUGMENT_STEPS step in `draws` (at least 1) plans
    drawn from stream (seed, 95); ConfigError on a negative seed."""
    if draws < 1:
        raise ConfigError(f"draws must be >= 1, got {draws}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = make_rng(seed, 95)
    counts = np.zeros(len(AUGMENT_STEPS), dtype=np.int64)
    for _ in range(draws):
        rot180, dx, dy, angle = augment_plan(rng)
        counts += [rot180, dx is not None, dy is not None, angle is not None]
    return counts


# ---------------------------------------------------------------------------
# preprocessed cache


def dataset_fingerprint(manifest: dataio.DatasetManifest) -> str:
    """Content hash of the cache format (dataio.CACHE_FORMAT), the
    preprocessing constants (in the text the settings they replace hashed,
    so an older cache still hits), the manifest's taxonomy and the raw
    files."""
    h = hashlib.sha256()
    h.update(f"format={dataio.CACHE_FORMAT};".encode())
    h.update(f"trim={TRIM};thr={EMPTY_THRESHOLD};delim=None".encode())
    taxonomy = manifest.taxonomy
    h.update(f";tax={[(p, taxonomy[p]) for p in sorted(taxonomy)]}".encode())
    for e in manifest.entries:
        h.update(f"\n{e.subject_id}/{e.posture_id}\n".encode())
        with dataio.open_input(e.path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def preprocess_dataset(root, cache_dir, taxonomy=None, force: bool = False):
    """Run the full pipeline over a dataset tree and cache the results.

    Writes into cache_dir one array per surviving sequence (at
    dataio.cache_path), the manifest (subject, posture and frame count of
    each array), the taxonomy the coarse labels follow, 'removed.txt' (the
    removal report and too-short-after-trim notes, which stay out of the
    manifest's warnings) and the dataset_fingerprint; a rebuild deletes the
    arrays of sequences it no longer lists. It removes the old fingerprint
    before writing any array and writes the new one last, so a rebuild cut
    short is a miss. When the fingerprint matches and every listed array
    is intact (_array_intact), the cached manifest is returned untouched;
    a missing, truncated or reshaped array is a miss. Returns (manifest,
    hit). The manifest is built before cache_dir is created, so a root that
    is not a dataset tree (ParseError) or a taxonomy file that cannot be
    read (UsageError) or is malformed (ConfigError) leaves no directory.
    """
    manifest = dataio.build_manifest(root, taxonomy=taxonomy)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)

    fingerprint = dataset_fingerprint(manifest)
    marker = cache_dir / dataio.FINGERPRINT_FILE
    manifest_file = cache_dir / dataio.MANIFEST_FILE
    if (not force and marker.exists()
            and marker.read_text().strip() == fingerprint
            and manifest_file.exists()
            and (cache_dir / dataio.TAXONOMY_FILE).exists()):
        cached = dataio.read_manifest(manifest_file)
        if all(_array_intact(e.path, e.frame_count) for e in cached.entries):
            return cached, True

    cleaned = []
    short_warnings = []
    for entry in manifest.entries:
        seq = dataio.parse_frame_file(entry.path, subject_id=entry.subject_id,
                                      posture_id=entry.posture_id)
        clean = preprocess_sequence(seq)
        if len(clean) == 0:
            short_warnings.append(
                f"subject {seq.subject_id} posture {seq.posture_id}: "
                f"empty after trimming {TRIM} frames from each end")
            continue
        cleaned.append(clean)

    kept, removal_report = drop_empty_samples(cleaned)

    # written last, so a rebuild cut short is never served as a hit
    marker.unlink(missing_ok=True)
    out_entries = []
    for seq in kept:
        path = dataio.cache_path(cache_dir, seq.subject_id, seq.posture_id)
        # C order whatever the pipeline's strides: a one-frame view would
        # otherwise be stored in Fortran order
        np.save(path, np.ascontiguousarray(seq.frames, dtype=np.float32))
        out_entries.append(dataio.ManifestEntry(path, seq.subject_id,
                                                seq.posture_id, len(seq)))

    out = dataio.DatasetManifest(entries=out_entries,
                                 taxonomy=manifest.taxonomy,
                                 warnings=manifest.warnings)
    dataio.remove_unlisted_arrays(cache_dir, out)
    dataio.write_manifest(manifest_file, out)
    dataio.write_taxonomy(cache_dir / dataio.TAXONOMY_FILE, manifest.taxonomy)
    with open(cache_dir / dataio.REMOVED_FILE, "w") as fh:
        for line in short_warnings:
            fh.write(f"short: {line}\n")
        for line in removal_report:
            fh.write(line + "\n")
    marker.write_text(fingerprint + "\n")
    return out, False


def _array_intact(path, frames: int) -> bool:
    """Whether the .npy file at path has a header whose shape holds
    `frames` frames and is long enough for the data that shape needs; the
    data itself is not read."""
    try:
        with open(path, "rb") as fh:
            major, _ = np.lib.format.read_magic(fh)
            read = (np.lib.format.read_array_header_1_0 if major == 1
                    else np.lib.format.read_array_header_2_0)
            shape, _, dtype = read(fh)
            need = fh.tell() + math.prod(shape) * dtype.itemsize
            size = os.fstat(fh.fileno()).st_size
    except (OSError, ValueError):
        return False
    return len(shape) > 0 and shape[0] == frames and size >= need


def load_clean_sequences(manifest: dataio.DatasetManifest) -> list:
    """Load cached sequences (written by preprocess_dataset) in order.
    UsageError naming the first listed array that is missing, that cannot
    be read, or whose frame count is not the manifest's."""
    out = []
    for e in manifest.entries:
        try:
            frames = np.load(e.path)
        except FileNotFoundError:
            raise UsageError(f"cache array {e.path} is missing"
                             "; run 'preprocess' again") from None
        except (OSError, ValueError, EOFError) as exc:
            raise UsageError(f"cache array {e.path} cannot be read ({exc})"
                             "; run 'preprocess' again") from None
        if len(frames) != e.frame_count:
            raise UsageError(
                f"cache array {e.path} holds {len(frames)} frames, the "
                f"manifest lists {e.frame_count}; run 'preprocess' again")
        out.append(SampleSequence(frames, e.subject_id, e.posture_id))
    return out
