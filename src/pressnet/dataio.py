"""Dataset ingestion: frame-file parsing, manifest building, posture taxonomy.

On-disk convention (documented default):

* dataset root contains one directory per subject named ``S<k>`` (k = 1..13);
* each subject directory contains one text file per posture named
  ``<p>.txt`` (p = 1..17);
* each line of a file is one frame: 2048 whitespace-delimited sensor counts
  in [0, 10000], written row-major as 64 rows of 32 columns.

Frames are stored canonically as 32-row x 64-column grids (the mat is wider
than it is tall when rendered), i.e. the on-disk 64x32 record transposed.
The ``frame-dump`` CLI command exists to eyeball that orientation against a
known recording.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, LabelError, ParseError, UsageError

# canonical in-memory grid
GRID_ROWS = 32
GRID_COLS = 64
FRAME_FIELDS = GRID_ROWS * GRID_COLS  # 2048
# on-disk record layout (row-major)
FILE_ROWS = 64
FILE_COLS = 32

SENSOR_MAX = 10000.0
NUM_SUBJECTS = 13
NUM_POSTURES = 17

# coarse posture categories; tuple order fixes the 0/1/2 label encoding
CATEGORIES = ("supine", "right", "left")
# a preprocessed cache's taxonomy, kept beside its manifest.tsv
TAXONOMY_FILE = "taxonomy.txt"

_SUBJECT_DIR = re.compile(r"^S(\d+)$")
_POSTURE_FILE = re.compile(r"^(\d+)$")


@dataclass
class SampleSequence:
    """One recording: every frame shares a (subject, posture) label pair."""

    frames: np.ndarray  # (T, 32, 64)
    subject_id: int
    posture_id: int
    path: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 3 or self.frames.shape[1:] != (GRID_ROWS, GRID_COLS):
            raise ParseError(
                f"sequence frames must be (T, {GRID_ROWS}, {GRID_COLS}), "
                f"got {self.frames.shape}")

    def __len__(self):
        return self.frames.shape[0]


@dataclass
class ManifestEntry:
    path: str
    subject_id: int
    posture_id: int
    frame_count: int


@dataclass
class DatasetManifest:
    entries: list = field(default_factory=list)
    taxonomy: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def total_frames(self):
        return sum(e.frame_count for e in self.entries)


def infer_labels_from_path(path) -> tuple[int, int]:
    """Recover (subject_id, posture_id) from the S<k>/<p>.txt convention."""
    path = Path(path)
    m_subj = _SUBJECT_DIR.match(path.parent.name)
    m_post = _POSTURE_FILE.match(path.stem)
    if m_subj is None or m_post is None:
        raise ParseError(
            f"cannot infer labels from '{path}': expected .../S<subject>/<posture>.txt")
    return int(m_subj.group(1)), int(m_post.group(1))


def parse_frame_file(path, delimiter=None, subject_id=None,
                     posture_id=None) -> SampleSequence:
    """Parse one recording file into a SampleSequence.

    delimiter=None means any whitespace (the default file format); pass ","
    for comma-separated exports. Every record must contain exactly 2048
    numeric fields. Labels default to the path convention.
    """
    path = Path(path)
    if subject_id is None or posture_id is None:
        inf_s, inf_p = infer_labels_from_path(path)
        subject_id = inf_s if subject_id is None else subject_id
        posture_id = inf_p if posture_id is None else posture_id

    frames = []
    with open(path) as fh:
        for recno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split(delimiter)
            if len(fields) != FRAME_FIELDS:
                raise ParseError(
                    f"{path}: record {recno} has {len(fields)} fields, "
                    f"expected {FRAME_FIELDS}")
            try:
                flat = np.array(fields, dtype=np.float32)
            except ValueError:
                raise ParseError(
                    f"{path}: record {recno} contains a non-numeric field")
            # on-disk rows become columns of the canonical 32x64 grid
            frames.append(flat.reshape(FILE_ROWS, FILE_COLS).T)
    if not frames:
        raise ParseError(f"{path}: file contains no frames")
    return SampleSequence(frames=np.stack(frames), subject_id=subject_id,
                          posture_id=posture_id, path=str(path))


def default_taxonomy() -> dict:
    """Built-in fine-to-coarse mapping.

    Ids 1-9 are supine variants; the dataset's own documentation assigns
    10-13 to right-side and 14-17 to left-side postures. Override with a
    taxonomy file if a different recording protocol is in use.
    """
    taxonomy = {pid: "supine" for pid in range(1, 10)}
    taxonomy.update({pid: "right" for pid in range(10, 14)})
    taxonomy.update({pid: "left" for pid in range(14, 18)})
    return taxonomy


def _validate_taxonomy(taxonomy: dict) -> dict:
    missing = [pid for pid in range(1, NUM_POSTURES + 1) if pid not in taxonomy]
    if missing:
        raise ConfigError(f"taxonomy leaves posture ids unmapped: {missing}")
    extra = [pid for pid in taxonomy if not 1 <= pid <= NUM_POSTURES]
    if extra:
        raise ConfigError(f"taxonomy maps unknown posture ids: {sorted(extra)}")
    bad = {pid: cat for pid, cat in taxonomy.items() if cat not in CATEGORIES}
    if bad:
        raise ConfigError(
            f"taxonomy categories must be one of {CATEGORIES}, got {bad}")
    return dict(taxonomy)


def load_taxonomy(path) -> dict:
    """Read a taxonomy file: 17 lines of '<id> <category>'."""
    taxonomy = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(
                    f"{path}: line {lineno}: expected '<id> <category>'")
            try:
                pid = int(parts[0])
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: bad posture id")
            if pid in taxonomy:
                raise ConfigError(f"{path}: line {lineno}: duplicate id {pid}")
            taxonomy[pid] = parts[1]
    return _validate_taxonomy(taxonomy)


def write_taxonomy(path, taxonomy: dict) -> None:
    taxonomy = _validate_taxonomy(taxonomy)
    with open(path, "w") as fh:
        fh.write("# posture_id category\n")
        for pid in sorted(taxonomy):
            fh.write(f"{pid} {taxonomy[pid]}\n")


def map_posture_category(posture_id: int, taxonomy: dict) -> str:
    try:
        return taxonomy[posture_id]
    except KeyError:
        raise LabelError(f"posture id {posture_id} not in taxonomy")


def coarse_label(posture_id: int, taxonomy: dict) -> int:
    """0-based coarse class index following the CATEGORIES ordering."""
    return CATEGORIES.index(map_posture_category(posture_id, taxonomy))


def _count_records(path) -> int:
    n = 0
    with open(path) as fh:
        for line in fh:
            if line.strip():
                n += 1
    return n


def build_manifest(root, taxonomy=None) -> DatasetManifest:
    """Scan a dataset tree into a deterministic, validated manifest.

    taxonomy may be a mapping, a path to a taxonomy file, or None for the
    built-in default. Missing subject/posture combinations produce warning
    strings; a malformed taxonomy is fatal.
    """
    root = Path(root)
    if taxonomy is None:
        taxonomy = default_taxonomy()
    elif isinstance(taxonomy, (str, Path)):
        taxonomy = load_taxonomy(taxonomy)
    else:
        taxonomy = _validate_taxonomy(taxonomy)

    if not root.is_dir():
        raise ParseError(f"dataset root '{root}' is not a directory")

    entries = []
    subjects_seen = []
    for subj_dir in sorted(root.iterdir()):
        m = _SUBJECT_DIR.match(subj_dir.name)
        if not subj_dir.is_dir() or m is None:
            continue
        sid = int(m.group(1))
        subjects_seen.append(sid)
        for f in sorted(subj_dir.glob("*.txt")):
            mp = _POSTURE_FILE.match(f.stem)
            if mp is None:
                continue
            entries.append(ManifestEntry(path=str(f), subject_id=sid,
                                         posture_id=int(mp.group(1)),
                                         frame_count=_count_records(f)))
    if not entries:
        raise ParseError(
            f"no dataset files found under '{root}' "
            "(expected S<subject>/<posture>.txt)")

    entries.sort(key=lambda e: (e.subject_id, e.posture_id))

    warnings = []
    have = {(e.subject_id, e.posture_id) for e in entries}
    for sid in sorted(set(subjects_seen)):
        for pid in range(1, NUM_POSTURES + 1):
            if (sid, pid) not in have:
                warnings.append(f"subject {sid}: posture {pid} missing")
    return DatasetManifest(entries=entries, taxonomy=taxonomy,
                           warnings=warnings)


def write_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w") as fh:
        fh.write("# path\tsubject\tposture\tframes\n")
        for e in manifest.entries:
            fh.write(f"{e.path}\t{e.subject_id}\t{e.posture_id}\t{e.frame_count}\n")
        for w in manifest.warnings:
            fh.write(f"# warning: {w}\n")


def read_manifest(path, taxonomy=None) -> DatasetManifest:
    """Read a manifest written by write_manifest.

    taxonomy None takes the TAXONOMY_FILE beside the manifest, which a
    preprocessed cache keeps; UsageError when there is none (a cache
    written before caches kept their taxonomy).
    """
    if taxonomy is None:
        own = Path(path).with_name(TAXONOMY_FILE)
        if not own.exists():
            raise UsageError(f"cache {Path(path).parent} has no {TAXONOMY_FILE}"
                             "; run 'preprocess' on it again")
        taxonomy = load_taxonomy(own)
    entries = []
    warnings = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# warning: "):
                warnings.append(line[len("# warning: "):])
                continue
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}: bad manifest line: {line!r}")
            entries.append(ManifestEntry(path=parts[0], subject_id=int(parts[1]),
                                         posture_id=int(parts[2]),
                                         frame_count=int(parts[3])))
    return DatasetManifest(entries=entries, taxonomy=taxonomy,
                           warnings=warnings)
