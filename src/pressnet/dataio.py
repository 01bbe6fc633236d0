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

A preprocessed cache is MANIFEST_FILE, TAXONOMY_FILE, REMOVED_FILE,
FINGERPRINT_FILE and one cache_path array per sequence, each in C order;
CACHE_FORMAT, which the fingerprint hashes, changes with its bytes or layout.
"""

from __future__ import annotations

import os
import re
import warnings
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
NUM_POSTURES = 17

# coarse posture categories; tuple order fixes the 0/1/2 label encoding
CATEGORIES = ("supine", "right", "left")
# a preprocessed cache's files (and cache_path); bump CACHE_FORMAT, which
# the fingerprint hashes, whenever the cache's bytes or layout change
MANIFEST_FILE = "manifest.tsv"
TAXONOMY_FILE = "taxonomy.txt"
REMOVED_FILE = "removed.txt"
FINGERPRINT_FILE = "fingerprint.txt"
CACHE_FORMAT = 3

_SUBJECT_DIR = re.compile(r"^S(\d+)$")
_POSTURE_FILE = re.compile(r"^(\d+)$")
_CACHE_ARRAY = re.compile(r"^S\d+_\d+\.npy$")  # a cache_path file name


@dataclass
class SampleSequence:
    """One recording: every frame shares a (subject, posture) label pair.

    frames is (T, 32, 64). parse_frame_file gives raw counts as uint16 for
    a file of integer counts and as float32 otherwise; preprocessing and
    the cache give float32 in [0, 1].
    """

    frames: np.ndarray
    subject_id: int
    posture_id: int

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
    # frames in a cached array; None for a raw file, which is listed unread
    frame_count: int | None = None


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


def open_input(path, mode="r"):
    """open(path, mode) of an input file, as UTF-8 in text mode; UsageError
    naming path and the reason when it cannot be opened."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _not_utf8(path, exc: UnicodeDecodeError) -> str:
    return f"{path} is not UTF-8 text ({exc.reason})"


def parse_frame_file(path, subject_id=None, posture_id=None) -> SampleSequence:
    """Parse one recording file into a SampleSequence.

    Fields are split on whitespace, the one file format: every record must
    contain exactly 2048 of them, so a file with any other separator is
    refused by its field count. UsageError on a file that cannot be opened,
    ParseError on one that is not UTF-8 text.
    A file of counts (each field an optional "+" and digits, at most 65535)
    gives uint16 frames; any other file is parsed as float32, where each
    field must be finite (NaN, +-inf and values beyond float32's range are
    refused); so is a file the count parse warns about, as numpy < 2 did
    for "1.0" or "-0" (which keeps its sign). "#" is a field, not a comment.
    A count is a float32 exactly, so both parses agree wherever the first
    applies. Labels default to the path convention.
    """
    path = Path(path)
    if subject_id is None or posture_id is None:
        inf_s, inf_p = infer_labels_from_path(path)
        subject_id = inf_s if subject_id is None else subject_id
        posture_id = inf_p if posture_id is None else posture_id

    with open_input(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(_not_utf8(path, exc)) from None
    # loadtxt skips only empty lines; whitespace is blank here too
    rows = [line for line in lines if line.strip()]
    try:
        with warnings.catch_warnings():
            # numpy < 2 parsed a float field such as "1.0" or "-0" to an
            # integer with a DeprecationWarning; any warning means floats
            warnings.simplefilter("error")
            flat = np.loadtxt(rows, dtype=np.uint16, comments=None, ndmin=2)
    except (ValueError, Warning):
        flat = _parse_floats(path, lines, rows)
    if flat.shape[1] != FRAME_FIELDS:
        _refuse_records(path, lines)
    # on-disk rows become columns of the canonical 32x64 grid
    frames = flat.reshape(-1, FILE_ROWS, FILE_COLS).transpose(0, 2, 1)
    return SampleSequence(frames, subject_id, posture_id)


def _parse_floats(path, lines, rows):
    """rows, the non-blank of a file's lines, not all counts, as a float32
    table; ParseError, through _refuse_records, unless every field is
    finite."""
    with warnings.catch_warnings():
        # an empty file is refused below, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            flat = np.loadtxt(rows, dtype=np.float32, comments=None, ndmin=2)
        except ValueError as exc:
            _refuse_records(path, lines, str(exc))
    # a value beyond float32's range parses to inf, refused here
    if not np.isfinite(flat).all():
        _refuse_records(path, lines)
    return flat


def _refuse_records(path, lines, reason="records of an unknown form"):
    """Rescan the lines of a file parse_frame_file cannot take: ParseError
    for its first bad record, numbered by line (blank lines count), for a
    file with no records, or else with reason (loadtxt's complaint)."""
    found = False
    with np.errstate(over="ignore"):
        for recno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            found = True
            fields = line.split()
            if len(fields) != FRAME_FIELDS:
                raise ParseError(
                    f"{path}: record {recno} has {len(fields)} fields, "
                    f"expected {FRAME_FIELDS}")
            try:
                flat = np.array(fields, dtype=np.float32)
            except ValueError:
                raise ParseError(
                    f"{path}: record {recno} contains a non-numeric field")
            if not np.isfinite(flat).all():
                raise ParseError(
                    f"{path}: record {recno} contains a non-finite field")
    if not found:
        raise ParseError(f"{path}: file contains no frames")
    raise ParseError(f"{path}: {reason}")


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


def load_taxonomy(path) -> dict:
    """Read a taxonomy file: 17 lines of '<id> <category>'. UsageError on a
    file that cannot be read, ConfigError on a malformed one or one that is
    not UTF-8 text."""
    taxonomy = {}
    with open_input(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(_not_utf8(path, exc)) from None
    for lineno, line in enumerate(lines, start=1):
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
    return taxonomy


def write_taxonomy(path, taxonomy: dict) -> None:
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


def cache_path(cache_dir, subject_id: int, posture_id: int) -> str:
    return os.path.join(cache_dir, f"S{subject_id}_{posture_id}.npy")


def remove_unlisted_arrays(cache_dir, manifest: DatasetManifest) -> None:
    """Delete each file in cache_dir named like a cache_path array that
    manifest does not list; no other file is touched."""
    listed = {os.path.basename(e.path) for e in manifest.entries}
    for name in os.listdir(cache_dir):
        if _CACHE_ARRAY.match(name) and name not in listed:
            os.remove(os.path.join(cache_dir, name))


def build_manifest(root, taxonomy=None) -> DatasetManifest:
    """Scan a dataset tree into a deterministic, validated manifest.

    The raw files are listed, not read: each entry's frame_count is None.
    taxonomy is a path to a taxonomy file, or None for the built-in
    default. Missing subject/posture combinations produce warning strings;
    a malformed taxonomy, or two files of one subject and posture (S1/ and
    S01/, or 2.txt and 02.txt), is fatal.
    """
    root = Path(root)
    taxonomy = default_taxonomy() if taxonomy is None else load_taxonomy(taxonomy)

    if not root.is_dir():
        raise ParseError(f"dataset root '{root}' is not a directory")

    entries = {}
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
            key = (sid, int(mp.group(1)))
            if key in entries:
                raise ParseError(
                    f"'{entries[key].path}' and '{f}' are both subject {sid}, "
                    f"posture {key[1]}")
            entries[key] = ManifestEntry(path=str(f), subject_id=sid,
                                         posture_id=key[1])
    if not entries:
        raise ParseError(
            f"no dataset files found under '{root}' "
            "(expected S<subject>/<posture>.txt)")

    warnings = [f"subject {sid}: posture {pid} missing"
                for sid in sorted(set(subjects_seen))
                for pid in range(1, NUM_POSTURES + 1)
                if (sid, pid) not in entries]
    return DatasetManifest(entries=[entries[k] for k in sorted(entries)],
                           taxonomy=taxonomy, warnings=warnings)


def write_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w") as fh:
        fh.write("# subject\tposture\tframes\n")
        for e in manifest.entries:
            fh.write(f"{e.subject_id}\t{e.posture_id}\t{e.frame_count}\n")
        for w in manifest.warnings:
            fh.write(f"# warning: {w}\n")


def read_manifest(path) -> DatasetManifest:
    """Read a cache manifest written by write_manifest, with the taxonomy of
    the TAXONOMY_FILE beside it; each entry's path is the cache_path beside
    it, so a cache reads the same from anywhere and after a move. UsageError
    when the manifest or the taxonomy is missing, or of an older format.
    """
    cache = Path(path).parent
    if not Path(path).exists():
        raise UsageError(
            f"no preprocessed cache at {cache} (run 'preprocess' first)")
    own = cache / TAXONOMY_FILE
    if not own.exists():
        raise UsageError(f"cache {cache} has no {TAXONOMY_FILE}"
                         "; run 'preprocess' on it again")
    taxonomy = load_taxonomy(own)
    entries = []
    warnings = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("# warning: "):
                warnings.append(line[len("# warning: "):])
                continue
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 4:  # format 1 stored each array's path
                raise UsageError(f"cache {cache} has an older format"
                                 "; run 'preprocess' on it again")
            if len(parts) != 3:
                raise ParseError(f"{path}: bad manifest line: {line!r}")
            try:
                s, p, n = (int(v) for v in parts)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer field "
                                 f"in {line!r}") from None
            entries.append(ManifestEntry(cache_path(cache, s, p), s, p, n))
    return DatasetManifest(entries=entries, taxonomy=taxonomy,
                           warnings=warnings)
