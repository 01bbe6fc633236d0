"""Ingestion: frame parsing, label inference, taxonomy, manifests."""

import shutil
import warnings

import numpy as np
import pytest

from pressnet import dataio, signal, synthetic
from pressnet.errors import ConfigError, LabelError, ParseError, UsageError

from util import float_twin, parse_oracle


def write_records(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(" ".join(str(v) for v in rec) + "\n")


class TestParseFrameFile:
    def test_three_records_three_frames(self, tmp_path):
        f = tmp_path / "seq.txt"
        write_records(f, [range(2048)] * 3)
        seq = dataio.parse_frame_file(f, subject_id=1, posture_id=2)
        assert seq.frames.shape == (3, 32, 64)
        assert seq.subject_id == 1
        assert seq.posture_id == 2

    def test_orientation_index_map(self, tmp_path):
        # field i of a record lands at canonical grid cell (i % 32, i // 32):
        # the file stores 64 consecutive rows of 32 values, and the canonical
        # frame is that grid transposed
        f = tmp_path / "seq.txt"
        write_records(f, [range(2048)])
        frame = dataio.parse_frame_file(f, subject_id=1, posture_id=1).frames[0]
        for i in (0, 1, 31, 32, 63, 1000, 2047):
            r, c = i % 32, i // 32
            assert frame[r, c] == i

    def test_wrong_field_count_names_record(self, tmp_path):
        f = tmp_path / "seq.txt"
        write_records(f, [range(2048), range(2047)])
        with pytest.raises(ParseError, match="record 2"):
            dataio.parse_frame_file(f, subject_id=1, posture_id=1)

    def test_non_numeric_field(self, tmp_path):
        f = tmp_path / "seq.txt"
        fields = ["1"] * 2048
        fields[100] = "bogus"
        f.write_text(" ".join(fields) + "\n")
        with pytest.raises(ParseError, match="non-numeric"):
            dataio.parse_frame_file(f, subject_id=1, posture_id=1)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e40",
                                       "-1e39"])
    def test_non_finite_field_names_record(self, tmp_path, value):
        # 1e40 and -1e39 are numbers, but overflow float32 to +-inf
        f = tmp_path / "seq.txt"
        fields = ["1"] * 2048
        fields[7] = value
        f.write_text(" ".join(["2"] * 2048) + "\n" + " ".join(fields) + "\n")
        with pytest.raises(ParseError, match=r"seq\.txt: record 2 .*non-finite"):
            dataio.parse_frame_file(f, subject_id=1, posture_id=1)

    def test_float32_max_is_finite(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text(" ".join(["3.4e38"] + ["0"] * 2047) + "\n")
        frame = dataio.parse_frame_file(f, subject_id=1, posture_id=1).frames[0]
        assert frame[0, 0] == np.float32(3.4e38)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("\n\n")
        with pytest.raises(ParseError, match="no frames"):
            dataio.parse_frame_file(f, subject_id=1, posture_id=1)

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "seq.txt"
        body = " ".join(str(v) for v in range(2048))
        f.write_text(f"\n{body}\n\n{body}\n")
        seq = dataio.parse_frame_file(f, subject_id=1, posture_id=1)
        assert len(seq) == 2

    def parse_error(self, f):
        with pytest.raises(ParseError) as info:
            dataio.parse_frame_file(f, subject_id=1, posture_id=1)
        return str(info.value)

    def test_comma_delimiter(self, tmp_path):
        # fields are split on whitespace only: a comma file is refused
        f = tmp_path / "seq.txt"
        f.write_text(",".join(str(v) for v in range(2048)) + "\n")
        assert self.parse_error(f) == (f"{f}: record 1 has 1 fields, "
                                       "expected 2048")

    def test_only_record_short(self, tmp_path):
        # one record parses to a (1, 3) table without complaint
        f = tmp_path / "seq.txt"
        write_records(f, [range(3)])
        assert self.parse_error(f) == (f"{f}: record 1 has 3 fields, "
                                       "expected 2048")

    def test_short_last_record_counts_blank_lines(self, tmp_path):
        f = tmp_path / "seq.txt"
        body = " ".join(["1"] * 2048)
        f.write_text(f"{body}\n\n{body}\n{' '.join(['1'] * 2000)}\n")
        assert self.parse_error(f) == (f"{f}: record 4 has 2000 fields, "
                                       "expected 2048")

    def test_hash_is_a_field_not_a_comment(self, tmp_path):
        f = tmp_path / "seq.txt"
        fields = ["1"] * 2048
        fields[10] = "1#0"
        f.write_text(" ".join(["1"] * 2048) + "\n" + " ".join(fields) + "\n")
        assert self.parse_error(f) == (f"{f}: record 2 contains a "
                                       "non-numeric field")

    def test_crlf_line_endings(self, tmp_path):
        rng = np.random.default_rng(5)
        records = rng.integers(0, 10000, size=(3, 2048))
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        write_records(lf, records)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert np.array_equal(
            dataio.parse_frame_file(crlf, subject_id=1, posture_id=1).frames,
            dataio.parse_frame_file(lf, subject_id=1, posture_id=1).frames)

    def test_float32_overflow_is_refused_without_warning(self, tmp_path):
        # warnings are errors under pytest, so a warning would fail here
        f = tmp_path / "seq.txt"
        f.write_text(" ".join(["1e40"] + ["1"] * 2047) + "\n")
        assert self.parse_error(f) == (f"{f}: record 1 contains a "
                                       "non-finite field")

    def test_decimal_fields_match_per_line_parse(self, tmp_path):
        rng = np.random.default_rng(6)
        digits = rng.integers(1, 10, size=(4, 2048))
        values = rng.uniform(0, 10000, size=(4, 2048))
        f = tmp_path / "seq.txt"
        f.write_text("".join(
            " ".join(f"{v:.{d}f}" for v, d in zip(vs, ds))
            + "\n" for vs, ds in zip(values, digits)))
        frames = dataio.parse_frame_file(f, subject_id=1, posture_id=1).frames
        want = parse_oracle(f)
        assert np.array_equal(frames.view(np.uint32), want.view(np.uint32))
        # the oracle's layout too; the cache stores C order whatever it is
        assert frames.strides == want.strides

    def test_labels_inferred_from_path(self, tmp_path):
        d = tmp_path / "S7"
        d.mkdir()
        write_records(d / "13.txt", [range(2048)])
        seq = dataio.parse_frame_file(d / "13.txt")
        assert (seq.subject_id, seq.posture_id) == (7, 13)

    def test_bad_path_convention(self, tmp_path):
        f = tmp_path / "whatever.txt"
        write_records(f, [range(2048)])
        with pytest.raises(ParseError, match="S<subject>"):
            dataio.parse_frame_file(f)

    def test_synthetic_round_trip(self, tmp_path):
        # writer emits raw counts; parsing + rescaling must recover the
        # frames up to the integer quantization step of the sensor range
        synthetic.write_synthetic_dataset(tmp_path, subjects=1, postures=1,
                                          frames_per_seq=4, seed=3)
        seq = dataio.parse_frame_file(tmp_path / "S1" / "1.txt")
        assert seq.frames.dtype == np.uint16
        original = synthetic.synthetic_sequence(1, 1, 4, seed=3)
        recovered = seq.frames / dataio.SENSOR_MAX
        assert np.max(np.abs(recovered - original.frames)) <= 0.5 / 10000


class TestCountPath:
    """A file of integer counts parses to uint16, anything else to float32
    as before; where both parses apply they give the same values."""

    def parse(self, f):
        return dataio.parse_frame_file(f, subject_id=1, posture_id=1).frames

    def counts_file(self, path, seed=7, rows=3, sep=" ", eol="\n"):
        records = np.random.default_rng(seed).integers(
            0, 10001, size=(rows, 2048))
        records[0, :3] = (0, 10000, 65535)
        path.write_bytes("".join(sep.join(str(v) for v in rec) + eol
                                 for rec in records).encode())
        return path

    def test_counts_parse_to_uint16_equal_to_float_parse(self, tmp_path):
        f = self.counts_file(tmp_path / "seq.txt")
        frames = self.parse(f)
        assert frames.dtype == np.uint16
        want = parse_oracle(f)
        assert frames.astype(np.float32).tobytes() == want.tobytes()
        twin = self.parse(float_twin(f, tmp_path / "twin.txt"))
        assert twin.dtype == np.float32
        assert frames.astype(np.float32).tobytes() == twin.tobytes()

    @pytest.mark.parametrize("value,want", [
        ("-0", -0.0), ("65536", 65536.0), ("1.0", 1.0), ("1e3", 1000.0)])
    def test_a_float_field_gives_float32_frames(self, tmp_path, value, want):
        f = tmp_path / "seq.txt"
        fields = ["3"] * 2048
        fields[40] = value
        f.write_text(" ".join(["2"] * 2048) + "\n" + " ".join(fields) + "\n")
        frames = self.parse(f)
        assert frames.dtype == np.float32
        assert frames.tobytes() == parse_oracle(f).tobytes()
        got = frames[1].T.reshape(-1)[40]
        assert got == want and np.signbit(got) == np.signbit(want)

    def test_minus_zero_keeps_its_sign_where_ints_parse_via_floats(
            self, tmp_path, monkeypatch):
        # numpy < 2 parsed "-0" and "1.0" as integers with a
        # DeprecationWarning; the warning alone sends the file to floats
        loadtxt = np.loadtxt

        def old_numpy_loadtxt(lines, dtype=float, **kwargs):
            if dtype != np.uint16:
                return loadtxt(lines, dtype=dtype, **kwargs)
            flat = loadtxt(lines, dtype=np.float64, **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
            return flat.astype(np.uint16)

        monkeypatch.setattr(dataio.np, "loadtxt", old_numpy_loadtxt)
        f = tmp_path / "seq.txt"
        f.write_text(" ".join(["-0", "1.0"] + ["4"] * 2046) + "\n")
        with warnings.catch_warnings():
            # as outside pytest, where the warning would not raise
            warnings.simplefilter("ignore")
            frames = self.parse(f)
        assert frames.dtype == np.float32
        assert np.signbit(frames[0, 0, 0]) and frames[0, 1, 0] == 1.0

    def test_plus_sign_and_leading_zeros_agree_on_both_paths(self, tmp_path):
        fields = ["+7", "007", "+0", "0065535"] + ["1"] * 2044
        counts = tmp_path / "counts.txt"
        counts.write_text(" ".join(fields) + "\n")
        floats = tmp_path / "floats.txt"
        floats.write_text(" ".join(fields[:-1] + ["1.0"]) + "\n")
        a, b = self.parse(counts), self.parse(floats)
        assert (a.dtype, b.dtype) == (np.uint16, np.float32)
        assert a[0, :4, 0].tolist() == [7, 7, 0, 65535]
        assert b[0, :3, 0].tolist() == [7.0, 7.0, 0.0]
        assert not np.signbit(b[0, 2, 0])

    @pytest.mark.parametrize("sep", [" ", "\t"])
    def test_delimiters_crlf_and_blank_lines(self, tmp_path, sep):
        f = self.counts_file(tmp_path / "seq.txt", rows=2, sep=sep,
                             eol="\r\n")
        body = f.read_bytes().split(b"\r\n")
        f.write_bytes(b"\n  \t\r\n" + body[0] + b"\r\n\r\n \n"
                      + body[1] + b"\r\n\n")
        frames = self.parse(f)
        assert frames.dtype == np.uint16 and len(frames) == 2
        want = parse_oracle(f)
        assert frames.astype(np.float32).tobytes() == want.tobytes()
        twin = self.parse(float_twin(f, tmp_path / "twin.txt"))
        assert twin.tobytes() == want.tobytes()


class TestTaxonomy:
    def test_default_covers_all_ids(self):
        tax = dataio.default_taxonomy()
        assert sorted(tax) == list(range(1, 18))
        assert set(tax.values()) == set(dataio.CATEGORIES)

    def test_supine_block(self):
        tax = dataio.default_taxonomy()
        for pid in range(1, 10):
            assert dataio.map_posture_category(pid, tax) == "supine"

    def test_side_blocks(self):
        tax = dataio.default_taxonomy()
        assert dataio.map_posture_category(10, tax) == "right"
        assert dataio.map_posture_category(14, tax) == "left"

    def test_unknown_id(self):
        with pytest.raises(LabelError):
            dataio.map_posture_category(99, dataio.default_taxonomy())

    def test_coarse_label_follows_category_order(self):
        tax = dataio.default_taxonomy()
        assert dataio.coarse_label(1, tax) == 0
        assert dataio.coarse_label(10, tax) == 1
        assert dataio.coarse_label(14, tax) == 2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "tax.txt"
        tax = dataio.default_taxonomy()
        dataio.write_taxonomy(path, tax)
        assert dataio.load_taxonomy(path) == tax

    def test_missing_id_is_fatal(self, tmp_path):
        path = tmp_path / "tax.txt"
        lines = [f"{pid} supine" for pid in range(1, 17)]  # 17 missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="17"):
            dataio.load_taxonomy(path)

    def test_bad_category_is_fatal(self, tmp_path):
        path = tmp_path / "tax.txt"
        lines = [f"{pid} supine" for pid in range(1, 17)] + ["17 prone"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            dataio.load_taxonomy(path)

    def test_duplicate_id_is_fatal(self, tmp_path):
        path = tmp_path / "tax.txt"
        lines = [f"{pid} supine" for pid in range(1, 18)] + ["3 left"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="duplicate"):
            dataio.load_taxonomy(path)


class TestManifest:
    def make_tree(self, root, subjects=3, postures=4):
        synthetic.write_synthetic_dataset(root, subjects=subjects,
                                          postures=postures,
                                          frames_per_seq=5, seed=1)

    def test_entries_sorted_and_counted(self, tmp_path):
        self.make_tree(tmp_path)
        manifest = dataio.build_manifest(tmp_path)
        assert len(manifest.entries) == 12
        keys = [(e.subject_id, e.posture_id) for e in manifest.entries]
        assert keys == sorted(keys)
        # raw files are listed, not read; the cache manifest holds counts
        assert all(e.frame_count is None for e in manifest.entries)

    def test_missing_combination_warns(self, tmp_path):
        self.make_tree(tmp_path, subjects=2, postures=4)
        (tmp_path / "S1" / "2.txt").unlink()
        manifest = dataio.build_manifest(tmp_path)
        assert len(manifest.entries) == 7
        assert any("subject 1" in w and "posture 2" in w
                   for w in manifest.warnings)

    def test_deterministic(self, tmp_path):
        self.make_tree(tmp_path)
        a = dataio.build_manifest(tmp_path)
        b = dataio.build_manifest(tmp_path)
        assert a.entries == b.entries
        assert a.warnings == b.warnings

    def test_empty_tree_is_fatal(self, tmp_path):
        (tmp_path / "S1").mkdir()
        with pytest.raises(ParseError, match="no dataset files"):
            dataio.build_manifest(tmp_path)

    def test_missing_root(self, tmp_path):
        with pytest.raises(ParseError):
            dataio.build_manifest(tmp_path / "nope")

    @pytest.mark.parametrize("src, dst, named, posture", [
        ("S1", "S01", ("S01/1.txt", "S1/1.txt"), 1),
        ("S1/2.txt", "S1/02.txt", ("S1/02.txt", "S1/2.txt"), 2),
    ], ids=["subject-dir", "posture-file"])
    def test_two_files_of_one_subject_and_posture_are_fatal(
            self, tmp_path, src, dst, named, posture):
        # both used to be listed; the cache then held one array for the two
        # manifest rows, which train refused and preprocess rebuilt the same
        root, cache = tmp_path / "raw", tmp_path / "cache"
        self.make_tree(root, subjects=2, postures=3)
        copy = shutil.copytree if (root / src).is_dir() else shutil.copyfile
        copy(root / src, root / dst)
        with pytest.raises(ParseError) as info:
            signal.preprocess_dataset(root, cache)
        a, b = (root / n for n in named)
        assert str(info.value) == (
            f"'{a}' and '{b}' are both subject 1, posture {posture}")
        assert not cache.exists()

    @pytest.mark.parametrize("name, reason", [
        ("missing.txt", "No such file or directory"),
        (".", "Is a directory")])
    def test_unreadable_taxonomy_is_a_usage_error(self, tmp_path, name,
                                                  reason):
        path = tmp_path / name
        with pytest.raises(UsageError) as info:
            dataio.load_taxonomy(path)
        assert str(info.value) == f"cannot read {path}: {reason}"

    def test_malformed_taxonomy_is_fatal(self, tmp_path):
        self.make_tree(tmp_path)
        tax = tmp_path / "tax.txt"
        tax.write_text("1 supine\n")
        with pytest.raises(ConfigError):
            dataio.build_manifest(tmp_path, taxonomy=tax)

    def test_write_read_round_trip(self, tmp_path, monkeypatch):
        self.make_tree(tmp_path / "raw")
        cache = tmp_path / "cache"
        monkeypatch.setattr(signal, "TRIM", 1)  # 5 raw frames keep 3
        manifest, _ = signal.preprocess_dataset(tmp_path / "raw", cache)
        assert len(manifest.entries) == 12 and manifest.warnings
        back = dataio.read_manifest(cache / dataio.MANIFEST_FILE)
        # paths included: read_manifest derives each one beside the manifest
        assert back.entries == manifest.entries
        assert back.warnings == manifest.warnings
        assert back.taxonomy == manifest.taxonomy
