"""Preprocessing and augmentation against brute-force oracles."""

import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pressnet import signal
from pressnet.dataio import SampleSequence
from pressnet.errors import NumericFault, ShapeError, UsageError
from pressnet.tensor import make_rng

from util import (float_twin, median_oracle, np_median_oracle,
                  trim_sequence)


class TestMedianFilter:
    def test_constant_volume_unchanged(self):
        vol = np.full((4, 5, 6), 3.25, dtype=np.float32)
        assert np.array_equal(signal.median_filter_3d(vol), vol)

    def test_isolated_spike_removed(self):
        vol = np.full((5, 8, 8), 100.0, dtype=np.float32)
        vol[2, 4, 4] = 10000.0
        out = signal.median_filter_3d(vol)
        assert np.all(out == 100.0)

    def test_matches_oracle_5x6x7(self):
        vol = make_rng(42).uniform(0, 10000, size=(5, 6, 7)).astype(np.float32)
        assert np.array_equal(signal.median_filter_3d(vol), median_oracle(vol))

    def test_matches_oracle_random_shapes(self):
        rng = make_rng(7)
        for trial in range(30):
            shape = tuple(int(rng.integers(1, 9)) for _ in range(3))
            vol = rng.uniform(0, 1, size=shape).astype(np.float32)
            assert np.array_equal(signal.median_filter_3d(vol),
                                  median_oracle(vol)), shape

    def test_single_frame_degenerates_to_spatial(self):
        vol = make_rng(3).uniform(0, 1, size=(1, 6, 6)).astype(np.float32)
        assert np.array_equal(signal.median_filter_3d(vol), median_oracle(vol))

    def test_crosses_block_boundary(self):
        # longer than the internal time block, so the seams are exercised
        vol = make_rng(9).uniform(0, 1, size=(260, 4, 4)).astype(np.float32)
        assert np.array_equal(signal.median_filter_3d(vol), median_oracle(vol))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            signal.median_filter_3d(np.zeros((4, 4)))

    @staticmethod
    def assert_both_oracles(vol):
        out = signal.median_filter_3d(vol)
        assert out.dtype == vol.dtype
        assert out.tobytes() == median_oracle(vol).tobytes()
        assert out.tobytes() == np_median_oracle(vol).tobytes()
        return out

    def test_sparse_counts_with_ties(self):
        # mostly-zero integer counts: most windows hold many equal values
        rng = make_rng(11)
        counts = rng.integers(0, 40, size=(20, 32, 64))
        counts[rng.random(counts.shape) < 0.7] = 0
        self.assert_both_oracles(counts.astype(np.float32))

    def test_full_frames_cross_the_time_block(self):
        vol = make_rng(12).integers(0, 10000, size=(300, 32, 64))
        self.assert_both_oracles(vol.astype(np.float32))

    def test_float32_decimals(self):
        vol = make_rng(13).uniform(0, 1, size=(9, 32, 64)).round(3)
        self.assert_both_oracles(vol.astype(np.float32))

    def test_int_input(self):
        self.assert_both_oracles(
            make_rng(14).integers(0, 50, size=(6, 32, 64)))

    def test_one_pixel_frames(self):
        # each padded 1x1 frame is a 3x3 plane of one value
        self.assert_both_oracles(
            make_rng(15).integers(0, 9, size=(7, 1, 1)).astype(np.float32))

    @pytest.mark.parametrize("t", [1, 2, 3, 9])
    def test_uint16_counts_equal_the_float32_filter(self, t):
        # an order statistic commutes with the exact, increasing cast
        counts = make_rng(16 + t).integers(0, 10001, size=(t, 32, 64))
        counts[:, :2, :2] = 65535
        counts = counts.astype(np.uint16)
        out = self.assert_both_oracles(counts)
        want = signal.median_filter_3d(counts.astype(np.float32))
        assert out.astype(np.float32).tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        vol = np.ones((4, 32, 64), dtype=np.float32)
        vol[2, 5, 7] = value
        with pytest.raises(NumericFault, match="non-finite"):
            signal.median_filter_3d(vol)


class TestMedianNetwork:
    """The min/max network against the oracles, at the shapes and values
    where a network can go wrong and a full sort cannot."""

    check = staticmethod(TestMedianFilter.assert_both_oracles)

    @pytest.mark.parametrize("network, lists, size, ranks, ops", [
        ("_SORT3", 3, 1, range(3), 6),
        ("_SORT9", 3, 3, range(9), 36),
        ("_MEDIAN27", 3, 9, [13], 66),
    ])
    def test_stage_exact_on_every_zero_one_input(self, network, lists, size,
                                                 ranks, ops):
        # a min/max network right on every 0/1 input is right on every
        # input (the 0-1 principle); each position holds one combination
        # of sorted 0/1 input lists, the precondition of the stage
        network = getattr(signal, network)
        ones = np.array(list(itertools.product(range(size + 1),
                                               repeat=lists))).T
        inputs = [(i >= size - m).astype(np.uint8)
                  for m in ones for i in range(size)]
        rows = np.empty((network[2], ones.shape[1]), dtype=np.uint8)
        got = np.array(signal._run(network, inputs, rows))
        total = ones.sum(axis=0)
        want = np.array([r >= lists * size - total for r in ranks])
        assert np.array_equal(got, want)
        assert len(network[0]) == ops

    @pytest.mark.parametrize("frame", [(1, 1), (1, 7), (6, 1), (5, 4)])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_short_sequences_and_thin_frames(self, t, frame):
        rng = make_rng(20 + t)
        self.check(rng.integers(0, 100, size=(t, *frame)).astype(np.float32))

    def test_longer_than_the_time_block(self):
        t = 2 * signal._BLOCK + 3
        self.check(make_rng(21).integers(0, 10000, size=(t, 32, 64))
                   .astype(np.float32))

    def test_transposed_frames_as_parsed(self):
        # parse_frame_file returns each on-disk 64x32 record transposed
        raw = make_rng(22).integers(0, 10000, size=(12, 64, 32))
        frames = raw.astype(np.float32).transpose(0, 2, 1)
        assert not frames.flags.c_contiguous
        out = self.check(frames)
        assert out.tobytes() == signal.median_filter_3d(
            np.ascontiguousarray(frames)).tobytes()

    def test_heavy_ties(self):
        rng = make_rng(23)
        self.check(rng.integers(0, 3, size=(7, 32, 64)).astype(np.float32))
        self.check(rng.integers(0, 2, size=(5, 9, 11)))

    def test_negative_values(self):
        rng = make_rng(24)
        self.check(rng.uniform(-5000, 5000, size=(6, 32, 64))
                   .astype(np.float32))
        self.check(rng.integers(-3, 4, size=(6, 8, 9)))

    def test_random_permutations_of_27_distinct_values(self):
        # each 3x3x3 block of the volume holds a permutation of 0..26, so
        # the window at its centre holds all 27 and its median is 13; the
        # oracles, slower, see every window of a tenth of the volumes
        rng = make_rng(25)
        values = np.tile(np.arange(27, dtype=np.float32), (1000, 1))
        for i in range(100):
            blocks = rng.permuted(values, axis=1).reshape(1000, 3, 3, 3)
            vol = blocks.transpose(1, 2, 0, 3).reshape(3, 3, 3000)
            out = self.check(vol) if i % 10 == 0 else \
                signal.median_filter_3d(vol)
            assert np.all(out[1, 1, 1::3] == 13)

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_random_zero_one_windows(self, density):
        vol = make_rng(26).random((6, 32, 64)) < density
        self.check(vol.astype(np.float32))

    def test_working_set_stays_under_the_old_window_buffer(self):
        # the scratch is a few rows of 8 frames, far below a copy of the
        # 27-wide windows of 128 frames
        vol = np.zeros((600, 32, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            signal.median_filter_3d(vol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 27 * 128 * 32 * 64 * vol.itemsize


class TestTrimmedFiltering:
    @pytest.mark.parametrize("extra", range(4))
    @pytest.mark.parametrize("trim", range(1, 4))
    def test_same_bytes_as_filtering_every_frame(self, monkeypatch, trim,
                                                 extra):
        monkeypatch.setattr(signal, "TRIM", trim)
        t = 2 * trim + extra
        raw = make_rng(30 + t).integers(0, 12000, size=(t, 64, 32))
        frames = raw.astype(np.float32).transpose(0, 2, 1)
        clean = signal.preprocess_sequence(SampleSequence(frames, 1, 2)).frames
        want = trim_sequence(
            signal.normalize_frames(signal.median_filter_3d(frames)), trim)
        assert clean.shape == want.shape == (extra, 32, 64)
        assert clean.dtype == np.float32
        assert clean.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [10, 6])
    @pytest.mark.parametrize("frame", [0, -1])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_in_a_trimmed_frame_is_refused(self, t, frame, value):
        frames = np.ones((t, 32, 64), dtype=np.float32)
        frames[frame, 3, 4] = value
        with pytest.raises(NumericFault, match="non-finite"):
            signal.preprocess_sequence(SampleSequence(frames, 1, 1))


class TestNormalize:
    def test_full_scale_maps_to_one(self):
        out = signal.normalize_frames(np.full((2, 32, 64), 10000.0))
        assert np.all(out == 1.0)

    def test_zero_maps_to_zero(self):
        assert np.all(signal.normalize_frames(np.zeros((1, 32, 64))) == 0.0)

    def test_sensor_fault_clamped(self):
        out = signal.normalize_frames(np.array([[[12000.0, -5.0]]]))
        assert out[0, 0, 0] == 1.0
        assert out[0, 0, 1] == 0.0

    def test_idempotent_on_clean_data(self):
        frames = make_rng(5).uniform(0, 1, size=(3, 32, 64)).astype(np.float32)
        once = signal.normalize_frames(frames * 10000.0)
        twice = signal.normalize_frames(once * 10000.0)
        assert np.allclose(once, twice, atol=1e-6)


class TestTrim:
    # frame k holds 100 * k everywhere, so the median filter keeps every
    # frame as it is and the trim shows in the values; the test names count
    # frames at TRIM = 3
    @staticmethod
    def trimmed(monkeypatch, extra):
        """(n, preprocessed frames, raw frames) of a 2n + extra frame
        sequence at each TRIM n from 1 to 3."""
        for n in (1, 2, 3):
            monkeypatch.setattr(signal, "TRIM", n)
            t = 2 * n + extra
            frames = np.arange(t, dtype=np.float32)[:, None, None] * np.full(
                (t, 32, 64), 100.0, dtype=np.float32)
            seq = SampleSequence(frames, subject_id=1, posture_id=1)
            yield n, signal.preprocess_sequence(seq).frames, frames

    def test_ten_to_four(self, monkeypatch):
        for n, out, frames in self.trimmed(monkeypatch, 4):
            want = signal.normalize_frames(frames[n:n + 4])
            assert out.shape[0] == 4 and np.array_equal(out, want)

    def test_six_to_empty(self, monkeypatch):
        for _, out, _ in self.trimmed(monkeypatch, 0):
            assert out.shape == (0, 32, 64) and out.dtype == np.float32

    def test_seven_to_middle_frame(self, monkeypatch):
        for n, out, frames in self.trimmed(monkeypatch, 1):
            want = signal.normalize_frames(frames[n:n + 1])
            assert np.array_equal(out, want)


class TestDropEmpty:
    def make(self, fill, n=2, s=1, p=1):
        return SampleSequence(frames=np.full((n, 32, 64), fill,
                                             dtype=np.float32),
                              subject_id=s, posture_id=p)

    def test_all_zero_dropped_and_reported(self):
        kept, report = signal.drop_empty_samples([self.make(0.0)])
        assert kept == []
        assert len(report) == 1
        assert "subject 1" in report[0]

    def test_normal_sequence_kept(self):
        seq = self.make(0.5)
        kept, report = signal.drop_empty_samples([seq])
        assert kept == [seq] and report == []

    def test_threshold_is_strict(self, monkeypatch):
        # frame sum exactly at the threshold counts as non-empty
        frames = np.zeros((1, 32, 64), dtype=np.float64)
        frames[0, 0, 0] = 2.0
        seq = SampleSequence(frames=frames, subject_id=3, posture_id=4)
        monkeypatch.setattr(signal, "EMPTY_THRESHOLD", 2.0)
        kept, _ = signal.drop_empty_samples([seq])
        assert kept == [seq]
        monkeypatch.setattr(signal, "EMPTY_THRESHOLD", 2.0001)
        kept, report = signal.drop_empty_samples([seq])
        assert kept == [] and len(report) == 1

    def test_one_loud_frame_saves_the_sequence(self):
        frames = np.zeros((3, 32, 64), dtype=np.float32)
        frames[1] = 0.5
        seq = SampleSequence(frames=frames, subject_id=1, posture_id=1)
        kept, _ = signal.drop_empty_samples([seq])
        assert kept == [seq]


class TestRotate180:
    def test_involution(self):
        frame = make_rng(1).uniform(size=(32, 64))
        assert np.array_equal(signal.rotate180(signal.rotate180(frame)), frame)

    def test_hot_corner_moves(self):
        frame = np.zeros((32, 64))
        frame[0, 0] = 1.0
        out = signal.rotate180(frame)
        assert out[31, 63] == 1.0 and out.sum() == 1.0

    def test_matches_index_oracle(self):
        frame = make_rng(2).uniform(size=(32, 64))
        out = signal.rotate180(frame)
        for r in range(32):
            for c in range(64):
                assert out[r, c] == frame[31 - r, 63 - c]


def bilinear_oracle(frame, angle_deg):
    """Per-pixel inverse-map bilinear resampling, written independently."""
    h, w = frame.shape
    theta = math.radians(angle_deg)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    out = np.zeros_like(frame, dtype=np.float64)
    for r in range(h):
        for c in range(w):
            sr = math.cos(theta) * (r - cy) + math.sin(theta) * (c - cx) + cy
            sc = -math.sin(theta) * (r - cy) + math.cos(theta) * (c - cx) + cx
            r0, c0 = math.floor(sr), math.floor(sc)
            acc = 0.0
            for (rr, cc, wgt) in ((r0, c0, (1 - (sr - r0)) * (1 - (sc - c0))),
                                  (r0, c0 + 1, (1 - (sr - r0)) * (sc - c0)),
                                  (r0 + 1, c0, (sr - r0) * (1 - (sc - c0))),
                                  (r0 + 1, c0 + 1, (sr - r0) * (sc - c0))):
                if 0 <= rr < h and 0 <= cc < w:
                    acc += wgt * frame[rr, cc]
            out[r, c] = acc
    return out


def shift_and_rotate(frame, dx=None, dy=None, angle=None):
    """The augmentation's translate and rotate steps, without the half-turn."""
    return signal.apply_plan(frame, (False, dx, dy, angle))


class TestAffineTransform:
    def test_identity(self):
        frame = make_rng(3).uniform(size=(32, 64))
        assert np.array_equal(shift_and_rotate(frame), frame)

    def test_integer_shift_moves_hot_pixel(self):
        frame = np.zeros((32, 64))
        frame[10, 20] = 1.0
        out = shift_and_rotate(frame, dx=3)
        assert out[10, 23] == 1.0 and out.sum() == 1.0
        out = shift_and_rotate(frame, dy=-4)
        assert out[6, 20] == 1.0 and out.sum() == 1.0
        out = signal._translate(frame, 3, -4)
        assert out[6, 23] == 1.0 and out.sum() == 1.0

    def test_shift_zero_fills(self):
        frame = np.ones((32, 64))
        out = shift_and_rotate(frame, dx=5)
        assert np.all(out[:, :5] == 0.0) and np.all(out[:, 5:] == 1.0)

    def test_both_shifts_equal_one_after_the_other(self):
        frame = make_rng(8).uniform(size=(32, 64))
        for dx, dy in ((3, -2), (-6, 3), (0, 1), (6, 0)):
            one_pass = shift_and_rotate(frame, dx=dx, dy=dy)
            two_pass = shift_and_rotate(shift_and_rotate(frame, dx=dx), dy=dy)
            assert np.array_equal(one_pass, two_pass)

    def test_rotation_matches_bilinear_oracle(self):
        rng = make_rng(4)
        frame = rng.uniform(size=(32, 64))
        for angle in (-25.0, -10.0, 3.7, 10.0, 25.0):
            out = signal._rotate_bilinear(frame, angle)
            assert np.allclose(out, bilinear_oracle(frame, angle), atol=1e-12)
            assert np.array_equal(shift_and_rotate(frame, angle=angle),
                                  np.clip(out, 0.0, 1.0))

    def test_rotation_preserves_interior_mass(self):
        # mass away from the borders cannot leak out at 10 degrees
        frame = np.zeros((32, 64))
        frame[10:22, 20:44] = make_rng(5).uniform(size=(12, 24))
        out = shift_and_rotate(frame, angle=10.0)
        assert abs(out.sum() - frame.sum()) / frame.sum() < 0.03


class TestAugmentation:
    def test_unfired_plan_returns_equal_copy(self):
        frame = make_rng(6).uniform(size=(32, 64))
        out = signal.apply_plan(frame, (False, None, None, None))
        assert np.array_equal(out, frame)
        assert out is not frame

    def test_same_seed_same_output(self):
        frame = make_rng(7).uniform(size=(32, 64)).astype(np.float32)
        a = signal.augment_sample(frame, make_rng(123))
        b = signal.augment_sample(frame, make_rng(123))
        assert np.array_equal(a, b)

    def test_firing_frequencies_10000_draws(self):
        rng = make_rng(99)
        counts = np.zeros(4)
        n = 10000
        for _ in range(n):
            rot180, dx, dy, angle = signal.augment_plan(rng)
            counts += [rot180, dx is not None, dy is not None,
                       angle is not None]
        freq = counts / n
        assert abs(freq[0] - 0.50) <= 0.02
        for i in (1, 2, 3):
            assert abs(freq[i] - 0.20) <= 0.02

    def test_magnitudes_stay_in_range(self):
        rng = make_rng(11)
        for _ in range(2000):
            _, dx, dy, angle = signal.augment_plan(rng)
            if dx is not None:
                assert -6 <= dx <= 6   # 10% of 64 columns
            if dy is not None:
                assert -3 <= dy <= 3   # 10% of 32 rows
            if angle is not None:
                assert -25.0 <= angle <= 25.0

    def test_outputs_stay_normalized(self):
        rng = make_rng(12)
        frame = make_rng(13).uniform(size=(32, 64)).astype(np.float32)
        for _ in range(50):
            out = signal.augment_sample(frame, rng)
            assert out.shape == (32, 64)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestPipeline:
    def test_preprocess_sequence_chains(self):
        raw = make_rng(14).uniform(0, 10000, size=(10, 32, 64)).astype(np.float32)
        seq = SampleSequence(frames=raw, subject_id=2, posture_id=3)
        clean = signal.preprocess_sequence(seq)
        assert clean.frames.shape == (4, 32, 64)
        assert clean.frames.min() >= 0.0 and clean.frames.max() <= 1.0
        assert (clean.subject_id, clean.posture_id) == (2, 3)
        # spot check one value against the two stages run by hand
        expect = trim_sequence(
            signal.normalize_frames(signal.median_filter_3d(raw)), n=3)
        assert np.array_equal(clean.frames, expect)

    def test_constant_sequences_are_pipeline_fixed_points(self):
        # constants are roots of the median filter, and in-range values are
        # fixed by the clamp; a second pass (no trim) changes nothing
        frames = np.full((8, 32, 64), 0.25, dtype=np.float32)
        once = signal.preprocess_sequence(
            SampleSequence(frames=frames * 10000.0, subject_id=1,
                           posture_id=1))
        twice_frames = signal.normalize_frames(
            signal.median_filter_3d(once.frames) * 10000.0)
        assert np.array_equal(once.frames, frames[:2])
        assert np.array_equal(twice_frames, frames[:2])


class TestCache:
    def test_preprocess_dataset_end_to_end(self, tmp_path):
        from pressnet import synthetic
        root = tmp_path / "raw"
        cache = tmp_path / "cache"
        synthetic.write_synthetic_dataset(root, subjects=2, postures=2,
                                          frames_per_seq=10, seed=2)
        manifest, hit = signal.preprocess_dataset(root, cache)
        assert not hit
        assert len(manifest.entries) == 4
        assert all(e.frame_count == 4 for e in manifest.entries)  # 10 - 2*3
        seqs = signal.load_clean_sequences(manifest)
        assert all(s.frames.shape == (4, 32, 64) for s in seqs)
        assert all(s.frames.min() >= 0 and s.frames.max() <= 1 for s in seqs)
        assert (cache / "manifest.tsv").exists()
        assert (cache / "removed.txt").exists()

    def test_second_run_is_cache_hit(self, tmp_path):
        from pressnet import synthetic
        root = tmp_path / "raw"
        cache = tmp_path / "cache"
        synthetic.write_synthetic_dataset(root, subjects=1, postures=2,
                                          frames_per_seq=8, seed=4)
        first, hit1 = signal.preprocess_dataset(root, cache)
        stamps = {e.path: Path(e.path).stat().st_mtime_ns
                  for e in first.entries}
        second, hit2 = signal.preprocess_dataset(root, cache)
        assert not hit1 and hit2
        assert [e.path for e in second.entries] == [e.path for e in first.entries]
        for e in second.entries:
            assert Path(e.path).stat().st_mtime_ns == stamps[e.path]

    def test_fingerprint_hashes_the_pipeline_constants(self, tmp_path,
                                                       monkeypatch):
        # the text earlier versions hashed for the same pipeline, so their
        # caches still hit; another constant is a miss
        from pressnet import dataio, synthetic
        root, cache = tmp_path / "raw", tmp_path / "cache"
        synthetic.write_synthetic_dataset(root, subjects=1, postures=2,
                                          frames_per_seq=8, seed=3)
        manifest = dataio.build_manifest(root)
        h = hashlib.sha256(
            f"format={dataio.CACHE_FORMAT};trim=3;thr=1.0;delim=None"
            f";tax={sorted(manifest.taxonomy.items())}".encode())
        for e in manifest.entries:
            h.update(f"\n{e.subject_id}/{e.posture_id}\n".encode()
                     + Path(e.path).read_bytes())
        assert signal.dataset_fingerprint(manifest) == h.hexdigest()
        assert not signal.preprocess_dataset(root, cache)[1]
        assert signal.preprocess_dataset(root, cache)[1]
        monkeypatch.setattr(signal, "TRIM", 2)
        assert not signal.preprocess_dataset(root, cache)[1]

    def test_changed_input_invalidates_cache(self, tmp_path):
        from pressnet import synthetic
        root = tmp_path / "raw"
        cache = tmp_path / "cache"
        synthetic.write_synthetic_dataset(root, subjects=1, postures=1,
                                          frames_per_seq=8, seed=5)
        signal.preprocess_dataset(root, cache)
        f = root / "S1" / "1.txt"
        f.write_text(f.read_text() + " ".join(["0"] * 2048) + "\n")
        _, hit = signal.preprocess_dataset(root, cache)
        assert not hit

    def test_rebuild_deletes_arrays_it_no_longer_lists(self, tmp_path):
        from pressnet import synthetic
        root = tmp_path / "raw"
        cache = tmp_path / "cache"
        synthetic.write_synthetic_dataset(root, subjects=2, postures=2,
                                          frames_per_seq=8, seed=7)
        signal.preprocess_dataset(root, cache)
        others = [cache / "notes.txt", cache / "S1_1.npy.bak",
                  cache / "S1_x.npy"]
        for f in others:
            f.write_text("not an array of this cache\n")
        (root / "S1" / "1.txt").unlink()
        manifest, hit = signal.preprocess_dataset(root, cache)
        assert not hit and len(manifest.entries) == 3
        assert not (cache / "S1_1.npy").exists()
        assert all((cache / f"S{s}_{p}.npy").exists()
                   for s, p in ((1, 2), (2, 1), (2, 2)))
        assert all(f.exists() for f in others)

    def test_interrupted_rebuild_is_not_a_hit(self, tmp_path, monkeypatch):
        # a rebuild cut short after writing arrays used to keep the old
        # fingerprint, so the old raw tree then hit on the new arrays
        from pressnet import dataio, synthetic
        raw_a, raw_b, cache = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for root, seed in ((raw_a, 1), (raw_b, 2)):
            synthetic.write_synthetic_dataset(root, subjects=1, postures=2,
                                              frames_per_seq=8, seed=seed)
        first, _ = signal.preprocess_dataset(raw_a, cache)
        want = [s.frames for s in signal.load_clean_sequences(first)]

        def cut_short(*args, **kwargs):
            raise OSError("killed")

        with monkeypatch.context() as m:
            m.setattr(dataio, "write_manifest", cut_short)
            with pytest.raises(OSError, match="killed"):
                signal.preprocess_dataset(raw_b, cache)
        assert not (cache / dataio.FINGERPRINT_FILE).exists()
        manifest, hit = signal.preprocess_dataset(raw_a, cache)
        assert not hit
        got = [s.frames for s in signal.load_clean_sequences(manifest)]
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray,
                                        np.asfortranarray])
    def test_cache_bytes_do_not_depend_on_parse_strides(self, tmp_path,
                                                        monkeypatch, layout):
        # 7 raw frames trim to 1, whose parsed (transposed) view is
        # Fortran-contiguous: np.save of it as is would write Fortran order
        from pressnet import dataio, synthetic
        root = tmp_path / "raw"
        synthetic.write_synthetic_dataset(root, subjects=2, postures=2,
                                          frames_per_seq=7, seed=8)
        manifest, _ = signal.preprocess_dataset(root, tmp_path / "a")
        for e in manifest.entries:
            frames = np.load(e.path)
            assert frames.shape == (1, 32, 64) and frames.flags.c_contiguous

        parse = dataio.parse_frame_file

        def relaid(*args, **kwargs):
            seq = parse(*args, **kwargs)
            return SampleSequence(layout(seq.frames), seq.subject_id,
                                  seq.posture_id)

        monkeypatch.setattr(dataio, "parse_frame_file", relaid)
        signal.preprocess_dataset(root, tmp_path / "b")
        names = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_count_and_float_trees_give_the_same_cache(self, tmp_path):
        # a count tree parses to uint16 and its ".0" twin to float32; every
        # cached byte agrees but the fingerprint, which hashes the raw files
        from pressnet import synthetic
        counts = tmp_path / "counts"
        synthetic.write_synthetic_dataset(counts, subjects=2, postures=3,
                                          frames_per_seq=9, seed=4)
        (counts / "S2" / "4.txt").write_text(
            (" ".join(["0"] * 2047 + ["3"]) + "\n") * 9)  # empty, dropped
        (counts / "S2" / "5.txt").write_text(
            (" ".join(["500"] * 2048) + "\n") * 6)  # short once trimmed
        floats = tmp_path / "floats"
        for f in sorted(counts.rglob("*.txt")):
            float_twin(f, floats / f.relative_to(counts))
        for root in (counts, floats):
            signal.preprocess_dataset(root, tmp_path / f"{root.name}-cache")
        a, b = tmp_path / "counts-cache", tmp_path / "floats-cache"
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        assert sum(name.endswith(".npy") for name in names) == 6
        removed = (a / "removed.txt").read_text()
        assert "short: subject 2 posture 5" in removed
        assert "dropped subject 2 posture 4" in removed
        for name in names:
            same = (a / name).read_bytes() == (b / name).read_bytes()
            assert same == (name != "fingerprint.txt"), name

    def test_unreadable_raw_file_is_a_usage_error(self, tmp_path):
        from pressnet import synthetic
        root = tmp_path / "raw"
        synthetic.write_synthetic_dataset(root, subjects=1, postures=2,
                                          frames_per_seq=8, seed=6)
        (root / "S1" / "3.txt").mkdir()  # listed like any posture file
        with pytest.raises(UsageError) as info:
            signal.preprocess_dataset(root, tmp_path / "cache")
        assert str(info.value) == (f"cannot read {root / 'S1' / '3.txt'}: "
                                   "Is a directory")

    def test_too_short_sequence_reported_not_cached(self, tmp_path):
        from pressnet import synthetic
        root = tmp_path / "raw"
        synthetic.write_synthetic_dataset(root, subjects=1, postures=2,
                                          frames_per_seq=5, seed=6)
        manifest, _ = signal.preprocess_dataset(root, tmp_path / "cache")
        assert manifest.entries == []
        removed = (tmp_path / "cache" / "removed.txt").read_text()
        assert "short" in removed
