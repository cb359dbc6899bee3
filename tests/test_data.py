"""Preprocessing, LOSO splitting, synthesis and the segment file format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchformer.data import LosoFold, Recording, SegmentSet, downsample, loso_split, segment
from patchformer.errors import DataFormatError
from patchformer.metrics import accuracy, roc_auc
from patchformer.rng import Rng
from patchformer.segio import load_recording_csv, load_segments, save_segments
from patchformer.synth import SynthEffect, bandpower, synth_generate

import oracles


def make_recording(n_samples=200, c=3, f_s=50.0, label=1, subject="S01", **kw):
    rng = np.random.default_rng(0)
    return Recording(subject_id=subject, channels=[f"CH{i}" for i in range(c)],
                     samples=rng.normal(size=(c, n_samples)), f_s=f_s,
                     task_label=label, **kw)


class TestDownsample:
    def test_factor_four(self):
        r = make_recording(n_samples=4000, f_s=1000.0)
        out = downsample(r, 250.0)
        assert out.f_s == 250.0 and out.n_samples == 1000

    def test_factor_one_identity(self):
        r = make_recording()
        assert downsample(r, r.f_s) is r

    def test_constant_signal_passes(self):
        r = make_recording(n_samples=100, f_s=100.0)
        r.samples[:] = 2.5
        out = downsample(r, 25.0)
        np.testing.assert_allclose(out.samples, 2.5)

    def test_non_integer_factor_rejected(self):
        with pytest.raises(ValueError):
            downsample(make_recording(f_s=1000.0), 300.0)

    def test_block_mean_values(self):
        r = make_recording(n_samples=8, f_s=4.0)
        r.samples[0] = np.arange(8.0)
        out = downsample(r, 2.0)
        np.testing.assert_allclose(out.samples[0], [0.5, 2.5, 4.5, 6.5])


class TestSegment:
    def test_reference_windowing(self):
        # 20 s at 250 Hz, 4 s windows, 50% overlap -> 9 segments of 1000
        r = make_recording(n_samples=5000, f_s=250.0)
        ds = segment(r, win_s=4.0, overlap=0.5, keep_s=20.0)
        assert ds.n == 9 and ds.l == 1000
        assert (ds.y == 1).all() and (ds.subject_ids == "S01").all()

    def test_no_overlap(self):
        r = make_recording(n_samples=5000, f_s=250.0)
        assert segment(r, 4.0, 0.0, 20.0).n == 5

    def test_too_short_warns_and_returns_empty(self):
        r = make_recording(n_samples=150, f_s=50.0)  # 3 s recording
        with pytest.warns(UserWarning, match="no segments"):
            ds = segment(r, win_s=4.0, overlap=0.5, keep_s=20.0)
        assert ds.n == 0

    def test_keep_limits_extraction(self):
        r = make_recording(n_samples=10_000, f_s=250.0)
        assert segment(r, 4.0, 0.5, 20.0).n == 9  # only first 20 s used

    def test_onset_respected(self):
        r = make_recording(n_samples=6000, f_s=250.0, task_onset=1000, task_offset=6000)
        ds = segment(r, 4.0, 0.5, 20.0)
        assert ds.n == 9
        np.testing.assert_array_equal(ds.X[0], r.samples[:, 1000:2000].astype(np.float32))

    def test_windows_share_exact_overlap(self):
        r = make_recording(n_samples=5000, f_s=250.0)
        ds = segment(r, 4.0, 0.5, 20.0)
        np.testing.assert_array_equal(ds.X[0][:, 500:], ds.X[1][:, :500])

    @given(n=st.integers(1, 300), length=st.integers(1, 60), step=st.integers(1, 25))
    @settings(max_examples=80, deadline=None)
    def test_window_count_law(self, n, length, step):
        expected = oracles.window_count(n, length, step)
        got = (n - length) // step + 1 if n >= length else 0
        assert got == expected


class TestLosoSplit:
    def _dataset(self, n_subjects=5, per_class=10):
        return synth_generate(n_subjects, per_class, 3, 32, 16.0,
                              SynthEffect(amplitude=1.0), Rng(4))

    def test_disjoint_subjects(self):
        ds = self._dataset()
        fold = loso_split(ds, "S03", rng=Rng(1))
        assert set(fold.test.subject_ids) == {"S03"}
        assert "S03" not in set(fold.train.subject_ids) | set(fold.val.subject_ids)
        assert fold.train.n + fold.val.n + fold.test.n == ds.n

    def test_every_subject_coverable(self):
        ds = self._dataset(n_subjects=4)
        covered = set()
        for s in ds.subjects:
            covered |= set(loso_split(ds, s, rng=Rng(0)).test.subject_ids)
        assert covered == set(ds.subjects)

    def test_ratio_and_stratification(self):
        ds = self._dataset(n_subjects=6, per_class=20)
        fold = loso_split(ds, "S01", val_frac=0.2, rng=Rng(2))
        # 5 remaining subjects x 20 per class: 20 val segments per class
        counts = fold.val.class_counts()
        assert counts[0] == 20 and counts[1] == 20
        assert fold.train.class_counts() == {0: 80, 1: 80}

    def test_deterministic(self):
        ds = self._dataset()
        a = loso_split(ds, "S02", rng=Rng(11))
        b = loso_split(ds, "S02", rng=Rng(11))
        np.testing.assert_array_equal(a.train.X, b.train.X)
        np.testing.assert_array_equal(a.val.y, b.val.y)

    def test_unknown_subject(self):
        with pytest.raises(ValueError, match="unknown subject"):
            loso_split(self._dataset(), "S99", rng=Rng(0))

    def test_needs_two_subjects(self):
        ds = self._dataset(n_subjects=1)
        with pytest.raises(ValueError, match="2 subjects"):
            loso_split(ds, "S01", rng=Rng(0))


class TestSynth:
    def test_counts(self):
        ds = synth_generate(6, 40, 4, 64, 32.0, SynthEffect(), Rng(0))
        assert ds.n == 480 and len(ds.subjects) == 6
        assert ds.class_counts() == {0: 240, 1: 240}

    def test_deterministic_bytes(self):
        a = synth_generate(2, 5, 3, 64, 32.0, SynthEffect(amplitude=0.7), Rng(77))
        b = synth_generate(2, 5, 3, 64, 32.0, SynthEffect(amplitude=0.7), Rng(77))
        assert a.X.tobytes() == b.X.tobytes()
        np.testing.assert_array_equal(a.y, b.y)

    def test_high_snr_separable_by_bandpower(self):
        ds = synth_generate(3, 30, 6, 160, 40.0, SynthEffect(amplitude=3.0), Rng(5))
        bp = bandpower(ds.X, 40.0, 10.0)
        threshold = (bp[ds.y == 0].mean() + bp[ds.y == 1].mean()) / 2
        assert accuracy((bp > threshold).astype(int), ds.y) >= 99.0

    def test_null_effect_not_separable(self):
        ds = synth_generate(3, 40, 6, 160, 40.0, SynthEffect(amplitude=0.0), Rng(5))
        assert ds.metadata["null_effect"] is True
        auc = roc_auc(bandpower(ds.X, 40.0, 10.0), ds.y)
        assert 0.4 <= auc <= 0.6

    def test_effect_limited_to_chosen_channels(self):
        effect = SynthEffect(amplitude=5.0, channels=(0, 1))
        ds = synth_generate(2, 20, 4, 128, 32.0, effect, Rng(3))
        per_channel = np.abs(np.fft.rfft(ds.X.astype(np.float64), axis=-1)) ** 2
        freqs = np.fft.rfftfreq(128, 1 / 32.0)
        band = np.abs(freqs - 10.0) <= 1.0
        power = per_channel[..., band].mean(axis=-1)
        boost = power[ds.y == 1].mean(axis=0) / power[ds.y == 0].mean(axis=0)
        assert boost[0] > 10 and boost[1] > 10
        assert boost[2] < 2 and boost[3] < 2


class TestSegmentFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = synth_generate(2, 3, 4, 32, 16.0, SynthEffect(), Rng(1))
        path = tmp_path / "d.seg"
        save_segments(ds, path)
        again = load_segments(path)
        assert again.X.tobytes() == ds.X.tobytes()
        np.testing.assert_array_equal(again.y, ds.y)
        np.testing.assert_array_equal(again.subject_ids, ds.subject_ids)
        assert again.f_s == ds.f_s and again.channel_names == ds.channel_names
        assert again.metadata == ds.metadata or again.metadata["seed"] == ds.metadata["seed"]

    def test_empty_set_round_trips(self, tmp_path):
        ds = SegmentSet(np.empty((0, 3, 8), dtype=np.float32), np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=str), 16.0, ["A", "B", "C"])
        path = tmp_path / "empty.seg"
        save_segments(ds, path)
        assert load_segments(path).n == 0

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        ds = synth_generate(1, 2, 2, 16, 8.0, SynthEffect(), Rng(1))
        path = tmp_path / "d.seg"
        save_segments(ds, path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x01  # flip one payload bit
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum mismatch at offset"):
            load_segments(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.seg"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="magic at offset 0"):
            load_segments(path)

    @pytest.mark.parametrize("key", ["n", "labels", "channel_names"])
    def test_header_missing_key_named(self, tmp_path, rewrite_header, key):
        path = tmp_path / "d.seg"
        save_segments(synth_generate(1, 2, 2, 16, 8.0, SynthEffect(), Rng(1)), path)
        rewrite_header(path, lambda header: {k: v for k, v in header.items() if k != key})
        with pytest.raises(DataFormatError, match=f"offset 12 lacks key\\(s\\) '{key}'"):
            load_segments(path)

    # raw bytes replace the header; a function edits it into values of the wrong type
    @pytest.mark.parametrize("blob", [
        b"\xff{}", b"{", b"[]",
        pytest.param(lambda header: {**header, "n": "x"}, id="n-str"),
        pytest.param(lambda header: {**header, "c": True}, id="c-bool"),
        pytest.param(lambda header: {**header, "labels": 1}, id="labels-int"),
        pytest.param(lambda header: {**header, "generator_metadata": "ab"}, id="metadata-str"),
        pytest.param(lambda header: {**header, "labels": ["a"] * header["n"]}, id="labels-entry-str"),
        pytest.param(lambda header: {**header, "labels": [2] * header["n"]}, id="labels-entry-2"),
        pytest.param(lambda header: {**header, "labels": [True] * header["n"]},
                     id="labels-entry-bool"),
        pytest.param(lambda header: {**header, "labels": header["labels"][1:]}, id="labels-short"),
        pytest.param(lambda header: {**header, "subject_ids": [7] * header["n"]},
                     id="subjects-entry-int"),
        pytest.param(lambda header: {**header, "subject_ids": header["subject_ids"] * 2},
                     id="subjects-long"),
        pytest.param(lambda header: {**header, "channel_names": [None] * header["c"]},
                     id="channels-entry-null"),
        pytest.param(lambda header: {**header, "channel_names": header["channel_names"][1:]},
                     id="channels-short"),
        pytest.param(lambda header: {**header, "f_s": float("nan")}, id="fs-nan"),
        pytest.param(lambda header: {**header, "f_s": -1.0}, id="fs-negative"),
        pytest.param(lambda header: {**header, "n": 0, "labels": [], "subject_ids": [], "l": -8},
                     id="l-negative"),
        pytest.param(lambda header: json.dumps({**header, "f_s": "F"}).replace('"F"', "1e999")
                     .encode(), id="fs-overflow"),
    ])
    def test_undecodable_header(self, tmp_path, rewrite_header, blob):
        path = tmp_path / "d.seg"
        save_segments(synth_generate(1, 2, 2, 16, 8.0, SynthEffect(), Rng(1)), path)
        rewrite_header(path, blob if callable(blob) else lambda header: blob)
        with pytest.raises(DataFormatError, match="header at offset 12"):
            load_segments(path)

    def test_truncation_detected(self, tmp_path):
        ds = synth_generate(1, 2, 2, 16, 8.0, SynthEffect(), Rng(1))
        path = tmp_path / "d.seg"
        save_segments(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(DataFormatError):
            load_segments(path)


class TestCsvImport:
    def test_small_fixture(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("A,B\n1,2\n3,4\n5,6\n")
        rec = load_recording_csv(path, f_s=10.0, subject_id="P1", task_label=0)
        assert rec.channels == ["A", "B"]
        np.testing.assert_allclose(rec.samples, [[1, 3, 5], [2, 4, 6]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("A,B\n1,2\n3\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_recording_csv(path, 10.0, "P1", 0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_recording_csv(path, 10.0, "P1", 0)
