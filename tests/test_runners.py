"""LOSO runner, ablations, sweep and report serialization."""

import csv
import json
import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from patchformer import runners, tensor
from patchformer.config import ModelConfig
from patchformer.errors import FoldError
from patchformer.runners import (
    ExperimentReport,
    SubjectResult,
    ablate,
    run_loso,
    sweep_patch_length,
    sweep_table,
)
from patchformer.rng import Rng
from patchformer.synth import SynthEffect, synth_generate
from patchformer.tensor import Tensor
from patchformer.train import TrainConfig


@pytest.fixture(scope="module")
def micro_dataset():
    return synth_generate(3, 6, 4, 64, 16.0, SynthEffect(freq_hz=4.0, amplitude=2.5), Rng(8))


@pytest.fixture
def micro_config():
    return ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
                       l_t=4, l_step=2, l_token=8, n_head=2, n_layers=1, dropout_p=0.1)


def micro_tc(**kw):
    base = dict(epochs=2, batch_size=8, seed=13)
    base.update(kw)
    return TrainConfig(**base)


class TestRunLoso:
    def test_row_per_subject_and_aggregate(self, micro_dataset, micro_config):
        report = run_loso(micro_dataset, micro_config, micro_tc())
        assert [r.subject for r in report.rows] == ["S01", "S02", "S03"]
        accs = np.array([r.acc for r in report.rows])
        assert report.aggregate["acc"]["mean"] == pytest.approx(accs.mean(), abs=1e-9)
        assert report.aggregate["acc"]["std"] == pytest.approx(accs.std(), abs=1e-9)
        assert report.histories.keys() == {"S01", "S02", "S03"}

    def test_deterministic_reports(self, micro_dataset, micro_config):
        a = run_loso(micro_dataset, micro_config, micro_tc())
        b = run_loso(micro_dataset, micro_config, micro_tc())
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_parallel_folds_match_sequential(self, micro_dataset, micro_config):
        seq = run_loso(micro_dataset, micro_config, micro_tc())
        par = run_loso(micro_dataset, micro_config, micro_tc(), parallel_folds=3)
        assert seq.canonical_bytes() == par.canonical_bytes()

    def test_parallel_folds_log_every_fold(self, micro_dataset, micro_config):
        seq, par = [], []
        run_loso(micro_dataset, micro_config, micro_tc(), log_fn=seq.append)
        run_loso(micro_dataset, micro_config, micro_tc(), parallel_folds=2, log_fn=par.append)
        assert [row["subject"] for row in seq] == ["S01", "S02", "S03"]
        assert sorted(par, key=lambda row: row["subject"]) == seq

    def test_fold_workers_pin_blas_and_share_the_pool(self, micro_dataset, micro_config,
                                                      monkeypatch):
        if tensor.blas_threads() is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with a thread getter")

        def report_threads(model, fold, tc, rng, log_fn=None):  # best_epoch: the worker's counts
            return model.state_dict(), (tensor.blas_threads(), tensor.pool_threads()), []

        monkeypatch.setattr(runners, "train", report_threads)
        report = run_loso(micro_dataset, micro_config, micro_tc(), parallel_folds=2)
        share = max(1, len(os.sched_getaffinity(0)) // 2)
        assert [r.best_epoch for r in report.rows] == [(1, share)] * 3
        assert tensor.blas_threads() == 1

    @pytest.mark.parametrize("parallel_folds", [2, 3])
    def test_kernel_pool_never_exceeds_the_workers_share(self, micro_dataset, micro_config,
                                                         monkeypatch, parallel_folds):
        monkeypatch.setattr(tensor, "_PART_BYTES", 1)  # forked fold workers inherit it

        def run_kernels(model, fold, tc, rng, log_fn=None):  # best_epoch: pool size, threads
            x, kernels, bias = np.ones((64, 1, 2, 16)), np.ones((2, 1, 1, 3)), np.ones(2)
            with tensor.no_grad():  # 64 samples, one a part: many parts
                tensor.conv_temporal(Tensor(x), Tensor(kernels), Tensor(bias))
            threads = [t for t in threading.enumerate() if t.name.startswith("patchformer-kernel")]
            return model.state_dict(), (tensor.pool_threads(), len(threads)), []

        monkeypatch.setattr(runners, "train", run_kernels)
        report = run_loso(micro_dataset, micro_config, micro_tc(), parallel_folds=parallel_folds)
        share = max(1, len(os.sched_getaffinity(0)) // parallel_folds)
        for row in report.rows:
            size, threads = row.best_epoch
            assert size == share and threads <= share

    def test_pool_never_outnumbers_subjects(self, micro_dataset, micro_config, monkeypatch):
        seen = {}

        class RecordingPool:  # runs no fold: each future holds a stand-in row
            def __init__(self, max_workers, initializer, initargs):
                seen.update(max_workers=max_workers, initargs=initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, subject, checkpoint_path):
                future = Future()
                future.set_result((SubjectResult(subject, 50.0, 0.5, 50.0, 0, 1), []))
                return future

        monkeypatch.setattr(runners, "ProcessPoolExecutor", RecordingPool)
        report = run_loso(micro_dataset, micro_config, micro_tc(), parallel_folds=64)
        assert seen["max_workers"] == 3
        assert seen["initargs"][0] == max(1, len(os.sched_getaffinity(0)) // 3)  # pool threads
        assert [r.subject for r in report.rows] == ["S01", "S02", "S03"]

    @pytest.mark.parametrize("parallel_folds", [0, -2])
    def test_parallel_folds_below_one_rejected(self, micro_dataset, micro_config,
                                               parallel_folds):
        with pytest.raises(ValueError, match=f"parallel_folds must be at least 1, got "
                                             f"{parallel_folds}"):
            run_loso(micro_dataset, micro_config, micro_tc(), parallel_folds=parallel_folds)

    def test_needs_two_subjects(self, micro_config):
        ds = synth_generate(1, 4, 4, 64, 16.0, SynthEffect(), Rng(0))
        with pytest.raises(ValueError, match="2 subjects"):
            run_loso(ds, micro_config, micro_tc())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fold_failure_names_subject(self, micro_dataset, micro_config):
        from patchformer.errors import TrainingDivergedError
        from patchformer.runners import _run_fold

        bad_tc = micro_tc(lr0=1e30)  # diverges immediately
        with pytest.raises(TrainingDivergedError, match="subject 'S02'"):
            _run_fold(micro_dataset, micro_config, bad_tc, "S02")

    @pytest.mark.parametrize("parallel_folds", [1, 2])
    def test_foreign_fold_error_is_wrapped(self, micro_dataset, micro_config, monkeypatch,
                                           parallel_folds):
        def undecodable(*args, **kwargs):  # constructor takes five arguments
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr(runners, "train", undecodable)
        with pytest.raises(FoldError, match="subject 'S01' failed: UnicodeDecodeError") as info:
            run_loso(micro_dataset, micro_config, micro_tc(), parallel_folds=parallel_folds)
        if parallel_folds == 1:  # a worker's cause comes back as its traceback text
            assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_checkpoints_written(self, micro_dataset, micro_config, tmp_path):
        run_loso(micro_dataset, micro_config, micro_tc(epochs=1), out_dir=tmp_path)
        names = sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
        assert names == ["S01.ckpt", "S02.ckpt", "S03.ckpt"]


class TestReportSerialization:
    def _report(self):
        rows = [SubjectResult("S01", 80.0, 0.9, 79.0, 3, 12),
                SubjectResult("S02", 70.0, 0.8, 69.0, 1, 12)]
        return ExperimentReport("full", rows, ExperimentReport.aggregate_rows(rows),
                                "abc123", 1.5)

    def test_csv_rows(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        report.save_csv(path)
        rows = list(csv.reader(path.open()))
        assert rows[0][:4] == ["subject", "acc_percent", "auc", "macro_f1_percent"]
        assert [r[0] for r in rows[1:]] == ["S01", "S02", "mean", "std"]
        assert float(rows[3][1]) == pytest.approx(75.0)

    def test_json_fields(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        report.save_json(path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert data["config_fingerprint"] == "abc123"
        assert "metric_definitions" in data and "metric_note" in data
        assert data["aggregate"]["auc"]["mean"] == pytest.approx(0.85)

    def test_canonical_bytes_exclude_timing(self):
        a = self._report()
        b = self._report()
        b.wall_clock_s = 99.0
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_summary_mentions_all_metrics(self):
        text = self._report().summary()
        assert "ACC" in text and "AUC" in text and "F1-macro" in text


class TestAblate:
    def test_variant_label_and_tokens(self, micro_dataset, micro_config):
        report = ablate(micro_dataset, micro_config, micro_tc(epochs=1), "no_overlap")
        assert report.label == "no_overlap"

    def test_unknown_variant(self, micro_dataset, micro_config):
        with pytest.raises(ValueError, match="unknown ablation"):
            ablate(micro_dataset, micro_config, micro_tc(), "no_everything")

    def test_full_not_a_variant(self, micro_dataset, micro_config):
        with pytest.raises(ValueError):
            ablate(micro_dataset, micro_config, micro_tc(), "full")


class TestSweep:
    def test_reports_and_table(self, micro_dataset, micro_config):
        reports = sweep_patch_length(micro_dataset, micro_config, micro_tc(epochs=1),
                                     lengths=(2, 4))
        assert [r.label for r in reports] == ["l_t=2", "l_t=4"]
        table = sweep_table(reports)
        lines = table.strip().splitlines()
        assert lines[0].startswith("patch_length,acc_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2"

    def test_invalid_length_named(self, micro_dataset, micro_config):
        with pytest.raises(ValueError, match="9"):
            sweep_patch_length(micro_dataset, micro_config, micro_tc(), lengths=(9,))
