"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. Criterion 10 is optional and activates only when
PATCHFORMER_DATASET points at a segment file of the real recordings.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from patchformer.config import ModelConfig, reference_config, standard_local_graph_indices
from patchformer.losses import cross_entropy
from patchformer.metrics import accuracy, macro_f1, roc_auc
from patchformer.model import aggregate, build, param_count
from patchformer.optim import AdamState, adam_step
from patchformer.rng import Rng
from patchformer.runners import ablate, run_loso, sweep_patch_length, sweep_table
from patchformer.segio import load_segments, save_segments
from patchformer.synth import SynthEffect, synth_generate
from patchformer.tensor import Tensor, dropout, softmax
from patchformer.train import TrainConfig
from patchformer.verify import THRESHOLD, full_model_grad_check, op_grad_checks

import oracles


@contextlib.contextmanager
def criterion(num, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {num:2d} PASS  {description}  [{elapsed:.1f}s]")


def small_config(**overrides):
    base = dict(c=6, l=160, f_s=40.0, k=8, local_graphs=[[0, 1], [2, 3], [4, 5]],
                l_t=8, l_step=4, l_token=16, n_head=4, n_layers=1, dropout_p=0.25)
    base.update(overrides)
    return ModelConfig(**base)


def test_criterion_01_gradient_correctness():
    with criterion(1, "per-op and full-model gradient checks < 1e-5"):
        started = time.perf_counter()
        per_op = op_grad_checks(trials=20)
        for name, err in per_op.items():
            assert err < THRESHOLD, f"{name}: {err:.3e}"
        full = full_model_grad_check()
        assert full < THRESHOLD, f"full model: {full:.3e}"
        assert time.perf_counter() - started < 120.0


def test_criterion_02_shape_oracle():
    with criterion(2, "reference pipeline shapes (32,28,250)->(32,28,125)->(12,32,125)->(264,32)->(B,2)"):
        cfg = reference_config()
        model = build(cfg, Rng(0))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 28, 1000)).astype(np.float32))
        z = model.temporal_cnn(x)
        assert z.shape == (2, 32, 28, 250)
        z = model.feature_enhance(z)
        assert z.shape == (2, 32, 28, 125)
        z = model.spm(z)
        assert z.shape == (2, 12, 32, 125)
        tok = model.tpm(z)
        assert tok.shape == (2, 264, 32)
        from patchformer.tensor import linear

        enc = model.transformer_encode(tok)
        assert enc.shape == (2, 264, 32)
        logits = linear(enc.reshape(2, 264 * 32), model.parameters["head.weight"],
                        model.parameters["head.bias"])
        assert logits.shape == (2, 2)


def test_criterion_03_aggregation_oracle():
    with criterion(3, "aggregate() equals loop-based region means on 100 random inputs"):
        graphs = standard_local_graph_indices()
        assert [len(g) for g in graphs] == [2, 3, 2, 4, 3, 4, 5, 1, 2, 1, 1]
        rng = np.random.default_rng(42)
        for _ in range(100):
            z = rng.normal(size=(2, 28, 40)).astype(np.float32)
            got = aggregate(Tensor(z), graphs).data
            want = oracles.region_means_loops(z, graphs)
            np.testing.assert_array_equal(got, want)


def test_criterion_04_metric_oracles():
    with criterion(4, "AUC/F1/accuracy match brute-force oracles; CE shift-invariant"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(0, 1, n), 2)
            assert roc_auc(scores, labels) == oracles.auc_pair_count(scores, labels)
        for _ in range(300):
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            assert accuracy(preds, labels) == oracles.accuracy_from_definition(preds, labels)
            assert macro_f1(preds, labels) == pytest.approx(
                oracles.f1_from_definition(preds, labels, 2), abs=1e-12)
        logits = rng.normal(size=(16, 2))
        labels = rng.integers(0, 2, 16)
        base = float(cross_entropy(Tensor(logits, dtype=np.float64), labels).data)
        shifted = float(cross_entropy(Tensor(logits + 987.0, dtype=np.float64), labels).data)
        assert abs(base - shifted) < 1e-9


def test_criterion_05_tiny_overfit():
    with criterion(5, "100% train accuracy on 8 segments within 300 Adam steps"):
        started = time.perf_counter()
        cfg = ModelConfig(c=4, l=64, f_s=16.0, k=4, local_graphs=[[0, 1], [2], [3]],
                          l_t=4, l_step=2, l_token=8, n_head=2, n_layers=1, dropout_p=0.0)
        ds = synth_generate(1, 4, 4, 64, 16.0, SynthEffect(freq_hz=4.0, amplitude=2.0), Rng(5))
        model = build(cfg, Rng(1))
        state = AdamState.for_params(model.parameters)
        X = ds.X[:, None, :, :].astype(np.float32)
        reached = False
        for step in range(300):
            logits = model.forward(Tensor(X), mode="train", rng=Rng(100 + step))
            loss = cross_entropy(logits, ds.y)
            model.zero_grad()
            loss.backward()
            adam_step(model.parameters, state, 1e-3)
            preds = model.forward(Tensor(X)).data.argmax(axis=1)
            if accuracy(preds, ds.y) == 100.0:
                reached = True
                break
        assert reached, "did not memorize 8 segments in 300 steps"
        assert time.perf_counter() - started < 300.0


def test_criterion_06_synthetic_loso():
    with criterion(6, "high-SNR LOSO acc >= 90% / AUC >= 0.95; null AUC within 0.5 +- 0.1"):
        started = time.perf_counter()
        mc = small_config()
        high = synth_generate(6, 40, 6, 160, 40.0, SynthEffect(amplitude=3.0), Rng(11))
        report = run_loso(high, mc, TrainConfig(epochs=6, batch_size=16, seed=11))
        assert report.aggregate["acc"]["mean"] >= 90.0, report.summary()
        assert report.aggregate["auc"]["mean"] >= 0.95, report.summary()

        null = synth_generate(6, 40, 6, 160, 40.0, SynthEffect(amplitude=0.0), Rng(11))
        assert null.metadata["null_effect"]
        null_report = run_loso(null, mc, TrainConfig(epochs=4, batch_size=16, seed=11))
        null_auc = null_report.aggregate["auc"]["mean"]
        assert 0.4 <= null_auc <= 0.6, null_report.summary()
        assert time.perf_counter() - started < 1800.0


def test_criterion_07_ablation_structure():
    with criterion(7, "ablation variants run; token/param counts match derivations"):
        ref = reference_config()
        assert ref.n_tokens == 264
        assert reference_config(ablation="no_spm").n_tokens == 28 * 22
        no_overlap = reference_config(ablation="no_overlap")
        assert no_overlap.n_windows == 6 and no_overlap.n_tokens == 72

        full_params = param_count(ref)
        assert param_count(reference_config(ablation="no_fem")) == full_params + 251680
        assert param_count(reference_config(ablation="no_spm")) == full_params - 218976
        assert param_count(reference_config(ablation="no_overlap")) == full_params - 18432

        ds = synth_generate(2, 8, 6, 160, 40.0, SynthEffect(amplitude=3.0), Rng(6))
        tc = TrainConfig(epochs=1, batch_size=16, seed=6)
        for variant in ("no_fem", "no_spm", "no_overlap"):
            report = ablate(ds, small_config(), tc, variant)
            assert report.label == variant and len(report.rows) == 2


def test_criterion_08_sweep_harness():
    with criterion(8, "patch-length sweep {10..50} emits a 5-row, 3-metric table"):
        mc = ModelConfig(c=4, l=400, f_s=100.0, k=4, local_graphs=[[0, 1], [2, 3]],
                         l_t=20, l_step=5, l_token=8, n_head=2, n_layers=1,
                         dropout_p=0.1)
        assert mc.t_spatial == 50
        ds = synth_generate(2, 6, 4, 400, 100.0, SynthEffect(amplitude=2.0), Rng(9))
        tc = TrainConfig(epochs=1, batch_size=8, seed=9)
        reports = sweep_patch_length(ds, mc, tc, lengths=(10, 20, 30, 40, 50))
        assert [r.label for r in reports] == [f"l_t={v}" for v in (10, 20, 30, 40, 50)]
        table = sweep_table(reports).strip().splitlines()
        assert len(table) == 6  # header + 5 rows
        header = table[0].split(",")
        assert header[0] == "patch_length" and len(header) == 7
        for line, length in zip(table[1:], (10, 20, 30, 40, 50)):
            cells = line.split(",")
            assert cells[0] == str(length) and len(cells) == 7


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "seeded runs byte-identical; segment files round-trip with CRC"):
        # identical training histories and reports
        ds = synth_generate(3, 6, 6, 160, 40.0, SynthEffect(amplitude=2.0), Rng(4))
        mc = small_config()
        tc = TrainConfig(epochs=2, batch_size=16, seed=4)
        a = run_loso(ds, mc, tc)
        b = run_loso(ds, mc, tc)
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.histories == b.histories

        # segment file round trip, bit-exact, CRC-protected
        path = tmp_path / "d.seg"
        save_segments(ds, path)
        again = load_segments(path)
        assert again.X.tobytes() == ds.X.tobytes()
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0x10
        path.write_bytes(bytes(raw))
        from patchformer.errors import DataFormatError

        with pytest.raises(DataFormatError):
            load_segments(path)

        # dropout masks replay bit-identically
        x = Tensor(np.ones((32, 32), dtype=np.float32))
        m1 = dropout(x, 0.5, Rng(3), "train").data
        m2 = dropout(x, 0.5, Rng(3), "train").data
        assert m1.tobytes() == m2.tobytes()


@pytest.mark.skipif("PATCHFORMER_DATASET" not in os.environ,
                    reason="set PATCHFORMER_DATASET to a segment file of the real recordings")
def test_criterion_10_optional_real_dataset():
    with criterion(10, "full LOSO on the supplied dataset; informational accuracy comparison"):
        ds = load_segments(os.environ["PATCHFORMER_DATASET"])
        mc = ModelConfig(c=ds.c, l=ds.l, f_s=ds.f_s)
        epochs = int(os.environ.get("PATCHFORMER_DATASET_EPOCHS", "200"))
        tc = TrainConfig(epochs=epochs, seed=0)
        report = run_loso(ds, mc, tc)
        assert len(report.rows) == len(ds.subjects)
        mean_acc = report.aggregate["acc"]["mean"]
        print(f"\nINFO criterion 10: mean ACC {mean_acc:.2f}% "
              f"(reference 75.63 +- 8pp band: {abs(mean_acc - 75.63) <= 8.0})")
        print(report.summary())
