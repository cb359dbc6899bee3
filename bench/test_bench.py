"""The benchmark's own tests: every workload once at toy size, traced and not.

Run from the root of a checkout with `python3 -m pytest bench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_out")


@pytest.fixture(scope="module")
def reports(out_root):
    """One toy run per (workload, trace), made on first use."""
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            cache[name, trace] = run.measure(name, SEED, 0.0, bool(trace), "toy", out_root)
        return cache[name, trace]

    return get


def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == \
        tracer.per_layer_units()
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_checks_and_emits_every_metric(reports, name, trace):
    report = reports(name, trace)
    assert report["correct"], report["problems"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    line = run.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
    env = report["environment"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "thread_env", "git_commit"):
        assert key in env


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_spans_nest(reports, out_root, name):
    report = reports(name, 1)
    assert report["spans_ok"]
    out_dir = out_root / f"{name}-toy-seed{SEED}-trace1"
    records = json.loads((out_dir / "spans.json").read_text())
    assert tracer.check_nesting(records) == []
    ops = [r for r in records if r["name"] == "op"]
    assert len(ops) == report["attempted"] - WORKLOADS[name].warmup
    if WORKLOADS[name].workers > 1:
        # fold spans come from worker processes and hang under the parent's op span
        folds = [r for r in records if r["name"] == "runners.fold"]
        assert folds and {r["id"].split("-")[0] for r in folds} != {ops[0]["id"].split("-")[0]}
        assert {r["parent"] for r in folds} <= {op["id"] for op in ops}


def test_nesting_check_flags_a_span_outside_its_parent():
    records = [
        {"id": "1-1", "name": "op", "start": 0.0, "end": 1.0, "parent": None},
        {"id": "1-2", "name": "inner", "start": 0.5, "end": 1.5, "parent": "1-1"},
        {"id": "1-3", "name": "orphan", "start": 0.1, "end": 0.2, "parent": "9-9"},
    ]
    problems = tracer.check_nesting(records)
    assert len(problems) == 2
    assert "outside its parent" in problems[0] and "unknown parent" in problems[1]


def test_tracer_puts_every_callable_back(reports):
    from patchformer import model, runners, tensor
    from patchformer.rng import Rng

    reports("small_loso_par2", 1)
    assert "wrapper" not in tensor.conv_temporal.__code__.co_name
    assert "wrapper" not in model.PatchFormerModel.forward.__code__.co_name
    assert "wrapper" not in tensor.Tensor.backward.__code__.co_name
    assert "wrapper" not in Rng.keep_mask.__code__.co_name
    assert "wrapper" not in runners._run_fold.__code__.co_name


def test_sequential_and_parallel_folds_give_the_same_report(reports):
    seq = reports("small_loso", 0)["facts"]["digest"]
    par = reports("small_loso_par2", 0)["facts"]["digest"]
    assert seq is not None and seq == par


def test_computed_counts_are_pinned_at_the_toy_config(reports, out_root):
    layers = reports("ref_train_b4", 1)["per_layer"]
    # toy config: B=4, c=4, l=64, k=4, kernel 8; the FEM is a K=1 conv on 16 steps
    assert layers["tensor.conv_temporal.flops"] == 2 * 4 * 4 * 1 * 4 * 64 * 8 + 2 * 4 * 4 * 4 * 4 * 16
    pinned = {
        "tensor.conv_temporal.flops": 73728, "tensor.conv_temporal.bytes": 28896,
        "tensor.conv_spatial.flops": 4096, "tensor.conv_spatial.bytes": 2832,
        "tensor.multi_head_attention.flops": 47616, "tensor.multi_head_attention.bytes": 4224,
        "tensor.batch_norm.flops": 31488, "tensor.batch_norm.bytes": 42080,
        "tensor.layer_norm.flops": 6144, "tensor.layer_norm.bytes": 6272,
        "tensor.linear.flops": 91400, "tensor.linear.bytes": 38504,
        "tensor.sliding_windows.flops": 0, "tensor.sliding_windows.bytes": 47104,
        "tensor.softmax.flops": 4608, "tensor.softmax.bytes": 9216,
        "tensor.dropout.flops": 1920, "tensor.dropout.bytes": 15360,
        "tensor.aggregate.flops": 896, "tensor.aggregate.bytes": 3584,
        "tensor.nodes": 66,
    }
    assert {k: layers[k] for k in pinned} == pinned
    assert layers["model.ref_b64_tape_gb_est"] == pytest.approx(0.0037032, rel=1e-4)
    # the counts repeat exactly from run to run
    again = run.measure("ref_train_b4", SEED + 1, 0.0, True, "toy", out_root)["per_layer"]
    assert {k: again[k] for k in pinned} == pinned
    assert again["model.ref_b64_tape_gb_est"] == layers["model.ref_b64_tape_gb_est"]


def test_command_line_contract():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_loso", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref_train_b4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
