"""Benchmark of patchformer: train, eval and LOSO workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py                  # every workload, untraced then traced
    python3 bench/run.py --workload ref_train_b4 --seed 1 --seconds 20 --trace 0

One workload run sets up its inputs from the seed (several times; the median
is `setup_s`), runs operations back to back for `--seconds`, checks each
operation's output and prints a report. With `--trace 0` nothing in the
program is wrapped and the metrics are the end-to-end ones; with `--trace 1`
the benchmark's tracer wraps the package's callables, `tracemalloc` runs, and
the metrics are the per-layer ones. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every check passed; 2 means the program could not be
found or imported.

BLAS and OpenMP thread variables are recorded, never set: the program's
default is what is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "seg_per_s": "segments/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}


class ProgramMissing(Exception):
    """The checkout holds no importable patchformer source."""


def import_program():
    if not (SRC / "patchformer" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import patchformer
    except ImportError as exc:
        raise ProgramMissing(f"cannot import patchformer: {exc}") from exc
    if Path(patchformer.__file__).resolve().parent != SRC / "patchformer":
        raise ProgramMissing(f"patchformer imported from {patchformer.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------


def summarize(values: list) -> dict:
    """Median and sample count, plus the highest percentile with >= 10 samples beyond it."""
    out = {"p50": statistics.median(values), "n": len(values)}
    if len(values) >= 20:
        q = 100.0 * (len(values) - 10) / len(values)
        out[f"p{q:.4g}"] = float(np.percentile(values, q))
    return out


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, size_name: str,
            out_root: Path = OUT) -> dict:
    """One workload run; returns its report (also written to its output directory)."""
    from tracer import Tracer, check_nesting, layer_metrics, self_times
    from workloads import SIZES, WORKLOADS, ref_b64_tape_bytes

    wl, size = WORKLOADS[name], SIZES[size_name]
    out_dir = out_root / f"{name}-{size_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = Tracer(out_dir) if trace else None

    def phase(label):
        return tracer.span(label) if tracer else contextlib.nullcontext()

    setup_s, op_s, problems = [], [], []
    attempted = failed = segments = 0
    if tracer:
        tracemalloc.start()
        tracer.install()
    try:
        ctx = None
        for _ in range(SETUP_REPEATS):
            ctx = None  # release the previous set-up before timing the next
            started = time.perf_counter()
            with phase("setup"):
                ctx = wl.setup(seed, size, out_dir)
            setup_s.append(time.perf_counter() - started)

        def attempt(label, first):
            nonlocal attempted, failed, segments
            attempted += 1
            started = time.perf_counter()
            try:
                with phase(label):
                    n, errors = ctx.run(first)
            except Exception:  # a failed operation is counted and the loop goes on
                n, errors = 0, [traceback.format_exc(limit=3)]
            elapsed = time.perf_counter() - started
            if errors:
                failed += 1
                problems.extend(f"{label} {attempted}: {e}" for e in errors)
            elif label == "op":
                op_s.append(elapsed)
                segments += n

        if wl.warmup:
            attempt("warmup", True)
        # operations start while the last one's duration says the next ends
        # inside the window, so a run lasts about --seconds; at least one runs
        deadline = time.perf_counter() + seconds
        first = not wl.warmup
        while True:
            started = time.perf_counter()
            attempt("op", first)
            first = False
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        facts = ctx.facts()
        fold_s = list(getattr(ctx, "fold_s", []))
    finally:
        if tracer:
            tracer.uninstall()
    ctx = None

    report = {"workload": name, "op": wl.op, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size_name, "environment": environment(),
              "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
              "facts": facts, "problems": problems[:20]}
    if op_s:
        report["end_to_end"] = {
            "setup_s": statistics.median(setup_s),
            "seg_per_s": segments / sum(op_s),
            "op_ms_p50": 1e3 * statistics.median(op_s),
            "peak_rss_mb": usage / 1024.0,
        }
        report["timings_s"] = {"setup": summarize(setup_s), "op": summarize(op_s)}
        if fold_s:
            report["timings_s"]["fold"] = summarize(fold_s)
    if tracer:
        records = tracer.records(tracer.collect_workers())
        broken = check_nesting(records)
        if wl.workers > 1 and not any(r["name"] == "runners.fold" for r in records):
            broken.append("fold workers reported no spans")
        report["problems"].extend(broken[:20])
        report["span_count"] = len(records)
        (out_dir / "spans.json").write_text(json.dumps(records))
        if op_s:
            tape = ref_b64_tape_bytes(size, seed)
            report["per_layer"] = layer_metrics(records, wl.workers, tape)
            report["self_times"] = {k: list(v) for k, v in sorted(
                self_times(records).items(), key=lambda kv: -kv[1][2])}
        tracemalloc.stop()
        report["spans_ok"] = not broken
    report["correct"] = bool(op_s) and failed == 0 and report.get("spans_ok", True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    return report


def result_line(report: dict) -> dict:
    from tracer import per_layer_units

    units = per_layer_units() if report["trace"] else {k: (u, None) for k, u in END_TO_END.items()}
    values = report.get("per_layer" if report["trace"] else "end_to_end", {})
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, (u, _) in units.items()
                        if k in values}}


def named_metrics(report: dict) -> list:
    """(name, value, unit, note) rows under the workload's own metric names."""
    from workloads import WORKLOADS

    wl = WORKLOADS[report["workload"]]
    e2e, timings = report.get("end_to_end"), report.get("timings_s", {})
    rows = []
    if e2e:
        rows.append(("setup_s", e2e["setup_s"], "s", f"median of {timings['setup']['n']} set-ups"))
        (op_name, op_unit, scale), seg_name = wl.op_metric, wl.seg_metric
        op = timings["op"]
        tail = [f"{k} {v * scale:.6g}" for k, v in op.items() if k not in ("p50", "n")]
        rows.append((op_name, op["p50"] * scale, op_unit,
                     ", ".join([f"median of {op['n']}", *tail])))
        if seg_name:
            rows.append((seg_name, e2e["seg_per_s"], "segments/s", "total over timed ops"))
        if "fold" in timings:
            rows.append(("fold_s_p50", timings["fold"]["p50"], "s",
                         f"median of {timings['fold']['n']} folds"))
        rows.append(("peak_rss_mb", e2e["peak_rss_mb"], "MiB", "largest process"))
    rows.append(("fail_frac", report["fail_frac"], "failed/attempted",
                 f"{report['failed']} of {report['attempted']} operations"))
    return rows


def print_report(report: dict) -> None:
    env = report["environment"]
    mode = "traced" if report["trace"] else "untraced"
    print(f"== {report['workload']} ({report['op']}), seed {report['seed']}, "
          f"{report['seconds']:g} s, {mode}, {report['size']} ==")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']} {env['blas_version']} ({env['blas_threads']} threads), "
          f"nproc {env['nproc']}, thread env {env['thread_env']}, commit {env['git_commit']}")
    for name, value, unit, note in named_metrics(report):
        print(f"  {name:<22} {value:>14.6g} {unit:<16} {note}")
    for key, value in report["facts"].items():
        print(f"  {key}: {value}")
    if "per_layer" in report:
        from tracer import per_layer_units

        est = report["per_layer"]["model.ref_b64_tape_gb_est"]
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / float(1 << 30)
        verdict = "infeasible" if est > ram else "feasible"
        print(f"  reference B=64 train step: {verdict} here, estimated graph {est:.3g} GiB "
              f"against {ram:.3g} GiB of memory")
        print("  per-layer (flops and bytes are computed from shapes, not measured):")
        for name, (unit, _) in per_layer_units().items():
            print(f"    {name:<40} {report['per_layer'][name]:>16.6g} {unit}")
        print("  self time per span name over the measured operations:")
        for name, (calls, incl, own) in list(report["self_times"].items())[:25]:
            print(f"    {name:<34} calls {calls:>8}  incl {incl:10.4f} s  self {own:10.4f} s")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  correct: {report['correct']}")


# ---------------------------------------------------------------------------
# every workload, untraced and traced
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    from tracer import per_layer_units
    from workloads import WORKLOADS

    reports = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(900.0, 20 * args.seconds))
            lines = proc.stdout.strip().splitlines()
            try:
                report = json.loads(lines[-2])
            except (IndexError, json.JSONDecodeError):
                print(proc.stdout + proc.stderr)
                print(f"{name} trace {trace}: no report (exit {proc.returncode})")
                return 1
            reports[name, trace] = report
            print_report(report)

    names = list(WORKLOADS)
    print("\n== end-to-end (untraced) ==")
    print(f"{'metric':<20} {'unit':<12}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in END_TO_END.items():
        cells = [reports[n, 0].get("end_to_end", {}).get(metric, float("nan")) for n in names]
        print(f"{metric:<20} {unit:<12}" + "".join(f"{c:>18.6g}" for c in cells))
    print("\n== per-layer (traced) ==")
    for metric, (unit, _) in per_layer_units().items():
        cells = [reports[n, 1].get("per_layer", {}).get(metric, float("nan")) for n in names]
        print(f"{metric:<40} {unit:<9}" + "".join(f"{c:>16.6g}" for c in cells))
    print("\n== tracing overhead (traced / untraced op_ms_p50 - 1) ==")
    for n in names:
        plain = reports[n, 0].get("end_to_end", {}).get("op_ms_p50")
        traced = reports[n, 1].get("per_layer", {}).get("trace.op_ms_p50")
        if plain and traced:
            print(f"{n:<20} {traced / plain - 1.0:+.3f}")
    digests = {reports[n, t]["facts"].get("digest") for n in ("small_loso", "small_loso_par2")
               for t in (0, 1)}
    deterministic = len(digests) == 1
    print(f"\nLOSO report digest, sequential vs parallel folds: "
          f"{'identical' if deterministic else 'DIFFERENT'} {sorted(map(str, digests))}")
    ok = deterministic and all(r["correct"] for r in reports.values())
    print(json.dumps({"correct": ok, "workloads": {f"{n}:trace{t}": r["correct"]
                                                   for (n, t), r in reports.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in ("all", *WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_report(report)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result_line(report)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
