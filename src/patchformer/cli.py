"""Command-line entry point wiring data, model and experiment runs together.

Every run that produces artifacts writes a manifest (resolved config, seed,
argv, tool version, environment) before any computation starts; `rerun`
replays a manifest.
Flags mirror the architecture symbols (--k, --lt, --lstep, --ltoken, --nhead,
--layers); a model or training flag that is not given leaves its field at the
`ModelConfig` / `TrainConfig` default, the reference recipe.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ABLATIONS, ModelConfig
from .checkpoint import load_model
from .data import check_segmentable, decimation_factor, downsample, segment, window_samples
from .container import canonical_json, check_entries, require_keys, write_atomic
from .errors import ConfigurationError, DataFormatError, MetricUndefinedError, PatchFormerError
from .model import param_count
from .rng import Rng
from .segio import load_recording_csv, load_segments, save_segments
from .synth import SynthEffect, check_request, synth_generate
from .tensor import HEAP_REUSE, blas_threads, pool_threads
from .train import TrainConfig, evaluate_segments
from .runners import _run_fold, run_loso, sweep_configs, sweep_patch_length, sweep_table
from .verify import THRESHOLD, full_model_grad_check, op_grad_checks


def _emit(obj, file=None):
    """One canonical JSON line on stdout, or on `file`."""
    print(canonical_json(obj).decode(), file=file, flush=True)


def _default_seed() -> int:
    return int(os.environ.get("PATCHFORMER_SEED", "0"))


def _int_entry(entry: str, flag: str, position, text: str) -> int:
    """One integer of a flag's list; a ConfigurationError names the flag, the
    entry and its position otherwise."""
    try:
        return int(entry)
    except ValueError:
        raise ConfigurationError(f"{flag} entry {position} ({entry!r}) of {text!r} "
                                 "is not an integer") from None


def _parse_graphs(text):
    return [[_int_entry(ch, "--graphs", f"{i} of group {g}", text)
             for i, ch in enumerate(group.split(","), 1) if ch != ""]
            for g, group in enumerate(text.split(";"), 1)]


def _parse_channels(text):
    if text is None:
        return None
    return tuple(_int_entry(ch, "--effect-channels", i, text)
                 for i, ch in enumerate(text.split(","), 1) if ch != "")


def _add_seed(p):
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="run seed (default: $PATCHFORMER_SEED or 0)")


def _add_print_config(p):
    p.add_argument("--print-config", action="store_true",
                   help="emit the resolved configuration as canonical JSON and exit")


def _add_model_flags(p, ablation=True):
    g = p.add_argument_group("model", argument_default=argparse.SUPPRESS)
    g.add_argument("--k", type=int, help="CNN kernel count")
    g.add_argument("--kernel-len", dest="temporal_kernel_len", type=int,
                   help="temporal kernel length (default: round(0.5 * f_s))")
    g.add_argument("--lt", dest="l_t", type=int, help="temporal patch length")
    g.add_argument("--lstep", dest="l_step", type=int, help="temporal patch step")
    g.add_argument("--ltoken", dest="l_token", type=int, help="token dimension")
    g.add_argument("--nhead", dest="n_head", type=int, help="attention heads")
    g.add_argument("--layers", dest="n_layers", type=int, help="transformer layers")
    g.add_argument("--ffn-mult", type=int, help="feed-forward width multiplier")
    g.add_argument("--dropout", dest="dropout_p", type=float)
    g.add_argument("--no-pos", dest="positional_embedding", action="store_false",
                   help="disable positional embeddings")
    if ablation:
        g.add_argument("--ablation", choices=ABLATIONS)
    g.add_argument("--graphs", dest="local_graphs", type=str,
                   help="local channel groups as index lists, e.g. '0,1;2,3;4,5'")


def _add_train_flags(p):
    g = p.add_argument_group("training", argument_default=argparse.SUPPRESS)
    g.add_argument("--epochs", type=int)
    g.add_argument("--batch-size", type=int)
    g.add_argument("--lr", dest="lr0", type=float)
    g.add_argument("--weight-decay", type=float)
    g.add_argument("--eta-min", type=float)
    g.add_argument("--decoupled-wd", dest="decoupled_decay", action="store_true",
                   help="decoupled weight decay instead of L2-in-gradient")


def _given(args, cls) -> dict:
    """The fields of config class `cls` that `args` sets. Model and training
    flags have no argparse default, so one not given sets nothing and its
    field keeps the dataclass default."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _model_config(args, ds) -> ModelConfig:
    given = _given(args, ModelConfig)
    if "local_graphs" in given:
        given["local_graphs"] = _parse_graphs(given["local_graphs"])
    return ModelConfig(c=ds.c, l=ds.l, f_s=ds.f_s, **given).validate()


def _train_config(args) -> TrainConfig:
    return TrainConfig(**_given(args, TrainConfig)).validate()


# BLAS and OpenMP thread variables; recorded in manifests, never set (the
# package pins OpenBLAS to one thread and sizes its own kernel pool)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """What a run's speed depends on besides its config and seed."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "heap_reuse": HEAP_REUSE,
        "pool_threads": pool_threads(),
        "blas_threads": blas_threads(),
    }


def _start(args, config: dict, artifacts: dict, manifest_path: Path) -> bool:
    """Begin a run: under --print-config emit `config` and return False;
    otherwise write the run's manifest and return True."""
    if args.print_config:
        _emit(config)
        return False
    manifest = {
        "command": args.command,
        "argv": list(args._argv),
        "seed": args.seed,
        "config": config,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "environment": environment(),
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True))
    return True


# -- subcommands ------------------------------------------------------------


def cmd_synth(args) -> int:
    effect = SynthEffect(
        freq_hz=args.freq, amplitude=args.amplitude,
        channels=_parse_channels(args.effect_channels),
        gain_jitter=args.jitter, noise_scale=args.noise_scale,
    )
    check_request(args.subjects, args.per_class, args.channels, args.length, args.fs, effect)
    config = {
        "data": {
            "n_subjects": args.subjects, "segs_per_class": args.per_class,
            "c": args.channels, "l": args.length, "f_s": args.fs,
            "effect": asdict(effect),
        },
        "seed": args.seed,
    }
    out = Path(args.out)
    if not _start(args, config, {"segments": out}, out.with_name(out.name + ".manifest.json")):
        return 0
    ds = synth_generate(args.subjects, args.per_class, args.channels, args.length,
                        args.fs, effect, Rng(args.seed))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_segments(ds, out)
    _emit({"event": "synth", "n": ds.n, "c": ds.c, "l": ds.l,
           "null_effect": ds.metadata["null_effect"], "path": str(out)})
    return 0


def cmd_preprocess(args) -> int:
    decimation_factor(args.fs, args.target_fs)
    window_samples(args.target_fs, args.win, args.overlap, args.keep)
    config = {
        "data": {
            "input": args.input, "target_fs": args.target_fs, "win_s": args.win,
            "overlap": args.overlap, "keep_s": args.keep, "subject": args.subject,
            "label": args.label, "fs": args.fs, "onset": args.onset, "offset": args.offset,
        },
        "seed": args.seed,
    }
    out = Path(args.out)
    # the input is read and checked before the manifest is written
    if args.input.endswith(".csv"):
        rec = load_recording_csv(args.input, f_s=args.fs, subject_id=args.subject,
                                 task_label=args.label, task_onset=args.onset,
                                 task_offset=args.offset)
        rec = downsample(rec, args.target_fs)
        check_segmentable(rec, args.win, args.overlap, args.keep)
        ds = segment(rec, win_s=args.win, overlap=args.overlap, keep_s=args.keep)
    else:
        # already-segmented input: validate the container and rewrite it
        ds = load_segments(args.input)
    if not _start(args, config, {"segments": out}, out.with_name(out.name + ".manifest.json")):
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    save_segments(ds, out)
    _emit({"event": "preprocess", "n": ds.n, "c": ds.c, "l": ds.l,
           "f_s": ds.f_s, "path": str(out)})
    return 0


def _begin_run(args, artifacts: dict, lengths=None):
    """Load the data, resolve the run's configs and start it with `_start`;
    `artifacts` names files under --out. Every input the run could not start
    with is rejected first, so no manifest names a run that cannot happen.
    Returns (ds, mc, tc, out), or None under --print-config."""
    parallel_folds = getattr(args, "parallel_folds", 1)
    if parallel_folds < 1:
        raise ConfigurationError(f"--parallel-folds must be at least 1, got {parallel_folds}")
    ds = load_segments(args.data)
    mc = _model_config(args, ds)
    tc = _train_config(args)
    subject = getattr(args, "test_subject", None)
    if subject is not None and subject not in ds.subjects:
        raise ConfigurationError(f"--test-subject {subject!r} is not a subject of {args.data}; "
                                 f"it holds {ds.subjects}")
    config = {"model": mc.to_dict(), "train": tc.to_dict(), "seed": args.seed}
    if lengths is not None:
        sweep_configs(mc, lengths)
        config["lengths"] = lengths
    out = Path(args.out)
    if not _start(args, config, {k: out / name for k, name in artifacts.items()},
                  out / "manifest.json"):
        return None
    return ds, mc, tc, out


def cmd_train(args) -> int:
    run = _begin_run(args, {"checkpoint": "checkpoint.ckpt", "history": "history.json"})
    if run is None:
        return 0
    ds, mc, tc, out = run
    row, history = _run_fold(ds, mc, tc, args.test_subject, out / "checkpoint.ckpt",
                             log_fn=None if args.quiet else _emit)
    write_atomic(out / "history.json", json.dumps(history, indent=2))
    _emit({"event": "test", "subject": row.subject, "best_epoch": row.best_epoch,
           "acc": row.acc, "auc": row.auc, "macro_f1": row.macro_f1})
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    ds = load_segments(args.data)
    if args.subject is not None:
        if args.subject not in ds.subjects:
            raise ConfigurationError(f"--subject {args.subject!r} is not a subject of "
                                     f"{args.data}; it holds {ds.subjects}")
        ds = ds.subset(np.flatnonzero(ds.subject_ids == args.subject))
    if args.print_config:
        _emit({"model": model.config.to_dict(), "n_segments": ds.n})
        return 0
    result = {"event": "eval", "n": ds.n, "params": param_count(model.config)}
    ev = None
    try:
        ev = evaluate_segments(model, ds, args.batch_size)
    except MetricUndefinedError as exc:
        result["warning"] = str(exc)
    if ev is not None:
        result.update(acc=ev["acc"], auc=ev["auc"], macro_f1=ev["macro_f1"])
    _emit(result)
    return 0


def _write_report(report, out: Path, name: str = "report"):
    out.mkdir(parents=True, exist_ok=True)
    report.save_json(out / f"{name}.json")
    report.save_csv(out / f"{name}.csv")


def cmd_loso(args) -> int:
    """`loso`, and `ablate`, whose --variant is the model's ablation."""
    run = _begin_run(args, {"report_json": "report.json", "report_csv": "report.csv"})
    if run is None:
        return 0
    ds, mc, tc, out = run
    report = run_loso(ds, mc, tc, parallel_folds=args.parallel_folds, out_dir=out,
                      log_fn=None if args.quiet else _emit)
    _write_report(report, out)
    _emit({"event": "loso_done", "summary": report.summary(),
           "wall_clock_s": report.wall_clock_s})
    return 0


def cmd_sweep(args) -> int:
    lengths = [_int_entry(entry, "--lengths", i, args.lengths)
               for i, entry in enumerate(args.lengths.split(","), 1)]
    run = _begin_run(args, {"table": "sweep.csv"}, lengths)
    if run is None:
        return 0
    ds, mc, tc, out = run
    reports = sweep_patch_length(ds, mc, tc, lengths, parallel_folds=args.parallel_folds,
                                 log_fn=None if args.quiet else _emit)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "sweep.csv", sweep_table(reports))
    for rep in reports:
        _write_report(rep, out, name=f"report_{rep.label.replace('=', '_')}")
    print(sweep_table(reports), end="")
    return 0


def cmd_gradcheck(args) -> int:
    worst = 0.0
    if args.mode in ("ops", "both"):
        for name, err in op_grad_checks(trials=args.trials, eps=args.eps).items():
            _emit({"check": name, "max_rel_err": err, "ok": bool(err < THRESHOLD)})
            worst = max(worst, err)
    if args.mode in ("full", "both"):
        err = full_model_grad_check(eps=args.eps)
        _emit({"check": "full_model", "max_rel_err": err, "ok": bool(err < THRESHOLD)})
        worst = max(worst, err)
    _emit({"event": "gradcheck_done", "worst": worst, "ok": bool(worst < THRESHOLD)})
    return 0 if worst < THRESHOLD else 1


def cmd_rerun(args) -> int:
    where = f"manifest {args.manifest}"
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{where} is not JSON: {exc}") from None
    require_keys(manifest, {"argv": list}, where)
    check_entries(manifest, "argv", lambda v: isinstance(v, str), "a string", where)
    argv = list(manifest["argv"])
    if argv[:1] == ["rerun"]:
        raise DataFormatError(f"{where}: argv replays another manifest, expected a run")
    # parse once as recorded, with argparse's usage text captured, so an argv
    # it rejects ends in a typed error; a parsed argv gives --out a value
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage), contextlib.redirect_stdout(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit:
        reason = (usage.getvalue().strip().splitlines() or ["it asks for help or the version"])[-1]
        raise DataFormatError(f"{where}: argv {argv} is not a run: {reason}") from None
    if args.out is not None:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = args.out
        else:
            argv += ["--out", args.out]
    return main(argv)


# -- parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchformer",
        description="Spatial-temporal EEG patch transformer: data, training and evaluation runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled segment file")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--channels", type=int, default=6)
    p.add_argument("--length", type=int, default=160)
    p.add_argument("--fs", type=float, default=40.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--freq", type=float, default=10.0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=0.2)
    p.add_argument("--effect-channels", type=str, default=None,
                   help="comma-separated channel indices carrying the class effect")
    _add_seed(p)
    _add_print_config(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="downsample and window a recording into segments")
    p.add_argument("--input", required=True, help="CSV recording or existing segment file")
    p.add_argument("--out", required=True)
    p.add_argument("--fs", type=float, default=1000.0, help="CSV sampling rate")
    p.add_argument("--target-fs", type=float, default=250.0)
    p.add_argument("--win", type=float, default=4.0, help="window length, seconds")
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--keep", type=float, default=20.0, help="seconds kept after task onset")
    p.add_argument("--subject", type=str, default="S01")
    p.add_argument("--label", type=int, default=1)
    p.add_argument("--onset", type=int, default=0)
    p.add_argument("--offset", type=int, default=None)
    _add_seed(p)
    _add_print_config(p)
    p.set_defaults(func=cmd_preprocess)

    def run_parser(name, help_text, one_fold=False, ablation=True):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--data", required=True, help="segment file")
        q.add_argument("--out", required=True)
        if one_fold:
            q.add_argument("--test-subject", required=True)
        else:
            q.add_argument("--parallel-folds", type=int, default=1)
        q.add_argument("--quiet", action="store_true")
        _add_model_flags(q, ablation)
        _add_train_flags(q)
        _add_seed(q)
        _add_print_config(q)
        return q

    run_parser("train", "train one leave-one-subject-out fold", one_fold=True
               ).set_defaults(func=cmd_train)
    run_parser("loso", "full leave-one-subject-out evaluation").set_defaults(func=cmd_loso)

    p = run_parser("ablate", "LOSO with one component disabled", ablation=False)
    # the variant is the model's ablation, so ablate is a loso of that model
    p.add_argument("--variant", dest="ablation", required=True,
                   choices=[a for a in ABLATIONS if a != "full"])
    p.set_defaults(func=cmd_loso)

    p = run_parser("sweep", "LOSO across temporal patch lengths")
    p.add_argument("--lengths", type=str, default="10,20,30,40,50")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a segment file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subject", type=str, default=None)
    p.add_argument("--batch-size", type=int, default=64)
    _add_print_config(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--mode", choices=("ops", "full", "both"), default="both")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="redirect artifacts to a new path")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except (PatchFormerError, ValueError, OSError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
