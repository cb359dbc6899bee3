"""End-to-end CLI runs in a temp directory."""

import json
import os
import platform

import numpy as np
import pytest

from patchformer import tensor
from patchformer.cli import THREAD_VARS, main
from patchformer.config import ABLATIONS, ModelConfig
from patchformer.segio import load_segments
from patchformer.tensor import HEAP_REUSE
from patchformer.train import TrainConfig

TOY_MODEL = ["--k", "4", "--lt", "4", "--lstep", "2", "--ltoken", "8",
             "--nhead", "2", "--layers", "1", "--dropout", "0.1",
             "--graphs", "0,1;2,3"]
TOY_TRAIN = ["--epochs", "1", "--batch-size", "8", "--seed", "3"]


def synth_args(path, **overrides):
    args = {"subjects": 2, "per-class": 6, "channels": 4, "length": 64,
            "fs": 16, "seed": 7, "amplitude": 2, "freq": 4}
    args.update(overrides)
    flat = ["synth", "--out", str(path)]
    for key, value in args.items():
        flat += [f"--{key}", str(value)]
    return flat


@pytest.fixture
def toy_seg(tmp_path):
    path = tmp_path / "toy.seg"
    assert main(synth_args(path)) == 0
    return path


class TestSynth:
    def test_counts_and_manifest(self, tmp_path):
        out = tmp_path / "d.seg"
        assert main(synth_args(out, subjects=6, **{"per-class": 40})) == 0
        assert load_segments(out).n == 480
        manifest = json.loads((tmp_path / "d.seg.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert "timestamp" in manifest and "tool_version" in manifest
        env = manifest["environment"]
        assert env["numpy"] == np.__version__ and env["cpus"] == os.cpu_count()
        assert env["python"] == platform.python_version()
        assert env["thread_env"].keys() == set(THREAD_VARS)
        assert env["heap_reuse"] is HEAP_REUSE
        assert env["pool_threads"] == tensor.pool_threads() >= 1
        assert env["blas_threads"] == tensor.blas_threads() in (1, None)  # pinned at import

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.seg", tmp_path / "b.seg"
        main(synth_args(a))
        main(synth_args(b))
        assert a.read_bytes() == b.read_bytes()

    def test_null_amplitude_flagged(self, tmp_path):
        out = tmp_path / "null.seg"
        main(synth_args(out, amplitude=0))
        assert load_segments(out).metadata["null_effect"] is True

    def test_rerun_reproduces(self, tmp_path):
        out = tmp_path / "a.seg"
        main(synth_args(out))
        other = tmp_path / "b.seg"
        assert main(["rerun", str(tmp_path / "a.seg.manifest.json"),
                     "--out", str(other)]) == 0
        assert out.read_bytes() == other.read_bytes()

    @pytest.mark.parametrize("manifest, extra", [
        ({"command": "synth"}, []), ([], []), ({"argv": ["synth", 3]}, []), ("self-rerun", []),
        ({"argv": []}, []), ({"argv": ["synth", "--out", "a.seg", "--bogus"]}, []),
        ({"argv": ["train", "--out"]}, ["--out", "elsewhere"]), ("not-json", []),
        ({"argv": ["loso", "--data", "a.seg", "--out", "run",
                   "--token-granularity", "patch_window"]}, []),
    ], ids=["no-argv", "array", "argv-entry-int", "self-rerun", "argv-empty", "unknown-flag",
            "trailing-out", "not-json", "removed-token-granularity"])
    def test_rerun_rejects_malformed_manifest(self, tmp_path, capsys, manifest, extra):
        path = tmp_path / "m.json"
        if manifest == "self-rerun":
            manifest = {"argv": ["rerun", str(path)]}
        path.write_text("{argv: [" if manifest == "not-json" else json.dumps(manifest))
        assert main(["rerun", str(path), *extra]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "DataFormatError"


    @pytest.mark.parametrize("overrides, named", [
        ({"subjects": 0}, "got 0, 6, 4, 64"),
        ({"channels": 6, "effect-channels": "0,9"}, "[0, 9] out of range for c=6"),
        ({"effect-channels": "0,x"}, "--effect-channels entry 2 ('x') of '0,x'"),
        ({"fs": 0}, "got 0.0"), ({"fs": -5}, "got -5.0"), ({"fs": "inf"}, "got inf"),
        ({"freq": "nan"}, "freq_hz must be finite, got nan"),
        ({"amplitude": "inf"}, "amplitude must be finite, got inf"),
        ({"jitter": "nan"}, "gain_jitter must be finite, got nan"),
        ({"noise-scale": "inf"}, "noise_scale must be finite, got inf"),
    ], ids=["no-subjects", "channel-out-of-range", "channel-not-integer", "fs-zero",
            "fs-negative", "fs-inf", "freq-nan", "amplitude-inf", "jitter-nan",
            "noise-scale-inf"])
    def test_unservable_request_rejected_before_manifest(self, tmp_path, capsys,
                                                         overrides, named):
        out = tmp_path / "s.seg"
        assert main(synth_args(out, **overrides)) == 1
        assert list(tmp_path.iterdir()) == []
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError" and named in err["message"]


class TestPreprocess:
    def test_csv_pipeline(self, tmp_path):
        csv_path = tmp_path / "rec.csv"
        rows = ["A,B"] + [f"{i},{i + 1}" for i in range(48)]
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "p.seg"
        code = main(["preprocess", "--input", str(csv_path), "--out", str(out),
                     "--fs", "8", "--target-fs", "4", "--win", "2", "--overlap",
                     "0.5", "--keep", "6", "--subject", "P1", "--label", "0"])
        assert code == 0
        ds = load_segments(out)
        # 48 samples at 8 Hz -> 24 at 4 Hz, keep 6 s = 24; windows of 8 step 4 -> 5
        assert ds.n == 5 and ds.l == 8 and ds.f_s == 4.0
        assert (ds.y == 0).all()

    def test_bad_magic_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.seg"
        bad.write_bytes(b"WRONG!!!" + b"\x00" * 64)
        code = main(["preprocess", "--input", str(bad), "--out", str(tmp_path / "o.seg")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataFormatError"
        assert "offset 0" in err["message"]
        assert not (tmp_path / "o.seg.manifest.json").exists()

    def test_segment_file_revalidated(self, toy_seg, tmp_path):
        out = tmp_path / "copy.seg"
        assert main(["preprocess", "--input", str(toy_seg), "--out", str(out)]) == 0
        assert load_segments(out).n == load_segments(toy_seg).n

    @pytest.mark.parametrize("flags, named", [
        (["--target-fs", "0"], "target sampling rate must be finite and positive, got 0.0"),
        (["--target-fs", "-250"], "got -250.0"),
        (["--target-fs", "300"], "1000.0 is not an integer multiple of 300.0"),
        (["--fs", "nan"], "sampling rate must be finite and positive, got nan"),
        (["--win", "0"], "window length must be finite and positive, got 0.0"),
        (["--win", "0.001"], "window of 0.001s at 250.0Hz"),
        (["--overlap", "1"], "overlap must be in [0, 1), got 1.0"),
        (["--keep", "nan"], "got nan"),
        (["--keep", "0"], "kept length of 0.0s (0 samples) is shorter than one window"),
        (["--fs", "8", "--target-fs", "4", "--win", "2", "--onset", "100"],
         "onset/offset (100, 48) out of range for 48 samples"),
        (["--fs", "8", "--target-fs", "4", "--win", "2", "--offset", "49"],
         "onset/offset (0, 49) out of range for 48 samples"),
        (["--fs", "8", "--target-fs", "4", "--win", "2", "--label", "2"],
         "task label must be 0 (low attention) or 1 (high attention), got 2"),
        (["--fs", "8", "--target-fs", "4", "--win", "2", "--onset", "36"],
         "recording S01: 6 usable samples after onset < window 8; no segments"),
    ], ids=["target-fs-zero", "target-fs-negative", "target-fs-not-a-divisor", "fs-nan",
            "win-zero", "win-below-one-sample", "overlap-one", "keep-nan", "keep-zero",
            "onset-past-the-end", "offset-past-the-end", "label-two", "shorter-than-a-window"])
    def test_unservable_request_rejected_before_manifest(self, tmp_path, capsys, flags, named):
        csv_path = tmp_path / "rec.csv"
        csv_path.write_text("A,B\n" + "".join(f"{i},{i + 1}\n" for i in range(48)))
        assert main(["preprocess", "--input", str(csv_path),
                     "--out", str(tmp_path / "p.seg"), *flags]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.csv"]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError" and named in err["message"]


class TestRuns:
    def test_loso_writes_reports(self, toy_seg, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["loso", "--data", str(toy_seg), "--out", str(out), "--quiet",
                     *TOY_MODEL, *TOY_TRAIN])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["rows"]) == 2
        assert (out / "report.csv").exists()
        assert (out / "manifest.json").exists()
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["S01.ckpt", "S02.ckpt"]
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(last)["event"] == "loso_done"

    def test_loso_reports_reproduce(self, toy_seg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["loso", "--data", str(toy_seg), "--out", str(out), "--quiet",
                         *TOY_MODEL, *TOY_TRAIN]) == 0
        assert (out_a / "report.json").read_text() == (out_b / "report.json").read_text()
        assert (out_a / "report.csv").read_text() == (out_b / "report.csv").read_text()

    def test_train_then_eval(self, toy_seg, tmp_path, capsys):
        out = tmp_path / "fold"
        assert main(["train", "--data", str(toy_seg), "--out", str(out),
                     "--test-subject", "S01", "--quiet", *TOY_MODEL, *TOY_TRAIN]) == 0
        test_line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert test_line["event"] == "test"
        assert (out / "checkpoint.ckpt").exists() and (out / "history.json").exists()

        assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--data", str(toy_seg), "--subject", "S01"]) == 0
        eval_line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert eval_line["acc"] == pytest.approx(test_line["acc"])

    def test_eval_of_an_unknown_subject_is_rejected(self, toy_seg, tmp_path, capsys):
        out = tmp_path / "fold"
        assert main(["train", "--data", str(toy_seg), "--out", str(out),
                     "--test-subject", "S01", "--quiet", *TOY_MODEL, *TOY_TRAIN]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--data", str(toy_seg), "--subject", "S99"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())
        assert err["error"] == "ConfigurationError"
        assert "S99" in err["message"] and str(toy_seg) in err["message"]

    def test_eval_batch_size_below_one_is_rejected(self, toy_seg, tmp_path, capsys):
        out = tmp_path / "fold"
        assert main(["train", "--data", str(toy_seg), "--out", str(out),
                     "--test-subject", "S01", "--quiet", *TOY_MODEL, *TOY_TRAIN]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--data", str(toy_seg), "--batch-size", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())
        assert err["error"] == "ConfigurationError" and "got 0" in err["message"]

    def test_train_epoch_logs_are_json(self, toy_seg, tmp_path, capsys):
        out = tmp_path / "fold"
        assert main(["train", "--data", str(toy_seg), "--out", str(out),
                     "--test-subject", "S01", *TOY_MODEL, *TOY_TRAIN]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        epochs = [l for l in lines if "train_loss" in l]
        assert len(epochs) == 1 and set(epochs[0]) >= {"epoch", "lr", "val_acc"}

    def test_ablate_and_sweep(self, toy_seg, tmp_path):
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(toy_seg), "--out", str(out),
                     "--variant", "no_overlap", "--quiet", *TOY_MODEL, *TOY_TRAIN]) == 0
        assert json.loads((out / "report.json").read_text())["label"] == "no_overlap"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ablate"
        assert manifest["artifacts"] == {"report_json": str(out / "report.json"),
                                         "report_csv": str(out / "report.csv")}
        assert (out / "report.csv").exists()

        out2 = tmp_path / "sw"
        assert main(["sweep", "--data", str(toy_seg), "--out", str(out2),
                     "--lengths", "2,4", "--quiet", *TOY_MODEL, *TOY_TRAIN]) == 0
        table = (out2 / "sweep.csv").read_text().strip().splitlines()
        assert len(table) == 3

    def test_invalid_train_config_rejected_before_manifest(self, toy_seg, tmp_path, capsys):
        out = tmp_path / "willfail"
        code = main(["loso", "--data", str(toy_seg), "--out", str(out), "--quiet",
                     *TOY_MODEL, "--epochs", "0"])
        assert code == 1
        assert not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError" and "epochs" in err["message"]

    @pytest.mark.parametrize("command", ["loso", "ablate", "sweep"])
    def test_parallel_folds_below_one_rejected_before_manifest(self, toy_seg, tmp_path,
                                                              capsys, command):
        out = tmp_path / command
        extra = {"ablate": ["--variant", "no_fem"], "sweep": ["--lengths", "4"]}.get(command, [])
        code = main([command, "--data", str(toy_seg), "--out", str(out), "--quiet",
                     *TOY_MODEL, *TOY_TRAIN, *extra, "--parallel-folds", "0"])
        assert code == 1
        assert not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError" and "--parallel-folds" in err["message"]

    @pytest.mark.parametrize("command, extra, named", [
        ("train", ["--test-subject", "S09"], "S09"),
        ("sweep", ["--lengths", "4,999"], "999"),
        ("sweep", ["--lengths", "0,4"], "0"),
        ("sweep", ["--lengths", "4,a"], "--lengths entry 2 ('a')"),
        ("loso", ["--graphs", "0,a;1"], "--graphs entry 2 of group 1 ('a') of '0,a;1'"),
    ], ids=["train-unknown-subject", "sweep-length-too-long", "sweep-length-zero",
            "sweep-length-not-integer", "graphs-not-integer"])
    def test_unrunnable_input_rejected_before_manifest(self, toy_seg, tmp_path, capsys,
                                                        command, extra, named):
        out = tmp_path / command
        code = main([command, "--data", str(toy_seg), "--out", str(out), "--quiet",
                     *TOY_MODEL, *TOY_TRAIN, *extra])
        assert code == 1
        assert not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError" and named in err["message"]

    @pytest.mark.parametrize("argv", [
        ["train", "--test-subject", "S01", "--parallel-folds", "2"],
        ["ablate", "--variant", "no_spm", "--ablation", "no_fem"],
    ], ids=["train-parallel-folds", "ablate-ablation"])
    def test_flags_a_command_would_ignore_are_not_offered(self, toy_seg, tmp_path, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--data", str(toy_seg), "--out", str(tmp_path / "x"), "--quiet"])
        assert info.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_ablate_config_names_the_variant(self, toy_seg, tmp_path, capsys):
        assert main(["ablate", "--data", str(toy_seg), "--out", str(tmp_path / "x"),
                     "--variant", "no_fem", "--print-config", *TOY_MODEL, *TOY_TRAIN]) == 0
        config = json.loads(capsys.readouterr().out.strip())
        assert config["model"]["ablation"] == "no_fem"

    @pytest.mark.parametrize("variant", [a for a in ABLATIONS if a != "full"])
    def test_ablate_resolves_the_config_loso_does(self, toy_seg, tmp_path, capsys, variant):
        flags = ["--data", str(toy_seg), "--out", str(tmp_path / "x"), "--print-config",
                 *TOY_MODEL, *TOY_TRAIN]
        assert main(["ablate", "--variant", variant, *flags]) == 0
        ablate_out = capsys.readouterr().out
        assert main(["loso", "--ablation", variant, *flags]) == 0
        assert capsys.readouterr().out == ablate_out
        assert not (tmp_path / "x").exists()

    def test_flag_defaults_are_the_config_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PATCHFORMER_SEED", raising=False)
        data = tmp_path / "long.seg"  # long enough for the default patch length
        assert main(synth_args(data, length=160)) == 0
        ds = load_segments(data)
        capsys.readouterr()
        assert main(["loso", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--print-config"]) == 0
        config = json.loads(capsys.readouterr().out.strip())
        assert config == {"model": ModelConfig(ds.c, ds.l, ds.f_s).to_dict(),
                          "train": TrainConfig(seed=0).to_dict(), "seed": 0}

    def test_train_writes_the_loso_fold_checkpoint(self, toy_seg, tmp_path):
        flags = ["--data", str(toy_seg), "--quiet", *TOY_MODEL, *TOY_TRAIN]
        assert main(["train", "--out", str(tmp_path / "one"), "--test-subject", "S01",
                     *flags]) == 0
        assert main(["loso", "--out", str(tmp_path / "all"), *flags]) == 0
        assert ((tmp_path / "one" / "checkpoint.ckpt").read_bytes()
                == (tmp_path / "all" / "checkpoints" / "S01.ckpt").read_bytes())
        history = json.loads((tmp_path / "one" / "history.json").read_text())
        report = json.loads((tmp_path / "all" / "report.json").read_text())
        assert history == report["histories"]["S01"]

    def test_print_config_runs_nothing(self, toy_seg, tmp_path, capsys):
        out = tmp_path / "nope"
        assert main(["loso", "--data", str(toy_seg), "--out", str(out),
                     "--print-config", *TOY_MODEL, *TOY_TRAIN]) == 0
        config = json.loads(capsys.readouterr().out.strip())
        assert config["model"]["c"] == 4 and config["train"]["epochs"] == 1
        assert not out.exists()

    def test_config_violation_reported_before_training(self, toy_seg, tmp_path, capsys):
        code = main(["loso", "--data", str(toy_seg), "--out", str(tmp_path / "x"),
                     "--quiet", "--k", "4", "--lt", "200", *TOY_TRAIN])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError"


class TestGradcheckCommand:
    def test_ops_mode(self, capsys):
        assert main(["gradcheck", "--mode", "ops", "--trials", "2"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert lines[-1]["event"] == "gradcheck_done" and lines[-1]["ok"] is True
        assert all(l.get("ok", True) for l in lines)

    @pytest.mark.parametrize("flags, named", [
        (["--trials", "0"], "got 0"), (["--trials", "-2"], "got -2"),
        (["--eps", "0"], "eps"), (["--eps", "nan"], "eps"),
    ], ids=["trials-zero", "trials-negative", "eps-zero", "eps-nan"])
    def test_a_check_that_would_check_nothing_is_rejected(self, capsys, flags, named):
        assert main(["gradcheck", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())
        assert err["error"] == "ConfigurationError" and named in err["message"]


class TestSeedEnvVar:
    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATCHFORMER_SEED", "99")
        out = tmp_path / "env.seg"
        args = [a for a in synth_args(out) if a != "7"]
        args = [a for a in args if a != "--seed"]
        assert main(args) == 0
        manifest = json.loads((tmp_path / "env.seg.manifest.json").read_text())
        assert manifest["seed"] == 99
