import argparse
import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmotion import cli, model, motiondata, tensor, training
from stmotion.errors import ConfigError

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

CONFIG = """\
# tiny architecture for fast tests
embed_dim = 8
n_heads = 2
n_layers = 1
ff_size = 8
window = 8
dropout = 0.0

batch_size = 2          # training settings share the same file
max_steps = 3
eval_every = 2
n_val_windows = 2
warmup = 10
"""


def config_with(lines: str) -> str:
    """CONFIG with `lines` (`key = value` each) in place of the lines that set the same keys:
    a config file sets each key once."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in CONFIG.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + [lines]) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "tiny.cfg").write_text(CONFIG)
    assert cli.main(["synth", "--frames", "400", "--fps", "60",
                     "--out", str(d / "data.stm1")]) == 0
    assert cli.main(["train", "--data", str(d / "data.stm1"),
                     "--config", str(d / "tiny.cfg"),
                     "--out-dir", str(d / "run")]) == 0
    return d


class TestSynth:
    def test_creates_loadable_motion(self, workdir):
        seq = motiondata.load_motion(workdir / "data.stm1")
        assert seq.n_frames == 400
        assert seq.frame_rate == 60.0
        assert seq.skeleton.n_joints == 9

    def test_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a.stm1", tmp_path / "b.stm1"
        for out in (a, b):
            assert cli.main(["synth", "--frames", "50", "--seed", "3",
                             "--noise-std", "0.02", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spec_and_skeleton_files(self, tmp_path):
        sk = motiondata.default_skeleton()
        skel = tmp_path / "sk.json"
        skel.write_text(json.dumps({
            "joint_names": sk.joint_names,
            "parent": sk.parent.tolist(),
            "offset": sk.offset.tolist(),
            "mirror_pair": sk.mirror_pair.tolist(),
        }))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"joints": [
            {"joint": "head", "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 1.0},
        ]}))
        out = tmp_path / "m.stm1"
        assert cli.main(["synth", "--frames", "30", "--skeleton", str(skel),
                         "--spec", str(spec), "--out", str(out)]) == 0
        seq = motiondata.load_motion(out)
        head = sk.joint_names.index("head")
        assert not np.allclose(seq.rotations[:, head], np.eye(3), atol=1e-3)
        assert np.abs(seq.rotations[:, 0] - np.eye(3)).max() < 1e-5

    @pytest.mark.parametrize("spec, named", [
        ({}, "spec has missing keys ['joints']"),
        ({"joints": [{"joint": 1, "amplitude": 0.3, "frequency": 1.0}]},
         "joints entry 0 has missing keys ['axis']"),
        ([1], "spec must be a JSON object"),
        ({"joints": [{"joint": 99, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 1.0}]},
         "joint 99"),
        ({"joints": [{"joint": 1, "axis": [1], "amplitude": 0.3, "frequency": 1.0}]},
         "axis must be a 3-vector"),
        ({"joints": [], "noise_std": -1}, "noise_std -1 must be >= 0 and < pi"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 4, "frequency": 1.0}]},
         "amplitude must be < pi, got 4"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 1.0,
                      "phase": math.nan}]}, "phase nan is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 1.0,
                      "phase": math.inf}]}, "phase inf is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [0, math.nan, 1], "amplitude": 0.3, "frequency": 1.0}]},
         "axis nan is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": -math.inf}]},
         "frequency -inf is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [1e308, 1e308, 0], "amplitude": 0.3,
                      "frequency": 1.0}]},
         "axis must be nonzero with a finite norm, got [1e+308, 1e+308, 0.0]"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 0], "amplitude": 0.3, "frequency": 1.0}]},
         "axis must be nonzero with a finite norm, got [0.0, 0.0, 0.0]"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 1.0,
                      "phse": 1.0}]}, "joints entry 0 has unknown keys ['phse']"),
        ({"joints": [], "noise_sd": 0.5}, "spec has unknown keys ['noise_sd']"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": True, "frequency": 1.0}]},
         "amplitude True is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": "0.5"}]},
         "frequency '0.5' is not a finite number"),
        ({"joints": [], "noise_std": False}, "noise_std False is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [0, "1", 1], "amplitude": 0.3, "frequency": 1.0}]},
         "axis '1' is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 10 ** 400}]},
         "frequency 100000000000000000000... is not a finite number"),
        ({"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 10 ** 400, "frequency": 1.0}]},
         "amplitude 100000000000000000000... is not a finite number"),
        ({"joints": [], "noise_std": 1e308}, "noise_std 1e+308 must be >= 0 and < pi"),
        ({"joints": 5}, "joints 5 is not a list"),
    ], ids=["empty", "no_axis", "list", "joint_99", "short_axis", "negative_noise",
            "large_amplitude", "nan_phase", "inf_phase", "nan_axis", "minus_inf_frequency",
            "overflowing_axis", "zero_axis", "misspelled_key", "misspelled_top_key",
            "bool_amplitude", "string_frequency", "bool_noise_std", "string_axis",
            "401_digit_frequency", "401_digit_amplitude", "overflowing_noise",
            "joints_not_a_list"])
    def test_bad_spec_file_is_usage_error(self, tmp_path, capsys, spec, named):
        path, out = tmp_path / "spec.json", tmp_path / "m.stm1"
        path.write_text(json.dumps(spec))
        assert cli.main(["synth", "--frames", "10", "--spec", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"spec file {path}: {named}" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_skeleton_offset_is_usage_error(self, tmp_path, capsys, value):
        sk = motiondata.default_skeleton()
        offset = sk.offset.tolist()
        offset[2][0] = value
        path, out = tmp_path / "skel.json", tmp_path / "m.stm1"
        path.write_text(json.dumps({"joint_names": sk.joint_names, "parent": sk.parent.tolist(),
                                    "offset": offset, "mirror_pair": sk.mirror_pair.tolist()}))
        assert cli.main(["synth", "--frames", "10", "--skeleton", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: skeleton file {path}: offset {value!r} is not a finite number"]
        assert not out.exists()

    @pytest.mark.parametrize("field, value, named", [
        ("parent", [-1, 0, 1, 1, 3, 1, 5, 0, -7],
         "parent -7 of joint 8 must be -1 or an earlier joint"),
        ("parent", [-1, 0, 1, 1, 3, 1, 5, 0, 8],
         "parent 8 of joint 8 must be -1 or an earlier joint"),
        ("joint_names", ["root", "spine", "head", "l_collar", "l_arm", "r_collar", "r_arm",
                         "leg", "leg"], "joint names ['leg'] are not unique"),
        ("parent", [-1, 0.9, 1.5, 1, 3, 1, 5, 0, 0], "parent 0.9 is not a 64-bit integer"),
        ("parent", [-1, False, 1, 1, 3, 1, 5, 0, 0], "parent False is not a 64-bit integer"),
        ("mirror_pair", [0, 1, 2, 5, 6, 3, 4, 8, 7.0], "mirror_pair 7.0 is not a 64-bit integer"),
        ("offset", [[0, 0, 0], ["1e2", 200, 0]] + [[0, 100, 0]] * 7,
         "offset '1e2' is not a finite number"),
        ("offset", [[0, 0, 0], [0, True, 0]] + [[0, 100, 0]] * 7,
         "offset True is not a finite number"),
        ("parent", [-1, 0, 1, 1, 3, 1, 5, 0, 10 ** 400],
         "parent 100000000000000000000... is not a 64-bit integer"),
        ("joint_names", "abcdefghi", "joint_names 'abcdefghi' is not a list of strings"),
        ("joint_names", list(range(9)),
         "joint_names [0, 1, 2, 3, 4, 5, 6,... is not a list of strings"),
        ("joint_names", 5, "joint_names 5 is not a list of strings"),
        ("parent", [-1, 0], "parent has shape (2,); the 9 joint_names need (9,)"),
    ], ids=["negative_parent", "own_parent", "repeated_name", "float_parent", "bool_parent",
            "float_mirror", "string_offset", "bool_offset", "401_digit_parent",
            "string_names", "integer_names", "int_for_names", "short_parent"])
    def test_bad_skeleton_file_is_usage_error(self, tmp_path, capsys, field, value, named):
        sk = motiondata.default_skeleton()
        fields = {"joint_names": sk.joint_names, "parent": sk.parent.tolist(),
                  "offset": sk.offset.tolist(), "mirror_pair": sk.mirror_pair.tolist()}
        path, out = tmp_path / "skel.json", tmp_path / "m.stm1"
        path.write_text(json.dumps({**fields, field: value}))
        assert cli.main(["synth", "--frames", "10", "--skeleton", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: skeleton file {path}: {named}"]
        assert not out.exists()

    # the rules of the spec file's noise_std and of a motion file's frame_rate
    # (motiondata.check_noise_std, check_frame_rate), naming the flag
    @pytest.mark.parametrize("flag, value, named", [
        pytest.param("--noise-std", "-1", "-1.0 must be >= 0 and < pi", id="--noise-std--1"),
        pytest.param("--noise-std", "nan", "nan is not a finite number", id="--noise-std-nan"),
        pytest.param("--noise-std", "inf", "inf is not a finite number", id="--noise-std-inf"),
        pytest.param("--noise-std", "4", "4.0 must be >= 0 and < pi", id="--noise-std-4"),
        pytest.param("--fps", "nan", "nan is not a finite number", id="--fps-nan"),
        pytest.param("--fps", "inf", "inf is not a finite number", id="--fps-inf"),
        pytest.param("--fps", "0", "0.0 is not a positive number", id="--fps-0"),
        pytest.param("--fps", "-60", "-60.0 is not a positive number", id="--fps--60"),
    ])
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "m.stm1"
        assert cli.main(["synth", "--frames", "10", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} {named}"]
        assert not out.exists()

    def test_frames_over_the_memory_budget_is_usage_error(self, tmp_path, capsys,
                                                          monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("the bound must hold before synthesis allocates")

        monkeypatch.setattr(motiondata, "synth_motion", allocate)
        bound = (cli.DEFAULT_MEMORY_BUDGET_MIB * 1024 ** 2
                 // motiondata.synth_bytes_per_frame(motiondata.default_skeleton().n_joints))
        assert cli.main(["synth", "--frames", str(bound + 1),
                         "--out", str(tmp_path / "m.stm1")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"--frames {bound + 1}" in err[0], err

    @pytest.mark.parametrize("with_spec", [False, True], ids=["default_spec", "spec_file"])
    def test_aliasing_names_the_rate_and_the_spec_file(self, tmp_path, capsys, with_spec):
        spec, out = tmp_path / "spec.json", tmp_path / "m.stm1"
        spec.write_text(json.dumps({"joints": [
            {"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 2.0}]}))
        flags = ["--fps", "3", "--spec", str(spec)] if with_spec else ["--fps", "1"]
        assert cli.main(["synth", "--frames", "10", *flags, "--out", str(out)]) == 2
        named = (f"--fps 3 with --spec {spec}: frequency 2 Hz aliases at 3 fps" if with_spec
                 else "--fps 1: frequency 0.5 Hz aliases at 1 fps")
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not out.exists()

    def test_noise_flag_overrides_the_spec_file(self, tmp_path):
        joints = [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 1.0}]
        outs = {}
        for name, noise, flags in [("file0", 0.0, []),
                                   ("file0_flag", 0.0, ["--noise-std", "0.1"]),
                                   ("file1", 0.1, []),
                                   ("file1_flag0", 0.1, ["--noise-std", "0"])]:
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps({"joints": joints, "noise_std": noise}))
            outs[name] = tmp_path / f"{name}.stm1"
            assert cli.main(["synth", "--frames", "30", "--spec", str(spec), *flags,
                             "--out", str(outs[name])]) == 0
        read = {k: v.read_bytes() for k, v in outs.items()}
        assert read["file0_flag"] == read["file1"]   # the flag's noise, the same seed
        assert read["file1_flag0"] == read["file0"]  # --noise-std 0 silences the file
        assert read["file0"] != read["file1"]

    def test_bad_frames_is_usage_error(self, tmp_path):
        assert cli.main(["synth", "--frames", "0",
                         "--out", str(tmp_path / "x.stm1")]) == 2

    def test_missing_required_flag(self):
        assert cli.main(["synth", "--frames", "10"]) == 2


class TestTrain:
    def test_outputs_exist(self, workdir):
        run = workdir / "run"
        assert (run / "best.stt1").exists()
        assert (run / "final.stt1").exists()
        lines = (run / "history.csv").read_text().strip().split("\n")
        assert lines[0] == "step,loss,lr,val_euler,val_geodesic,val_positional"
        assert len(lines) == 1 + 3

    def test_checkpoint_loads(self, workdir):
        cfg, params = model.load_checkpoint(workdir / "run" / "best.stt1")
        assert cfg.embed_dim == 8
        assert cfg.n_joints == 9
        assert "l0.t.wq" in params

    def test_deterministic(self, workdir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            d = tmp_path / name
            assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                             "--config", str(workdir / "tiny.cfg"),
                             "--out-dir", str(d)]) == 0
            outs.append(d)
        assert (outs[0] / "best.stt1").read_bytes() == (outs[1] / "best.stt1").read_bytes()
        assert (outs[0] / "history.csv").read_text() == (outs[1] / "history.csv").read_text()

    def test_flag_overrides_config(self, workdir, tmp_path):
        d = tmp_path / "van"
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(workdir / "tiny.cfg"),
                         "--variant", "vanilla_1d", "--steps", "2",
                         "--out-dir", str(d)]) == 0
        cfg, params = model.load_checkpoint(d / "best.stt1")
        assert cfg.variant == "vanilla_1d"
        assert "l0.a.wq" in params
        assert len((d / "history.csv").read_text().strip().split("\n")) == 3

    def test_tau_and_sharing_flags_reach_the_checkpoint(self, workdir, tmp_path):
        d = tmp_path / "ablation"
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(workdir / "tiny.cfg"), "--steps", "2",
                         "--tau", "sum_normalize", "--sharing", "all_separate",
                         "--out-dir", str(d)]) == 0
        for name in ("best.stt1", "final.stt1"):
            header = json.loads((d / name).read_bytes().split(b"\n", 1)[0])
            assert (header["tau_mode"], header["spatial_sharing"]) == (
                "sum_normalize", "all_separate")

    def test_numeric_failure_keeps_best_and_history(self, workdir, tmp_path, capsys,
                                                    monkeypatch):
        # the validation rollout's seeds turn NaN (a motion file cannot hold
        # one): step 1 trains, the validation at step 2 fails
        rollout_batch = training.rollout_batch

        def nan_seeds(params, cfg, seeds, steps, maps_out=None):
            return rollout_batch(params, cfg, np.full_like(seeds, np.nan), steps, maps_out)
        monkeypatch.setattr(training, "rollout_batch", nan_seeds)
        d = tmp_path / "run"
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(workdir / "tiny.cfg"), "--out-dir", str(d)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "non-finite" in err[0], err
        assert sorted(f.name for f in d.iterdir()) == ["best.stt1", "history.csv"]
        cfg, _ = model.load_checkpoint(d / "best.stt1")
        assert cfg.embed_dim == 8
        assert len((d / "history.csv").read_text().strip().split("\n")) == 1 + 1

    def test_degenerate_validation_keeps_best_and_history(self, workdir, tmp_path, capsys,
                                                          monkeypatch):
        # identity data and out.b = -I predict the zero matrix; at this warmup
        # the learning rate (~1e-10) moves no float32 weight near 1, so the
        # validation rollout at step 2 reaches a rank-deficient frame
        seq = motiondata.load_motion(workdir / "data.stm1")
        data = tmp_path / "still.stm1"
        motiondata.save_motion(data, motiondata.MotionSequence(
            seq.skeleton, np.broadcast_to(np.eye(3), seq.rotations.shape), seq.frame_rate))
        init_params = model.init_params

        def minus_identity_out_bias(cfg, rng):
            params = init_params(cfg, rng)
            params["out.b"].data[...] = -np.eye(3, dtype=np.float32).reshape(-1)
            return params
        monkeypatch.setattr(model, "init_params", minus_identity_out_bias)
        d = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--config", str(workdir / "tiny.cfg"),
                         "--warmup", "1000000", "--out-dir", str(d)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "rank-deficient" in err[0], err
        assert sorted(f.name for f in d.iterdir()) == ["best.stt1", "history.csv"]
        assert len((d / "history.csv").read_text().strip().split("\n")) == 1 + 1

    @pytest.mark.parametrize("line, named", [
        ("embed_dim = abc", "embed_dim 'abc' is not a 64-bit integer"),
        ("dropout = high", "dropout 'high' is not a finite number"),
        ("embed_dim = 16.0", "embed_dim 16.0 is not a 64-bit integer"),
        ("n_layers = 1.5", "n_layers 1.5 is not a 64-bit integer"),
        ("batch_size = 4.5", "batch_size 4.5 is not a 64-bit integer"),
        ("seed = x", "seed 'x' is not a 64-bit integer"),
        ("eval_every = 0", "eval_every 0 must be >= 1"),
        ("embed_dim = 0", "embed_dim 0 must be >= 1"),
        ("n_val_windows = 0", "n_val_windows 0 must be >= 1"),
        ("patience = 0", "patience 0 must be >= 1"),
        ("val_horizon_ms = inf", "val_horizon_ms inf"),
        ("embed_dim = 5\nn_heads = 1", "embed_dim 5 must be even"),
        ("mirror_prob = 1.5", "mirror_prob 1.5 must be a probability"),
        ("joint_dim = 6", "has unknown keys ['joint_dim']"),
        ("max_grad_norm = 2.0", "has unknown keys ['max_grad_norm']"),
        ("seed = 1_0", "seed '1_0' is not a 64-bit integer"),
        ("max_steps = \uff15", "max_steps '\uff15' is not a 64-bit integer"),
        ("embed_dim = 1" + "0" * 400, "embed_dim 100000000000000000000... is not a 64-bit integer"),
    ], ids=["embed_dim_abc", "dropout_high", "embed_dim_float", "n_layers_float",
            "batch_size_float", "seed_x", "eval_every_0", "embed_dim_0", "n_val_windows_0",
            "patience_0", "val_horizon_inf", "embed_dim_odd", "mirror_prob_above_one",
            "joint_dim", "max_grad_norm", "seed_digit_separator", "max_steps_fullwidth_digit",
            "embed_dim_401_digits"])
    def test_bad_config_value_is_usage_error(self, workdir, tmp_path, capsys, line, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with(line), encoding="utf-8")
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"config file {bad}" in err[0] and named in err[0], err
        assert not (tmp_path / "x").exists()

    def test_validation_horizon_under_a_frame_is_usage_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG + "val_horizon_ms = 5\n")  # 0.3 frames at 60 fps
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "val_horizon_ms 5 spans 0.3 frames" in err[0], err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("frames, named", [
        (60, "its validation split has 6 frames, fewer than one window of 32"),
        (9, "its training split has 8 frames, fewer than one window of 9"),
    ], ids=["validation", "training"])
    def test_short_split_is_usage_error_before_out_dir(self, tmp_path, capsys, frames, named):
        data, cfg = tmp_path / "data.stm1", tmp_path / "tiny.cfg"
        assert cli.main(["synth", "--frames", str(frames), "--out", str(data)]) == 0
        cfg.write_text(CONFIG)
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--config", str(cfg),
                         "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"--data {data}: {named}" in err[0], err
        assert not (tmp_path / "x").exists()

    def test_unwritable_out_dir_fails_before_training(self, workdir, tmp_path, capsys,
                                                      monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("--out-dir must be checked before the first step")

        monkeypatch.setattr(training, "train", run)
        taken = tmp_path / "a_file"
        taken.write_text("")
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(workdir / "tiny.cfg"),
                         "--out-dir", str(taken)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "a_file" in err[0], err

    @pytest.mark.parametrize("flag, named", [
        ("--steps", "argument --steps: must be an integer >= 1, got '0'"),
        ("--batch-size", "argument --batch-size: must be an integer >= 1, got '0'"),
    ], ids=["steps", "batch_size"])
    def test_zero_count_flag_is_usage_error(self, workdir, tmp_path, capsys, flag, named):
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(workdir / "tiny.cfg"), flag, "0",
                         "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err

    def test_config_joint_count_must_match_the_data(self, workdir, tmp_path, capsys,
                                                    monkeypatch):
        def budget(*args):
            raise AssertionError("the joint count must be checked before the budget")

        monkeypatch.setattr(cli, "_check_budget", budget)
        data, bad = workdir / "data.stm1", tmp_path / "five.cfg"
        bad.write_text(CONFIG + "n_joints = 5\n")
        assert cli.main(["train", "--data", str(data), "--config", str(bad),
                         "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --config {bad} expects 5 joints, --data {data} has 9"]
        assert list(tmp_path.iterdir()) == [bad]

    def test_config_joint_count_matching_the_data_trains(self, workdir, tmp_path):
        cfg = tmp_path / "nine.cfg"
        cfg.write_text(CONFIG + "n_joints = 9\n")
        assert cli.main(["train", "--data", str(workdir / "data.stm1"), "--config", str(cfg),
                         "--out-dir", str(tmp_path / "x")]) == 0
        for name in ("best.stt1", "final.stt1", "history.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (workdir / "run" / name).read_bytes()

    def test_unknown_config_key(self, workdir, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG + "banana = 7\n")
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(bad),
                         "--out-dir", str(tmp_path / "x")]) == 2

    def test_repeated_config_key_is_usage_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG + "max_steps = 7\n")
        line = CONFIG.splitlines().index("max_steps = 3") + 1
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bad}:{len(CONFIG.splitlines()) + 1}: key 'max_steps' "
                       f"repeats line {line}"]
        assert not (tmp_path / "x").exists()

    def test_non_utf8_config_names_the_file(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff = 1\n")
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config file {bad}: 'utf-8' codec"), err
        assert not (tmp_path / "x").exists()

    def test_malformed_config_line(self, workdir, tmp_path):
        bad = tmp_path / "bad2.cfg"
        bad.write_text("embed_dim 8\n")
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(bad),
                         "--out-dir", str(tmp_path / "x")]) == 2

    def test_memory_budget_refusal(self, workdir, tmp_path):
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(workdir / "tiny.cfg"),
                         "--memory-budget", "0",
                         "--out-dir", str(tmp_path / "x")]) == 2

    def test_missing_data_file(self, workdir, tmp_path):
        assert cli.main(["train", "--data", str(tmp_path / "nope.stm1"),
                         "--out-dir", str(tmp_path / "x")]) == 2


class TestEval:
    def test_writes_model_and_baseline_reports(self, workdir, tmp_path):
        out = tmp_path / "metrics.csv"
        assert cli.main(["eval", "--data", str(workdir / "data.stm1"),
                         "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--horizons", "100,400", "--n-windows", "2",
                         "--out", str(out)]) == 0
        for path in (out, tmp_path / "metrics_zero_velocity.csv"):
            lines = path.read_text().strip().split("\n")
            assert lines[0] == "horizon_ms,euler,geodesic,positional_mm,pck_auc"
            assert len(lines) == 3

    def test_failed_baseline_write_leaves_no_report(self, workdir, tmp_path, capsys):
        (tmp_path / "m_zero_velocity.csv").mkdir()
        assert cli.main(["eval", "--data", str(workdir / "data.stm1"),
                         "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--horizons", "100", "--n-windows", "2",
                         "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "m_zero_velocity.csv" in err[0], err
        assert [f.name for f in tmp_path.iterdir()] == ["m_zero_velocity.csv"]

    def test_bad_checkpoint_path(self, workdir, tmp_path):
        assert cli.main(["eval", "--data", str(workdir / "data.stm1"),
                         "--checkpoint", str(tmp_path / "nope.stt1"),
                         "--out", str(tmp_path / "m.csv")]) == 2

    def test_zero_windows_is_usage_error(self, workdir, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice"
            assert cli.main(["eval", "--data", str(workdir / "data.stm1"),
                             "--checkpoint", str(workdir / "run" / "best.stt1"),
                             "--n-windows", "0", "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--n-windows" in err[0]

    def test_data_shorter_than_window_and_horizon_names_both(self, workdir, tmp_path, capsys):
        short = tmp_path / "short.stm1"
        assert cli.main(["synth", "--frames", "20", "--out", str(short)]) == 0
        capsys.readouterr()
        out = tmp_path / "m.csv"
        assert cli.main(["eval", "--data", str(short),
                         "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        # window 8 and the default horizons' longest, 400 ms at 60 fps = 24 frames
        assert len(err) == 1 and f"--data {short}" in err[0] and "20 frames" in err[0], err
        assert "window of 32" in err[0] and f"--horizons {cli.DEFAULT_HORIZONS_MS}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_checkpoint_header_with_a_wrong_type(self, workdir, tmp_path, capsys, command):
        header, tensors = (workdir / "run" / "best.stt1").read_bytes().split(b"\n", 1)
        values = json.loads(header)
        values["n_layers"] = 1.5
        ckpt = tmp_path / "float_layers.stt1"
        ckpt.write_bytes(json.dumps(values).encode() + b"\n" + tensors)
        data = str(workdir / "data.stm1")
        args = (["--data", data] if command == "eval"
                else ["--seed-file", data, "--seconds", "0.05"])
        assert cli.main([command, "--checkpoint", str(ckpt), *args,
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"checkpoint {ckpt}" in err[0] and "n_layers 1.5" in err[0]

    # "1" and "100,8" round to zero frames at 60 fps; the report holds one row
    # per horizon, so a repeated one is refused
    @pytest.mark.parametrize("horizons", ["0", "-100", "inf", "nan", "100,0", "1", "100,8",
                                          "100,100", "100,400,100.0", "1e300"])
    def test_bad_horizons_are_usage_errors(self, workdir, tmp_path, capsys, horizons):
        out = tmp_path / "m.csv"
        assert cli.main(["eval", "--data", str(workdir / "data.stm1"),
                         "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--horizons", horizons, "--n-windows", "2",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--horizons" in err[0] and len(err[0]) <= 300, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_checkpoint_missing_tensor_is_usage_error(self, workdir, tmp_path, capsys,
                                                      command):
        cfg, params = model.load_checkpoint(workdir / "run" / "best.stt1")
        del params["l0.ln.g"]
        ckpt = tmp_path / "broken.stt1"
        model.save_checkpoint(ckpt, cfg, params)
        data = str(workdir / "data.stm1")
        args = (["--data", data] if command == "eval"
                else ["--seed-file", data, "--seconds", "0.05"])
        assert cli.main([command, "--checkpoint", str(ckpt), *args,
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "tensor set has missing keys ['l0.ln.g']" in err[0]


class TestRollout:
    def test_writes_prediction_motion(self, workdir, tmp_path):
        seed_file = tmp_path / "seed.stm1"
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:8], seq.frame_rate))
        out = tmp_path / "pred.stm1"
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(seed_file), "--seconds", "0.5",
                         "--out", str(out)]) == 0
        pred = motiondata.load_motion(out)
        assert pred.n_frames == 30  # 0.5 s at 60 fps
        assert pred.skeleton == seq.skeleton

    def test_attention_dump(self, workdir, tmp_path):
        seed_file = tmp_path / "seed.stm1"
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:8], seq.frame_rate))
        att = tmp_path / "att.csv"
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(seed_file), "--seconds", "0.05",
                         "--out", str(tmp_path / "p.stm1"),
                         "--dump-attention", str(att)]) == 0
        lines = att.read_text().strip().split("\n")
        assert lines[0] == "step,layer,head,kind,row,col,weight"
        steps = {int(line.split(",")[0]) for line in lines[1:]}
        assert steps == {0, 1, 2}  # 0.05 s at 60 fps

    @pytest.mark.parametrize("variant, digest", [
        ("st", "75c7529f3041809a1954885a110103acb4f0bec6ef1351c5a3dbff72f532a27b"),
        ("vanilla_1d", "bc1272a1d9a23a1e1ff079774ab81fd5d4a3dcc16a8082eff8f435c9646b5b16"),
        ("full_2d", "47aebb475c3e3a6c6b2ef27fc56eded263ed0c034572bf05ecf2ff055b62b1ec")])
    def test_attention_dump_is_unchanged(self, workdir, tmp_path, variant, digest):
        # the maps are read-outs: a fixed checkpoint's CSV keeps its digest,
        # recorded when every full forward computed them (x86-64 with
        # numpy 2.4's bundled OpenBLAS)
        cfg = model.ModelConfig(embed_dim=8, n_heads=2, n_layers=2, ff_size=16, window=8,
                                dropout=0.0, variant=variant)
        rng = np.random.default_rng(70)
        params = model.init_params(cfg, rng)
        params["out.w"].data[...] = 0.05 * rng.standard_normal(
            params["out.w"].data.shape).astype(np.float32)
        model.save_checkpoint(tmp_path / "c.stt1", cfg, params)
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(tmp_path / "seed.stm1", motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:8], seq.frame_rate))
        att = tmp_path / "att.csv"
        assert cli.main(["rollout", "--checkpoint", str(tmp_path / "c.stt1"),
                         "--seed-file", str(tmp_path / "seed.stm1"), "--seconds", "0.05",
                         "--out", str(tmp_path / "p.stm1"), "--dump-attention", str(att)]) == 0
        assert hashlib.sha256(att.read_bytes()).hexdigest() == digest

    def test_out_and_dump_attention_must_differ(self, workdir, tmp_path, capsys, monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("the paths must be compared before any file is read")

        monkeypatch.setattr(model, "load_checkpoint", read)
        out = tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(workdir / "data.stm1"), "--seconds", "0.1",
                         "--out", str(out),
                         "--dump-attention", os.path.join(tmp_path, ".", "p.stm1")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--dump-attention" in err[0] and f"--out {out}" in err[0], err
        assert list(tmp_path.iterdir()) == []

    def test_failed_motion_write_leaves_no_attention_csv(self, workdir, tmp_path, capsys):
        seed_file = tmp_path / "seed.stm1"
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:8], seq.frame_rate))
        out = tmp_path / "a_directory"
        out.mkdir()
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(seed_file), "--seconds", "0.05", "--out", str(out),
                         "--dump-attention", str(tmp_path / "att.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "a_directory" in err[0], err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a_directory", "seed.stm1"]

    @pytest.mark.parametrize("seconds", ["0", "-1", "0.001"])
    def test_no_frames_is_usage_error(self, workdir, tmp_path, capsys, seconds):
        seed_file = tmp_path / "seed.stm1"
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:8], seq.frame_rate))
        out = tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(seed_file), "--seconds", seconds,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--seconds" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("seconds", ["inf", "nan"])
    def test_non_finite_seconds_is_usage_error(self, workdir, tmp_path, capsys, seconds):
        out = tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(workdir / "data.stm1"), "--seconds", seconds,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--seconds" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("seconds, named", [
        ("1e12", "MiB budget"), ("1e308", "inf frames"), ("1e300", "is not a 64-bit integer")],
        ids=["1e12", "1e308", "1e300"])
    def test_output_too_large_is_usage_error(self, workdir, tmp_path, capsys,
                                             seconds, named):
        seed_file = tmp_path / "seed.stm1"
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:8], seq.frame_rate))
        out = tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(seed_file), "--seconds", seconds,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--seconds" in err[0] and named in err[0], err
        assert not out.exists()

    def test_seed_longer_than_window(self, workdir, tmp_path, capsys):
        seed_file = tmp_path / "long.stm1"
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:50], seq.frame_rate))
        ckpt, out = workdir / "run" / "best.stt1", tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(ckpt),
                         "--seed-file", str(seed_file), "--seconds", "0.1",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"--seed-file {seed_file} has 50 frames" in err[0], err
        assert f"8-frame window of --checkpoint {ckpt}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("variant, window, seed_frames, seconds, named", [
        ("full_2d", 400, 8, "0.05", "--checkpoint"),
    ], ids=["forward_workspace"])
    def test_budget_counts_what_the_rollout_holds(self, workdir, tmp_path, capsys, monkeypatch,
                                                  variant, window, seed_frames, seconds, named):
        # full_2d at W=400 needs a ~3.3 GB forward workspace; the frames alone
        # are < 2 MiB
        def roll(*args, **kwargs):
            raise AssertionError("the budget must hold before the rollout starts")

        monkeypatch.setattr(model, "rollout", roll)
        cfg = model.ModelConfig(embed_dim=16, n_layers=8, n_heads=8, ff_size=16,
                                window=window, dropout=0.0, variant=variant)
        ckpt, seed_file = tmp_path / "big.stt1", tmp_path / "seed.stm1"
        model.save_checkpoint(ckpt, cfg, model.init_params(cfg, np.random.default_rng(0)))
        seq = motiondata.load_motion(workdir / "data.stm1")
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:seed_frames], seq.frame_rate))
        out = tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(ckpt), "--seed-file", str(seed_file),
                         "--seconds", seconds, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0] and "MiB budget" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["unknown_key", "cut_in_record_header",
                                        "zero_beside_huge_dims", "repeated_name"])
    def test_damaged_checkpoint_is_usage_error(self, workdir, tmp_path, capsys, damage):
        blob = (workdir / "run" / "best.stt1").read_bytes()
        header, tensors = blob.split(b"\n", 1)
        if damage == "unknown_key":
            values = json.loads(header)
            values["n_layer"] = 1
            blob = json.dumps(values).encode() + b"\n" + tensors
            named = "unknown keys ['n_layer']"
        elif damage == "cut_in_record_header":  # inside the first record's name length
            blob = blob[:len(header) + 1 + 4 + 2]
            named = "tensor record 0 name length"
        elif damage == "zero_beside_huge_dims":
            blob += struct.pack("<I1sI3I", 1, b"z", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1)
            named = "tensor 'z': dims [0, 4294967295, 4294967295] are too large"
        else:  # a second record, a scalar, named as the first
            name = tensors[8:8 + struct.unpack("<I", tensors[4:8])[0]]
            blob += struct.pack(f"<I{len(name)}sIf", len(name), name, 0, 0.0)
            named = f"tensor {name.decode()!r} repeats"
        ckpt = tmp_path / "damaged.stt1"
        ckpt.write_bytes(blob)
        assert cli.main(["rollout", "--checkpoint", str(ckpt),
                         "--seed-file", str(workdir / "data.stm1"), "--seconds", "0.05",
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0] and str(ckpt) in err[0]


class TestBench:
    def test_grid_and_formulas(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--variant", "st", "--grid", "1,8,1;1,16,1",
                         "--embed-dim", "8", "--heads", "2", "--repeats", "1",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("variant,layers,window,batch,status,"
                            "scores_per_layer_per_head,workspace_elements,"
                            "seconds_per_forward,minor_faults_per_forward")
        for line, t in zip(lines[1:], (8, 16)):
            cells = line.split(",")
            assert cells[0] == "st"
            assert cells[4] == "ok"
            assert int(cells[5]) == 9 * t * t + t * 9 * 9
            assert float(cells[7]) > 0
            assert int(cells[8]) >= 0 if cli.resource else cells[8] == ""

    @pytest.mark.skipif(not tensor._glibc(), reason="the allocator policy is glibc's")
    def test_paper_window_forward_does_not_fault(self, tmp_path):
        # a fresh process, as a user's: the policy is set when stmotion is imported
        out = tmp_path / "bench.csv"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
        for name in tensor._GLIBC_MALLOC_ENV:
            env.pop(name, None)
        subprocess.run([sys.executable, "-m", "stmotion.cli", "bench", "--variant", "st",
                        "--grid", "2,120,4", "--repeats", "2", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        header, row = out.read_text().strip().split("\n")
        faults = dict(zip(header.split(","), row.split(",")))["minor_faults_per_forward"]
        assert int(faults) <= 50

    def test_oom_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--variant", "full_2d", "--grid", "1,8,1;8,512,64",
                         "--embed-dim", "8", "--heads", "2", "--repeats", "1",
                         "--memory-budget", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        statuses = [line.split(",")[4] for line in lines[1:]]
        assert "OOM" in statuses

    def test_int64_layers_are_an_oom_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--variant", "st", "--grid", "9223372036854775807,1,1",
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "st,9223372036854775807,1,1,OOM,,,,"

    def test_bad_grid(self, tmp_path):
        assert cli.main(["bench", "--variant", "st", "--grid", "1,2",
                         "--out", str(tmp_path / "b.csv")]) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--repeats", "0"], "--repeats"),
        (["--grid", "2,0,2"], "--grid entry '2,0,2'"),
        (["--grid", "a,b,c"], "--grid entry 'a,b,c'"),
        (["--grid", "2,8"], "--grid entry '2,8'"),
        (["--grid", "2,8,1;"], "--grid entry ''"),
    ], ids=["repeats", "grid", "grid_not_integers", "grid_pair", "grid_empty_entry"])
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, flags, named):
        out = tmp_path / "b.csv"
        assert cli.main(["bench", "--variant", "st", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--embed-dim", "3"], "--embed-dim 3"),
        (["--heads", "3"], "--heads 3"),
    ], ids=["odd_embed_dim", "heads_not_dividing"])
    def test_width_errors_name_the_flags(self, tmp_path, capsys, flags, named):
        out = tmp_path / "b.csv"
        assert cli.main(["bench", "--variant", "st", "--grid", "1,8,1", *flags,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err
        assert not out.exists()


class TestMemoryBudget:
    @pytest.mark.parametrize("command, line, flags, named", [
        ("eval", "", ["--n-windows", "100000000000"], "--n-windows 100000000000"),
        ("train", "n_val_windows = 1000000000", [], "n_val_windows 1000000000"),
        ("train", "", ["--batch-size", "1000000000"], "batch_size 1000000000"),
        ("train", "n_layers = 9223372036854775807", [], "batch_size 2 with n_val_windows 2"),
    ], ids=["eval_n_windows", "train_n_val_windows", "train_batch_size", "train_int64_layers"])
    def test_refused_before_windows_are_sampled(self, workdir, tmp_path, capsys, monkeypatch,
                                                command, line, flags, named):
        def sample(*args, **kwargs):
            raise AssertionError("the budget must hold before windows are sampled")

        monkeypatch.setattr(training, "make_eval_windows", sample)
        cfg, out = tmp_path / "budget.cfg", tmp_path / "out"
        cfg.write_text(config_with(line))
        argv = ["--data", str(workdir / "data.stm1"), *flags]
        if command == "eval":
            argv = ["eval", *argv, "--checkpoint", str(workdir / "run" / "best.stt1"),
                    "--out", str(out)]
        else:
            argv = ["train", *argv, "--config", str(cfg), "--out-dir", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0] and "MiB budget" in err[0], err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["budget.cfg"]

    @pytest.mark.parametrize("command", ["train", "eval", "rollout", "bench"])
    def test_each_command_checks_the_model_account(self, workdir, tmp_path, monkeypatch,
                                                   command):
        seen = []

        def budget(what, nbytes, budget_mib=cli.DEFAULT_MEMORY_BUDGET_MIB):
            seen.append(nbytes)
            raise ConfigError("recorded")  # stop before any work

        monkeypatch.setattr(cli, "_check_budget", budget)
        data, ckpt, out = workdir / "data.stm1", workdir / "run" / "best.stt1", tmp_path / "o"
        cfg = model.load_checkpoint(ckpt)[0]  # CONFIG's architecture, 9 joints
        seed_file = tmp_path / "seed.stm1"
        seq = motiondata.load_motion(data)
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:5], seq.frame_rate))
        argv, want = {
            # batch 2 and 2 validation windows of 8 + 24 frames (400 ms at 60 fps)
            "train": (["--data", str(data), "--config", str(workdir / "tiny.cfg"),
                       "--out-dir", str(out)],
                      model.budget_bytes(cfg, 2, 0) + model.budget_bytes(cfg, 2, 8 + 24)),
            "eval": (["--data", str(data), "--checkpoint", str(ckpt), "--out", str(out)],
                     model.budget_bytes(cfg, 16, 8 + 24)),
            # the buffer holds the 5 seed frames and 6 predicted ones
            "rollout": (["--checkpoint", str(ckpt), "--seed-file", str(seed_file),
                         "--seconds", "0.1", "--out", str(out)],
                        model.budget_bytes(cfg, 1, 5 + 6)),
            "bench": (["--variant", "st", "--grid", "1,8,3", "--out", str(out)],
                      model.budget_bytes(model.ModelConfig(
                          embed_dim=16, n_heads=2, n_layers=1, ff_size=32, window=8,
                          dropout=0.0), 3, 0)),
        }[command]
        assert cli.main([command, *argv]) == (0 if command == "bench" else 2)
        assert seen == [want]

    @pytest.mark.parametrize("budget", ["0", "-1", "-5"])
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_budget_below_one_mib_is_refused_before_any_work(self, workdir, tmp_path, capsys,
                                                             monkeypatch, command, budget):
        def work(*args, **kwargs):
            raise AssertionError("the flag must be checked before any work")

        for mod, name in ((motiondata, "load_motion"), (model, "init_params"),
                          (model, "forward")):
            monkeypatch.setattr(mod, name, work)
        out = tmp_path / "out"
        argv = (["train", "--data", str(workdir / "data.stm1"),
                 "--config", str(workdir / "tiny.cfg"), "--out-dir", str(out)]
                if command == "train" else ["bench", "--variant", "st", "--out", str(out)])
        assert cli.main([*argv, "--memory-budget", budget]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and (f"argument --memory-budget: must be an integer >= 1, "
                                  f"got '{budget}'") in err[0], err
        assert not out.exists()

    def test_train_states_the_budget_in_mib(self, workdir, tmp_path, capsys):
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(workdir / "tiny.cfg"), "--batch-size", "1000000",
                         "--memory-budget", "2048", "--out-dir", str(tmp_path / "x")]) == 2
        cfg = model.ModelConfig(embed_dim=8, n_heads=2, n_layers=1, ff_size=8, window=8,
                                dropout=0.0)
        horizon = 24  # val_horizon_ms 400 at 60 fps
        need = model.budget_bytes(cfg, 1000000, 0) + model.budget_bytes(cfg, 2, 8 + horizon)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].endswith(
            f"needs {-(-need // 2 ** 20)} MiB, over the 2048 MiB budget"), err


# ten as int() and float() also read it: with a separator, full-width, Arabic-Indic
SEPARATED_OR_NOT_ASCII = ["1_0", "\uff11\uff10", "\u0661\u0660"]


class TestParsing:
    def test_unknown_subcommand(self):
        assert cli.main(["dance"]) == 2

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "bench"])
    def test_negative_seed_names_the_flag(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {"synth": ["--frames", "10", "--out", str(out)],
                "train": ["--data", str(workdir / "data.stm1"), "--out-dir", str(out)],
                "eval": ["--data", str(workdir / "data.stm1"), "--out", str(out),
                         "--checkpoint", str(workdir / "run" / "best.stt1")],
                "bench": ["--variant", "st", "--out", str(out)]}[command]
        assert cli.main([command, *argv, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "non-negative integer, got '-1'" in err, err
        assert not out.exists()

    # every integer flag of every command, each with its lowest allowed value
    INTEGER_FLAGS = {
        "synth": {"--frames": 1, "--seed": 0},
        "train": {"--steps": 1, "--seed": 0, "--batch-size": 1, "--warmup": 1,
                  "--memory-budget": 1},
        "eval": {"--n-windows": 1, "--seed": 0},
        "bench": {"--n-joints": 1, "--embed-dim": 1, "--heads": 1, "--repeats": 1,
                  "--seed": 0, "--memory-budget": 1},
    }

    @staticmethod
    def _argv_reading_no_file(workdir, out, command, monkeypatch):
        """The other flags `command` requires; reading any file fails the test."""
        def read(*args, **kwargs):
            raise AssertionError("the flag must be checked before any file is read")

        for mod, name in ((motiondata, "load_motion"), (model, "load_checkpoint")):
            monkeypatch.setattr(mod, name, read)
        return {"synth": ["--frames", "10", "--out", str(out)],
                "train": ["--data", str(workdir / "data.stm1"), "--out-dir", str(out)],
                "eval": ["--data", str(workdir / "data.stm1"), "--out", str(out),
                         "--checkpoint", str(workdir / "run" / "best.stt1")],
                "bench": ["--variant", "st", "--out", str(out)]}[command]

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value)
        for command, flags in INTEGER_FLAGS.items()
        for flag, low in flags.items()
        for value in (["0", "-1", "x"] if low == 1 else ["-1", "x"]) + SEPARATED_OR_NOT_ASCII])
    def test_bad_integer_flag_is_one_usage_line(self, workdir, tmp_path, capsys, monkeypatch,
                                                command, flag, value):
        argv = self._argv_reading_no_file(workdir, tmp_path / "out", command, monkeypatch)
        assert cli.main([command, *argv, flag, value]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"argument {flag}:" in err[0] and f"got '{value}'" in err[0], err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in INTEGER_FLAGS.items() for flag in flags])
    def test_integer_flag_beyond_int64_is_one_usage_line(self, workdir, tmp_path, capsys,
                                                         monkeypatch, command, flag):
        argv = self._argv_reading_no_file(workdir, tmp_path / "out", command, monkeypatch)
        assert cli.main([command, *argv, flag, "1" + "0" * 60]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: argument {flag}: value 100000000000000000000... "
                       f"is not a 64-bit integer"], err
        assert list(tmp_path.iterdir()) == []

    def test_every_integer_flag_takes_the_one_rule(self):
        # no bare int or float, and the flags typed by the rule are the matrix above
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        found = set()
        for command, parser in sub.choices.items():
            for action in parser._actions:
                assert action.type not in (int, float), (command, action.option_strings)
                if getattr(action.type, "__qualname__", "").startswith("_at_least."):
                    flag = action.option_strings[0]
                    low = self.INTEGER_FLAGS.get(command, {}).get(flag)
                    assert low is not None and action.type(str(low)) == low, (command, flag)
                    found.add((command, flag))
        assert found == {(c, f) for c, flags in self.INTEGER_FLAGS.items() for f in flags}

    @pytest.mark.parametrize("argv, named", [
        ([], "required: command"),
        (["dance"], "invalid choice: 'dance'"),
        (["synth", "--frames", "10"], "required: --out"),
        (["rollout", "--checkpoint", "c"], "required: --seed-file, --seconds, --out"),
        (["bench", "--variant", "2d", "--out", "b"], "argument --variant: invalid choice"),
        (["bench", "--variant", "st", "--out", "b", "--bogus", "1"],
         "unrecognized arguments: --bogus 1"),
        (["synth", "--out", "m", "--frames"], "argument --frames: expected one argument"),
        (["train", "--data", "d", "--out-dir", "o", "--tau", "sum"],
         "argument --tau: invalid choice: 'sum'"),
        (["x" * 400], "invalid choice: 'xxxxxxxxxxxxxxxxxxxx... (choose from 'synth', "),
        (["train", "--data", "d", "--out-dir", "o", "--variant", "x" * 400],
         "--variant: invalid choice: 'xxxxxxxxxxxxxxxxxxxx... (choose from 'st', "),
        (["train", "--data", "d", "--out-dir", "o", "--tau", "x" * 400],
         "--tau: invalid choice: 'xxxxxxxxxxxxxxxxxxxx... (choose from 'softmax', "),
        (["train", "--data", "d", "--out-dir", "o", "--sharing", "x" * 400],
         "--sharing: invalid choice: 'xxxxxxxxxxxxxxxxxxxx... (choose from 'query_separate', "),
        (["bench", "--variant", "x" * 400, "--out", "b"],
         "--variant: invalid choice: 'xxxxxxxxxxxxxxxxxxxx... (choose from 'st', 'full_2d')"),
    ], ids=["no_command", "unknown_command", "missing_flag", "missing_flags",
            "bad_choice", "unknown_flag", "missing_value", "tau_mode_spelled_short",
            "long_command", "long_variant", "long_tau", "long_sharing", "long_bench_variant"])
    def test_parser_errors_are_one_line(self, capsys, argv, named):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
        assert len(err[0]) <= 150, err  # a refused value shows at most `errors.brief` of it
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: st-motion" in capsys.readouterr().out

    def test_coerce_types(self):
        assert cli._coerce("true") is True
        assert cli._coerce("False") is False
        assert cli._coerce("42") == 42
        assert cli._coerce("0.5") == 0.5
        assert cli._coerce("softmax") == "softmax"
        assert cli._coerce("1e3") == 1000.0
        for text in ("1_0", "1_000.5", "\uff15", "\u0665"):  # separators, non-ASCII digits
            assert cli._coerce(text) == text

    def test_config_file_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nwindow = 8  # inline\nvariant = st\n")
        assert cli._parse_config_file(p) == {"window": 8, "variant": "st"}


@st.composite
def config_values(draw):
    """Valid values for every field of ModelConfig and TrainConfig."""
    heads = draw(st.integers(1, 4))
    counts = st.integers(1, 10 ** 6)
    chances = st.floats(0.0, 1.0)
    return dict(
        n_joints=draw(st.integers(1, 30)), embed_dim=2 * heads * draw(st.integers(1, 16)),
        n_layers=draw(st.integers(1, 8)), n_heads=heads, ff_size=draw(counts),
        window=draw(counts), dropout=draw(st.floats(0.0, 1.0, exclude_max=True)),
        tau_mode=draw(st.sampled_from(model.TAU_MODES)),
        spatial_sharing=draw(st.sampled_from(model.SHARING_MODES)),
        variant=draw(st.sampled_from(model.VARIANTS)), ff_per_branch=draw(st.booleans()),
        batch_size=draw(counts), warmup=draw(counts), max_steps=draw(counts),
        eval_every=draw(counts), patience=draw(counts), reverse_prob=draw(chances),
        mirror_prob=draw(chances), seed=draw(st.integers(0, 2 ** 63 - 1)),
        n_val_windows=draw(counts),
        val_horizon_ms=draw(st.floats(0.0, 1e9, exclude_min=True)))


# each train flag and the config key it sets
TRAIN_FLAG_KEYS = {"--variant": "variant", "--tau": "tau_mode", "--sharing": "spatial_sharing",
                   "--steps": "max_steps", "--seed": "seed", "--batch-size": "batch_size",
                   "--warmup": "warmup"}
flag_values = st.fixed_dictionaries({}, optional={
    "--variant": st.sampled_from(model.VARIANTS), "--tau": st.sampled_from(model.TAU_MODES),
    "--sharing": st.sampled_from(model.SHARING_MODES), "--steps": st.integers(1, 10 ** 6),
    "--seed": st.integers(0, 2 ** 63 - 1), "--batch-size": st.integers(1, 10 ** 6),
    "--warmup": st.integers(1, 10 ** 6)})


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(values=config_values(), flags=flag_values)
    def test_key_value_lines_build_the_configs_and_flags_override(self, tmp_path_factory,
                                                                  values, flags):
        mfields = {f.name for f in dataclasses.fields(model.ModelConfig)}
        tfields = {f.name for f in dataclasses.fields(training.TrainConfig)}
        assert set(values) == mfields | tfields
        path = tmp_path_factory.mktemp("cfg") / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = [a for flag, v in flags.items() for a in (flag, str(v))]
        args = cli.build_parser().parse_args(
            ["train", "--data", "d", "--out-dir", "o", "--config", str(path), *argv])
        want = values | {TRAIN_FLAG_KEYS[flag]: v for flag, v in flags.items()}
        assert cli._build_configs(args, n_joints=1) == (
            model.ModelConfig(**{k: want[k] for k in mfields}),
            training.TrainConfig(**{k: want[k] for k in tfields}))

    @pytest.mark.parametrize("flag", sorted(TRAIN_FLAG_KEYS))
    def test_each_train_flag_and_its_config_key_take_the_same_texts(self, tmp_path, flag):
        # the value each spelling builds, or None where it is refused
        key = TRAIN_FLAG_KEYS[flag]
        texts = ["0", "1", "7", "-1", "1.0", "1e3", "x", "true", "9" * 30,
                 *SEPARATED_OR_NOT_ASCII, *model.VARIANTS, *model.TAU_MODES,
                 *model.SHARING_MODES, "ST", "x" * 400]
        path, accepted = tmp_path / "one.cfg", []
        for text in texts:
            path.write_text(f"{key} = {text}\n", encoding="utf-8")
            built = []
            for argv in ([flag, text], ["--config", str(path)]):
                try:
                    args = cli.build_parser().parse_args(
                        ["train", "--data", "d", "--out-dir", "o", *argv])
                    built.append(next(getattr(c, key) for c in cli._build_configs(args, 9)
                                      if hasattr(c, key)))
                except ConfigError:
                    built.append(None)
            assert built[0] == built[1] and type(built[0]) is type(built[1]), (text, built)
            if built[0] is not None:
                accepted.append(text)
        assert accepted  # each flag takes some of the texts


class TestSpecHandCases:
    def test_synth_load_save_roundtrip_bytes(self, workdir, tmp_path):
        src = workdir / "data.stm1"
        copy = tmp_path / "copy.stm1"
        motiondata.save_motion(copy, motiondata.load_motion(src))
        assert copy.read_bytes() == src.read_bytes()

    def test_train_full_2d_over_budget_graceful(self, workdir, tmp_path):
        # a 256-frame full_2d attention window wants (9*256)^2-element score
        # maps, far past the 1 MiB budget; must refuse before allocating
        big = tmp_path / "big.cfg"
        big.write_text(CONFIG.replace("window = 8", "window = 256"))
        assert cli.main(["train", "--data", str(workdir / "data.stm1"),
                         "--config", str(big),
                         "--variant", "full_2d", "--memory-budget", "1",
                         "--out-dir", str(tmp_path / "x")]) == 2

    def test_rollout_frames_are_valid_rotations(self, workdir, tmp_path):
        from stmotion import so3
        seq = motiondata.load_motion(workdir / "data.stm1")
        seed_file = tmp_path / "seed.stm1"
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:8], seq.frame_rate))
        out = tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(workdir / "run" / "best.stt1"),
                         "--seed-file", str(seed_file), "--seconds", "0.2",
                         "--out", str(out)]) == 0
        pred = motiondata.load_motion(out)
        flat = pred.rotations.reshape(-1, 3, 3).astype(np.float64)
        assert np.all(so3.is_valid_rotmat(flat, tol=1e-4))

    def test_bench_full_2d_quadruples_with_window(self, tmp_path):
        out = tmp_path / "b.csv"
        assert cli.main(["bench", "--variant", "full_2d", "--grid", "1,8,1;1,16,1",
                         "--embed-dim", "8", "--heads", "2", "--repeats", "1",
                         "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert int(rows[1][5]) == 4 * int(rows[0][5])  # doubling W quadruples scores


def _every_cut_is_one_line_usage_error(tmp_path, capsys, blob, argv):
    """Each prefix of `blob`, saved as the file that `argv(path)` names, makes
    cli.main exit 2 with one stderr line that names the file."""
    cut = tmp_path / "cut.bin"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        code = cli.main(argv(str(cut)))
        err = capsys.readouterr().err.strip().splitlines()
        assert (code, len(err)) == (2, 1) and str(cut) in err[0], (size, code, err)


class TestFileFormats:
    @pytest.fixture(scope="class")
    def small_motion(self, workdir):
        seq = motiondata.load_motion(workdir / "data.stm1")
        path = workdir / "small.stm1"
        motiondata.save_motion(path, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[:3], seq.frame_rate))
        return path

    def test_every_cut_of_a_motion_file(self, workdir, small_motion, tmp_path, capsys):
        blob = small_motion.read_bytes()
        ckpt = str(workdir / "run" / "best.stt1")
        _every_cut_is_one_line_usage_error(tmp_path, capsys, blob, lambda p: [
            "train", "--data", p, "--config", str(workdir / "tiny.cfg"),
            "--out-dir", str(tmp_path / "run")])
        _every_cut_is_one_line_usage_error(tmp_path, capsys, blob, lambda p: [
            "rollout", "--checkpoint", ckpt, "--seed-file", p, "--seconds", "0.05",
            "--out", str(tmp_path / "pred.stm1")])
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cut.bin"]

    def test_every_cut_of_a_checkpoint(self, small_motion, tmp_path, capsys):
        cfg = model.ModelConfig(n_joints=9, embed_dim=2, n_heads=1, n_layers=1, ff_size=2,
                                window=2)
        ckpt = tmp_path / "small.stt1"
        model.save_checkpoint(ckpt, cfg, model.init_params(cfg, np.random.default_rng(0)))
        blob = ckpt.read_bytes()
        ckpt.unlink()
        _every_cut_is_one_line_usage_error(tmp_path, capsys, blob, lambda p: [
            "eval", "--data", str(small_motion), "--checkpoint", p,
            "--out", str(tmp_path / "m.csv")])
        _every_cut_is_one_line_usage_error(tmp_path, capsys, blob, lambda p: [
            "rollout", "--checkpoint", p, "--seed-file", str(small_motion),
            "--seconds", "0.05", "--out", str(tmp_path / "pred.stm1")])
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cut.bin"]

    @pytest.mark.parametrize("command", ["train", "eval", "rollout"])
    def test_cross_wired_files(self, workdir, tmp_path, capsys, command):
        data, ckpt = str(workdir / "data.stm1"), str(workdir / "run" / "best.stt1")
        argv, named = {
            "train": (["train", "--data", ckpt, "--out-dir", str(tmp_path / "run")],
                      f"motion file {ckpt}: header has unknown keys"),
            "eval": (["eval", "--data", data, "--checkpoint", data,
                      "--out", str(tmp_path / "m.csv")],
                     f"checkpoint {data}: model config has unknown keys"),
            "rollout": (["rollout", "--checkpoint", ckpt, "--seed-file", ckpt,
                         "--seconds", "0.05", "--out", str(tmp_path / "p.stm1")],
                        f"motion file {ckpt}: header has unknown keys"),
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], err

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    def test_joint_count_mismatch_names_both_files(self, workdir, tmp_path, capsys,
                                                   monkeypatch, command):
        def budget(*args):
            raise AssertionError("the joint count must be checked before the budget")

        monkeypatch.setattr(cli, "_check_budget", budget)
        three = motiondata.Skeleton(["root", "a", "b"], [-1, 0, 1],
                                    [[0, 0, 0], [0, 100, 0], [0, 100, 0]], [0, 1, 2])
        data = tmp_path / "three.stm1"
        motiondata.save_motion(data, motiondata.MotionSequence(
            three, np.tile(np.eye(3, dtype=np.float32), (40, 3, 1, 1)), 60.0))
        ckpt, out = workdir / "run" / "best.stt1", tmp_path / "o"
        flag = "--data" if command == "eval" else "--seed-file"
        extra = [] if command == "eval" else ["--seconds", "0.05"]
        assert cli.main([command, "--checkpoint", str(ckpt), flag, str(data), *extra,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --checkpoint {ckpt} expects 9 joints, {flag} {data} has 3"]
        assert not out.exists()

    def test_deeply_nested_header_is_a_usage_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.stm1"
        deep.write_bytes(b"[" * 100_000 + b"\nSTT1")
        assert cli.main(["train", "--data", str(deep), "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(deep) in err[0]

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "a_directory"
        out.mkdir()
        assert cli.main(["synth", "--frames", "40", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "a_directory" in err[0]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a_directory"]

    @pytest.mark.parametrize("command, target", [
        ("synth", "missing_dir"), ("eval", "missing_dir"), ("rollout", "missing_dir"),
        ("synth", "directory"), ("eval", "directory"), ("rollout", "directory"),
    ], ids=["synth", "eval", "rollout", "synth_directory", "eval_directory",
            "rollout_directory"])
    def test_write_error_names_the_given_path(self, workdir, small_motion, tmp_path, capsys,
                                              command, target):
        # the write goes through a temporary file, a name the user never gave
        ckpt = str(workdir / "run" / "best.stt1")
        if target == "directory":
            out = tmp_path / "adir"
            out.mkdir()
            named = f"error: [Errno 21] Is a directory: '{out}'"
        else:
            out = tmp_path / "nodir" / "x.out"
            named = f"error: [Errno 2] No such file or directory: '{out}'"
        argv = {"synth": ["synth", "--frames", "40", "--out", str(out)],
                "eval": ["eval", "--data", str(workdir / "data.stm1"), "--checkpoint", ckpt,
                         "--horizons", "100", "--n-windows", "2", "--out", str(out)],
                "rollout": ["rollout", "--checkpoint", ckpt, "--seed-file", str(small_motion),
                            "--seconds", "0.05", "--out", str(tmp_path / "p.stm1"),
                            "--dump-attention", str(out)]}[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [named]
        # no output, no temporary file: only the directory that was given, still empty
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert left == (["adir"] if target == "directory" else [])

    @pytest.mark.parametrize("command", ["train", "eval", "rollout"])
    def test_non_finite_rotation_names_the_file_and_frame(self, workdir, tmp_path, capsys,
                                                          command):
        header, tensors = tensor.load_record(workdir / "data.stm1")
        rotations = tensors["rotations"][:8 if command == "rollout" else None].copy()
        rotations[5, 2, 1, 0] = np.nan
        data, out = tmp_path / "nan.stm1", tmp_path / "out"
        tensor.save_record(data, header.decode().strip(), {"rotations": rotations})
        ckpt = str(workdir / "run" / "best.stt1")
        argv = {"train": ["--data", str(data), "--config", str(workdir / "tiny.cfg"),
                          "--out-dir", str(out)],
                "eval": ["--data", str(data), "--checkpoint", ckpt, "--out", str(out)],
                "rollout": ["--checkpoint", ckpt, "--seed-file", str(data),
                            "--seconds", "0.05", "--out", str(out)]}[command]
        assert cli.main([command, *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: motion file {data}: frame 5 holds a rotation that is not finite"]
        assert not out.exists()

    def test_degenerate_rollout_is_a_numeric_failure(self, workdir, tmp_path, capsys):
        cfg, params = model.load_checkpoint(workdir / "run" / "best.stt1")
        for p in params.values():
            p.data[...] = 0.0
        ckpt, seed_file = tmp_path / "zero.stt1", tmp_path / "zero_seed.stm1"
        model.save_checkpoint(ckpt, cfg, params)
        motiondata.save_motion(seed_file, motiondata.MotionSequence(
            motiondata.default_skeleton(), np.zeros((cfg.window, 9, 3, 3)), 60.0))
        out = tmp_path / "p.stm1"
        assert cli.main(["rollout", "--checkpoint", str(ckpt), "--seed-file", str(seed_file),
                         "--seconds", "0.05", "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "rank-deficient" in err[0]
        assert not out.exists()
