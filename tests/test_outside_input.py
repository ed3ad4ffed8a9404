"""Every file the CLI reads, with one key set to a value that the key and
number rules refuse, dropped, or joined by an unknown key, ends in exit 2 and
one short stderr line that names the file and the key; so does a motion file
too short to train or evaluate on, and every flag set to a value its rule
refuses. An error that no rule for outside input raises is a defect: it
leaves `cli.main` as a traceback, never as exit 2."""

import contextlib
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stmotion import cli, evalmetrics, model, motiondata, tensor, training

TINY = model.ModelConfig(embed_dim=8, n_heads=2, n_layers=1, ff_size=8, window=8, dropout=0.0)
TRAIN = training.TrainConfig(batch_size=2, max_steps=1, eval_every=1, n_val_windows=2, warmup=10)
CONFIG = {**dataclasses.asdict(TINY), **dataclasses.asdict(TRAIN)}
SKELETON = json.loads(json.dumps(vars(motiondata.default_skeleton()), default=np.ndarray.tolist))
SPEC = {"joints": [{"joint": 1, "axis": [0, 0, 1], "amplitude": 0.3, "frequency": 1.0,
                    "phase": 0.5}], "noise_std": 0.01}

_BIG = st.integers(2 ** 63, 10 ** 400)  # beyond int64, up to 401 digits
_ATOMS = st.one_of(_BIG, _BIG.map(lambda v: -v - 1),
                   st.sampled_from([math.inf, -math.inf, math.nan]), st.booleans(),
                   st.text("xyz \u00e9'\"\\", max_size=40), st.none())  # never a name or numeral
_VALUES = st.one_of(_ATOMS, st.lists(_ATOMS, min_size=1, max_size=2),
                    st.dictionaries(st.text("xyz", max_size=3), _ATOMS, max_size=2))
# spans at the data's 60 fps that round to no frame, or to more than an int64 holds
_SPANS_MS = st.floats(max_value=8.3) | st.floats(min_value=1e21)


def _config_text(cfg: dict) -> str:
    """A `train --config` file setting each key of cfg to the text of its value."""
    def text(v):
        if isinstance(v, bool):
            return str(v).lower()
        return v if isinstance(v, str) else json.dumps(v)
    return "".join(f"{k} = {text(v)}\n" for k, v in cfg.items())


# per file: its valid content, the key paths a change may reach (True where the
# key is required, so dropping it is refused), its name and the command reading it
_SKELETON_KEYS = {(k,): True for k in SKELETON}
FILES = {
    "spec": (SPEC, {("joints",): True, ("noise_std",): False,
                    **{("joints", 0, k): k != "phase" for k in SPEC["joints"][0]}},
             "spec.json", lambda d, p: ["synth", "--frames", "10", "--spec", p,
                                        "--out", str(d / "o.stm1")]),
    "skeleton": (SKELETON, _SKELETON_KEYS, "skeleton.json",
                 lambda d, p: ["synth", "--frames", "10", "--skeleton", p,
                               "--out", str(d / "o.stm1")]),
    "motion": ({"frame_rate": 60.0, "skeleton": SKELETON},
               {("frame_rate",): True, ("skeleton",): True,
                **{("skeleton",) + k: True for k in _SKELETON_KEYS}},
               "motion.stm1", lambda d, p: ["train", "--data", p, "--config", str(d / "good.cfg"),
                                            "--out-dir", str(d / "run")]),
    "config": (CONFIG, {(k,): False for k in CONFIG}, "train.cfg",
               lambda d, p: ["train", "--data", str(d / "data.stm1"), "--config", p,
                             "--out-dir", str(d / "run")]),
    "checkpoint": (dataclasses.asdict(TINY), {(k,): True for k in dataclasses.asdict(TINY)},
                   "tiny.stt1", lambda d, p: ["rollout", "--checkpoint", p,
                                              "--seed-file", str(d / "seed.stm1"),
                                              "--seconds", "0.05", "--out", str(d / "o.stm1")]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("outside")
    seq = motiondata.synth_motion(motiondata.default_skeleton(), 400, 60.0,
                                  motiondata.two_frequency_spec(motiondata.default_skeleton()))
    motiondata.save_motion(d / "data.stm1", seq)
    motiondata.save_motion(d / "seed.stm1", motiondata.MotionSequence(
        seq.skeleton, seq.rotations[:TINY.window], seq.frame_rate))
    (d / "good.cfg").write_text(_config_text(CONFIG))
    model.save_checkpoint(d / "good.stt1", TINY,
                          model.init_params(TINY, np.random.default_rng(0)))
    return d


def _write(d, kind, content) -> str:
    """The file of `kind` with `content`; a record keeps the tensors of a valid one."""
    path = d / FILES[kind][2]
    if kind in ("motion", "checkpoint"):
        _, tensors = tensor.load_record(d / ("data.stm1" if kind == "motion" else "good.stt1"))
        tensor.save_record(path, json.dumps(content), tensors)
    else:
        path.write_text(_config_text(content) if kind == "config" else json.dumps(content),
                        encoding="utf-8")
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _changes(draw):
    """(file kind, key path, "set" | "drop" | "add", the value set, the key added)."""
    kind = draw(st.sampled_from(sorted(FILES)))
    content, paths, _, _ = FILES[kind]
    path, required = draw(st.sampled_from(sorted(paths.items())))
    how = draw(st.sampled_from(["set", "drop", "add"] if required else ["set", "add"]))
    valid_bool = isinstance(CONFIG.get(path[-1]), bool) and kind in ("config", "checkpoint")
    values = _VALUES.filter(lambda v: not (valid_bool and isinstance(v, bool)))
    if (kind, path) == ("config", ("val_horizon_ms",)):
        values |= _SPANS_MS
    value = draw(values if how == "set" else st.none())
    unknown = draw(st.text("xyz", min_size=1, max_size=3).map("zz_{}".format)
                   if how == "add" else st.none())
    return kind, path, how, value, unknown


def _changed(content, path, how, value, unknown):
    content = json.loads(json.dumps(content))
    *outer, key = path
    parent = content
    for k in outer:
        parent = parent[k]
    if how == "set":
        parent[key] = value
    elif how == "drop":
        del parent[key]
    else:
        parent[unknown] = 0
    return content


def test_the_unchanged_files_are_read(files):
    for kind, (content, _, _, argv) in FILES.items():
        code, _, err = _run(argv(files, _write(files, kind, content)))
        assert (code, err) == (0, ""), (kind, err)


@settings(max_examples=250, deadline=None)
@given(change=_changes())
@example(change=("config", ("val_horizon_ms",), "set", 5.0, None))
@example(change=("config", ("val_horizon_ms",), "set", 1e300, None))
def test_a_refused_key_ends_in_one_line_naming_the_file_and_the_key(files, change):
    kind, path, how, value, unknown = change
    content, _, _, argv = FILES[kind]
    p = _write(files, kind, _changed(content, path, how, value, unknown))
    code, out, err = _run(argv(files, p))
    assert (code, out, len(err.splitlines())) == (2, "", 1), (code, out, err)
    named = re.escape(repr(unknown)) if how == "add" else rf"\b{path[-1]}\b"
    assert len(err) <= 301 and p in err and re.search(named, err), err


# train needs a training split of 9 frames and a validation split of 8 + 24
# (TINY's window, then 400 ms at 60 fps); eval 8 seed frames and 24 more
@settings(max_examples=40, deadline=None)
@given(case=st.tuples(st.just("train"), st.integers(1, 310))
       | st.tuples(st.just("eval"), st.integers(1, 31)))
@example(case=("train", 1))
def test_a_motion_file_shorter_than_one_window_names_it(files, case):
    command, frames = case
    _, tensors = tensor.load_record(files / "data.stm1")
    short = files / "short.stm1"
    tensor.save_record(short, json.dumps({"frame_rate": 60.0, "skeleton": SKELETON}),
                       {"rotations": tensors["rotations"][:frames]})
    argv = (["train", "--config", str(files / "good.cfg"), "--out-dir", str(files / "run")]
            if command == "train" else
            ["eval", "--checkpoint", str(files / "good.stt1"), "--out", str(files / "e.csv")])
    code, out, err = _run(argv + ["--data", str(short)])
    assert (code, out, len(err.splitlines())) == (2, "", 1), (code, out, err)
    assert f"--data {short}:" in err and "fewer than one window" in err, err


# --- flags: each drawn value is one that the flag's rule refuses -------------

_TEXT = st.text("xyz \u00e9'\"\\", max_size=400)  # never a numeral
# ten as int() and float() also read it, but no ASCII numeral without `_`
_NOT_A_NUMERAL = ["1_0", "\uff11\uff10", "\u0661\u0660"]
_NO_REAL = _TEXT | st.sampled_from(["nan", "inf", "-inf", "1" + "0" * 400,  # 1e400 is inf
                                    *_NOT_A_NUMERAL])


def _reals(refused):
    return _NO_REAL | refused.map(repr)


@st.composite
def _grids(draw):
    """`bench --grid` text with at least one entry that is not three integers >= 1."""
    element = (st.sampled_from(["1", "4", "1.5", "1e3", "2,", *_NOT_A_NUMERAL]) | _TEXT
               | (st.integers(max_value=0) | st.integers(2 ** 63, 10 ** 400)).map(str))
    bad = st.lists(element, min_size=1, max_size=4).map(",".join).filter(
        lambda e: not (len(e.split(",")) == 3 and all(
            re.fullmatch("[0-9]+", v) and 1 <= int(v) < 2 ** 63 for v in e.split(","))))
    entries = draw(st.lists(st.sampled_from(["1,8,1", "2,4,2"]), max_size=2)) + [draw(bad)]
    return ";".join(draw(st.permutations(entries)))


@st.composite
def _horizons(draw):
    """`eval --horizons` text with one horizon that is no number, rounds to no
    frame or to more than the 400-frame data holds, or repeats another."""
    ms = draw(st.lists(st.floats(17.0, 6000.0).map(repr), max_size=2))
    refused = _reals(st.floats(max_value=8.3) | st.floats(min_value=6600.0))
    ms.append(draw(refused | st.sampled_from(ms) if ms else refused))
    return ",".join(draw(st.permutations(ms)))


# per flag: the strategy of its refused values and the command it is given to
FLAGS = {
    "--grid": (_grids(), lambda d: ["bench", "--variant", "st", "--repeats", "1"]),
    "--horizons": (_horizons(), lambda d: ["eval", "--data", str(d / "data.stm1"),
                                           "--checkpoint", str(d / "good.stt1")]),
    # below half a frame at 60 fps, beyond an int64 of frames, or over the budget
    "--seconds": (_reals(st.floats(max_value=0.0083) | st.floats(min_value=2e5)),
                  lambda d: ["rollout", "--checkpoint", str(d / "good.stt1"),
                             "--seed-file", str(d / "seed.stm1")]),
    # not above twice the default spec's highest frequency, 1 Hz
    "--fps": (_reals(st.floats(max_value=2.0)), lambda d: ["synth", "--frames", "10"]),
    "--noise-std": (_reals(st.floats(max_value=-1e-300) | st.floats(min_value=math.pi)),
                    lambda d: ["synth", "--frames", "10"]),
}


@settings(max_examples=250, deadline=None)
@given(case=st.sampled_from(sorted(FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), FLAGS[flag][0])))
@example(case=("--grid", "1," + "9" * 30 + ",1"))
@example(case=("--grid", "9223372036854775808,1,1"))
def test_a_refused_flag_value_ends_in_one_line_naming_the_flag(files, case):
    flag, value = case
    out_file = files / "flag_out"
    code, out, err = _run(FLAGS[flag][1](files) + [f"{flag}={value}", "--out", str(out_file)])
    assert (code, out, len(err.splitlines())) == (2, "", 1), (code, out, err)
    assert len(err) <= 301 and flag in err, err
    assert not out_file.exists()


# --- a defect is never a usage error -----------------------------------------

def test_an_internal_value_error_in_eval_is_a_traceback(files, monkeypatch):
    def full_report(*args):
        raise ValueError("an internal check failed")
    monkeypatch.setattr(evalmetrics, "full_report", full_report)
    with pytest.raises(ValueError, match="an internal check failed"):
        cli.main(["eval", "--data", str(files / "data.stm1"), "--checkpoint",
                  str(files / "good.stt1"), "--n-windows", "2", "--out", str(files / "e.csv")])


def test_a_type_error_while_reading_a_motion_file_is_a_traceback(files, monkeypatch):
    def motion_sequence(*args):  # called inside load_motion's file_errors block
        raise TypeError("a reader bug")
    monkeypatch.setattr(motiondata, "MotionSequence", motion_sequence)
    with pytest.raises(TypeError, match="a reader bug"):
        cli.main(["train", "--data", str(files / "data.stm1"), "--config",
                  str(files / "good.cfg"), "--out-dir", str(files / "run")])
