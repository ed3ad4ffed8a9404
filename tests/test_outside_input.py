"""Every file the CLI reads, with one key set to a value that the key and
number rules refuse, dropped, or joined by an unknown key, ends in exit 2 and
one short stderr line that names the file and the key."""

import contextlib
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmotion import cli, model, motiondata, tensor, training

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
    value = draw(_VALUES.filter(lambda v: not (valid_bool and isinstance(v, bool)))
                 if how == "set" else st.none())
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
def test_a_refused_key_ends_in_one_line_naming_the_file_and_the_key(files, change):
    kind, path, how, value, unknown = change
    content, _, _, argv = FILES[kind]
    p = _write(files, kind, _changed(content, path, how, value, unknown))
    code, out, err = _run(argv(files, p))
    assert (code, out, len(err.splitlines())) == (2, "", 1), (code, out, err)
    named = re.escape(repr(unknown)) if how == "add" else rf"\b{path[-1]}\b"
    assert len(err) <= 301 and p in err and re.search(named, err), err
