"""Tests of the benchmark itself: seeded inputs, printed metric names, the
tracer's aliases, smoke runs of every workload, and the refusal to run
without the program's sources.

    PYTHONPATH=src python -m pytest -q stbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

MODULES = run.import_program()
import tracer  # noqa: E402
import workloads  # noqa: E402
from stmotion import evalmetrics, model, so3, tensor, training  # noqa: E402

SPEC = run.load_spec()


def _files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    cls = workloads.WORKLOADS[name]
    a, b, c = cls(), cls(), cls()
    a.setup(str(tmp_path / "a"), 7)
    b.setup(str(tmp_path / "b"), 7)
    c.setup(str(tmp_path / "c"), 8)
    if name == "long_window":         # in-memory inputs only
        assert a.x.tobytes() == b.x.tobytes() != c.x.tobytes()
        for variant, (_, params) in a.models.items():
            for key, t in params.items():
                assert t.data.tobytes() == b.models[variant][1][key].data.tobytes()
        return
    files_a, files_b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert files_a and files_a == files_b
    files_c = _files(tmp_path / "c")
    assert all(files_a[k] != files_c[k] for k in files_a if k.endswith(".stm1"))


def test_tracer_wraps_every_alias():
    t = tracer.Tracer(MODULES)
    originals = (training.forward, training.rollout_batch, training.backward,
                 model.project_to_so3, evalmetrics.fk_positions)
    t.install()
    try:
        aliases = t.aliases()
        for attr in ("model.forward", "training.forward", "stmotion.forward"):
            assert attr in aliases["model.forward"]
        assert "training.rollout_batch" in aliases["model.rollout_batch"]
        assert "training.backward" in aliases["tensor.backward"]
        assert "model.project_to_so3" in aliases["so3.project_to_so3"]
        assert "evalmetrics.fk_positions" in aliases["motiondata.fk_positions"]
        assert training.forward is model.forward
        assert model.project_to_so3 is so3.project_to_so3
        t.start("run")
        x = np.ones((1, 3, 3), dtype=np.float32)
        model.project_to_so3(np.eye(3)[None])
        tensor.backward(tensor.tsum(tensor.Tensor(x, requires_grad=True)), tensor.Tape())
        t.stop()
        assert t.tables["run"]["so3.project_to_so3"].calls == 1
        assert t.tables["run"]["tensor.backward"].calls == 1
    finally:
        t.uninstall()
    assert (training.forward, training.rollout_batch, training.backward,
            model.project_to_so3, evalmetrics.fk_positions) == originals


def test_call_count_mismatch_is_reported():
    t = tracer.Tracer(MODULES)
    t.install()
    try:
        t.start("run")
        model.zero_velocity(np.zeros((2, 9, 9)), 3)
        t.stop()
    finally:
        t.uninstall()
    op = run.Op("x", 0, 0.0, 1, None, True, {"model.zero_velocity": 1, "model.forward": 0})
    assert run.count_mismatches(t, [op]) == []
    op.expected["model.zero_velocity"] = 2
    assert run.count_mismatches(t, [op]) == ["model.zero_velocity: traced 1, expected 2"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_has_no_failures_and_prints_the_declared_metrics(name, trace):
    lines = []
    result = run.measure(name, 3, 0, trace, SPEC, out=lines.append)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, lines
    assert result["correct"], lines
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == declared
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(run.HERE, root / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE.name, "run.py"), "--workload", "long_window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no stmotion package" in proc.stderr


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
