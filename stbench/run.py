"""stmotion benchmark: one workload per run, untraced or traced.

    python3 stbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The inputs are built in a child process, ``run.py
--build FILE``, which writes them next to FILE and pickles the build record
into it. ``--trace 0`` measures the end-to-end metrics with no
instrumentation. ``--trace 1`` alternates untraced and traced request
mixes, prints the per-layer table of the traced ones, cross-checks their
call counts against analytic values, and states the tracing overhead as the
difference between the two. Human-readable lines (machine, detail metrics,
per-layer table) come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 when every output check passed, 1 when one failed and 2 on usage
errors (such as a directory without ``src/stmotion``).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5          # input builds per run, at least
SETUP_SECONDS = 1.5     # and more, until this much build time has passed
SWITCH_SECONDS = 2.0    # time on one CPU before the main thread moves on
# The usable CPUs of a shared VM can differ in speed for minutes at a time
# (on the 2-vCPU machine of the baseline, a Python loop pinned to cpu0 ran up
# to 30% slower than on cpu1, and whole runs of the same workload fell into a
# fast and a slow mode), while the scheduler tends to keep a thread where it
# started. The main thread therefore visits every usable CPU in turn, and
# medians are taken per CPU and then averaged, so a run averages the CPUs
# instead of measuring whichever one it landed on. Threads the program
# already started (BLAS workers) keep their default placement.
CPUS = sorted(os.sched_getaffinity(0))
LAYERS = ("cli", "training", "model", "tensor", "so3", "motiondata", "evalmetrics")


class UsageError(Exception):
    pass


def import_program():
    """Import stmotion's layers from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stmotion" / "__init__.py").is_file():
        raise UsageError(f"no stmotion package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import stmotion
    if Path(stmotion.__file__).resolve().parent != (src / "stmotion").resolve():
        raise UsageError(f"imported stmotion from {stmotion.__file__}")
    return [stmotion] + [importlib.import_module(f"stmotion.{name}") for name in LAYERS]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def blas_record():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "*openblas*.so*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
    return f"{info.get('name')} {info.get('version')}", threads


def commit_record():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stmotion").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_record():
    import numpy as np

    blas, threads = blas_record()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit_record(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    cpu: int
    seconds: float
    items: int
    error: str | None
    traced: bool
    expected: dict


def use_cpu(k) -> int:
    """Run the calling thread on the k-th usable CPU, round robin."""
    cpu = CPUS[k % len(CPUS)]
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_median(samples) -> float:
    """The median of the (cpu, value) samples taken on each CPU, averaged
    over the CPUs. Samples are split evenly across CPUs that may differ in
    speed, where a plain median would fall between their modes."""
    by_cpu = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.mean(statistics.median(v) for v in by_cpu.values())


def run_requests(wl, seconds, tracer=None):
    """Closed loop: send request i+1 when request i returned, until `seconds`
    have passed (at least one full mix, two when tracing). With a tracer,
    alternate mix-long cycles of untraced and traced requests.

    The main thread moves to the next CPU at a block boundary (a whole mix,
    or an untraced-traced pair of mixes) once it has spent SWITCH_SECONDS on
    the current one, and sends an untimed warm-up request there first, so no
    request kind always pays for the move. When tracing, which half of the
    pair is traced flips on each round over the CPUs, so each CPU sees both
    orders."""
    ops = []
    block = wl.cycle * (2 if tracer else 1)
    visit, moved = -1, None
    start = time.perf_counter()
    i = 0
    while i < block or time.perf_counter() - start < seconds:
        if i % block == 0 and (moved is None or time.perf_counter() - moved >= SWITCH_SECONDS):
            visit += 1
            cpu = use_cpu(visit)
            wl.warm()
            moved = time.perf_counter()
        kind, thunk, items, expected = wl.request(i)
        traced = tracer is not None and (i // wl.cycle + visit // len(CPUS)) % 2 == 1
        if traced:
            tracer.install()
            tracer.start("run")
        t0 = time.perf_counter()
        try:
            value, error = thunk(), None
        except Exception as exc:  # a failed request is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            tracer.stop()
            tracer.uninstall()
        if error is None:
            try:
                error = wl.check(i, kind, value)
            except Exception as exc:  # a check that cannot read the output fails it
                error = f"check raised {type(exc).__name__}: {exc}"
        ops.append(Op(kind, cpu, dt, items, error, traced, expected))
        i += 1
    return ops


def build_inputs(workload, root, seed, trace):
    """Build the workload's inputs at least SETUP_REPS times and for at least
    SETUP_SECONDS, one CPU after the other, each time into a new directory:
    rewriting a file in place costs ext4 a flush to disk on close, which
    first builds do not pay. Return the (cpu, seconds) of each
    build, the attributes the last build gave the workload, and the setup
    table when tracing."""
    modules = import_program()
    from workloads import WORKLOADS
    from tracer import Tracer

    wl = WORKLOADS[workload]()
    tracer = Tracer(modules) if trace else None
    if tracer:
        tracer.install()
    times, rep, start = [], 0, time.perf_counter()
    while rep < SETUP_REPS or time.perf_counter() - start < SETUP_SECONDS:
        cpu = use_cpu(rep)
        if tracer:
            tracer.start("setup")
        t0 = time.perf_counter()
        wl.setup(os.path.join(root, f"build{rep}"), seed)
        times.append((cpu, time.perf_counter() - t0))
        if tracer:
            tracer.stop()
        rep += 1
    return times, vars(wl), (tracer.tables["setup"] if tracer else None)


def setup(wl, root, seed, tracer=None):
    """Build the inputs in a child process (``run.py --build``), so that the
    peak resident set of this process is that of the requests alone; take
    over the workload's attributes and the setup table. Return the per-CPU
    median build time."""
    path = os.path.join(root, "inputs.pickle")
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl.name,
                    "--seed", str(seed), "--trace", str(int(tracer is not None)),
                    "--build", path], check=True, timeout=300)
    with open(path, "rb") as fh:
        times, state, table = pickle.load(fh)
    vars(wl).update(state)
    if tracer:
        tracer.tables["setup"] = table
    return cpu_median(times)


def end_to_end(wl, ops, setup_s):
    primary = [(op.cpu, op.seconds) for op in ops if op.kind == wl.primary]
    return {
        "setup_s": (setup_s, "s"),
        "request_ms_p50": (1000.0 * cpu_median(primary), "ms"),
        "items_per_s": (sum(op.items for op in ops) / sum(op.seconds for op in ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def count_mismatches(tracer, ops):
    """Traced call counts that differ from the sum of the analytic ones."""
    want = {}
    for op in ops:
        if op.traced:
            for name, n in op.expected.items():
                want[name] = want.get(name, 0) + n
    calls = {name: st.calls for name, st in tracer.tables["run"].items()}
    return [f"{name}: traced {calls.get(name, 0)}, expected {n}"
            for name, n in sorted(want.items()) if calls.get(name, 0) != n]


def per_layer(tracer, ops, wl, spec):
    """Every per-layer metric of BENCHMARK.json, from the traced requests."""
    traced = [op for op in ops if op.traced]
    n_ops = len(traced)
    run, setup_table = tracer.tables["run"], tracer.tables["setup"]
    layers = {}
    for name, st in run.items():
        agg = layers.setdefault(name.split(".")[0], [0, 0.0, 0])
        agg[0] += st.calls
        agg[1] += st.self_s
        agg[2] += st.failed
    on = cpu_median([(op.cpu, op.seconds) for op in traced if op.kind == wl.primary])
    off = cpu_median([(op.cpu, op.seconds) for op in ops
                      if not op.traced and op.kind == wl.primary])

    def value(metric):
        if metric == "trace.overhead_pct":
            return 100.0 * (on / off - 1.0)
        if metric == "trace.requests":
            return n_ops
        parts = metric.split(".")
        table = run
        if parts[0] == "setup":
            table, parts = setup_table, parts[1:]
        if len(parts) == 2:               # <layer>.<quantity>
            calls, self_s, failed = layers.get(parts[0], (0, 0.0, 0))
            return {"calls": calls / n_ops, "self_ms": 1000.0 * self_s / n_ops,
                    "failed": failed}[parts[1]]
        name, quantity = ".".join(parts[:2]), parts[2]
        st = table.get(name)
        if st is None or st.calls == 0:
            return 0
        per_call = {"calls": st.calls / n_ops, "ms_per_call": 1000.0 * st.total_s / st.calls,
                    "self_ms": 1000.0 * st.self_s / n_ops, "failed": st.failed}
        if quantity in per_call:
            return per_call[quantity]
        return st.extra[quantity] / st.calls

    return {m["name"]: (value(m["name"]), m["unit"]) for m in spec["per_layer"]}


def measure(workload, seed, seconds, trace, spec, out=print):
    """Run one workload; print the human-readable lines; return the result."""
    modules = import_program()
    from workloads import WORKLOADS
    from tracer import Tracer

    wl = WORKLOADS[workload]()
    tracer = Tracer(modules) if trace else None
    work = tempfile.mkdtemp(prefix=".stbench-", dir=ROOT)
    try:
        setup_s = setup(wl, work, seed, tracer)
        wl.open()
        try:
            ops = run_requests(wl, seconds, tracer)
        finally:
            wl.close()
    finally:
        os.sched_setaffinity(0, CPUS)
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.error]
    out(f"# machine {json.dumps(machine_record())}")
    out(f"# workload {workload} seed {seed} seconds {seconds} trace {trace}: "
        f"{len(ops)} requests, {len(failed)} failed")
    for op in failed[:5]:
        out(f"# failed {op.kind}: {op.error}")
    details = {"failed_share": (len(failed) / len(ops), "failed/attempted", len(ops))}
    details.update(wl.details(ops))
    for name, (v, unit, n) in details.items():
        out(f"# detail {name} = {v} {unit} (n={n})")

    mismatches = []
    if trace:
        mismatches = count_mismatches(tracer, ops)
        for line in mismatches:
            out(f"# call-count mismatch {line}")
        metrics = per_layer(tracer, ops, wl, spec)
    else:
        e2e = end_to_end(wl, ops, setup_s)
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    for name, (v, unit) in metrics.items():
        out(f"# {name} = {v} {unit}")
    return {
        "correct": not failed and not mismatches,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build", metavar="FILE", help="build the inputs next to FILE, "
                   "write the build record to it, and measure nothing")
    args = p.parse_args(argv)
    if args.build:
        record = build_inputs(args.workload, os.path.dirname(args.build), args.seed, args.trace)
        with open(args.build, "wb") as fh:
            pickle.dump(record, fh)
        return 0
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, spec)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
