"""Command-line entry points: synth, train, eval, rollout, bench.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure. Every
command is deterministic given identical flags, inputs and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import numbers
import os
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import evalmetrics, model, motiondata, training
from .errors import ConfigError, NumericError, brief, check_keys, check_number, file_errors
from .tensor import atomic_write

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEFAULT_HORIZONS_MS = "100,200,300,400"  # as --horizons takes them
DEFAULT_MEMORY_BUDGET_MIB = 2048


def _check_budget(what: str, nbytes: int, budget_mib: int = DEFAULT_MEMORY_BUDGET_MIB):
    """Every command's memory rule: ConfigError naming `what` if nbytes > budget_mib MiB."""
    if nbytes > budget_mib * 1024 ** 2:
        raise ConfigError(f"{what} needs {-(-nbytes // 1024 ** 2)} MiB, over the "
                          f"{budget_mib} MiB budget")


def _at_least(low: int):
    """The argparse type of every integer flag: an integer >= low that an int64 holds."""
    want = "a non-negative integer" if low == 0 else f"an integer >= {low}"

    def flag(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = None
        if n is None or n < low:
            raise argparse.ArgumentTypeError(f"must be {want}, got {brief(value)}")
        try:
            check_number("value", n, numbers.Integral)
        except ConfigError as err:  # as a ValueError, argparse would show the whole value
            raise argparse.ArgumentTypeError(str(err)) from None
        return n

    return flag


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, like every other usage error, reach
    `main`'s handler as a ConfigError: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _check_joints(cfg, source: str, seq, data: str):
    """The joint rule of `train`, `eval` and `rollout`: the config file or checkpoint
    (`source`, its flag and path) and the motion file (`data`) have the same joint count."""
    if cfg.n_joints != seq.skeleton.n_joints:
        raise ConfigError(f"{source} expects {cfg.n_joints} joints, "
                          f"{data} has {seq.skeleton.n_joints}")


def _parse_config_file(path) -> dict:
    """Flat UTF-8 `key = value` lines with `#` comments; each key at most once."""
    with open(path, encoding="utf-8") as fh, file_errors("config file", path):
        raw_lines = fh.readlines()
    out, lines = {}, {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        out[key] = _coerce(value)
    return out


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    if value.isascii() and "_" not in value:  # int() and float() take `_` and other digits
        for cast in (int, float):
            with contextlib.suppress(ValueError):
                return cast(value)
    return value


def _build_configs(args, n_joints: int):
    file_cfg = _parse_config_file(args.config) if args.config else {}
    mfields = set(model.ModelConfig.__dataclass_fields__)
    tfields = set(training.TrainConfig.__dataclass_fields__)
    check_keys(f"config file {args.config}", file_cfg, mfields | tfields)
    # each train flag's dest is its config key; a flag given overrides the file
    flags = {k: v for k, v in vars(args).items() if k in mfields | tfields and v is not None}
    kw = {"n_joints": n_joints, **file_cfg, **flags}
    with file_errors("config file", args.config):  # flags are checked as they are parsed
        return (model.ModelConfig(**{k: v for k, v in kw.items() if k in mfields}),
                training.TrainConfig(**{k: v for k, v in kw.items() if k in tfields}))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if not 0 < args.fps < math.inf:
        raise ConfigError(f"--fps must be a positive finite rate, got {args.fps:g}")
    if args.noise_std is not None and not 0 <= args.noise_std < math.pi:
        raise ConfigError(f"--noise-std must be >= 0 and < pi, got {args.noise_std:g}")
    if args.skeleton == "default":
        skeleton = motiondata.default_skeleton()
    else:
        skeleton = motiondata.skeleton_from_json(args.skeleton)
    _check_budget(f"--frames {args.frames}",
                  args.frames * motiondata.synth_bytes_per_frame(skeleton.n_joints))
    if args.spec:
        spec, noise_std = motiondata.motion_spec_from_json(args.spec, skeleton)
    else:
        spec, noise_std = motiondata.two_frequency_spec(skeleton), 0.0
    if args.noise_std is not None:  # the flag overrides the spec file
        noise_std = args.noise_std
    motiondata.check_nyquist(spec, args.fps, f"--fps {args.fps:g}"
                             + (f" with --spec {args.spec}" if args.spec else ""))
    rng = np.random.default_rng(args.seed)
    seq = motiondata.synth_motion(skeleton, args.frames, args.fps, spec,
                                  noise_std=noise_std, rng=rng)
    motiondata.save_motion(args.out, seq)
    print(f"wrote {args.out}: T={seq.n_frames} N={skeleton.n_joints} fps={args.fps}")
    return EXIT_OK


def cmd_train(args) -> int:
    seq = motiondata.load_motion(args.data)
    cfg, tcfg = _build_configs(args, seq.skeleton.n_joints)
    _check_joints(cfg, f"--config {args.config}", seq, f"--data {args.data}")
    horizon = evalmetrics.span_frames("val_horizon_ms", tcfg.val_horizon_ms, seq.frame_rate,
                                      per_second=1000.0)
    n_val = tcfg.n_val_windows  # windows of window + horizon frames, rolled out at once
    _check_budget(f"batch_size {tcfg.batch_size} with n_val_windows {n_val}",
                  model.budget_bytes(cfg, tcfg.batch_size, 0)
                  + model.budget_bytes(cfg, n_val, cfg.window + horizon), args.memory_budget)

    # deterministic train/validation split along time
    split = int(seq.n_frames * 0.9)
    train_seqs = [motiondata.MotionSequence(seq.skeleton, seq.rotations[:split], seq.frame_rate)]
    val_seqs = [motiondata.MotionSequence(seq.skeleton, seq.rotations[split:], seq.frame_rate)]
    for part, seqs, length in (("training", train_seqs, cfg.window + 1),
                               ("validation", val_seqs, cfg.window + horizon)):
        if seqs[0].n_frames < length:
            raise ConfigError(f"--data {args.data}: its {part} split has {seqs[0].n_frames} "
                              f"frames, fewer than one window of {length}")

    os.makedirs(args.out_dir, exist_ok=True)
    out = functools.partial(os.path.join, args.out_dir)
    params = model.init_params(cfg, np.random.default_rng(tcfg.seed))
    try:
        result = training.train(params, cfg, tcfg, train_seqs, val_seqs)
        failure = None
    except NumericError as err:  # keep the best parameters so far
        result, failure = err.result, err
    model.save_checkpoint(out("best.stt1"), cfg, result.params)
    training.write_history_csv(out("history.csv"), result.history)
    if failure is not None:
        raise failure
    model.save_checkpoint(out("final.stt1"), cfg, result.final_params)
    print(f"trained {len(result.history)} steps; best val geodesic "
          f"{result.best_val:.5f} at step {result.best_step}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        horizons = [float(h) for h in args.horizons.split(",")]
    except ValueError:
        raise ConfigError(f"--horizons must be comma-separated milliseconds, "
                          f"got {args.horizons!r}") from None
    if len(set(horizons)) < len(horizons):  # the report holds one row per horizon
        raise ConfigError(f"--horizons {args.horizons} repeats a horizon")
    seq = motiondata.load_motion(args.data)
    cfg, params = model.load_checkpoint(args.checkpoint)
    _check_joints(cfg, f"--checkpoint {args.checkpoint}", seq, f"--data {args.data}")
    fps = seq.frame_rate
    max_h = max(evalmetrics.span_frames("--horizons", h, fps, per_second=1000.0)
                for h in horizons)
    if seq.n_frames < cfg.window + max_h:
        raise ConfigError(f"--data {args.data}: it has {seq.n_frames} frames, fewer than one "
                          f"window of {cfg.window + max_h} ({cfg.window} seed frames and "
                          f"{max_h} for --horizons {args.horizons})")
    _check_budget(f"--n-windows {args.n_windows}",
                  model.budget_bytes(cfg, args.n_windows, cfg.window + max_h))

    rng = np.random.default_rng(args.seed)
    windows = training.make_eval_windows([seq], args.n_windows, cfg.window + max_h, rng)
    seeds, truth = windows[:, :cfg.window], windows[:, cfg.window:]

    pred = model.rollout_batch(params, cfg, seeds, max_h)
    zv = np.stack([model.zero_velocity(s, max_h) for s in seeds])

    report = evalmetrics.full_report(pred, truth, seq.skeleton, horizons, fps)
    zv_report = evalmetrics.full_report(zv, truth, seq.skeleton, horizons, fps)
    root, ext = os.path.splitext(args.out)
    zv_path = f"{root}_zero_velocity{ext or '.csv'}"
    # one guard for both reports: a failure leaves neither file
    with atomic_write(args.out) as fh, atomic_write(zv_path) as zv_fh:
        evalmetrics.write_metric_csv(fh, report)
        evalmetrics.write_metric_csv(zv_fh, zv_report)
    for h in horizons:
        print(f"{h:.0f} ms: geodesic {report[h]['geodesic']:.5f} "
              f"(zero-velocity {zv_report[h]['geodesic']:.5f})")
    return EXIT_OK


def cmd_rollout(args) -> int:
    if args.dump_attention and (os.path.realpath(args.dump_attention)
                                == os.path.realpath(args.out)):
        raise ConfigError(f"--dump-attention {args.dump_attention} and --out {args.out} "
                          f"name the same file")
    cfg, params = model.load_checkpoint(args.checkpoint)
    seed_seq = motiondata.load_motion(args.seed_file)
    _check_joints(cfg, f"--checkpoint {args.checkpoint}", seed_seq, f"--seed-file {args.seed_file}")
    seed = seed_seq.flat()
    steps = evalmetrics.span_frames("--seconds", args.seconds, seed_seq.frame_rate)
    if seed_seq.n_frames > cfg.window:
        raise ConfigError(f"--seed-file {args.seed_file} has {seed_seq.n_frames} frames, more "
                          f"than the {cfg.window}-frame window of --checkpoint {args.checkpoint}")
    _check_budget(f"--seconds {args.seconds:g} ({steps} frames) with --checkpoint "
                  f"{args.checkpoint}", model.budget_bytes(cfg, 1, seed_seq.n_frames + steps))
    # each step's maps go to the CSV as the step ends; a failure leaves neither file
    with (model.write_attention_csv(args.dump_attention) if args.dump_attention
          else contextlib.nullcontext()) as maps:
        pred = model.rollout(params, cfg, seed, steps, maps)
        out_seq = motiondata.MotionSequence(
            seed_seq.skeleton, pred.reshape(steps, -1, 3, 3), seed_seq.frame_rate)
        motiondata.save_motion(args.out, out_seq)
    print(f"wrote {steps} predicted frames to {args.out}")
    return EXIT_OK


# layers,window,batch triples benchmarked when --grid is not given
DEFAULT_BENCH_GRID = "2,16,2;2,32,2;4,50,4"


def _minor_faults():
    """This process's minor page faults so far; None without `resource`."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cmd_bench(args) -> int:
    triples = []
    for part in args.grid.split(";"):
        try:
            vals = tuple(int(v) for v in part.split(","))
        except ValueError:
            vals = ()
        if len(vals) != 3 or min(vals) < 1:
            raise ConfigError(f"--grid entry {part!r} must be three integers L,W,B >= 1")
        triples.append(vals)
    try:  # ModelConfig owns the width rules; its message names its keys, not the flags
        base = model.ModelConfig(n_joints=args.n_joints, embed_dim=args.embed_dim,
                                 n_heads=args.heads, ff_size=2 * args.embed_dim, dropout=0.0,
                                 variant=args.variant)
    except ConfigError as err:
        raise ConfigError(f"--embed-dim {args.embed_dim} with --heads {args.heads}: "
                          f"{err}") from None
    rng = np.random.default_rng(args.seed)

    rows = []
    for layers, win, batch in triples:
        cfg = dataclasses.replace(base, n_layers=layers, window=win)
        try:
            _check_budget("--grid", model.budget_bytes(cfg, batch, 0), args.memory_budget)
        except ConfigError:  # over the budget: an OOM row
            rows.append((layers, win, batch, "OOM", "", "", "", ""))
            continue
        params = model.init_params(cfg, rng)
        x = rng.standard_normal((batch, win, args.n_joints, motiondata.JOINT_DIM)).astype(np.float32)
        _, _, stats = model.forward(params, cfg, x)  # warmup
        times, faults = [], []
        for _ in range(args.repeats):
            f0, t0 = _minor_faults(), time.perf_counter()
            _, _, stats = model.forward(params, cfg, x)
            times.append(time.perf_counter() - t0)
            if f0 is not None:
                faults.append(_minor_faults() - f0)
        per_layer = stats.scores_per_layer[0]
        rows.append((layers, win, batch, "ok", per_layer, stats.workspace_elements,
                     min(times), min(faults) if faults else ""))

    with atomic_write(args.out) as fh:
        fh.write("variant,layers,window,batch,status,scores_per_layer_per_head,"
                 "workspace_elements,seconds_per_forward,minor_faults_per_forward\n")
        for r in rows:
            fh.write(",".join(str(v) for v in (args.variant,) + r) + "\n")
    for r in rows:
        print(f"L{r[0]}-W{r[1]}-B{r[2]}: {r[3]} scores/layer/head={r[4]} "
              f"workspace={r[5]} time={r[6]} faults={r[7]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="st-motion", description="Spatio-temporal motion prediction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic periodic motion")
    s.add_argument("--skeleton", default="default",
                   help="'default' or path to a skeleton JSON file")
    s.add_argument("--frames", type=_at_least(1), required=True)
    s.add_argument("--fps", type=float, default=60.0)
    s.add_argument("--spec", help="per-joint sinusoid spec JSON")
    s.add_argument("--noise-std", type=float, dest="noise_std",
                   help="angle noise std; overrides the spec file's noise_std (default 0)")
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    t = sub.add_parser("train", help="train a model on a motion file")
    t.add_argument("--data", required=True)
    t.add_argument("--config", help="flat key = value config file")
    t.add_argument("--out-dir", required=True, dest="out_dir")
    t.add_argument("--variant", choices=model.VARIANTS)
    t.add_argument("--tau", choices=model.TAU_MODES, dest="tau_mode")
    t.add_argument("--sharing", choices=model.SHARING_MODES, dest="spatial_sharing")
    t.add_argument("--steps", type=_at_least(1), dest="max_steps")
    t.add_argument("--seed", type=_at_least(0))
    t.add_argument("--batch-size", type=_at_least(1), dest="batch_size")
    t.add_argument("--warmup", type=_at_least(1))
    t.add_argument("--memory-budget", type=_at_least(1), default=DEFAULT_MEMORY_BUDGET_MIB,
                   dest="memory_budget", help="memory budget in MiB")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint against held-out windows")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--horizons", default=DEFAULT_HORIZONS_MS,
                   help="comma-separated milliseconds")
    e.add_argument("--n-windows", type=_at_least(1), default=16, dest="n_windows")
    e.add_argument("--seed", type=_at_least(0), default=0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("rollout", help="autoregressive prediction from a seed file")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--seed-file", required=True, dest="seed_file")
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--dump-attention", dest="dump_attention",
                   help="optional per-step attention CSV path")
    r.set_defaults(func=cmd_rollout)

    b = sub.add_parser("bench", help="attention complexity benchmark (ST vs 2D)")
    b.add_argument("--variant", choices=("st", "full_2d"), required=True)
    b.add_argument("--grid", default=DEFAULT_BENCH_GRID,
                   help='semicolon-separated "L,W,B" triples')
    b.add_argument("--n-joints", type=_at_least(1), default=9, dest="n_joints")
    b.add_argument("--embed-dim", type=_at_least(1), default=16, dest="embed_dim")
    b.add_argument("--heads", type=_at_least(1), default=2)
    b.add_argument("--repeats", type=_at_least(1), default=3)
    b.add_argument("--seed", type=_at_least(0), default=0)
    b.add_argument("--memory-budget", type=_at_least(1), default=DEFAULT_MEMORY_BUDGET_MIB,
                   dest="memory_budget", help="memory budget in MiB")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
