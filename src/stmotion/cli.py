"""Command-line entry points: synth, train, eval, rollout, bench.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure. Every
command is deterministic given identical flags, inputs and seeds. The
environment variable ST_MOTION_THREADS caps BLAS worker threads and must be
honored before numpy is imported, hence the early os.environ handling.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_threads = os.environ.get("ST_MOTION_THREADS")
if _threads:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _threads)

import numpy as np  # noqa: E402

from .errors import ConfigError, NumericError  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEFAULT_HORIZONS_MS = (100.0, 200.0, 300.0, 400.0)
DEFAULT_MEMORY_BUDGET_BYTES = 2 * 1024 ** 3


def _parse_config_file(path) -> dict:
    """Flat `key = value` lines with `#` comments."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = _coerce(value)
    return out


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def _build_configs(args, n_joints: int):
    from .model import ModelConfig
    from .training import TrainConfig

    file_cfg = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    mfields = {f for f in ModelConfig.__dataclass_fields__}
    tfields = {f for f in TrainConfig.__dataclass_fields__}
    mkw = {k: v for k, v in file_cfg.items() if k in mfields}
    tkw = {k: v for k, v in file_cfg.items() if k in tfields}
    unknown = set(file_cfg) - mfields - tfields
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # flags override file values
    for key in ("variant", "tau_mode", "spatial_sharing"):
        v = getattr(args, key, None)
        if v is not None:
            mkw[key] = v
    for key in ("steps", "seed", "batch_size", "warmup"):
        v = getattr(args, key, None)
        if v is not None:
            tkw["max_steps" if key == "steps" else key] = v
    mkw["n_joints"] = n_joints
    return ModelConfig(**mkw), TrainConfig(**tkw)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from . import motiondata

    if args.frames < 1:
        raise ConfigError("--frames must be >= 1")
    if args.skeleton == "default":
        skeleton = motiondata.default_skeleton()
    else:
        skeleton = motiondata.skeleton_from_json(args.skeleton)
    if args.spec:
        spec, noise_std = motiondata.motion_spec_from_json(args.spec, skeleton)
    else:
        spec, noise_std = motiondata.two_frequency_spec(skeleton), args.noise_std
    rng = np.random.default_rng(args.seed)
    seq = motiondata.synth_motion(skeleton, args.frames, args.fps, spec,
                                  noise_std=noise_std, rng=rng)
    motiondata.save_motion(args.out, seq)
    print(f"wrote {args.out}: T={seq.n_frames} N={skeleton.n_joints} fps={args.fps}")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import model, motiondata, training

    seq = motiondata.load_motion(args.data)
    cfg, tcfg = _build_configs(args, seq.skeleton.n_joints)

    from .model import estimate_workspace_elements
    budget = args.memory_budget * 1024 ** 2
    estimate = 4 * estimate_workspace_elements(cfg, tcfg.batch_size)
    if estimate > budget:
        raise ConfigError(
            f"estimated workspace {estimate / 1e6:.0f} MB exceeds the "
            f"{budget / 1e6:.0f} MB budget; reduce window, batch size or layers")

    # deterministic train/validation split along time
    split = int(seq.n_frames * 0.9)
    train_seqs = [motiondata.MotionSequence(seq.skeleton, seq.rotations[:split], seq.frame_rate)]
    val_seqs = [motiondata.MotionSequence(seq.skeleton, seq.rotations[split:], seq.frame_rate)]

    os.makedirs(args.out_dir, exist_ok=True)
    params = model.init_params(cfg, np.random.default_rng(tcfg.seed))
    try:
        result = training.train(params, cfg, tcfg, train_seqs, val_seqs)
    except NumericError as err:
        result = getattr(err, "result", None)
        if result is not None:
            model.save_checkpoint(os.path.join(args.out_dir, "best.stt1"),
                                  cfg, result.params)
            training.write_history_csv(os.path.join(args.out_dir, "history.csv"),
                                       result.history)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    model.save_checkpoint(os.path.join(args.out_dir, "best.stt1"), cfg, result.params)
    model.save_checkpoint(os.path.join(args.out_dir, "final.stt1"), cfg, result.final_params)
    training.write_history_csv(os.path.join(args.out_dir, "history.csv"), result.history)
    print(f"trained {len(result.history)} steps; best val geodesic "
          f"{result.best_val:.5f} at step {result.best_step}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evalmetrics, model, motiondata, training

    seq = motiondata.load_motion(args.data)
    cfg, params = model.load_checkpoint(args.checkpoint)
    if cfg.n_joints != seq.skeleton.n_joints:
        raise ConfigError(
            f"checkpoint expects {cfg.n_joints} joints, data has {seq.skeleton.n_joints}")
    horizons = [float(h) for h in args.horizons.split(",")]
    fps = seq.frame_rate
    max_h = max(evalmetrics.horizon_frames(horizons, fps))

    rng = np.random.default_rng(args.seed)
    windows = training.make_eval_windows([seq], args.n_windows, cfg.window + max_h, rng)
    seeds, truth = windows[:, :cfg.window], windows[:, cfg.window:]

    if args.self_check:
        pred = truth.copy()
    else:
        pred = model.rollout_batch(params, cfg, seeds, max_h)
    zv = np.stack([model.zero_velocity(s, max_h) for s in seeds])

    report = evalmetrics.full_report(pred, truth, seq.skeleton, horizons, fps)
    zv_report = evalmetrics.full_report(zv, truth, seq.skeleton, horizons, fps)
    evalmetrics.write_metric_csv(args.out, report)
    root, ext = os.path.splitext(args.out)
    zv_path = f"{root}_zero_velocity{ext or '.csv'}"
    evalmetrics.write_metric_csv(zv_path, zv_report)
    for h in horizons:
        print(f"{h:.0f} ms: geodesic {report[h]['geodesic']:.5f} "
              f"(zero-velocity {zv_report[h]['geodesic']:.5f})")
    return EXIT_OK


def cmd_rollout(args) -> int:
    from . import model, motiondata

    cfg, params = model.load_checkpoint(args.checkpoint)
    seed_seq = motiondata.load_motion(args.seed_file)
    seed = seed_seq.flat()
    steps = int(round(args.seconds * seed_seq.frame_rate))
    pred, maps = model.rollout(params, cfg, seed, steps,
                               collect_attention=bool(args.dump_attention))
    out_seq = motiondata.MotionSequence(
        seed_seq.skeleton, pred.reshape(steps, -1, 3, 3), seed_seq.frame_rate)
    motiondata.save_motion(args.out, out_seq)
    if args.dump_attention:
        model.write_attention_csv(args.dump_attention, maps, with_step=True)
    print(f"wrote {steps} predicted frames to {args.out}")
    return EXIT_OK


# layers,window,batch triples benchmarked when --grid is not given
DEFAULT_BENCH_GRID = "2,16,2;2,32,2;4,50,4"


def cmd_bench(args) -> int:
    from . import model as m

    triples = []
    for part in args.grid.split(";"):
        vals = [int(v) for v in part.split(",")]
        if len(vals) != 3:
            raise ConfigError("grid entries must be L,W,B triples")
        triples.append(tuple(vals))
    if not triples:
        raise ConfigError("grid must be non-empty")
    budget = args.memory_budget * 1024 ** 2
    rng = np.random.default_rng(args.seed)

    rows = []
    for layers, win, batch in triples:
        cfg = m.ModelConfig(n_joints=args.n_joints, embed_dim=args.embed_dim,
                            n_layers=layers, n_heads=args.heads,
                            ff_size=2 * args.embed_dim, window=win, dropout=0.0,
                            variant=args.variant)
        est_bytes = 4 * m.estimate_workspace_elements(cfg, batch)
        if est_bytes > budget:
            rows.append((layers, win, batch, "OOM", "", "", ""))
            continue
        params = m.init_params(cfg, rng)
        x = rng.standard_normal((batch, win, args.n_joints, 9)).astype(np.float32)
        _, _, stats = m.forward(params, cfg, x)  # warmup
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            _, _, stats = m.forward(params, cfg, x)
            times.append(time.perf_counter() - t0)
        per_layer = stats.scores_per_layer[0]
        rows.append((layers, win, batch, "ok", per_layer,
                     stats.workspace_elements, min(times)))

    with open(args.out, "w") as fh:
        fh.write("variant,layers,window,batch,status,scores_per_layer_per_head,"
                 "workspace_elements,seconds_per_forward\n")
        for r in rows:
            fh.write(",".join(str(v) for v in (args.variant,) + r) + "\n")
    for r in rows:
        print(f"L{r[0]}-W{r[1]}-B{r[2]}: {r[3]} scores/layer/head={r[4]} "
              f"workspace={r[5]} time={r[6]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="st-motion",
                                description="Spatio-temporal motion prediction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic periodic motion")
    s.add_argument("--skeleton", default="default",
                   help="'default' or path to a skeleton JSON file")
    s.add_argument("--frames", type=int, required=True)
    s.add_argument("--fps", type=float, default=60.0)
    s.add_argument("--spec", help="per-joint sinusoid spec JSON")
    s.add_argument("--noise-std", type=float, default=0.0, dest="noise_std")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    t = sub.add_parser("train", help="train a model on an STM1 motion file")
    t.add_argument("--data", required=True)
    t.add_argument("--config", help="flat key = value config file")
    t.add_argument("--out-dir", required=True, dest="out_dir")
    t.add_argument("--variant", choices=("st", "vanilla_1d", "full_2d"))
    t.add_argument("--tau", choices=("softmax", "sum"), dest="tau")
    t.add_argument("--sharing", choices=("query_separate", "all_separate", "all_shared"),
                   dest="spatial_sharing")
    t.add_argument("--steps", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--warmup", type=int)
    t.add_argument("--memory-budget", type=int, default=2048, dest="memory_budget",
                   help="workspace budget in MiB")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint against held-out windows")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--horizons", default="100,200,300,400",
                   help="comma-separated milliseconds")
    e.add_argument("--n-windows", type=int, default=16, dest="n_windows")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--self-check", action="store_true", dest="self_check",
                   help="score targets against themselves (all metrics 0)")
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
    b.add_argument("--n-joints", type=int, default=9, dest="n_joints")
    b.add_argument("--embed-dim", type=int, default=16, dest="embed_dim")
    b.add_argument("--heads", type=int, default=2)
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--memory-budget", type=int, default=2048, dest="memory_budget",
                   help="workspace budget in MiB")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # --tau sum maps to the sum_normalize mode
    if getattr(args, "tau", None):
        args.tau_mode = "softmax" if args.tau == "softmax" else "sum_normalize"
    else:
        args.tau_mode = None
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
