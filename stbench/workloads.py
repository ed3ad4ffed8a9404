"""The four benchmark workloads: inputs, requests, output checks and the
analytic call counts a traced request must reproduce.

Every workload is a closed loop with one client: the next request is sent
when the previous one returns. All inputs are generated here from the
benchmark seed with ``motiondata.synth_motion`` and ``model.init_params``;
the program receives only the generated files and arrays.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os

import numpy as np

from stmotion import cli, evalmetrics, model, motiondata, so3, training

FPS = 60.0
DATASET_FRAMES = 10 * 60 * int(FPS)      # the 10-minute recording
OFFSET_FRAMES = 2 * int(FPS)             # seeded start within the 2 s period of the motion
NOISE_STD = 0.01                         # rad of seeded angle noise
OUT_W_STD = 0.02                         # non-zero output projection, so rollouts move

# ROADMAP desk configuration
DESK_MODEL = dict(n_joints=9, embed_dim=16, n_heads=2, n_layers=2, ff_size=32,
                  window=32, dropout=0.0, variant="st")
DESK_TRAIN = dict(batch_size=16, warmup=1000, eval_every=100, max_steps=100,
                  n_val_windows=16, val_horizon_ms=400.0)
WARM_TRAIN_STEPS = 5

ROLLOUT_SECONDS = 1.0
ATTENTION_EVERY = 8                      # one request in eight dumps attention

EVAL_HORIZONS = "100,200,400,1000"
EVAL_WINDOWS = 16                        # the CLI default

LONG_WINDOW = 120                        # the paper's window
LONG_BATCH = 4
LONG_VARIANTS = ("st", "full_2d")


class Spy:
    """Keeps the arguments and result of the latest call made through one
    module attribute, so a check can read what the program computed."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.fn = getattr(module, attr)
        self.args = self.result = None

        @functools.wraps(self.fn)
        def spy(*args, **kwargs):
            self.result = self.fn(*args, **kwargs)
            self.args = args
            return self.result

        setattr(module, attr, spy)

    def close(self):
        setattr(self.module, self.attr, self.fn)


def cli_request(argv):
    """A thunk running one ``st-motion`` command in-process; it returns the
    exit code and the command's stderr."""
    def thunk():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()
    return thunk


def remove_stale(*paths):
    """Delete earlier outputs, so a check never reads a previous request's."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def cli_failure(value):
    code, err = value
    return None if code == 0 else f"exit code {code}: {err}"


def synth(n_frames, rng) -> motiondata.MotionSequence:
    """The first ``n_frames`` of the seeded 60 fps recording."""
    skeleton = motiondata.default_skeleton()
    return motiondata.synth_motion(skeleton, n_frames, FPS,
                                   motiondata.two_frequency_spec(skeleton),
                                   noise_std=NOISE_STD, rng=rng)


def make_dataset(path, seed) -> motiondata.MotionSequence:
    """Synthesize and write the seeded 10-minute STM1 recording."""
    seq = synth(DATASET_FRAMES, np.random.default_rng(seed))
    motiondata.save_motion(path, seq)
    return seq


def make_params(cfg, rng):
    params = model.init_params(cfg, rng)
    w = params["out.w"].data
    w[...] = rng.normal(0.0, OUT_W_STD, size=w.shape)
    return params


class Workload:
    """One workload. ``setup`` builds its inputs under a directory; it runs in
    a child process, and the attributes it sets are pickled back. ``request``
    returns ``(kind, thunk, items, expected_calls)`` for request ``i``, and
    ``check`` returns None or the reason the request's output is wrong."""

    name = ""
    primary = ""       # request kind whose latency is request_ms_p50
    cycle = 1          # length of the repeating request mix

    def setup(self, root, seed):
        raise NotImplementedError

    def open(self):
        """Called once after the last setup, before the first request."""

    def warm(self):
        """An untimed request, sent before the first timed one on each CPU."""
        kind, thunk, _, _ = self.request(0)
        self.check(0, kind, thunk())

    def request(self, i):
        raise NotImplementedError

    def check(self, i, kind, value):
        raise NotImplementedError

    def close(self):
        pass

    def details(self, ops) -> dict:
        return {}


def _latencies(ops, kind):
    return [op.seconds for op in ops if op.kind == kind]


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


class TrainDesk(Workload):
    """Repeated ``st-motion train`` requests at the desk configuration."""

    name = "train_desk"
    primary = "train"

    def setup(self, root, seed):
        os.makedirs(root, exist_ok=True)
        self.data = os.path.join(root, "motion.stm1")
        make_dataset(self.data, seed)
        self.config = os.path.join(root, "desk.cfg")
        with open(self.config, "w") as fh:
            for key, value in {**DESK_MODEL, **DESK_TRAIN}.items():
                fh.write(f"{key} = {value}\n")
        self.out_dir = os.path.join(root, "run")
        self.seed = seed
        self.first_val = None
        self.results = []

    def open(self):
        self.spy = Spy(training, "validation_metrics")

    def close(self):
        self.spy.close()

    def _argv(self):
        return ["train", "--data", self.data, "--config", self.config,
                "--out-dir", self.out_dir, "--seed", str(self.seed)]

    def warm(self):
        cli_request(self._argv() + ["--steps", str(WARM_TRAIN_STEPS)])()

    def request(self, i):
        steps, every = DESK_TRAIN["max_steps"], DESK_TRAIN["eval_every"]
        evals = -(-steps // every)
        horizon = round(DESK_TRAIN["val_horizon_ms"] / 1000.0 * FPS)
        expected = {
            "model.forward": steps + evals * horizon,
            "tensor.backward": steps,
            "training.sample_batch": steps,
            "training.adam_step": steps,
            "training.validation_metrics": evals,
            "model.rollout_batch": evals,
            "so3.project_to_so3": evals * horizon,
            "model.save_checkpoint": 2,
            "motiondata.load_motion": 1,
        }
        remove_stale(os.path.join(self.out_dir, "history.csv"))
        self.spy.args = None
        return "train", cli_request(self._argv()), steps * DESK_TRAIN["batch_size"], expected

    def check(self, i, kind, value):
        failure = cli_failure(value)
        if failure:
            return failure
        with open(os.path.join(self.out_dir, "history.csv")) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        if len(rows) != DESK_TRAIN["max_steps"]:
            return f"history has {len(rows)} rows"
        losses = [float(r[1]) for r in rows]
        vals = [float(r[4]) for r in rows if r[4]]
        if not all(math.isfinite(v) for v in losses + vals) or not vals:
            return "non-finite loss or validation metric"
        best = min(vals)
        # zero-velocity on exactly the windows the training run validated on
        _, _, windows, horizon, _, fps = self.spy.args
        t_seed = windows.shape[1] - horizon
        zv = np.stack([model.zero_velocity(w[:t_seed], horizon) for w in windows])
        h_ms = horizon / fps * 1000.0
        zv_geo = evalmetrics.metric_geodesic(zv, windows[:, t_seed:], [h_ms], fps)[h_ms]
        self.results.append((best, zv_geo))
        if not best < zv_geo:
            return f"val geodesic {best} not below zero-velocity {zv_geo}"
        if self.first_val is None:
            self.first_val = best
        elif best != self.first_val:
            return f"val geodesic {best} differs from the first request's {self.first_val}"
        return None

    def details(self, ops):
        lat = _latencies(ops, "train")
        best, zv_geo = self.results[-1] if self.results else (float("nan"),) * 2
        return {
            "train.windows_per_s": (sum(op.items for op in ops) / sum(lat), "windows/s", len(lat)),
            "train.request_s_p50": (percentile(lat, 50), "s", len(lat)),
            "train.val_geodesic": (best, "rad", len(self.results)),
            "train.zero_velocity_geodesic": (zv_geo, "rad", len(self.results)),
        }


class RolloutB1(Workload):
    """Repeated ``st-motion rollout`` requests at B=1, one second each; one in
    eight also exports the attention maps."""

    name = "rollout_b1"
    primary = "plain"
    cycle = ATTENTION_EVERY

    def setup(self, root, seed):
        os.makedirs(root, exist_ok=True)
        rng = np.random.default_rng(seed)
        cfg = model.ModelConfig(**DESK_MODEL)
        start = int(rng.integers(0, OFFSET_FRAMES))
        seq = synth(start + cfg.window, rng)
        self.seed_file = os.path.join(root, "seed.stm1")
        motiondata.save_motion(self.seed_file, motiondata.MotionSequence(
            seq.skeleton, seq.rotations[start:], FPS))
        self.checkpoint = os.path.join(root, "desk.stt1")
        model.save_checkpoint(self.checkpoint, cfg, make_params(cfg, rng))
        self.out = os.path.join(root, "pred.stm1")
        self.csv = os.path.join(root, "attention.csv")
        self.steps = round(ROLLOUT_SECONDS * FPS)
        # header + one row per step, layer, head and (temporal + spatial) cell
        self.csv_lines = 1 + self.steps * cfg.n_layers * cfg.n_heads * (
            cfg.window ** 2 + cfg.n_joints ** 2)
        self.first = None

    def request(self, i):
        argv = ["rollout", "--checkpoint", self.checkpoint, "--seed-file", self.seed_file,
                "--seconds", str(ROLLOUT_SECONDS), "--out", self.out]
        dump = i % ATTENTION_EVERY == ATTENTION_EVERY - 1
        if dump:
            argv += ["--dump-attention", self.csv]
        expected = {
            "model.forward": self.steps,
            "so3.project_to_so3": self.steps,
            "model.rollout": 1,
            "model.load_checkpoint": 1,
            "motiondata.load_motion": 1,
            "motiondata.save_motion": 1,
            "model.write_attention_csv": int(dump),
            "model.attention_rows": self.steps * dump,
        }
        remove_stale(self.out, self.csv)
        return ("attention" if dump else "plain"), cli_request(argv), self.steps, expected

    def check(self, i, kind, value):
        failure = cli_failure(value)
        if failure:
            return failure
        pred = motiondata.load_motion(self.out)
        if pred.n_frames != self.steps or not so3.is_valid_rotmat(pred.rotations).all():
            return "rollout frames missing or not rotations"
        if self.first is None:
            self.first = pred.rotations
        elif not np.array_equal(pred.rotations, self.first):
            return "rollout differs from the first request's"
        if kind == "attention":
            with open(self.csv, "rb") as fh:
                lines = fh.read().count(b"\n")
            if lines != self.csv_lines:
                return f"attention CSV has {lines} lines, expected {self.csv_lines}"
        return None

    def details(self, ops):
        plain, attn = _latencies(ops, "plain"), _latencies(ops, "attention")
        return {
            "rollout.frames_per_s": (self.steps * len(plain) / sum(plain), "frames/s", len(plain)),
            "rollout.clip_ms_p50": (1000 * percentile(plain, 50), "ms", len(plain)),
            "rollout.clip_ms_p90": (1000 * percentile(plain, 90), "ms", len(plain)),
            "rollout.attn_clip_ms_p50": (1000 * percentile(attn, 50), "ms", len(attn)),
        }


class EvalB16(Workload):
    """Repeated ``st-motion eval`` requests: 16 windows, horizons to 1 s, on
    the 10-minute file."""

    name = "eval_b16"
    primary = "eval"

    def setup(self, root, seed):
        os.makedirs(root, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.data = os.path.join(root, "motion.stm1")
        self.seq = make_dataset(self.data, seed)
        self.cfg = model.ModelConfig(**DESK_MODEL)
        self.checkpoint = os.path.join(root, "desk.stt1")
        model.save_checkpoint(self.checkpoint, self.cfg, make_params(self.cfg, rng))
        self.out = os.path.join(root, "metrics.csv")
        self.horizons = [float(h) for h in EVAL_HORIZONS.split(",")]
        self.max_h = max(evalmetrics.horizon_frames(self.horizons, FPS))
        self.seed = seed

    def open(self):
        self.spy = Spy(model, "rollout_batch")

    def close(self):
        self.spy.close()

    def _window_seed(self, i):
        return self.seed * 100_003 + i

    def request(self, i):
        argv = ["eval", "--data", self.data, "--checkpoint", self.checkpoint,
                "--horizons", EVAL_HORIZONS, "--seed", str(self._window_seed(i)),
                "--out", self.out]
        expected = {
            "model.rollout_batch": 1,
            "model.forward": self.max_h,
            "so3.project_to_so3": self.max_h,
            "evalmetrics.full_report": 2,
            "model.zero_velocity": EVAL_WINDOWS,
            "model.load_checkpoint": 1,
            "motiondata.load_motion": 1,
        }
        root, ext = os.path.splitext(self.out)
        remove_stale(self.out, f"{root}_zero_velocity{ext}")
        self.spy.result = None
        return "eval", cli_request(argv), EVAL_WINDOWS * self.max_h, expected

    def check(self, i, kind, value):
        failure = cli_failure(value)
        if failure:
            return failure
        pred = self.spy.result
        if pred.shape != (EVAL_WINDOWS, self.max_h, self.cfg.n_joints, 9) or \
                not so3.is_valid_rotmat(pred.reshape(-1, 3, 3)).all():
            return "eval frames missing or not rotations"
        report = read_metric_csv(self.out)
        if not all(math.isfinite(v) for row in report.values() for v in row.values()):
            return "non-finite eval metric"
        windows = training.make_eval_windows(
            [self.seq], EVAL_WINDOWS, self.cfg.window + self.max_h,
            np.random.default_rng(self._window_seed(i)))
        seeds, truth = windows[:, :self.cfg.window], windows[:, self.cfg.window:]
        zv = np.stack([model.zero_velocity(s, self.max_h) for s in seeds])
        direct = evalmetrics.full_report(zv, truth, self.seq.skeleton, self.horizons, FPS)
        root, ext = os.path.splitext(self.out)
        written = read_metric_csv(f"{root}_zero_velocity{ext}")
        for h in self.horizons:
            for key, v in direct[h].items():
                if not math.isclose(written[h][key], v, rel_tol=1e-9, abs_tol=1e-12):
                    return f"zero-velocity {key} at {h} ms: CSV {written[h][key]} vs {v}"
        return None

    def details(self, ops):
        lat = _latencies(ops, "eval")
        return {
            "eval.frames_per_s": (sum(op.items for op in ops) / sum(lat), "frames/s", len(lat)),
            "eval.request_s_p50": (percentile(lat, 50), "s", len(lat)),
        }


def read_metric_csv(path) -> dict[float, dict[str, float]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")[1:]
        return {float(cells[0]): dict(zip(header, map(float, cells[1:])))
                for cells in (line.strip().split(",") for line in fh)}


class LongWindow(Workload):
    """``model.forward`` without a Tape at the paper's window T=120, B=4,
    alternating the decoupled ``st`` and the joint ``full_2d`` attention."""

    name = "long_window"
    primary = "st"
    cycle = len(LONG_VARIANTS)

    def setup(self, root, seed):
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, OFFSET_FRAMES, size=LONG_BATCH)
        flat = synth(OFFSET_FRAMES + LONG_WINDOW, rng).flat()
        self.x = np.stack([flat[s:s + LONG_WINDOW] for s in starts])
        self.models = {}
        for variant in LONG_VARIANTS:
            cfg = model.ModelConfig(**{**DESK_MODEL, "window": LONG_WINDOW,
                                       "variant": variant})
            self.models[variant] = (cfg, make_params(cfg, rng))
        n, t = DESK_MODEL["n_joints"], LONG_WINDOW
        self.scores = {"st": n * t * t + t * n * n, "full_2d": (n * t) ** 2}
        self.stats = {}

    def request(self, i):
        variant = LONG_VARIANTS[i % len(LONG_VARIANTS)]
        cfg, params = self.models[variant]
        return (variant, lambda: model.forward(params, cfg, self.x),
                LONG_BATCH, {"model.forward": 1})

    def check(self, i, kind, value):
        pred, _, stats = value
        cfg = self.models[kind][0]
        if pred.data.shape != self.x.shape or not np.all(np.isfinite(pred.data)):
            return "forward output has the wrong shape or is not finite"
        if stats.scores_per_layer != [self.scores[kind]] * cfg.n_layers:
            return f"{kind} scores_per_layer {stats.scores_per_layer} != {self.scores[kind]}"
        self.stats[kind] = stats
        return None

    def details(self, ops):
        out = {}
        for variant in LONG_VARIANTS:
            lat = _latencies(ops, variant)
            out[f"long_window.{variant}_forward_ms"] = (1000 * percentile(lat, 50), "ms", len(lat))
            stats = self.stats.get(variant)
            if stats is not None:
                out[f"long_window.{variant}_scores_per_layer"] = (
                    stats.scores_per_layer[0], "scores", len(lat))
                out[f"long_window.{variant}_workspace_elements"] = (
                    stats.workspace_elements, "elements", len(lat))
        return out


WORKLOADS = {w.name: w for w in (TrainDesk, RolloutB1, EvalB16, LongWindow)}
