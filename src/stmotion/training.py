"""Loss, optimizer, learning-rate schedule and the training loop.

Training predicts the next pose at every window position (seed and target
jointly). The loss is the per-joint Euclidean distance between predicted and
true flattened rotation matrices, summed over frames and joints and averaged
over the batch. Optimization uses Adam with warmup learning-rate scheduling
and clipping by global gradient norm; early stopping tracks the validation
joint-angle error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evalmetrics, tensor as tz
from .errors import ConfigError, NumericError, check_fields
from .model import ModelConfig, forward, rollout_batch
from .motiondata import JOINT_DIM, MotionSequence, mirror_rotations
from .tensor import Tape, Tensor, backward


@dataclass
class TrainConfig:
    batch_size: int = 32
    warmup: int = 10000
    max_steps: int = 3000
    eval_every: int = 500
    patience: int = 10            # evaluations without improvement
    reverse_prob: float = 0.0
    mirror_prob: float = 0.0
    seed: int = 0
    n_val_windows: int = 16
    val_horizon_ms: float = 400.0

    def __post_init__(self):
        check_fields(self, counts=("batch_size", "warmup", "max_steps", "eval_every",
                                   "patience", "n_val_windows"))
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
        for name in ("reverse_prob", "mirror_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} {value!r} must be a probability in [0, 1]")
        if not self.val_horizon_ms > 0:
            raise ConfigError(f"val_horizon_ms {self.val_horizon_ms!r} must be positive")


def loss_per_joint_l2(pred: Tensor, target: np.ndarray) -> Tensor:
    """Sum over frames and joints of the 9-dim rotation difference norm,
    averaged over the batch (leading) dimension when present."""
    t = np.asarray(target, dtype=pred.data.dtype)
    if t.shape != pred.data.shape:
        raise ValueError(f"shape mismatch: pred {pred.data.shape} vs target {t.shape}")
    per_joint = tz.l2norm_lastdim(tz.add(pred, Tensor(-t)))
    total = tz.tsum(per_joint)
    if pred.data.ndim == 4:
        total = tz.mul(total, Tensor(1.0 / pred.data.shape[0], dtype=pred.data.dtype))
    return total


def noam_lr(step: int, embed_dim: int, warmup: int) -> float:
    """D^-0.5 * min(step^-0.5, step * warmup^-1.5); peaks at step == warmup."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return embed_dim ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float):
    """Scale all gradients jointly so their global L2 norm is <= max_norm.

    Returns (clipped grads, pre-clip norm). Direction is preserved."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads, total
    factor = max_norm / total
    return {k: g * np.float32(factor) for k, g in grads.items()}, total


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the standard Adam constants
MAX_GRAD_NORM = 1.0  # every training step's gradients are clipped to this global norm


class AdamState:
    """First/second moment accumulators."""

    def __init__(self, params: dict[str, Tensor]):
        self.step = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float):
    """One Adam update with bias correction, in place."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for k, p in params.items():
        g = grads[k]
        state.m[k] = ADAM_BETA1 * state.m[k] + (1.0 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# Evaluation helper used for early stopping
# ---------------------------------------------------------------------------


def validation_metrics(params, cfg: ModelConfig, val_windows: np.ndarray,
                       horizon_frames: int, skeleton, frame_rate: float) -> dict:
    """Euler / geodesic / positional errors of an autoregressive rollout
    against ground truth at the validation horizon.

    val_windows: (W, T_seed + horizon, N, 9)."""
    t_seed = val_windows.shape[1] - horizon_frames
    pred = rollout_batch(params, cfg, val_windows[:, :t_seed], horizon_frames)
    horizon_ms = horizon_frames / frame_rate * 1000.0
    report = evalmetrics.full_report(pred, val_windows[:, t_seed:], skeleton,
                                     [horizon_ms], frame_rate)[horizon_ms]
    return {"val_euler": report["euler"], "val_geodesic": report["geodesic"],
            "val_positional": report["positional_mm"]}


def _cut_windows(seqs: list[MotionSequence], count: int, length: int,
                 rng: np.random.Generator, reverse_prob: float = 0.0,
                 mirror_prob: float = 0.0) -> np.ndarray:
    """The one window cutter: `count` windows of `length` frames as a
    (count, length, N, 9) float32 array. Per window it draws a sequence with
    probability proportional to its number of such windows, a uniform start
    in it, then (when the chance is positive) whether to reverse the window
    in time and whether to mirror it, in that order."""
    lengths = np.array([max(s.n_frames - length + 1, 0) for s in seqs])
    if lengths.sum() == 0:
        raise ValueError(f"no sequence long enough for windows of {length} frames")
    probs = lengths / lengths.sum()
    out = np.empty((count, length, seqs[0].skeleton.n_joints, JOINT_DIM), dtype=np.float32)
    for i in range(count):
        si = rng.choice(len(seqs), p=probs)
        seq = seqs[si]
        start = int(rng.integers(0, lengths[si]))
        w = seq.rotations[start:start + length]
        if reverse_prob > 0 and rng.random() < reverse_prob:
            w = w[::-1]
        if mirror_prob > 0 and rng.random() < mirror_prob:
            w = mirror_rotations(w, seq.skeleton)
        out[i] = w.reshape(out.shape[1:])
    return out


def make_eval_windows(seqs: list[MotionSequence], count: int, length: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Sample `count` flattened windows of `length` frames across sequences."""
    return _cut_windows(seqs, count, length, rng)


def sample_batch(seqs: list[MotionSequence], batch_size: int, length: int,
                 rng: np.random.Generator, reverse_prob: float = 0.0,
                 mirror_prob: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """A training batch of windows of `length` frames, each reversed and
    mirrored by independent chances: (inputs, targets), frames [0, length-1)
    and [1, length) of every window, each (batch_size, length - 1, N, 9)."""
    if length < 2:
        raise ValueError(f"windows must have length >= 2 for target shifting, got {length}")
    w = _cut_windows(seqs, batch_size, length, rng, reverse_prob, mirror_prob)
    return w[:, :-1], w[:, 1:]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: dict[str, Tensor]          # best-validation parameters
    final_params: dict[str, Tensor]
    history: list[dict] = field(default_factory=list)
    best_val: float = math.inf
    best_step: int = 0


HISTORY_COLUMNS = ("step", "loss", "lr", "val_euler", "val_geodesic", "val_positional")


def _clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}


def train(params: dict[str, Tensor], cfg: ModelConfig, tcfg: TrainConfig,
          train_seqs: list[MotionSequence], val_seqs: list[MotionSequence]) -> TrainResult:
    """Run the full training loop; deterministic given the config seed.

    Raises NumericError on non-finite values in training or validation, or on
    a rank-deficient validation frame (so3.DegenerateRotationError); it
    carries the best checkpoint so far in its ``result`` attribute."""
    rng = np.random.default_rng(tcfg.seed)
    state = AdamState(params)
    fps = train_seqs[0].frame_rate
    horizon = evalmetrics.span_frames("val_horizon_ms", tcfg.val_horizon_ms, fps,
                                      per_second=1000.0)
    val_rng = np.random.default_rng(tcfg.seed + 1)
    val_windows = make_eval_windows(val_seqs, tcfg.n_val_windows,
                                    cfg.window + horizon, val_rng)

    result = TrainResult(params=_clone_params(params), final_params=params)
    since_best = 0
    try:
        for step in range(1, tcfg.max_steps + 1):
            inputs, targets = sample_batch(train_seqs, tcfg.batch_size, cfg.window + 1, rng,
                                           tcfg.reverse_prob, tcfg.mirror_prob)
            with Tape() as tape:
                pred, _, _ = forward(params, cfg, inputs, rng=rng)
                loss = loss_per_joint_l2(pred, targets)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise NumericError(f"non-finite loss at step {step}")
            for p in params.values():
                p.zero_grad()
            backward(loss, tape)
            grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                     for k, p in params.items()}
            grads, _ = clip_global_norm(grads, MAX_GRAD_NORM)
            lr = noam_lr(step, cfg.embed_dim, tcfg.warmup)
            adam_step(params, grads, state, lr)

            row = dict.fromkeys(HISTORY_COLUMNS) | {"step": step, "loss": loss_val, "lr": lr}
            if step % tcfg.eval_every == 0 or step == tcfg.max_steps:
                row.update(validation_metrics(params, cfg, val_windows, horizon,
                                              val_seqs[0].skeleton, fps))
                val = row["val_geodesic"]
                if val < result.best_val:
                    result.best_val = val
                    result.best_step = step
                    result.params = _clone_params(params)
                    since_best = 0
                else:
                    since_best += 1
            result.history.append(row)
            if since_best >= tcfg.patience:
                break
    except NumericError as err:
        err.result = result
        raise
    return result


def write_history_csv(path, history: list[dict]):
    """One row per step under a `HISTORY_COLUMNS` header; a None cell is empty."""
    with tz.atomic_write(path) as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in history:
            fh.write(",".join("" if row[k] is None else repr(row[k])
                              for k in HISTORY_COLUMNS) + "\n")
