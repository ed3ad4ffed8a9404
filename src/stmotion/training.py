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

from . import tensor as tz
from .errors import NumericError
from .model import ModelConfig, forward, rollout_batch
from .motiondata import MotionSequence, shift_targets, augment_mirror, augment_reverse
from .tensor import Tape, Tensor, backward


@dataclass
class TrainConfig:
    batch_size: int = 32
    warmup: int = 10000
    max_steps: int = 3000
    max_grad_norm: float = 1.0
    eval_every: int = 500
    patience: int = 10            # evaluations without improvement
    reverse_prob: float = 0.0
    mirror_prob: float = 0.0
    seed: int = 0
    n_val_windows: int = 16
    val_horizon_ms: float = 400.0

    def __post_init__(self):
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")


def loss_per_joint_l2(pred: Tensor, target: np.ndarray) -> Tensor:
    """Sum over frames and joints of the 9-dim rotation difference norm,
    averaged over the batch (leading) dimension when present."""
    t = np.asarray(target, dtype=pred.data.dtype)
    if t.shape != pred.data.shape:
        raise ValueError(f"shape mismatch: pred {pred.data.shape} vs target {t.shape}")
    per_joint = tz.l2norm_lastdim(tz.sub(pred, Tensor(t)))
    total = tz.tsum(per_joint)
    if pred.data.ndim == 4:
        total = tz.scale(total, 1.0 / pred.data.shape[0])
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


class AdamState:
    """First/second moment accumulators with the standard defaults."""

    def __init__(self, params: dict[str, Tensor],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float):
    """One Adam update with bias correction, in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for k, p in params.items():
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * (g * g)
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# Evaluation helper used for early stopping
# ---------------------------------------------------------------------------


def validation_metrics(params, cfg: ModelConfig, val_windows: np.ndarray,
                       horizon_frames: int, skeleton, frame_rate: float) -> dict:
    """Euler / geodesic / positional errors of an autoregressive rollout
    against ground truth at the validation horizon.

    val_windows: (W, T_seed + horizon, N, 9)."""
    from . import evalmetrics

    t_seed = val_windows.shape[1] - horizon_frames
    pred = rollout_batch(params, cfg, val_windows[:, :t_seed], horizon_frames)
    truth = val_windows[:, t_seed:]
    horizon_ms = horizon_frames / frame_rate * 1000.0
    return {
        "val_euler": evalmetrics.metric_euler(pred, truth, [horizon_ms], frame_rate)[horizon_ms],
        "val_geodesic": evalmetrics.metric_geodesic(pred, truth, [horizon_ms], frame_rate)[horizon_ms],
        "val_positional": evalmetrics.metric_positional(
            pred, truth, skeleton, [horizon_ms], frame_rate)[horizon_ms],
    }


def _window_starts(seqs: list[MotionSequence], count: int, length: int,
                   rng: np.random.Generator):
    """Yield `count` (sequence, start) draws for windows of `length` frames:
    a sequence with probability proportional to its number of such windows,
    then a uniform start in it. Lazy, so a caller's own draws from `rng`
    between windows keep their place in the stream."""
    lengths = np.array([max(s.n_frames - length + 1, 0) for s in seqs])
    if lengths.sum() == 0:
        raise ValueError(f"no sequence long enough for windows of {length} frames")
    probs = lengths / lengths.sum()
    for _ in range(count):
        si = rng.choice(len(seqs), p=probs)
        yield seqs[si], int(rng.integers(0, lengths[si]))


def make_eval_windows(seqs: list[MotionSequence], count: int, length: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Sample `count` flattened windows of `length` frames across sequences."""
    picks = list(_window_starts(seqs, count, length, rng))
    out = np.empty((count, length, seqs[0].skeleton.n_joints, 9), dtype=np.float32)
    for i, (seq, start) in enumerate(picks):
        out[i] = seq.flat()[start:start + length]
    return out


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


def _clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}


def sample_batch(seqs: list[MotionSequence], batch_size: int, length: int,
                 rng: np.random.Generator, reverse_prob: float = 0.0,
                 mirror_prob: float = 0.0):
    """Uniform random window starts, with independent per-sample reverse and
    mirror augmentation chances."""
    picked = []
    for seq, start in _window_starts(seqs, batch_size, length, rng):
        w = MotionSequence(seq.skeleton, seq.rotations[start:start + length],
                           seq.frame_rate)
        if reverse_prob > 0 and rng.random() < reverse_prob:
            w = augment_reverse(w)
        if mirror_prob > 0 and rng.random() < mirror_prob:
            w = augment_mirror(w)
        picked.append(w)
    return shift_targets(picked)


def train(params: dict[str, Tensor], cfg: ModelConfig, tcfg: TrainConfig,
          train_seqs: list[MotionSequence], val_seqs: list[MotionSequence]) -> TrainResult:
    """Run the full training loop; deterministic given the config seed.

    Raises NumericError on a non-finite loss; the exception carries the best
    checkpoint so far in its ``result`` attribute."""
    rng = np.random.default_rng(tcfg.seed)
    state = AdamState(params)
    fps = train_seqs[0].frame_rate
    horizon = max(1, round(tcfg.val_horizon_ms / 1000.0 * fps))
    val_rng = np.random.default_rng(tcfg.seed + 1)
    val_windows = make_eval_windows(val_seqs, tcfg.n_val_windows,
                                    cfg.window + horizon, val_rng)

    result = TrainResult(params=_clone_params(params), final_params=params)
    since_best = 0
    for step in range(1, tcfg.max_steps + 1):
        batch = sample_batch(train_seqs, tcfg.batch_size, cfg.window + 1, rng,
                             tcfg.reverse_prob, tcfg.mirror_prob)
        try:
            with Tape() as tape:
                pred, _, _ = forward(params, cfg, batch.inputs, training=True, rng=rng)
                loss = loss_per_joint_l2(pred, batch.targets)
        except NumericError as err:
            err.result = result
            raise
        loss_val = float(loss.data)
        if not math.isfinite(loss_val):
            err = NumericError(f"non-finite loss at step {step}")
            err.result = result
            raise err
        for p in params.values():
            p.zero_grad()
        backward(loss, tape)
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for k, p in params.items()}
        grads, _ = clip_global_norm(grads, tcfg.max_grad_norm)
        lr = noam_lr(step, cfg.embed_dim, tcfg.warmup)
        adam_step(params, grads, state, lr)

        row = {"step": step, "loss": loss_val, "lr": lr,
               "val_euler": None, "val_geodesic": None, "val_positional": None}
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
    return result


def write_history_csv(path, history: list[dict]):
    with open(path, "w") as fh:
        fh.write("step,loss,lr,val_euler,val_geodesic,val_positional\n")
        for row in history:
            cells = [str(row["step"]), repr(row["loss"]), repr(row["lr"])]
            for key in ("val_euler", "val_geodesic", "val_positional"):
                v = row.get(key)
                cells.append("" if v is None else repr(v))
            fh.write(",".join(cells) + "\n")
