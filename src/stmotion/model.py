"""Decoupled spatio-temporal transformer for autoregressive pose prediction.

The network embeds every joint of every frame into a D-dimensional space,
adds sinusoidal positional encodings, and stacks L attention blocks. Each
block runs two attention streams in parallel on the same input: a causal
temporal stream (every joint attends to its own past, per-joint projection
weights) and an unmasked spatial stream (joints attend to each other within
one frame; query projections per joint, key/value projections shared). The
summaries are summed, passed through a pointwise feed-forward network, and
normalized with a residual connection. The final embeddings are projected
back to rotation space and added to the input pose, so a zero-initialized
output projection is exactly the zero-velocity predictor.

Two reference variants share the block scaffolding: ``vanilla_1d`` attends
over time on whole-pose vectors, ``full_2d`` attends over all joint-time
tokens with causal masking on the time axis only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as tz
from .errors import ConfigError, NumericError
from .motiondata import JOINT_DIM
from .so3 import project_to_so3
from .tensor import Tensor

VARIANTS = ("st", "vanilla_1d", "full_2d")
TAU_MODES = ("softmax", "sum_normalize")
SHARING_MODES = ("query_separate", "all_separate", "all_shared")

_NEG_INF = -1e9  # additive mask value; large enough to underflow exp() to 0


@dataclass
class ModelConfig:
    n_joints: int = 9
    joint_dim: int = JOINT_DIM
    embed_dim: int = 128      # D
    n_layers: int = 8         # L
    n_heads: int = 8          # H
    ff_size: int = 256
    window: int = 120         # temporal attention length T
    dropout: float = 0.1
    tau_mode: str = "softmax"
    spatial_sharing: str = "query_separate"
    variant: str = "st"
    ff_per_branch: bool = False

    def __post_init__(self):
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be divisible by n_heads {self.n_heads}")
        if self.tau_mode not in TAU_MODES:
            raise ConfigError(f"unknown tau_mode {self.tau_mode!r}")
        if self.spatial_sharing not in SHARING_MODES:
            raise ConfigError(f"unknown spatial_sharing {self.spatial_sharing!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "ModelConfig":
        return cls(**json.loads(s))


@dataclass
class AttentionMaps:
    """Per-layer, per-head attention weights, averaged over batch and over the
    complementary axis (joints for temporal maps, frames for spatial maps)."""

    temporal: list[np.ndarray] = field(default_factory=list)  # each (H, T, T)
    spatial: list[np.ndarray] = field(default_factory=list)   # each (H, N, N)


@dataclass
class ForwardStats:
    """Instrumentation: attention-score counts and forward workspace size.

    ``scores_per_layer`` holds, per layer, the number of attention scores
    computed per head and batch element (ST: N*T^2 + T*N^2, 2D: (N*T)^2).
    ``workspace_elements`` totals the elements of attention and feed-forward
    intermediates over the whole forward pass.
    """

    scores_per_layer: list[int] = field(default_factory=list)
    workspace_elements: int = 0


def positional_encoding(length: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Standard sinusoidal encoding: PE[t, 2k] = sin(t / 10000^(2k/D)),
    PE[t, 2k+1] = cos(t / 10000^(2k/D))."""
    if dim % 2 != 0:
        raise ConfigError("positional encoding dimension must be even")
    t = np.arange(length, dtype=np.float64)[:, None]
    k2 = np.arange(0, dim, 2, dtype=np.float64)
    inv = 1.0 / np.power(10000.0, k2 / dim)
    pe = np.empty((length, dim))
    pe[:, 0::2] = np.sin(t * inv)
    pe[:, 1::2] = np.cos(t * inv)
    return pe.astype(dtype)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def _uniform(rng, shape, fan_in, dtype) -> Tensor:
    s = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-s, s, size=shape).astype(dtype), requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def init_params(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh trainable parameters. The output pose projection starts at zero,
    so the untrained model reproduces the zero-velocity predictor."""
    n, m, d, h, f, ff = (cfg.n_joints, cfg.joint_dim, cfg.embed_dim,
                         cfg.n_heads, cfg.head_dim, cfg.ff_size)
    p: dict[str, Tensor] = {}
    if cfg.variant == "vanilla_1d":
        p["embed.w"] = _uniform(rng, (n * m, d), n * m, dtype)
        p["embed.b"] = _zeros((d,), dtype)
    else:
        p["embed.w"] = _uniform(rng, (n, m, d), m, dtype)
        p["embed.b"] = _zeros((n, d), dtype)

    for l in range(cfg.n_layers):
        pre = f"l{l}."
        if cfg.variant == "st":
            for w in ("wq", "wk", "wv"):
                p[pre + "t." + w] = _uniform(rng, (n, h, d, f), d, dtype)
            p[pre + "t.wo"] = _uniform(rng, (n, h * f, d), h * f, dtype)
            q_shape = (h, d, f) if cfg.spatial_sharing == "all_shared" else (n, h, d, f)
            kv_shape = (n, h, d, f) if cfg.spatial_sharing == "all_separate" else (h, d, f)
            p[pre + "s.wq"] = _uniform(rng, q_shape, d, dtype)
            p[pre + "s.wk"] = _uniform(rng, kv_shape, d, dtype)
            p[pre + "s.wv"] = _uniform(rng, kv_shape, d, dtype)
            p[pre + "s.wo"] = _uniform(rng, (h * f, d), h * f, dtype)
        else:
            for w in ("wq", "wk", "wv"):
                p[pre + "a." + w] = _uniform(rng, (h, d, f), d, dtype)
            p[pre + "a.wo"] = _uniform(rng, (h * f, d), h * f, dtype)

        ff_names = ("ff_t", "ff_s") if (cfg.ff_per_branch and cfg.variant == "st") else ("ff",)
        for name in ff_names:
            p[f"{pre}{name}.w1"] = _uniform(rng, (d, ff), d, dtype)
            p[f"{pre}{name}.b1"] = _zeros((ff,), dtype)
            p[f"{pre}{name}.w2"] = _uniform(rng, (ff, d), ff, dtype)
            p[f"{pre}{name}.b2"] = _zeros((d,), dtype)
        p[pre + "ln.g"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        p[pre + "ln.b"] = _zeros((d,), dtype)

    if cfg.variant == "vanilla_1d":
        p["out.w"] = _zeros((d, n * m), dtype)
        p["out.b"] = _zeros((n * m,), dtype)
    else:
        p["out.w"] = _zeros((n, d, m), dtype)
        p["out.b"] = _zeros((n, m), dtype)
    return p


def param_count(params: dict[str, Tensor]) -> int:
    return sum(t.data.size for t in params.values())


def matched_vanilla_config(cfg: ModelConfig) -> ModelConfig:
    """A vanilla_1d config whose parameter count best matches the given ST
    config (embedding width chosen from multiples of n_heads)."""
    rng = np.random.default_rng(0)
    target = param_count(init_params(cfg, rng))
    best = None
    for d in range(cfg.n_heads, 16 * cfg.embed_dim + 1, cfg.n_heads):
        cand = ModelConfig(
            n_joints=cfg.n_joints, joint_dim=cfg.joint_dim, embed_dim=d,
            n_layers=cfg.n_layers, n_heads=cfg.n_heads, ff_size=2 * d,
            window=cfg.window, dropout=cfg.dropout, tau_mode=cfg.tau_mode,
            variant="vanilla_1d")
        count = param_count(init_params(cand, rng))
        diff = abs(count - target)
        if best is None or diff < best[0]:
            best = (diff, cand)
        if count > 2 * target:
            break
    return best[1]


# ---------------------------------------------------------------------------
# Attention building blocks
# ---------------------------------------------------------------------------


def _causal_keep(t: int, dtype) -> np.ndarray:
    return np.tril(np.ones((t, t), dtype=dtype))


def _token_causal_keep(t: int, n: int, dtype) -> np.ndarray:
    """(T*N, T*N) keep mask over t-major joint-time tokens: token (t, n) may
    attend to (t', n') iff t' <= t."""
    frame_keep = _causal_keep(t, dtype)
    return np.kron(frame_keep, np.ones((n, n), dtype=dtype))


def _attend(q, k, v, cfg: ModelConfig, keep: np.ndarray | None, stats: ForwardStats):
    """Scaled dot-product attention over the last two dims of q/k/v.

    Returns (context, weights). `keep` is a 0/1 admissibility mask broadcast
    over the score matrix; None means unmasked. Scores are scaled by
    1/sqrt(D) (the joint embedding size, not the head size)."""
    dtype = q.data.dtype
    scores = tz.scale(tz.matmul(q, tz.transpose(k, tuple(range(q.data.ndim - 2)) + (q.data.ndim - 1, q.data.ndim - 2))),
                      1.0 / math.sqrt(cfg.embed_dim))
    stats.workspace_elements += scores.data.size
    if cfg.tau_mode == "softmax":
        if keep is not None:
            bias = np.where(keep > 0, dtype.type(0), dtype.type(_NEG_INF))
            scores = tz.add(scores, Tensor(bias))
        weights = tz.softmax_lastdim(scores)
    else:
        weights = tz.normalize_rows(tz.relu(scores), keep=keep)
    stats.workspace_elements += weights.data.size
    ctx = tz.matmul(weights, v)
    stats.workspace_elements += ctx.data.size
    return ctx, weights


def _project_heads(x: Tensor, w: Tensor, stats: ForwardStats) -> Tensor:
    out = tz.matmul(x, w)
    stats.workspace_elements += out.data.size
    return out


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _temporal_stream(e: Tensor, p: dict, pre: str, cfg: ModelConfig, stats: ForwardStats):
    """Per-joint causal attention over time. e: (B, T, N, D) -> same shape."""
    b, t, n, d = e.data.shape
    h, f = cfg.n_heads, cfg.head_dim
    dtype = e.data.dtype
    et = tz.reshape(tz.transpose(e, (0, 2, 1, 3)), (b, n, 1, t, d))
    q = _project_heads(et, p[pre + "t.wq"], stats)  # (B, N, H, T, F)
    k = _project_heads(et, p[pre + "t.wk"], stats)
    v = _project_heads(et, p[pre + "t.wv"], stats)
    keep = _causal_keep(t, dtype)
    ctx, weights = _attend(q, k, v, cfg, keep, stats)
    ctx = tz.reshape(tz.transpose(ctx, (0, 1, 3, 2, 4)), (b, n, t, h * f))
    out = _project_heads(ctx, p[pre + "t.wo"], stats)  # (B, N, T, D)
    out = tz.transpose(out, (0, 2, 1, 3))
    # (B, N, H, T, T) -> (H, T, T), averaged over batch and joints
    maps = weights.data.mean(axis=(0, 1))
    return out, maps, n * t * t


def _spatial_stream(e: Tensor, p: dict, pre: str, cfg: ModelConfig, stats: ForwardStats):
    """Unmasked attention among joints within a frame. e: (B, T, N, D)."""
    b, t, n, d = e.data.shape
    h, f = cfg.n_heads, cfg.head_dim
    shared = tz.reshape(e, (b, t, 1, n, d))

    def per_joint(w):
        ej = tz.reshape(e, (b, t, n, 1, 1, d))
        x = tz.matmul(ej, w)  # (B, T, N, H, 1, F)
        stats.workspace_elements += x.data.size
        return tz.transpose(tz.reshape(x, (b, t, n, h, f)), (0, 1, 3, 2, 4))

    if cfg.spatial_sharing == "all_shared":
        q = _project_heads(shared, p[pre + "s.wq"], stats)
    else:
        q = per_joint(p[pre + "s.wq"])
    if cfg.spatial_sharing == "all_separate":
        k = per_joint(p[pre + "s.wk"])
        v = per_joint(p[pre + "s.wv"])
    else:
        k = _project_heads(shared, p[pre + "s.wk"], stats)
        v = _project_heads(shared, p[pre + "s.wv"], stats)

    ctx, weights = _attend(q, k, v, cfg, None, stats)  # (B, T, H, N, F)
    ctx = tz.reshape(tz.transpose(ctx, (0, 1, 3, 2, 4)), (b, t, n, h * f))
    out = _project_heads(ctx, p[pre + "s.wo"], stats)  # (B, T, N, D)
    maps = weights.data.mean(axis=(0, 1))  # (H, N, N)
    return out, maps, t * n * n


def _token_stream(e: Tensor, p: dict, pre: str, cfg: ModelConfig, keep: np.ndarray | None,
                  stats: ForwardStats):
    """Shared-weight attention over a flat token axis (vanilla and 2D paths).

    e: (B, S, D) with S tokens; keep is the (S, S) admissibility mask."""
    b, s, d = e.data.shape
    h, f = cfg.n_heads, cfg.head_dim
    er = tz.reshape(e, (b, 1, s, d))
    q = _project_heads(er, p[pre + "a.wq"], stats)  # (B, H, S, F)
    k = _project_heads(er, p[pre + "a.wk"], stats)
    v = _project_heads(er, p[pre + "a.wv"], stats)
    ctx, weights = _attend(q, k, v, cfg, keep, stats)
    ctx = tz.reshape(tz.transpose(ctx, (0, 2, 1, 3)), (b, s, h * f))
    out = _project_heads(ctx, p[pre + "a.wo"], stats)  # (B, S, D)
    return out, weights.data, s * s


def _feed_forward(x: Tensor, p: dict, name: str, stats: ForwardStats) -> Tensor:
    hdn = tz.relu(tz.add(tz.matmul(x, p[name + ".w1"]), p[name + ".b1"]))
    stats.workspace_elements += hdn.data.size
    out = tz.add(tz.matmul(hdn, p[name + ".w2"]), p[name + ".b2"])
    stats.workspace_elements += out.data.size
    return out


def _aggregate(e_in: Tensor, summaries: list[Tensor], p: dict, pre: str, cfg: ModelConfig,
               training: bool, rng, stats: ForwardStats) -> Tensor:
    """Sum the stream summaries, feed-forward, dropout, then post-norm with a
    residual from the block input. With ff_per_branch each summary passes its
    own feed-forward network before the sum (appendix-style reading)."""
    if cfg.ff_per_branch and cfg.variant == "st" and len(summaries) == 2:
        s = tz.add(_feed_forward(summaries[0], p, pre + "ff_t", stats),
                   _feed_forward(summaries[1], p, pre + "ff_s", stats))
    else:
        s = summaries[0]
        for extra in summaries[1:]:
            s = tz.add(s, extra)
        s = _feed_forward(s, p, pre + "ff", stats)
    s = tz.dropout(s, cfg.dropout, training, rng)
    return tz.layer_norm(tz.add(e_in, s), p[pre + "ln.g"], p[pre + "ln.b"])


def forward(params: dict[str, Tensor], cfg: ModelConfig, window: np.ndarray,
            training: bool = False, rng: np.random.Generator | None = None):
    """Predict the next pose for every position of the input window.

    window: (B, T, N, M) or (T, N, M) flattened rotations, T <= cfg.window.
    Returns (predictions Tensor of the same shape, AttentionMaps, ForwardStats).
    Position t of the output is the model's estimate of frame t+1 (input pose
    plus a learned delta).
    """
    x = np.asarray(window)
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    b, t, n, m = x.shape
    if n != cfg.n_joints or m != cfg.joint_dim:
        raise ConfigError(f"window joints/dims {(n, m)} do not match config "
                          f"{(cfg.n_joints, cfg.joint_dim)}")
    if t > cfg.window:
        raise ConfigError(f"window length {t} exceeds configured maximum {cfg.window}")
    if training and cfg.dropout > 0 and rng is None:
        raise ConfigError("training-mode forward requires an rng for dropout")

    dtype = params["embed.w"].data.dtype
    x = x.astype(dtype, copy=False)
    d = cfg.embed_dim
    stats = ForwardStats()
    maps = AttentionMaps()
    xt = Tensor(x)

    # joint embeddings + positional encoding + dropout
    pe = positional_encoding(t, d, dtype)
    if cfg.variant == "vanilla_1d":
        flat = tz.reshape(xt, (b, t, n * m))
        e = tz.add(tz.matmul(flat, params["embed.w"]), params["embed.b"])  # (B, T, D)
        e = tz.add(e, Tensor(pe))
    else:
        ej = tz.reshape(xt, (b, t, n, 1, m))
        e = tz.reshape(tz.matmul(ej, params["embed.w"]), (b, t, n, d))
        e = tz.add(e, params["embed.b"])
        e = tz.add(e, Tensor(pe[:, None, :]))
    stats.workspace_elements += e.data.size
    e = tz.dropout(e, cfg.dropout, training, rng)

    token_keep = None
    if cfg.variant == "full_2d":
        token_keep = _token_causal_keep(t, n, dtype)

    for l in range(cfg.n_layers):
        pre = f"l{l}."
        if cfg.variant == "st":
            t_out, t_map, t_scores = _temporal_stream(e, params, pre, cfg, stats)
            s_out, s_map, s_scores = _spatial_stream(e, params, pre, cfg, stats)
            maps.temporal.append(t_map)
            maps.spatial.append(s_map)
            stats.scores_per_layer.append(t_scores + s_scores)
            e = _aggregate(e, [t_out, s_out], params, pre, cfg, training, rng, stats)
        elif cfg.variant == "vanilla_1d":
            a_out, w, n_scores = _token_stream(e, params, pre, cfg,
                                               _causal_keep(t, dtype), stats)
            maps.temporal.append(w.mean(axis=0))  # (H, T, T)
            stats.scores_per_layer.append(n_scores)
            e = _aggregate(e, [a_out], params, pre, cfg, training, rng, stats)
        else:  # full_2d
            flat_e = tz.reshape(e, (b, t * n, d))
            a_out, w, n_scores = _token_stream(flat_e, params, pre, cfg,
                                               token_keep, stats)
            a_out = tz.reshape(a_out, (b, t, n, d))
            stats.scores_per_layer.append(n_scores)
            # (B, H, T, N, T, N): sum over attended axis, average the rest
            w6 = w.reshape(w.shape[0], w.shape[1], t, n, t, n)
            maps.temporal.append(w6.sum(axis=5).mean(axis=(0, 3)))
            maps.spatial.append(w6.sum(axis=4).mean(axis=(0, 2)))
            e = _aggregate(e, [a_out], params, pre, cfg, training, rng, stats)
        if not np.all(np.isfinite(e.data)):
            raise NumericError(f"non-finite embeddings after attention block {l}")

    # project back to pose space and add the input pose residual
    if cfg.variant == "vanilla_1d":
        delta = tz.add(tz.matmul(e, params["out.w"]), params["out.b"])
        delta = tz.reshape(delta, (b, t, n, m))
    else:
        ej = tz.reshape(e, (b, t, n, 1, d))
        delta = tz.reshape(tz.matmul(ej, params["out.w"]), (b, t, n, m))
        delta = tz.add(delta, params["out.b"])
    pred = tz.add(xt, delta)
    if not np.all(np.isfinite(pred.data)):
        raise NumericError("non-finite values in final pose projection")
    if squeeze:
        pred = tz.reshape(pred, (t, n, m))
    return pred, maps, stats


def rollout(params: dict[str, Tensor], cfg: ModelConfig, seed: np.ndarray, steps: int,
            collect_attention: bool = False):
    """`rollout_batch` on a single seed window.

    seed: (T_seed, N, M) flattened rotations, T_seed <= cfg.window.
    Returns (predictions (steps, N, M), list of per-step AttentionMaps, empty
    unless `collect_attention`)."""
    maps = []
    pred = rollout_batch(params, cfg, np.asarray(seed)[None], steps,
                         maps if collect_attention else None)
    return pred[0], maps


def rollout_batch(params: dict[str, Tensor], cfg: ModelConfig, seeds: np.ndarray,
                  steps: int, maps_out: list | None = None) -> np.ndarray:
    """Autoregressive prediction of several windows at once: predict the next
    frame of each window, project it onto SO(3), append it, slide the window,
    repeat.

    seeds: (B, T_seed, N, M) flattened rotations, T_seed <= cfg.window.
    Returns predictions (B, steps, N, M). When `maps_out` is a list, each
    step's AttentionMaps (averaged over the batch) is appended to it."""
    seeds = np.asarray(seeds, dtype=np.float32)
    b, t_seed, n, m = seeds.shape
    if t_seed > cfg.window:
        raise ConfigError(f"seed length {t_seed} exceeds model window {cfg.window}")
    win = seeds.copy()
    out = np.empty((b, steps, n, m), dtype=np.float32)
    for s in range(steps):
        pred, maps, _ = forward(params, cfg, win, training=False)
        if maps_out is not None:
            maps_out.append(maps)
        nxt = pred.data[:, -1]
        nxt = project_to_so3(nxt.reshape(-1, 3, 3)).reshape(b, n, m).astype(np.float32)
        out[:, s] = nxt
        win = np.concatenate([win[:, 1:], nxt[:, None]], axis=1)
    return out


def zero_velocity(seed: np.ndarray, steps: int) -> np.ndarray:
    """Baseline: repeat the last seed frame."""
    seed = np.asarray(seed)
    if seed.shape[0] < 1:
        raise ValueError("seed must be non-empty")
    return np.repeat(seed[-1][None], steps, axis=0).copy()


# ---------------------------------------------------------------------------
# Attention export and workspace estimation
# ---------------------------------------------------------------------------


def attention_rows(maps: AttentionMaps, step: int | None = None):
    """Yield the CSV lines of one (layer, head, kind, row) at a time, one line
    `layer,head,kind,row,col,weight` per column, with an optional leading
    step index."""
    lead = "" if step is None else f"{step},"
    for kind, layers in (("temporal", maps.temporal), ("spatial", maps.spatial)):
        for layer, w in enumerate(layers):
            for i, head in enumerate(w.tolist()):
                for a, row in enumerate(head):
                    prefix = f"{lead}{layer},{i},{kind},{a},"
                    yield "".join(f"{prefix}{col},{v}\n" for col, v in enumerate(row))


def write_attention_csv(path_or_fh, maps_list, with_step: bool = False):
    """CSV export of attention weights; `maps_list` is one AttentionMaps or a
    list of them (one per rollout step)."""
    if isinstance(maps_list, AttentionMaps):
        maps_list = [maps_list]
    own = isinstance(path_or_fh, (str, bytes)) or hasattr(path_or_fh, "__fspath__")
    fh = open(path_or_fh, "w") if own else path_or_fh
    try:
        header = "layer,head,kind,row,col,weight\n"
        if with_step:
            header = "step," + header
        fh.write(header)
        for step, maps in enumerate(maps_list):
            fh.writelines(attention_rows(maps, step if with_step else None))
    finally:
        if own:
            fh.close()


def estimate_workspace_elements(cfg: ModelConfig, batch: int, t: int | None = None) -> int:
    """Analytic estimate of forward workspace elements, mirroring the
    intermediates counted in ForwardStats. Used for memory budgeting."""
    t = cfg.window if t is None else t
    n, d, h = cfg.n_joints, cfg.embed_dim, cfg.n_heads
    b = batch
    e_size = b * t * n * d if cfg.variant != "vanilla_1d" else b * t * d
    total = e_size
    for _ in range(cfg.n_layers):
        if cfg.variant == "st":
            total += 2 * (3 * b * t * n * d)              # temporal + spatial Q,K,V
            total += 2 * b * h * (n * t * t + t * n * n)  # scores and weights
            total += 2 * b * t * n * d                    # A@V contexts
            total += 2 * b * t * n * d                    # head output projections
            total += b * t * n * cfg.ff_size + b * t * n * d
        elif cfg.variant == "full_2d":
            s = t * n
            total += 3 * b * h * s * (d // h)
            total += 2 * b * h * s * s + b * h * s * (d // h)
            total += b * s * d
            total += b * s * cfg.ff_size + b * s * d
        else:
            total += 3 * b * h * t * (d // h)
            total += 2 * b * h * t * t + b * h * t * (d // h)
            total += b * t * d
            total += b * t * cfg.ff_size + b * t * d
    return total


# ---------------------------------------------------------------------------
# Checkpoints: plain-text config header + STT1 tensor block
# ---------------------------------------------------------------------------


def save_checkpoint(path, cfg: ModelConfig, params: dict[str, Tensor]):
    with open(path, "wb") as fh:
        fh.write(cfg.to_json().encode("utf-8") + b"\n")
        tz.save_tensors(fh, {k: v.data for k, v in params.items()})


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, Tensor]]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8").strip()
        cfg = ModelConfig.from_json(header)
        arrays = tz.load_tensors(fh)
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    return cfg, params
