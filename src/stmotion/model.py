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

import contextlib
import functools
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as tz
from .errors import ConfigError, NumericError, brief, check_fields, check_keys, file_errors
from .motiondata import JOINT_DIM
from .so3 import project_to_so3
from .tensor import Tensor

VARIANTS = ("st", "vanilla_1d", "full_2d")
TAU_MODES = tz.TAU_MODES
SHARING_MODES = ("query_separate", "all_separate", "all_shared")

_NEG_INF = -1e9  # additive mask value; large enough to underflow exp() to 0


@dataclass
class ModelConfig:
    n_joints: int = 9
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
        check_fields(self, counts=("n_joints", "embed_dim", "n_layers", "n_heads",
                                   "ff_size", "window"))
        if self.embed_dim % 2 != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} must be even: the positional "
                              f"encoding pairs a sine and a cosine channel")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be divisible by n_heads {self.n_heads}")
        for name, choices in (("tau_mode", TAU_MODES), ("spatial_sharing", SHARING_MODES),
                              ("variant", VARIANTS)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {brief(getattr(self, name))}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    @property
    def ff_networks(self) -> tuple[str, ...]:
        """Each block's feed-forward networks: one per stream (temporal, then
        spatial) only for st with ff_per_branch, else one after the sum."""
        return ("ff_t", "ff_s") if self.variant == "st" and self.ff_per_branch else ("ff",)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, s: str | bytes) -> "ModelConfig":
        """Inverse of `to_json`; every field must be present, and no other."""
        values = json.loads(s)
        check_keys("model config", values, cls.__dataclass_fields__, cls.__dataclass_fields__)
        return cls(**values)


@dataclass
class AttentionMaps:
    """Per-layer, per-head attention weights, averaged over batch and over the
    complementary axis (joints for temporal maps, frames for spatial maps)."""

    temporal: list[np.ndarray] = field(default_factory=list)  # each (H, T, T)
    spatial: list[np.ndarray] = field(default_factory=list)   # each (H, N, N)


@dataclass
class ForwardStats:
    """Analytic cost of one forward pass, from the config and the input's
    batch and window length; `forward` computes it after the pass.

    ``scores_per_layer`` holds, per layer, the number of attention scores
    computed per head and batch element (ST: N*T^2 + T*N^2, 1D: T^2, 2D:
    (N*T)^2). ``workspace_elements`` totals the elements of the embedding,
    attention and feed-forward intermediates over the whole pass:
    projections, attention weights (which overwrite the scores in place),
    contexts and hidden layers.
    """

    scores_per_layer: list[int] = field(default_factory=list)
    workspace_elements: int = 0


@functools.lru_cache(maxsize=8)
def positional_encoding(length: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Standard sinusoidal encoding: PE[t, 2k] = sin(t / 10000^(2k/D)),
    PE[t, 2k+1] = cos(t / 10000^(2k/D)). Built once per (T, D, dtype) and
    returned read-only."""
    if dim % 2 != 0:
        raise ValueError("positional encoding dimension must be even")
    t = np.arange(length, dtype=np.float64)[:, None]
    k2 = np.arange(0, dim, 2, dtype=np.float64)
    inv = 1.0 / np.power(10000.0, k2 / dim)
    pe = np.empty((length, dim))
    pe[:, 0::2] = np.sin(t * inv)
    pe[:, 1::2] = np.cos(t * inv)
    pe = pe.astype(dtype)
    pe.flags.writeable = False
    return pe


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor, in initialization order."""
    n, m, d, h, f, ff = (cfg.n_joints, JOINT_DIM, cfg.embed_dim,
                         cfg.n_heads, cfg.head_dim, cfg.ff_size)
    vanilla = cfg.variant == "vanilla_1d"
    p = {"embed.w": (n * m, d) if vanilla else (n, m, d),
         "embed.b": (d,) if vanilla else (n, d)}
    for l in range(cfg.n_layers):
        pre = f"l{l}."
        if cfg.variant == "st":
            for w in ("wq", "wk", "wv"):
                p[pre + "t." + w] = (n, h, d, f)
            p[pre + "t.wo"] = (n, h * f, d)
            p[pre + "s.wq"] = (h, d, f) if cfg.spatial_sharing == "all_shared" else (n, h, d, f)
            p[pre + "s.wk"] = p[pre + "s.wv"] = (
                (n, h, d, f) if cfg.spatial_sharing == "all_separate" else (h, d, f))
            p[pre + "s.wo"] = (h * f, d)
        else:
            for w in ("wq", "wk", "wv"):
                p[pre + "a." + w] = (h, d, f)
            p[pre + "a.wo"] = (h * f, d)

        for name in cfg.ff_networks:
            p[f"{pre}{name}.w1"] = (d, ff)
            p[f"{pre}{name}.b1"] = (ff,)
            p[f"{pre}{name}.w2"] = (ff, d)
            p[f"{pre}{name}.b2"] = (d,)
        p[pre + "ln.g"] = (d,)
        p[pre + "ln.b"] = (d,)
    p["out.w"] = (d, n * m) if vanilla else (n, d, m)
    p["out.b"] = (n * m,) if vanilla else (n, m)
    return p


def init_params(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh trainable parameters: weight matrices uniform in +-1/sqrt(fan_in)
    (fan-in is each matrix's input axis, the second to last), biases zero,
    layer-norm gains one. The output pose projection starts at zero, so the
    untrained model reproduces the zero-velocity predictor."""
    p: dict[str, Tensor] = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".g"):
            data = np.ones(shape, dtype=dtype)
        elif name.startswith("out.") or name.endswith((".b", ".b1", ".b2")):
            data = np.zeros(shape, dtype=dtype)
        else:
            s = math.sqrt(1.0 / shape[-2])
            data = rng.uniform(-s, s, size=shape).astype(dtype)
        p[name] = Tensor(data, requires_grad=True)
    return p


def param_count(cfg: ModelConfig) -> int:
    """Trainable values of a model with this config."""
    return sum(math.prod(shape) for shape in _param_shapes(cfg).values())


def matched_vanilla_config(cfg: ModelConfig) -> ModelConfig:
    """A vanilla_1d config whose parameter count best matches the given ST
    config (embedding width chosen from multiples of n_heads)."""
    target = param_count(cfg)
    best = None
    for d in range(cfg.n_heads, 16 * cfg.embed_dim + 1, cfg.n_heads):
        cand = ModelConfig(
            n_joints=cfg.n_joints, embed_dim=d, n_layers=cfg.n_layers, n_heads=cfg.n_heads,
            ff_size=2 * d, window=cfg.window, dropout=cfg.dropout, tau_mode=cfg.tau_mode,
            variant="vanilla_1d")
        count = param_count(cand)
        diff = abs(count - target)
        if best is None or diff < best[0]:
            best = (diff, cand)
        if count > 2 * target:
            break
    return best[1]


# ---------------------------------------------------------------------------
# Attention building blocks
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _causal_mask(t: int, n: int) -> np.ndarray:
    """Read-only (T*N, T*N) additive causal mask M over t-major joint-time
    tokens (n=1: frames): 0 where token (t, n) may attend to (t', n'), that
    is t' <= t, and _NEG_INF elsewhere. float32, built once per (T, N) and
    used by both tau and both dtypes (-1e9 and 0 are exact in float32)."""
    mask = np.kron(np.triu(np.full((t, t), _NEG_INF, np.float32), 1), np.ones((n, n), np.float32))
    mask.flags.writeable = False
    return mask


def _attend(q, k, v, cfg: ModelConfig, mask: np.ndarray | None):
    """Scaled dot-product attention over the last two dims of q/k/v, one
    fused engine op. Returns (context Tensor, weights ndarray). `mask` is a
    `_causal_mask` or None (unmasked). Scores are scaled by 1/sqrt(D) (the
    joint embedding size, not the head size)."""
    return tz.attention(q, k, v, 1.0 / math.sqrt(cfg.embed_dim), mask, cfg.tau_mode)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _temporal_stream(ej: Tensor, p: dict, pre: str, cfg: ModelConfig, ejq: Tensor):
    """Per-joint causal attention over time. ej: joint-major (N, B, T, D)
    for the keys and values; ejq: its last Tq frames for the queries (Tq < T
    only in st's trimmed last block). Returns ((B, Tq, N, D), weights (N, H, B, Tq, T))."""
    n, b, t, _ = ej.data.shape
    tq = ejq.data.shape[2]
    h, f = cfg.n_heads, cfg.head_dim
    q = tz.joint_linear(ejq, p[pre + "t.wq"])  # (N, H, B, Tq, F)
    k = tz.joint_linear(ej, p[pre + "t.wk"])   # (N, H, B, T, F)
    v = tz.joint_linear(ej, p[pre + "t.wv"])
    mask = _causal_mask(t, 1)[t - tq:]
    ctx, weights = _attend(q, k, v, cfg, mask)
    ctx = tz.reshape(tz.transpose(ctx, (0, 2, 3, 1, 4)), (n, b, tq, h * f))
    out = tz.joint_linear(ctx, p[pre + "t.wo"])  # (N, B, Tq, D)
    return tz.transpose(out, (1, 2, 0, 3)), weights


def _token_attention(x: Tensor, p: dict, pre: str, cfg: ModelConfig, mask: np.ndarray | None,
                     xj: Tensor | None = None):
    """Multi-head attention among the S tokens of x: (..., S, D): st's joints
    within a frame (lead axes B, T), vanilla_1d's frames or full_2d's
    joint-time tokens (lead axis B). `mask` is the (S, S) `_causal_mask` or
    None. Each Q/K/V weight's shape gives its form: (H, D, F) is shared,
    (S, H, D, F) is one matrix per token, applied to xj, the token-major
    view (S, ..., D) of x. Returns ((..., S, D), weights (..., H, S, S))."""
    *lead, s, d = x.data.shape
    nl = len(lead)
    if any(p[pre + name].data.ndim == 3 for name in ("wq", "wk", "wv")):
        shared = tz.reshape(x, (*lead, 1, s, d))  # read by the shared weights only

    def project(name):
        if p[name].data.ndim == 4:  # (S, H, ..., F) -> (..., H, S, F)
            return tz.transpose(tz.joint_linear(xj, p[name]), (*range(2, nl + 2), 1, 0, nl + 2))
        return tz.matmul(shared, p[name])

    q, k, v = project(pre + "wq"), project(pre + "wk"), project(pre + "wv")
    ctx, weights = _attend(q, k, v, cfg, mask)  # (..., H, S, F)
    ctx = tz.reshape(tz.transpose(ctx, (*range(nl), nl + 1, nl, nl + 2)), (*lead, s, d))
    return tz.matmul(ctx, p[pre + "wo"]), weights  # (..., S, D)


def _feed_forward(x: Tensor, p: dict, name: str) -> Tensor:
    hdn = tz.relu(tz.add(tz.matmul(x, p[name + ".w1"]), p[name + ".b1"]))
    return tz.add(tz.matmul(hdn, p[name + ".w2"]), p[name + ".b2"])


def _aggregate(e_in: Tensor, summaries: list[Tensor], p: dict, pre: str, cfg: ModelConfig,
               rng) -> Tensor:
    """Sum the stream summaries, feed-forward, dropout (with an rng), then
    post-norm with a residual from the block input. With ff_per_branch each
    summary passes its own feed-forward network before the sum
    (appendix-style reading)."""
    nets = cfg.ff_networks
    if len(nets) == 2:
        s = tz.add(_feed_forward(summaries[0], p, pre + nets[0]),
                   _feed_forward(summaries[1], p, pre + nets[1]))
    else:
        s = summaries[0]
        for extra in summaries[1:]:
            s = tz.add(s, extra)
        s = _feed_forward(s, p, pre + "ff")
    s = tz.dropout(s, cfg.dropout, rng)
    return tz.layer_norm(tz.add(e_in, s), p[pre + "ln.g"], p[pre + "ln.b"])


def _last_block_frames(t: int) -> int:
    """Query frames of st's trimmed last block over a T-frame window: from the
    last multiple of four that leaves at least two (2 to 5 frames, or T).

    BLAS rounds a row's sums by how it groups the rows: numpy sends a one-row
    matmul to gemv, not gemm, and OpenBLAS's gemm takes rows in blocks of
    four, with other kernels for the remainder at some widths (a head size of
    2 or 6, for one). Slicing on a block boundary keeps every row in the
    kernel it has in the full pass, so the rows come out bit for bit equal.
    """
    return t - max(0, (t - 2) // 4 * 4)


def forward(params: dict[str, Tensor], cfg: ModelConfig, window: np.ndarray,
            rng: np.random.Generator | None = None, last_only: bool = False,
            maps: bool = False):
    """Predict the next pose for every position of the input window.

    window: (B, T, N, M) or (T, N, M) flattened rotations, T <= cfg.window.
    Returns (predictions Tensor of the same shape, AttentionMaps, ForwardStats).
    Position t of the output is the model's estimate of frame t+1 (input pose
    plus a learned delta). A pass given an rng is a training pass: it applies
    dropout, drawing its masks from the rng; without one it applies none.

    maps: compute the AttentionMaps, each layer's weights averaged as that
    class says; without it they are empty. They are read-outs only: the
    predictions and gradients are the same either way.

    last_only: an inference pass for autoregressive rollouts, which read only
    the last position. The predictions are that frame's alone, (B, 1, N, M)
    or (1, N, M). For st the last block computes its temporal keys and values
    over all T frames and everything else on its last few frames only
    (see `_last_block_frames`); the result equals the full pass's bit for
    bit, and ForwardStats counts what was computed. The other variants run
    the full pass. Raises ValueError with an rng (the sliced tensors carry
    no gradient) or with maps (the trimmed block has no full maps), as for a
    window whose joints or length the config does not take.
    """
    x = np.asarray(window)
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    b, t, n, m = x.shape
    if n != cfg.n_joints or m != JOINT_DIM:
        raise ValueError(f"window joints/dims {(n, m)} do not match config "
                         f"{(cfg.n_joints, JOINT_DIM)}")
    if t > cfg.window:
        raise ValueError(f"window length {t} exceeds configured maximum {cfg.window}")
    if rng is not None and last_only:
        raise ValueError("last_only is an inference pass; it cannot train")
    if maps and last_only:
        raise ValueError("last_only computes no attention maps")

    dtype = params["embed.w"].data.dtype
    x = x.astype(dtype, copy=False)
    d = cfg.embed_dim
    out_maps = AttentionMaps()
    xt = Tensor(x)
    tq = _last_block_frames(t) if last_only and cfg.variant == "st" else t

    # joint embeddings + positional encoding + dropout
    pe = positional_encoding(t, d, dtype)
    if cfg.variant == "vanilla_1d":
        flat = tz.reshape(xt, (b, t, n * m))
        e = tz.add(tz.matmul(flat, params["embed.w"]), params["embed.b"])  # (B, T, D)
        e = tz.add(e, Tensor(pe))
    else:  # the data window needs no gradient: make it joint-major untaped
        xj = Tensor(x.transpose(2, 0, 1, 3))
        e = tz.transpose(tz.joint_linear(xj, params["embed.w"]), (1, 2, 0, 3))
        e = tz.add(e, params["embed.b"])
        e = tz.add(e, Tensor(pe[:, None, :]))
    e = tz.dropout(e, cfg.dropout, rng)

    for l in range(cfg.n_layers):
        pre = f"l{l}."
        if cfg.variant == "st":
            ej = tz.transpose(e, (2, 0, 1, 3))  # one joint-major view for both streams
            eq, ejq = e, ej
            if l == cfg.n_layers - 1 and tq < t:  # trimmed: only K and V see all T frames
                eq, ejq = Tensor(e.data[:, t - tq:]), Tensor(ej.data[:, :, t - tq:])
            t_out, t_w = _temporal_stream(ej, params, pre, cfg, ejq)
            s_out, s_w = _token_attention(eq, params, pre + "s.", cfg, None, ejq)
            if maps:
                # (N, H, B, T, T) -> (H, T, T), averaged over joints and batch
                out_maps.temporal.append(t_w.mean(axis=(0, 2)))
                out_maps.spatial.append(s_w.mean(axis=(0, 1)))  # (H, N, N)
            e = _aggregate(eq, [t_out, s_out], params, pre, cfg, rng)
        elif cfg.variant == "vanilla_1d":
            a_out, w = _token_attention(e, params, pre + "a.", cfg, _causal_mask(t, 1))
            if maps:
                out_maps.temporal.append(w.mean(axis=0))  # (H, T, T)
            e = _aggregate(e, [a_out], params, pre, cfg, rng)
        else:  # full_2d
            a_out, w = _token_attention(tz.reshape(e, (b, t * n, d)), params, pre + "a.", cfg,
                                        _causal_mask(t, n))
            a_out = tz.reshape(a_out, (b, t, n, d))
            if maps:
                # (B, H, T, N, T, N): sum over attended axis, average the rest
                w6 = w.reshape(w.shape[0], w.shape[1], t, n, t, n)
                out_maps.temporal.append(w6.sum(axis=5).mean(axis=(0, 3)))
                out_maps.spatial.append(w6.sum(axis=4).mean(axis=(0, 2)))
            e = _aggregate(e, [a_out], params, pre, cfg, rng)
        if not np.all(np.isfinite(e.data)):
            raise NumericError(f"non-finite embeddings after attention block {l}")

    # project back to pose space and add the input pose residual
    if cfg.variant == "vanilla_1d":
        delta = tz.add(tz.matmul(e, params["out.w"]), params["out.b"])
        delta = tz.reshape(delta, (b, t, n, m))
    else:
        delta = tz.joint_linear(tz.transpose(e, (2, 0, 1, 3)), params["out.w"])
        delta = tz.add(tz.transpose(delta, (1, 2, 0, 3)), params["out.b"])
    if delta.data.shape[1] < t:  # the trimmed last block's frames
        xt = Tensor(x[:, t - delta.data.shape[1]:])
    pred = tz.add(xt, delta)
    if not np.all(np.isfinite(pred.data)):
        raise NumericError("non-finite values in final pose projection")
    if last_only:
        pred = Tensor(pred.data[:, -1:])
    if squeeze:
        pred = tz.reshape(pred, pred.data.shape[1:])
    scores, last_scores, workspace = _forward_cost(cfg, b, t, tq)
    return pred, out_maps, ForwardStats([scores] * (cfg.n_layers - 1) + [last_scores], workspace)


def rollout(params: dict[str, Tensor], cfg: ModelConfig, seed: np.ndarray, steps: int,
            maps_out=None) -> np.ndarray:
    """`rollout_batch` on a single seed window.

    seed: (T_seed, N, M) flattened rotations, T_seed <= cfg.window.
    Returns predictions (steps, N, M); `maps_out` as in `rollout_batch`."""
    return rollout_batch(params, cfg, np.asarray(seed)[None], steps, maps_out)[0]


def rollout_batch(params: dict[str, Tensor], cfg: ModelConfig, seeds: np.ndarray,
                  steps: int, maps_out=None) -> np.ndarray:
    """Autoregressive prediction of several windows at once: predict the next
    frame of each window, project it onto SO(3), append it, slide the window,
    repeat.

    seeds: (B, T_seed, N, M) flattened rotations, T_seed <= cfg.window.
    Returns predictions (B, steps, N, M): the frames after the seeds in one
    float32 buffer, from which step s reads frames s to s + T_seed - 1. When
    `maps_out` is given (a list, or the sink of `write_attention_csv`),
    each step's AttentionMaps (averaged over the batch) is appended to it."""
    b, t, n, m = np.shape(seeds)
    buf = np.empty((b, t + steps, n, m), dtype=np.float32)
    buf[:, :t] = seeds
    for s in range(steps):
        pred, maps, _ = forward(params, cfg, buf[:, s:s + t], last_only=maps_out is None,
                                maps=maps_out is not None)
        if maps_out is not None:
            maps_out.append(maps)
        buf[:, t + s] = project_to_so3(pred.data[:, -1].reshape(-1, 3, 3)).reshape(b, n, m)
    return buf[:, t:]


def zero_velocity(seed: np.ndarray, steps: int) -> np.ndarray:
    """Baseline: repeat the last seed frame."""
    seed = np.asarray(seed)
    if seed.shape[0] < 1:
        raise ValueError("seed must be non-empty")
    return np.repeat(seed[-1][None], steps, axis=0)


# ---------------------------------------------------------------------------
# Attention export and the memory account
# ---------------------------------------------------------------------------


def attention_rows(maps: AttentionMaps, step: int):
    """Yield the CSV lines of one (layer, head, kind, row) at a time, one line
    `step,layer,head,kind,row,col,weight` per column."""
    for kind, layers in (("temporal", maps.temporal), ("spatial", maps.spatial)):
        for layer, w in enumerate(layers):
            for i, head in enumerate(w.tolist()):
                for a, row in enumerate(head):
                    prefix = f"{step},{layer},{i},{kind},{a},"
                    yield "".join(f"{prefix}{col},{v}\n" for col, v in enumerate(row))


class _AttentionCSV:
    """The `maps_out` of `write_attention_csv`: each appended AttentionMaps is
    the next rollout step's, written at once and not kept."""

    def __init__(self, fh):
        self.fh, self.steps = fh, 0

    def append(self, maps: AttentionMaps):
        self.fh.writelines(attention_rows(maps, self.steps))
        self.fh.flush()
        self.steps += 1


@contextlib.contextmanager
def write_attention_csv(path):
    """Atomically write the CSV of a rollout's attention weights. Yields a
    `maps_out` for `rollout` or `rollout_batch` that writes each step's rows
    as the step is appended, so only one step's maps are held; on an
    exception in the block `path` is left as it was."""
    with tz.atomic_write(path) as fh:
        fh.write("step,layer,head,kind,row,col,weight\n")
        yield _AttentionCSV(fh)


def _forward_cost(cfg: ModelConfig, b: int, t: int, tq: int) -> tuple[int, int, int]:
    """The one account of a forward pass over B windows of T frames whose last
    block computes the query rows of its last `tq` frames (all T but in st's
    trimmed pass), as ForwardStats counts it: the scores of each block but
    the last, those of the last block, and the workspace elements of the
    whole pass. Its cost does not grow with the number of layers."""
    n, d = cfg.n_joints, cfg.embed_dim
    per_frame = 1 if cfg.variant == "vanilla_1d" else n  # tokens per frame
    tokens = b * t * per_frame
    streams = 2 if cfg.variant == "st" else 1
    ff_nets = len(cfg.ff_networks)

    def layer(rows):  # (scores, workspace) of a block computing `rows` query frames
        if cfg.variant == "st":
            scores = n * rows * t + rows * n * n
        else:
            scores = (n * t) ** 2 if cfg.variant == "full_2d" else t * t
        q_tokens = b * rows * per_frame
        work = (streams * 5 * q_tokens * d            # Q, K, V, A@V, out projection
                + 2 * (tokens - q_tokens) * d         # K and V of the other frames
                + b * cfg.n_heads * scores            # weights (the scores' buffer)
                + ff_nets * q_tokens * (cfg.ff_size + d))  # feed-forward hidden and output
        return scores, work

    (scores, work), (last_scores, last_work) = layer(t), layer(tq)
    return scores, last_scores, tokens * d + (cfg.n_layers - 1) * work + last_work


def budget_bytes(cfg: ModelConfig, batch: int, frames: int) -> int:
    """Memory account of every command: `batch` float32 poses of `frames` frames
    (a rollout's seeds and predictions, or 0) beside one forward's workspace
    over `batch` windows of the configured length, as in ForwardStats."""
    _, _, workspace = _forward_cost(cfg, batch, cfg.window, cfg.window)
    return 4 * (batch * frames * cfg.n_joints * JOINT_DIM + workspace)


# ---------------------------------------------------------------------------
# Checkpoints: a record (see tensor.save_record) with the config as header
# ---------------------------------------------------------------------------


def save_checkpoint(path, cfg: ModelConfig, params: dict[str, Tensor]):
    tz.save_record(path, cfg.to_json(), {k: v.data for k, v in params.items()})


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Read a checkpoint; its tensor names and shapes must be exactly those
    `init_params` makes for the header's config, else ConfigError."""
    header, arrays = tz.load_record(path)
    with file_errors("checkpoint", path):  # UTF-8, JSON, fields, tensor names
        cfg = ModelConfig.from_json(header)
        if cfg.n_layers > len(arrays):  # a layer has tensors of its own; bounds the work below
            raise ConfigError(f"n_layers {cfg.n_layers} needs more than the {len(arrays)} "
                              f"tensors its tensor set holds")
        want = _param_shapes(cfg)
        check_keys("tensor set", arrays, want, want)
    for name, shape in want.items():
        if arrays[name].shape != shape:
            raise ConfigError(f"checkpoint {path}: tensor {name!r} has shape "
                              f"{arrays[name].shape}, its config needs {shape}")
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    return cfg, params
