"""Evaluation metrics: Euler, geodesic and positional errors, PCK (AUC),
and power-spectrum entropy / symmetric KL divergence for long horizons.

Angle metrics operate on stacked flattened rotation matrices of shape
(B, T, N, 9) (a single sequence (T, N, 9) is promoted). Horizons are given
in milliseconds and averaged over all frames up to each horizon.
"""

from __future__ import annotations

import math

import numpy as np

from . import so3
from .errors import ConfigError
from .motiondata import JOINT_DIM, Skeleton, fk_positions


def _promote(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 3:
        x = x[None]
    if x.ndim != 4 or x.shape[-1] != JOINT_DIM:
        raise ValueError(f"expected (B, T, N, 9) rotations, got {x.shape}")
    return x


def _promote_pair(pred, target) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs promoted; unequal shapes are an error, never broadcast."""
    pred, target = _promote(pred), _promote(target)
    if pred.shape != target.shape:
        raise ValueError(f"pred/target shape mismatch: {pred.shape} vs {target.shape}")
    return pred, target


def _mats(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[:-1] + (3, 3))


def horizon_frames(horizons_ms, frame_rate: float) -> list[int]:
    """The frames scored up to each horizon, by `span_frames`' rule."""
    return [span_frames("horizon", h, frame_rate, per_second=1000.0) for h in horizons_ms]


def span_frames(name: str, value: float, fps: float, per_second: float = 1.0) -> int:
    """The frame count at `fps` of `value`, given in 1/per_second seconds: the
    rule of `eval --horizons`, `rollout --seconds` and training's
    `val_horizon_ms`. A span that is not finite or rounds to no frame is a
    ConfigError naming `name`."""
    span = value / per_second * fps
    if not (math.isfinite(span) and round(span) >= 1):
        raise ConfigError(f"{name} {value:g} spans {span:g} frames at {fps:g} fps; "
                          f"need a finite number that rounds to at least one")
    return round(span)


def _up_to_horizons(per_frame: np.ndarray, horizons_ms, frame_rate: float):
    """Yield (horizon, the frames of a (B, T, ...) array up to it); past T: ValueError."""
    for h, f in zip(horizons_ms, horizon_frames(horizons_ms, frame_rate)):
        if f > per_frame.shape[1]:
            raise ValueError(f"horizon {h:g} ms spans {f} frames; {per_frame.shape[1]} are scored")
        yield h, per_frame[:, :f]


def _horizon_means(per_frame: np.ndarray, horizons_ms, frame_rate: float) -> dict[float, float]:
    """Mean of a (B, T, ...) error array over sequences and the frames up to
    each horizon."""
    return {h: float(e.mean()) for h, e in _up_to_horizons(per_frame, horizons_ms, frame_rate)}


def metric_euler(pred, target, horizons_ms, frame_rate: float) -> dict[float, float]:
    """Per frame: Euclidean norm of all per-joint Euler-angle differences
    (each component wrapped to (-pi, pi]); averaged over frames up to each
    horizon and over sequences."""
    pred, target = _promote_pair(pred, target)
    ep = so3.euler_from_rotmat(_mats(pred))
    et = so3.euler_from_rotmat(_mats(target))
    diff = so3.wrap_angle(ep - et)                      # (B, T, N, 3)
    per_frame = np.sqrt((diff ** 2).sum(axis=(2, 3)))   # (B, T)
    return _horizon_means(per_frame, horizons_ms, frame_rate)


def metric_geodesic(pred, target, horizons_ms, frame_rate: float) -> dict[float, float]:
    """Mean geodesic rotation distance over joints and frames up to horizon."""
    pred, target = _promote_pair(pred, target)
    ang = so3.geodesic_angle(_mats(pred), _mats(target))  # (B, T, N)
    return _horizon_means(ang, horizons_ms, frame_rate)


def positional_errors(pred, target, skeleton: Skeleton) -> np.ndarray:
    """Per-(sequence, frame, joint) Euclidean distance in millimeters."""
    pred, target = _promote_pair(pred, target)
    pp = fk_positions(_mats(pred), skeleton)
    pt = fk_positions(_mats(target), skeleton)
    return np.linalg.norm(pp - pt, axis=-1)  # (B, T, N)


DEFAULT_PCK_THRESHOLDS = tuple(float(t) for t in range(0, 301, 10))  # mm


def _pck_auc(err: np.ndarray, horizons_ms, frame_rate: float) -> dict[float, float]:
    """PCK(tau) = percent of (joint, frame) pairs of the (B, T, N) positional
    errors `err` within tau millimeters, up to each horizon; the AUC is the
    trapezoidal mean of PCK over DEFAULT_PCK_THRESHOLDS."""
    thresholds = np.asarray(DEFAULT_PCK_THRESHOLDS)
    out = {}
    for h, e in _up_to_horizons(err, horizons_ms, frame_rate):
        pck = np.array([100.0 * (e <= t).mean() for t in thresholds])
        out[h] = float(np.trapezoid(pck, thresholds) / (thresholds[-1] - thresholds[0]))
    return out


# ---------------------------------------------------------------------------
# Power-spectrum distributions
# ---------------------------------------------------------------------------


def ps_of_windows(windows, skeleton: Skeleton) -> np.ndarray:
    """Power-spectrum distribution (F, K) of joint-coordinate trajectories.

    Each window is a (T_w, N, 9) rotation sequence; it is converted to 3D
    positions with forward kinematics, each of the F = 3N coordinate signals
    is zero-padded to the next power of two K and transformed, squared FFT
    magnitudes are averaged over windows, and every feature's spectrum is
    normalized to sum 1 (an all-zero signal keeps an all-zero row)."""
    windows = [np.asarray(w) for w in windows]
    if not windows:
        raise ValueError("need at least one window")
    t_w = windows[0].shape[0]
    if any(w.shape[0] != t_w for w in windows):
        raise ValueError("all windows must have equal length")
    k = 1 << (t_w - 1).bit_length()                     # the next power of two
    stack = np.stack(windows)                           # (W, T_w, N, 9)
    pos = fk_positions(_mats(stack), skeleton)          # (W, T_w, N, 3)
    w_count, _, n, _ = pos.shape
    feats = pos.transpose(0, 2, 3, 1).reshape(w_count, 3 * n, t_w)
    power = np.abs(np.fft.fft(feats, n=k)) ** 2         # zero-padded: (W, F, K)
    mean = power.mean(axis=0)
    total = mean.sum(axis=-1, keepdims=True)
    total = np.where(total > 0, total, 1.0)
    return mean / total


def ps_entropy(p: np.ndarray) -> float:
    """Mean over features of the Shannon entropy of the (F, K) normalized
    spectra (natural log, 0 log 0 := 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log(p), 0.0)
    return float(terms.sum(axis=-1).mean())


_KLD_EPS = 1e-10


def ps_kld(reference: np.ndarray, prediction: np.ndarray) -> float:
    """Symmetric KL divergence between (F, K) power-spectrum distributions:
    (KLD(G||P) + KLD(P||G)) / 2, per feature, averaged over features.
    Both sides receive additive smoothing before renormalization."""
    if reference.shape != prediction.shape:
        raise ValueError("feature/bin count mismatch between distributions")
    g = reference + _KLD_EPS
    p = prediction + _KLD_EPS
    g = g / g.sum(axis=-1, keepdims=True)
    p = p / p.sum(axis=-1, keepdims=True)
    kl_gp = (g * np.log(g / p)).sum(axis=-1)
    kl_pg = (p * np.log(p / g)).sum(axis=-1)
    return float((0.5 * (kl_gp + kl_pg)).mean())


def longterm_eval(prediction, skeleton: Skeleton, reference_windows,
                  frame_rate: float):
    """Per-second spectrum curves of an arbitrarily long prediction.

    prediction: (T, N, 9) rollout; reference_windows: list of 1-second
    (T_w, N, 9) clips defining the reference distribution G, T_w =
    round(frame_rate) (ValueError otherwise). Returns (seconds list, ps_kld
    list, ps_entropy list) with one entry per full non-overlapping 1-second
    prediction window."""
    prediction = np.asarray(prediction)
    t_w = round(frame_rate)
    if reference_windows[0].shape[0] != t_w:
        raise ValueError(f"reference windows have {reference_windows[0].shape[0]} frames, "
                         f"not one second ({t_w} frames at {frame_rate:g} fps)")
    if prediction.shape[0] < t_w:
        raise ValueError("prediction shorter than one reference window")
    g = ps_of_windows(reference_windows, skeleton)
    seconds, klds, ents = [], [], []
    n_windows = prediction.shape[0] // t_w
    for i in range(n_windows):
        p_t = ps_of_windows([prediction[i * t_w:(i + 1) * t_w]], skeleton)
        seconds.append(i + 1)
        klds.append(ps_kld(g, p_t))
        ents.append(ps_entropy(p_t))
    return seconds, klds, ents


def write_metric_csv(fh, report: dict[float, dict[str, float]]):
    """`horizon_ms,euler,geodesic,positional_mm,pck_auc` rows, to an open
    text file."""
    fh.write("horizon_ms,euler,geodesic,positional_mm,pck_auc\n")
    for h in sorted(report):
        r = report[h]
        fh.write(f"{h},{r['euler']!r},{r['geodesic']!r},"
                 f"{r['positional_mm']!r},{r['pck_auc']!r}\n")


def full_report(pred, target, skeleton: Skeleton, horizons_ms, frame_rate: float):
    """All Table-style metrics keyed by horizon; forward kinematics runs once
    per side."""
    eu = metric_euler(pred, target, horizons_ms, frame_rate)
    ge = metric_geodesic(pred, target, horizons_ms, frame_rate)
    err = positional_errors(pred, target, skeleton)
    po = _horizon_means(err, horizons_ms, frame_rate)
    pk = _pck_auc(err, horizons_ms, frame_rate)
    return {h: {"euler": eu[h], "geodesic": ge[h],
                "positional_mm": po[h], "pck_auc": pk[h]} for h in horizons_ms}
