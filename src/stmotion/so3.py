"""Rotation representations: matrices, quaternions, angle-axis, Euler angles.

All functions accept stacked inputs, e.g. rotation matrices of shape
(..., 3, 3) or quaternions of shape (..., 4), and are vectorized over the
leading dimensions. Computation happens in float64 regardless of input dtype.

Conventions:
  - quaternions are (w, x, y, z), unit norm, canonicalized to w >= 0;
  - angle-axis vectors have norm <= pi; at exactly pi the axis sign is fixed
    by making its first nonzero component positive;
  - Euler angles use the intrinsic X-Y-Z convention, R = Rx(a) Ry(b) Rz(c),
    each angle in (-pi, pi]; gimbal lock resolves the third angle to 0.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericError


class DegenerateRotationError(NumericError, ValueError):
    """Input too rank-deficient to project onto a rotation."""


def _f64(x):
    return np.asarray(x, dtype=np.float64)


def rotmat_from_quat(q) -> np.ndarray:
    """Quaternion(s) (..., 4) -> rotation matrices (..., 3, 3).

    Non-unit inputs are normalized with a warning when the deviation is below
    1e-3, otherwise rejected.
    """
    q = _f64(q)
    norm = np.linalg.norm(q, axis=-1)
    dev = np.abs(norm - 1.0)
    if np.any(dev > 1e-3):
        raise ValueError(f"quaternion norm deviates by {dev.max():.2e} (> 1e-3)")
    if np.any(dev > 1e-6):
        warnings.warn("normalizing slightly non-unit quaternion", stacklevel=2)
    q = q / norm[..., None]
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def quat_from_rotmat(R) -> np.ndarray:
    """Rotation matrices (..., 3, 3) -> canonical (w >= 0) unit quaternions."""
    R = _f64(R)
    m00, m11, m22 = R[..., 0, 0], R[..., 1, 1], R[..., 2, 2]
    # Shepperd's method: pick the numerically largest of the four candidates.
    tw = 1.0 + m00 + m11 + m22
    tx = 1.0 + m00 - m11 - m22
    ty = 1.0 - m00 + m11 - m22
    tz = 1.0 - m00 - m11 + m22
    cand = np.stack([tw, tx, ty, tz], axis=-1)
    case = np.argmax(cand, axis=-1)

    q = np.empty(R.shape[:-2] + (4,))
    sw = np.sqrt(np.maximum(tw, 0.0))
    sx = np.sqrt(np.maximum(tx, 0.0))
    sy = np.sqrt(np.maximum(ty, 0.0))
    sz = np.sqrt(np.maximum(tz, 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        qw = np.stack(
            [0.5 * sw, 0.5 * (R[..., 2, 1] - R[..., 1, 2]) / sw,
             0.5 * (R[..., 0, 2] - R[..., 2, 0]) / sw,
             0.5 * (R[..., 1, 0] - R[..., 0, 1]) / sw], axis=-1)
        qx = np.stack(
            [0.5 * (R[..., 2, 1] - R[..., 1, 2]) / sx, 0.5 * sx,
             0.5 * (R[..., 0, 1] + R[..., 1, 0]) / sx,
             0.5 * (R[..., 0, 2] + R[..., 2, 0]) / sx], axis=-1)
        qy = np.stack(
            [0.5 * (R[..., 0, 2] - R[..., 2, 0]) / sy,
             0.5 * (R[..., 0, 1] + R[..., 1, 0]) / sy, 0.5 * sy,
             0.5 * (R[..., 1, 2] + R[..., 2, 1]) / sy], axis=-1)
        qz = np.stack(
            [0.5 * (R[..., 1, 0] - R[..., 0, 1]) / sz,
             0.5 * (R[..., 0, 2] + R[..., 2, 0]) / sz,
             0.5 * (R[..., 1, 2] + R[..., 2, 1]) / sz, 0.5 * sz], axis=-1)

    stacked = np.stack([qw, qx, qy, qz], axis=-2)
    q = np.take_along_axis(stacked, case[..., None, None], axis=-2)[..., 0, :]
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    return canonicalize_quat(q)


def canonicalize_quat(q) -> np.ndarray:
    """Flip sign so w >= 0; if w == 0, first nonzero component positive."""
    q = _f64(q).copy()
    flip = (q[..., 0] < 0)
    zero_w = q[..., 0] == 0
    if np.any(zero_w):
        v = q[..., 1:]
        first = np.where(v[..., 0] != 0, v[..., 0],
                         np.where(v[..., 1] != 0, v[..., 1], v[..., 2]))
        flip = flip | (zero_w & (first < 0))
    q[flip] *= -1.0
    return q


def rotmat_from_angleaxis(a) -> np.ndarray:
    """Angle-axis vectors (..., 3), Rodrigues formula -> matrices (..., 3, 3)."""
    a = _f64(a)
    theta = np.linalg.norm(a, axis=-1)
    small = theta < 1e-12
    safe = np.where(small, 1.0, theta)
    k = a / safe[..., None]
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]
    c = np.cos(theta)
    s = np.sin(theta)
    C = 1.0 - c
    R = np.empty(a.shape[:-1] + (3, 3))
    R[..., 0, 0] = c + kx * kx * C
    R[..., 0, 1] = kx * ky * C - kz * s
    R[..., 0, 2] = kx * kz * C + ky * s
    R[..., 1, 0] = ky * kx * C + kz * s
    R[..., 1, 1] = c + ky * ky * C
    R[..., 1, 2] = ky * kz * C - kx * s
    R[..., 2, 0] = kz * kx * C - ky * s
    R[..., 2, 1] = kz * ky * C + kx * s
    R[..., 2, 2] = c + kz * kz * C
    R[small] = np.eye(3)
    return R


def angleaxis_from_rotmat(R) -> np.ndarray:
    """Matrices (..., 3, 3) -> canonical angle-axis vectors, norm in [0, pi]."""
    q = quat_from_rotmat(R)
    w = np.clip(q[..., 0], -1.0, 1.0)
    v = q[..., 1:]
    vnorm = np.linalg.norm(v, axis=-1)
    theta = 2.0 * np.arctan2(vnorm, w)
    small = vnorm < 1e-12
    safe = np.where(small, 1.0, vnorm)
    axis = v / safe[..., None]
    out = axis * theta[..., None]
    out[small] = 0.0
    # at theta == pi the +/- axis ambiguity is fixed deterministically
    at_pi = np.abs(theta - np.pi) < 1e-12
    if np.any(at_pi):
        a = out[at_pi]
        first = np.where(a[..., 0] != 0, a[..., 0],
                         np.where(a[..., 1] != 0, a[..., 1], a[..., 2]))
        a[first < 0] *= -1.0
        out[at_pi] = a
    return out


def euler_from_rotmat(R) -> np.ndarray:
    """Matrices (..., 3, 3) -> intrinsic X-Y-Z Euler angles (..., 3)."""
    R = _f64(R)
    sb = np.clip(R[..., 0, 2], -1.0, 1.0)
    b = np.arcsin(sb)
    cb = np.cos(b)
    locked = np.abs(cb) < 1e-7
    a = np.where(locked,
                 np.arctan2(sb * R[..., 1, 0], R[..., 1, 1]),
                 np.arctan2(-R[..., 1, 2], R[..., 2, 2]))
    c = np.where(locked, 0.0, np.arctan2(-R[..., 0, 1], R[..., 0, 0]))
    return np.stack([a, b, c], axis=-1)


def rotmat_from_euler(e) -> np.ndarray:
    """Intrinsic X-Y-Z Euler angles (..., 3) -> matrices. Inverse of
    euler_from_rotmat away from gimbal lock."""
    e = _f64(e)
    a, b, c = e[..., 0], e[..., 1], e[..., 2]
    zero = np.zeros_like(a)
    ax = np.stack([a, zero, zero], axis=-1)
    ay = np.stack([zero, b, zero], axis=-1)
    az = np.stack([zero, zero, c], axis=-1)
    return rotmat_from_angleaxis(ax) @ rotmat_from_angleaxis(ay) @ rotmat_from_angleaxis(az)


def wrap_angle(x) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    x = _f64(x)
    wrapped = np.mod(-x + np.pi, 2.0 * np.pi)
    return -(wrapped - np.pi)


_VALID_TOL = 1e-6


def is_valid_rotmat(R, tol: float = 1e-5) -> np.ndarray:
    """Boolean mask (...,) of matrices that are orthonormal with det +1."""
    R = _f64(R)
    gram = np.swapaxes(R, -1, -2) @ R
    dev = np.abs(gram - np.eye(3)).max(axis=(-1, -2))
    det = np.linalg.det(R)
    return (dev <= tol) & (np.abs(det - 1.0) <= tol)


def project_to_so3(A) -> np.ndarray:
    """Frobenius-nearest rotation matrix via SVD: U diag(1,1,det(UV^T)) V^T.

    Matrices already orthonormal within 1e-6 are returned bit-unchanged, which
    keeps the projection exactly idempotent on valid rotations.
    """
    A = np.asarray(A)
    single = A.ndim == 2
    B = _f64(A if not single else A[None])
    clean = is_valid_rotmat(B, _VALID_TOL)
    out = np.array(A if not single else A[None], copy=True)
    if not np.all(clean):
        dirty = ~clean
        U, S, Vt = np.linalg.svd(B[dirty])
        if np.any(S[..., -1] < 1e-9):
            raise DegenerateRotationError("matrix is rank-deficient (sigma_min < 1e-9)")
        d = np.linalg.det(U @ Vt)
        U = U.copy()
        U[..., :, 2] *= d[..., None]
        out[dirty] = (U @ Vt).astype(out.dtype)
    return out[0] if single else out


def geodesic_angle(R1, R2) -> np.ndarray:
    """Rotation distance arccos((trace(R1^T R2) - 1) / 2) in [0, pi]."""
    R1, R2 = _f64(R1), _f64(R2)
    tr = np.einsum("...ij,...ij->...", R1, R2)
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


def random_rotations(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrices with the given leading shape."""
    if isinstance(shape, int):
        shape = (shape,)
    q = rng.standard_normal(tuple(shape) + (4,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return rotmat_from_quat(canonicalize_quat(q))
