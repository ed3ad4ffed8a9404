"""Skeletons, motion sequences, forward kinematics and data preparation.

A motion sequence stores local joint rotations as T x N x 3 x 3 float32
matrices plus a skeleton (kinematic forest with bone offsets in millimeters
and left/right mirror pairing). Also provides forward kinematics on stacked
rotations, the left/right mirror of a pose array (training's mirror
augmentation), synthetic sinusoidal motion generation and the motion, skeleton
and spec files. Training windows are cut by `training.sample_batch`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import so3
from . import tensor as tz
from .errors import ConfigError, brief, check_keys, check_number, file_errors

JOINT_DIM = 9  # flattened 3x3 rotation per joint

# sagittal reflection used by the mirror augmentation
_SAGITTAL = np.diag([-1.0, 1.0, 1.0])


@dataclass
class Skeleton:
    """Kinematic forest: parent indices, bone offsets (mm), mirror pairing."""

    joint_names: list[str]
    parent: np.ndarray      # (N,) int, -1 for roots, parent[i] < i
    offset: np.ndarray      # (N, 3) float, bone offset in the parent frame
    mirror_pair: np.ndarray  # (N,) int, left/right partner or self

    def __post_init__(self):
        for name, kind in (("parent", numbers.Integral), ("offset", numbers.Real),
                           ("mirror_pair", numbers.Integral)):
            for v in np.asarray(getattr(self, name), dtype=object).ravel():
                check_number(name, v, kind)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.offset = np.asarray(self.offset, dtype=np.float64)
        self.mirror_pair = np.asarray(self.mirror_pair, dtype=np.int64)
        if not (isinstance(self.joint_names, list)
                and all(isinstance(j, str) for j in self.joint_names)):
            raise ValueError(f"joint_names {brief(self.joint_names)} is not a list of strings")
        n = len(self.joint_names)
        for name, shape in (("parent", (n,)), ("offset", (n, 3)), ("mirror_pair", (n,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}; the {n} "
                                 f"joint_names need {shape}")
        repeated = sorted({j for j in self.joint_names if self.joint_names.count(j) > 1})
        if repeated:
            raise ValueError(f"joint names {repeated} are not unique")
        for i, p in enumerate(self.parent):
            if not -1 <= p < i:
                raise ValueError(f"parent {p} of joint {i} must be -1 or an earlier joint")
        if not (np.all((0 <= self.mirror_pair) & (self.mirror_pair < n))
                and np.array_equal(self.mirror_pair[self.mirror_pair], np.arange(n))):
            raise ValueError("mirror_pair must be an involution of the joint indices")

    @property
    def n_joints(self) -> int:
        return len(self.joint_names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Skeleton)
            and self.joint_names == other.joint_names
            and np.array_equal(self.parent, other.parent)
            and np.allclose(self.offset, other.offset)
            and np.array_equal(self.mirror_pair, other.mirror_pair)
        )


def default_skeleton() -> Skeleton:
    """9-joint desk-scale skeleton with nontrivial left/right mirror pairs.

    Mirror partners have x-negated offsets so mirroring commutes with forward
    kinematics up to an x flip.
    """
    names = ["root", "spine", "head", "l_collar", "l_arm", "r_collar", "r_arm",
             "l_leg", "r_leg"]
    parent = [-1, 0, 1, 1, 3, 1, 5, 0, 0]
    offset = [
        [0.0, 0.0, 0.0],
        [0.0, 200.0, 0.0],
        [0.0, 150.0, 0.0],
        [90.0, 120.0, 0.0],
        [170.0, -40.0, 0.0],
        [-90.0, 120.0, 0.0],
        [-170.0, -40.0, 0.0],
        [100.0, -450.0, 0.0],
        [-100.0, -450.0, 0.0],
    ]
    mirror = [0, 1, 2, 5, 6, 3, 4, 8, 7]
    return Skeleton(names, np.array(parent), np.array(offset), np.array(mirror))


def check_frame_rate(rate, name: str = "frame_rate"):
    """The frame-rate rule of a motion sequence and of `synth --fps`: a finite
    number (`check_number`) above zero, else ConfigError naming `name`."""
    check_number(name, rate)
    if not rate > 0:
        raise ConfigError(f"{name} {rate!r} is not a positive number")


@dataclass
class MotionSequence:
    """Local joint rotations over time plus the skeleton they animate."""

    skeleton: Skeleton
    rotations: np.ndarray  # (T, N, 3, 3) float32
    frame_rate: float      # frames per second, by `check_frame_rate`

    def __post_init__(self):
        check_frame_rate(self.frame_rate)
        self.rotations = np.asarray(self.rotations, dtype=np.float32)
        if self.rotations.ndim != 4 or self.rotations.shape[1] != self.skeleton.n_joints \
                or self.rotations.shape[2:] != (3, 3):
            raise ValueError(f"bad rotations shape {self.rotations.shape}")
        if self.rotations.shape[0] < 1:
            raise ValueError("sequence must contain at least one frame")
        if not np.isfinite(self.rotations).all():  # the frame is looked up only on failure
            frame = np.argmin(np.isfinite(self.rotations).all(axis=(1, 2, 3)))
            raise ValueError(f"frame {frame} holds a rotation that is not finite")

    @property
    def n_frames(self) -> int:
        return self.rotations.shape[0]

    def flat(self) -> np.ndarray:
        """(T, N, 9) view of the rotations."""
        t, n = self.rotations.shape[:2]
        return self.rotations.reshape(t, n, JOINT_DIM)


def fk_positions(rotations: np.ndarray, skeleton: Skeleton) -> np.ndarray:
    """Forward kinematics on stacked rotations (..., N, 3, 3) -> (..., N, 3)."""
    R = np.asarray(rotations, dtype=np.float64)
    n = skeleton.n_joints
    lead = R.shape[:-3]
    glob = np.empty(lead + (n, 3, 3))
    pos = np.zeros(lead + (n, 3))
    for j in range(n):
        p = skeleton.parent[j]
        if p < 0:
            glob[..., j, :, :] = R[..., j, :, :]
            pos[..., j, :] = 0.0
        else:
            glob[..., j, :, :] = glob[..., p, :, :] @ R[..., j, :, :]
            pos[..., j, :] = pos[..., p, :] + np.einsum(
                "...ij,j->...i", glob[..., p, :, :], skeleton.offset[j])
    return pos


@dataclass
class JointMotionSpec:
    """Sinusoidal rotation of one joint about a fixed axis."""

    joint: int
    axis: np.ndarray        # unit 3-vector
    amplitude: float        # radians, < pi
    frequency: float        # Hz, < frame_rate / 2
    phase: float = 0.0

    def __post_init__(self):
        for v in np.asarray(self.axis, dtype=object).ravel():
            check_number("axis", v)
        for name in ("amplitude", "frequency", "phase"):
            check_number(name, getattr(self, name))
        self.axis = np.asarray(self.axis, dtype=np.float64)
        if self.axis.shape != (3,):
            raise ValueError(f"axis must be a 3-vector, got shape {self.axis.shape}")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(self.axis)
        if not 0 < norm < math.inf:
            raise ValueError(f"axis must be nonzero with a finite norm, got {self.axis.tolist()}")
        self.axis = self.axis / norm
        if not abs(self.amplitude) < np.pi:
            raise ValueError(f"amplitude must be < pi, got {self.amplitude}")


def check_nyquist(spec: list[JointMotionSpec], frame_rate: float, name: str = "frame_rate"):
    """The aliasing rule of synthesis: ConfigError naming `name` if a spec
    frequency is not below half of `frame_rate`."""
    for js in spec:
        if not js.frequency < frame_rate / 2.0:
            raise ConfigError(f"{name}: frequency {js.frequency:g} Hz aliases at "
                              f"{frame_rate:g} fps")


def check_noise_std(noise_std: float, name: str = "noise_std"):
    """The noise rule of synthesis, for a spec file's `noise_std` and `synth
    --noise-std`: a finite number in [0, pi), else ConfigError naming `name`."""
    check_number(name, noise_std)
    if not 0 <= noise_std < math.pi:
        raise ConfigError(f"{name} {noise_std!r} must be >= 0 and < pi")


def synth_bytes_per_frame(n_joints: int) -> int:
    """Peak bytes `synth_motion` holds per frame of n_joints: the float32
    (T, N, 3, 3) rotations, `MotionSequence`'s bool finite mask of them, one
    joint's 24 float64 temporaries (angles, angle-axis, Rodrigues terms and
    matrix) and 2 more to cover numpy's fixed few KiB from 1000 frames on."""
    return n_joints * JOINT_DIM * (4 + 1) + 26 * 8


def synth_motion(
    skeleton: Skeleton,
    duration_frames: int,
    frame_rate: float,
    spec: list[JointMotionSpec],
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> MotionSequence:
    """Deterministic synthetic motion: per-joint sinusoidal angles, with
    optional Gaussian noise, as Rodrigues rotations, on SO(3) by construction."""
    if duration_frames < 1:
        raise ValueError("duration_frames must be >= 1")
    check_nyquist(spec, frame_rate)
    check_noise_std(noise_std)
    if noise_std > 0 and rng is None:
        raise ValueError("noise_std > 0 requires an rng")

    t = np.arange(duration_frames, dtype=np.float64)
    rots = np.broadcast_to(np.eye(3, dtype=np.float32),
                           (duration_frames, skeleton.n_joints, 3, 3)).copy()
    for js in spec:
        angle = js.amplitude * np.sin(
            2.0 * np.pi * js.frequency * t / frame_rate + js.phase)
        if noise_std > 0:
            angle = angle + rng.normal(0.0, noise_std, size=angle.shape)
        rots[:, js.joint] = so3.rotmat_from_angleaxis(angle[:, None] * js.axis)
    return MotionSequence(skeleton, rots, frame_rate)


def two_frequency_spec(skeleton: Skeleton) -> list[JointMotionSpec]:
    """Desk-scale periodic motion: all joints driven by two base frequencies
    (0.5 and 1.0 Hz) with distinct axes, amplitudes and phases."""
    axes = [np.array([0, 0, 1.0]), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])]
    out = []
    for j in range(skeleton.n_joints):
        freq = 0.5 if j % 2 == 0 else 1.0
        out.append(JointMotionSpec(
            joint=j,
            axis=axes[j % 3],
            amplitude=0.2 + 0.05 * (j % 4),
            frequency=freq,
            phase=0.7 * j,
        ))
    return out


def mirror_rotations(rotations: np.ndarray, skeleton: Skeleton) -> np.ndarray:
    """Swap mirror-partner joints and conjugate by the sagittal reflection:
    R' = S R S with S = diag(-1, 1, 1)."""
    R = np.asarray(rotations)
    swapped = R[..., skeleton.mirror_pair, :, :]
    return (_SAGITTAL @ swapped @ _SAGITTAL).astype(R.dtype)


# ---------------------------------------------------------------------------
# Motion files and CSV export
# ---------------------------------------------------------------------------


def save_motion(path, seq: MotionSequence):
    """A record (see `tensor.save_record`): the frame rate and the skeleton
    in the header, the rotations as the one tensor."""
    header = {"frame_rate": float(seq.frame_rate), "skeleton": vars(seq.skeleton)}
    tz.save_record(path, json.dumps(header, default=np.ndarray.tolist),
                   {"rotations": seq.rotations})


_SKELETON_KEYS = tuple(Skeleton.__dataclass_fields__)  # all required
_SPEC_KEYS = tuple(JointMotionSpec.__dataclass_fields__)  # all but phase, the last, required


def load_motion(path) -> MotionSequence:
    """Read what `save_motion` wrote; a bad or incomplete header, or rotations
    that do not fit the skeleton, are a ConfigError naming the file."""
    header, tensors = tz.load_record(path)
    with file_errors("motion file", path):
        header = json.loads(header)
        check_keys("header", header, ("frame_rate", "skeleton"), ("frame_rate", "skeleton"))
        check_keys("tensor set", tensors, ("rotations",), ("rotations",))
        check_keys("skeleton", header["skeleton"], _SKELETON_KEYS, _SKELETON_KEYS)
        return MotionSequence(Skeleton(**header["skeleton"]), tensors["rotations"],
                              header["frame_rate"])


def skeleton_from_json(path) -> Skeleton:
    with open(path, encoding="utf-8") as fh, file_errors("skeleton file", path):
        d = json.load(fh)
        check_keys("skeleton", d, _SKELETON_KEYS, _SKELETON_KEYS)
        return Skeleton(**d)


def motion_spec_from_json(path, skeleton: Skeleton) -> tuple[list[JointMotionSpec], float]:
    """Load a per-joint sinusoid spec file; returns (specs, noise_std).

    Joints may be referenced by index or by name."""
    with open(path, encoding="utf-8") as fh, file_errors("spec file", path):
        d = json.load(fh)
        check_keys("spec", d, ("joints", "noise_std"), ("joints",))
        if not isinstance(d["joints"], list):
            raise ValueError(f"joints {brief(d['joints'])} is not a list")
        specs = []
        for i, item in enumerate(d["joints"]):
            check_keys(f"joints entry {i}", item, _SPEC_KEYS, _SPEC_KEYS[:-1])
            joint = item["joint"]
            if joint in skeleton.joint_names:
                joint = skeleton.joint_names.index(joint)
            elif type(joint) is not int or not 0 <= joint < skeleton.n_joints:
                raise ValueError(f"joint {brief(joint)} is neither a joint name nor an "
                                 f"index below {skeleton.n_joints}")
            specs.append(JointMotionSpec(**{**item, "joint": joint}))
        noise_std = d.get("noise_std", 0.0)
        check_noise_std(noise_std)
        return specs, noise_std
