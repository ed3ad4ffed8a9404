"""Generate synthetic skeletal motion and inspect it with forward kinematics.

Walks through the data tooling: the default 9-joint skeleton, sinusoidal
motion synthesis, forward kinematics to 3D positions, the left/right mirror
used by training's mirror augmentation, and the binary motion file format.

Run:  python3 demos/01_synthetic_motion_and_fk.py
"""

import tempfile
from pathlib import Path

import numpy as np

from stmotion import motiondata as md
from stmotion import so3

skeleton = md.default_skeleton()
print(f"skeleton: {skeleton.n_joints} joints")
for i, name in enumerate(skeleton.joint_names):
    parent = skeleton.parent[i]
    pname = "-" if parent < 0 else skeleton.joint_names[parent]
    print(f"  {i}: {name:12s} parent={pname:12s} offset={skeleton.offset[i]}")

# Ten seconds of two-frequency periodic motion with a little angle noise.
seq = md.synth_motion(skeleton, 600, 60.0, md.two_frequency_spec(skeleton),
                      noise_std=0.01, rng=np.random.default_rng(0))
print(f"\nsynthesized {seq.n_frames} frames at {seq.frame_rate} fps")

# Every frame is a valid rotation per joint.
flat_mats = seq.rotations.reshape(-1, 3, 3)
print("all rotations valid:", bool(np.all(so3.is_valid_rotmat(flat_mats, tol=1e-4))))

# Forward kinematics: positions in millimeters.
pos = md.fk_positions(seq.rotations, skeleton)
head = skeleton.joint_names.index("head")
print(f"positions shape {pos.shape}; head trajectory spans "
      f"{pos[:, head].min(0).round(1)} .. {pos[:, head].max(0).round(1)} mm")

# Bone lengths are invariant under any joint rotation.
child = np.arange(1, skeleton.n_joints)
bones = np.linalg.norm(pos[:, child] - pos[:, skeleton.parent[child]], axis=-1)
print("bone-length drift over time:", float(bones.std(axis=0).max()))

# Mirror augmentation swaps left/right joints and negates x.
mpos = md.fk_positions(md.mirror_rotations(seq.rotations, skeleton), skeleton)
expect = pos[:, skeleton.mirror_pair] * np.array([-1.0, 1.0, 1.0])
print("mirror = left/right swap with x negated:",
      float(np.abs(mpos - expect).max()), "mm max deviation")

# Round trip through the binary motion format.
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "demo.stm1"
    md.save_motion(path, seq)
    again = md.load_motion(path)
    print("file round trip bit-exact:",
          bool(np.array_equal(seq.rotations, again.rotations)))
