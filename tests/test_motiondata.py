import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmotion import motiondata as md
from stmotion import so3
from stmotion import tensor as tz
from stmotion import training as tr
from stmotion.errors import ConfigError


def identity_seq(n_frames=10, fps=60.0):
    sk = md.default_skeleton()
    rots = np.broadcast_to(np.eye(3, dtype=np.float32),
                           (n_frames, sk.n_joints, 3, 3)).copy()
    return md.MotionSequence(sk, rots, fps)


class TestSkeleton:
    def test_default_is_valid(self):
        sk = md.default_skeleton()
        assert sk.n_joints == 9
        assert sk.parent[0] == -1
        assert np.array_equal(sk.mirror_pair[sk.mirror_pair], np.arange(9))

    def test_mirror_pairs_have_x_negated_offsets(self):
        sk = md.default_skeleton()
        for j in range(sk.n_joints):
            m = sk.mirror_pair[j]
            np.testing.assert_allclose(
                sk.offset[m], sk.offset[j] * [-1.0, 1.0, 1.0])

    def test_bad_topological_order_rejected(self):
        with pytest.raises(ValueError):
            md.Skeleton(["a", "b"], np.array([1, -1]),
                        np.zeros((2, 3)), np.array([0, 1]))

    def test_non_involution_mirror_rejected(self):
        with pytest.raises(ValueError):
            md.Skeleton(["a", "b", "c"], np.array([-1, 0, 0]),
                        np.zeros((3, 3)), np.array([1, 2, 0]))


class TestForwardKinematics:
    def test_identity_pose_straight_chain(self):
        # with identity rotations every joint sits at the cumulative sum of
        # offsets along its chain
        sk = md.default_skeleton()
        pos = md.fk_positions(identity_seq(3).rotations, sk)
        for j in range(sk.n_joints):
            expect = np.zeros(3)
            k = j
            while sk.parent[k] >= 0:
                expect += sk.offset[k]
                k = sk.parent[k]
            np.testing.assert_allclose(pos[0, j], expect, atol=1e-9)
        np.testing.assert_allclose(pos[0], pos[2])

    def test_root_rotation_spins_whole_body(self):
        seq = identity_seq(1)
        theta = 0.8
        Rz = so3.rotmat_from_angleaxis([0, 0, theta])
        rots = seq.rotations.copy()
        rots[0, 0] = Rz
        p0 = md.fk_positions(seq.rotations, seq.skeleton)[0]
        p1 = md.fk_positions(rots, seq.skeleton)[0]
        np.testing.assert_allclose(p1, p0 @ np.asarray(Rz).T, atol=1e-4)

    def test_bone_lengths_invariant_under_rotation(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(0)
        rots = so3.random_rotations(5 * sk.n_joints, rng).reshape(
            5, sk.n_joints, 3, 3).astype(np.float32)
        pos = md.fk_positions(rots, sk)
        for j in range(sk.n_joints):
            p = sk.parent[j]
            if p < 0:
                continue
            lengths = np.linalg.norm(pos[:, j] - pos[:, p], axis=-1)
            np.testing.assert_allclose(
                lengths, np.linalg.norm(sk.offset[j]), rtol=1e-5)

    def test_mirror_oracle(self):
        # FK of the mirrored motion equals the x-flipped FK of the original
        # with mirror-partner joints swapped
        sk = md.default_skeleton()
        rng = np.random.default_rng(1)
        rots = so3.random_rotations(4 * sk.n_joints, rng).reshape(
            4, sk.n_joints, 3, 3).astype(np.float32)
        pos = md.fk_positions(rots, sk)
        pos_m = md.fk_positions(md.mirror_rotations(rots, sk), sk)
        expect = pos[:, sk.mirror_pair] * [-1.0, 1.0, 1.0]
        np.testing.assert_allclose(pos_m, expect, atol=1e-3)


class TestSynthMotion:
    def test_deterministic(self):
        sk = md.default_skeleton()
        spec = md.two_frequency_spec(sk)
        a = md.synth_motion(sk, 50, 60.0, spec)
        b = md.synth_motion(sk, 50, 60.0, spec)
        np.testing.assert_array_equal(a.rotations, b.rotations)

    def test_angles_follow_sinusoid(self):
        sk = md.default_skeleton()
        spec = [md.JointMotionSpec(joint=2, axis=[0, 0, 1], amplitude=0.4,
                                   frequency=1.0, phase=0.3)]
        seq = md.synth_motion(sk, 120, 60.0, spec)
        t = np.arange(120)
        expect = 0.4 * np.sin(2 * np.pi * 1.0 * t / 60.0 + 0.3)
        got = so3.angleaxis_from_rotmat(seq.rotations[:, 2].astype(np.float64))
        got_angle = got[:, 2] + got[:, 0] + got[:, 1]  # axis is z; x,y are ~0
        np.testing.assert_allclose(got_angle, expect, atol=1e-4)

    def test_outputs_are_valid_rotations(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(2)
        seq = md.synth_motion(sk, 60, 60.0, md.two_frequency_spec(sk),
                              noise_std=0.05, rng=rng)
        flat = seq.rotations.reshape(-1, 3, 3).astype(np.float64)
        assert np.all(so3.is_valid_rotmat(flat, tol=1e-4))

    def test_periodicity(self):
        # 0.5 and 1.0 Hz motion at 60 fps repeats every 120 frames
        sk = md.default_skeleton()
        seq = md.synth_motion(sk, 300, 60.0, md.two_frequency_spec(sk))
        np.testing.assert_allclose(seq.rotations[0], seq.rotations[120], atol=1e-5)
        np.testing.assert_allclose(seq.rotations[50], seq.rotations[170], atol=1e-5)

    def test_rejects_aliasing_frequency(self):
        sk = md.default_skeleton()
        with pytest.raises(ValueError):
            md.synth_motion(sk, 10, 60.0, [md.JointMotionSpec(0, [1, 0, 0], 0.3, 30.0)])

    def test_rejects_large_amplitude(self):
        sk = md.default_skeleton()
        with pytest.raises(ValueError):
            md.synth_motion(sk, 10, 60.0, [md.JointMotionSpec(0, [1, 0, 0], 3.5, 1.0)])

    @pytest.mark.parametrize("noise_std", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_noise(self, noise_std):
        sk = md.default_skeleton()
        with pytest.raises(ValueError, match="noise_std"):
            md.synth_motion(sk, 10, 60.0, md.two_frequency_spec(sk), noise_std=noise_std,
                            rng=np.random.default_rng(0))

    def test_noise_needs_rng(self):
        sk = md.default_skeleton()
        with pytest.raises(ValueError):
            md.synth_motion(sk, 10, 60.0, md.two_frequency_spec(sk), noise_std=0.1)

    @pytest.mark.parametrize("rate, spec, rule", [(math.inf, True, "a finite"),
                                                  (0.0, False, "a positive")],
                             ids=["inf_passes_the_aliasing_rule", "zero_without_a_spec"])
    def test_rejects_a_rate_no_motion_file_holds(self, rate, spec, rule):
        # no aliasing check stops these rates; the sequence's own rule does
        sk = md.default_skeleton()
        with pytest.raises(ValueError, match=f"frame_rate {rate!r} is not {rule} number"):
            md.synth_motion(sk, 4, rate, md.two_frequency_spec(sk) if spec else [])


class TestWindowing:
    """Windows are cut by `training.sample_batch` and `make_eval_windows`;
    over a source exactly one window long each has one start, frame 0."""

    def test_window_contents_match_source(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(3)
        rots = so3.random_rotations(8 * sk.n_joints, rng).reshape(
            8, sk.n_joints, 3, 3).astype(np.float32)
        seq = md.MotionSequence(sk, rots, 60.0)
        ws = tr.make_eval_windows([seq], 6, 3, np.random.default_rng(0))
        for w in ws:
            assert any(np.array_equal(w, seq.flat()[s:s + 3]) for s in range(6))

    def test_shift_targets(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(4)
        rots = so3.random_rotations(6 * sk.n_joints, rng).reshape(
            6, sk.n_joints, 3, 3).astype(np.float32)
        seq = md.MotionSequence(sk, rots, 60.0)
        inputs, targets = tr.sample_batch([seq], 2, 6, np.random.default_rng(0))
        assert inputs.shape == (2, 5, sk.n_joints, 9)
        np.testing.assert_array_equal(inputs[0], seq.flat()[:-1])
        np.testing.assert_array_equal(targets[0], seq.flat()[1:])
        # target t equals input t+1
        np.testing.assert_array_equal(inputs[0, 1:], targets[0, :-1])

    def test_shift_targets_rejects_short(self):
        with pytest.raises(ValueError, match="length >= 2"):
            tr.sample_batch([identity_seq(1)], 1, 1, np.random.default_rng(0))


class TestAugmentations:
    def test_mirror_is_involution(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(6)
        rots = so3.random_rotations(4 * sk.n_joints, rng).reshape(
            4, sk.n_joints, 3, 3).astype(np.float32)
        back = md.mirror_rotations(md.mirror_rotations(rots, sk), sk)
        np.testing.assert_allclose(back, rots, atol=1e-6)

    def test_mirror_preserves_validity(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(7)
        rots = so3.random_rotations(3 * sk.n_joints, rng).reshape(
            3, sk.n_joints, 3, 3).astype(np.float32)
        m = md.mirror_rotations(rots, sk)
        assert m.dtype == np.float32
        flat = m.reshape(-1, 3, 3).astype(np.float64)
        assert np.all(so3.is_valid_rotmat(flat, tol=1e-4))


class TestFileFormats:
    def test_motion_roundtrip(self, tmp_path):
        sk = md.default_skeleton()
        rng = np.random.default_rng(8)
        rots = so3.random_rotations(5 * sk.n_joints, rng).reshape(
            5, sk.n_joints, 3, 3).astype(np.float32)
        seq = md.MotionSequence(sk, rots, 25.0)
        p = tmp_path / "m.stm1"
        md.save_motion(p, seq)
        loaded = md.load_motion(p)
        assert loaded.frame_rate == 25.0
        assert loaded.skeleton == sk
        np.testing.assert_array_equal(loaded.rotations, seq.rotations)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.stm1"
        p.write_bytes(b"NOPE rest")
        with pytest.raises(ValueError):
            md.load_motion(p)

    @pytest.mark.parametrize("line", [b"", b"[1, 2]", b"{\"frame_rate\": ", b"\xff{}"],
                             ids=["empty", "not_object", "bad_json", "bad_utf8"])
    def test_bad_header_line_names_the_file(self, tmp_path, line):
        p = tmp_path / "bad.stm1"
        p.write_bytes(line + b"\nSTT1")
        with pytest.raises(ConfigError, match=re.escape(f"motion file {p}: ")):
            md.load_motion(p)

    @settings(max_examples=40, deadline=None)
    @given(frame_rate=st.floats(1e-3, 1e4).filter(lambda f: float(np.float32(f)) != f),
           names=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True),
           n_frames=st.integers(1, 5))
    def test_motion_roundtrip_is_exact(self, tmp_path_factory, frame_rate, names, n_frames):
        n = len(names)
        sk = md.Skeleton(names, np.arange(n) - 1, np.linspace(-1, 1, 3 * n).reshape(n, 3) / 3,
                         np.arange(n))
        rots = so3.random_rotations((n_frames, n), np.random.default_rng(n_frames))
        seq = md.MotionSequence(sk, rots, frame_rate)
        p = tmp_path_factory.mktemp("motion") / "m.stm1"
        md.save_motion(p, seq)
        loaded = md.load_motion(p)
        assert loaded.frame_rate == frame_rate
        assert loaded.skeleton.joint_names == names
        assert np.array_equal(loaded.skeleton.offset, sk.offset)
        np.testing.assert_array_equal(loaded.rotations, seq.rotations)

    @pytest.mark.parametrize("edit, message", [
        (lambda h, t: h.pop("frame_rate"), "header has missing keys ['frame_rate']"),
        (lambda h, t: h["skeleton"].pop("parent"), "skeleton has missing keys ['parent']"),
        (lambda h, t: t.pop("rotations"), "tensor set has missing keys ['rotations']"),
        (lambda h, t: h.update(frame_rate="60"), "frame_rate '60' is not a finite number"),
        (lambda h, t: h.update(frame_rate=0), "frame_rate 0 is not a positive number"),
        (lambda h, t: h.update(frame_rate=True), "frame_rate True is not a finite number"),
        (lambda h, t: h.update(skeleton=[1]), "skeleton must be a JSON object"),
        (lambda h, t: h.update(skeleton={**h["skeleton"], "pelvis": 0}),
         "skeleton has unknown keys ['pelvis']"),
        (lambda h, t: h.update(comment="x"), "header has unknown keys ['comment']"),
        (lambda h, t: h["skeleton"].update(mirror_pair=[0] * 9), "involution"),
        (lambda h, t: t.update(rotations=t["rotations"][:, :2]), "bad rotations shape"),
        (lambda h, t: h["skeleton"].update(mirror_pair=[0, 1, 2, 5, 6, 3, 4, 8, 9]),
         "involution"),
        (lambda h, t: h["skeleton"].update(parent=json.loads("[" * 33 + "0" + "]" * 33)),
         "parent has shape (1, 1, 1,"),  # numpy iterates over at most 32 axes
        (lambda h, t: t["rotations"].__setitem__((1, 4, 0, 2), np.nan),
         "frame 1 holds a rotation that is not finite"),
    ], ids=["no_rate", "no_parent", "no_rotations", "rate_type", "rate_zero", "rate_bool",
            "skeleton_type", "skeleton_key", "header_key", "mirror", "shape", "mirror_range",
            "parent_33_deep", "nan_rotation"])
    def test_bad_header_names_the_file(self, tmp_path, edit, message):
        header = {"frame_rate": 60.0, "skeleton": dataclasses.asdict(md.default_skeleton())}
        tensors = {"rotations": identity_seq(2).rotations}
        edit(header, tensors)
        p = tmp_path / "bad.stm1"
        tz.save_record(p, json.dumps(header, default=np.ndarray.tolist), tensors)
        with pytest.raises(ConfigError, match=re.escape(f"motion file {p}: ") + ".*"
                           + re.escape(message)):
            md.load_motion(p)

    @pytest.mark.parametrize("rate, rule", [
        pytest.param(rate, rule, id=str(rate)) for rate, rule in [
            (True, "a finite"), ("60", "a finite"), (np.nan, "a finite"), (-1.0, "a positive"),
            (0, "a positive"), (math.inf, "a finite"), (None, "a finite")]])
    def test_sequence_frame_rate_is_a_positive_real(self, rate, rule):
        with pytest.raises(ValueError, match=re.escape(f"frame_rate {rate!r} is not {rule} number")):
            md.MotionSequence(md.default_skeleton(), identity_seq(2).rotations, rate)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_sequence_refuses_non_finite_rotations(self, value):
        rots = identity_seq(5).rotations
        rots[3, 2, 1, 1] = value
        with pytest.raises(ValueError, match="^frame 3 holds a rotation that is not finite$"):
            md.MotionSequence(md.default_skeleton(), rots, 60.0)

    @pytest.mark.parametrize("rate", [60, 60.0, np.float32(24.0), np.int64(30)])
    def test_sequence_takes_any_real_rate(self, rate):
        assert md.MotionSequence(md.default_skeleton(), identity_seq(2).rotations,
                                 rate).frame_rate == rate

    def test_skeleton_json(self, tmp_path):
        sk = md.default_skeleton()
        p = tmp_path / "sk.json"
        p.write_text(__import__("json").dumps({
            "joint_names": sk.joint_names,
            "parent": sk.parent.tolist(),
            "offset": sk.offset.tolist(),
            "mirror_pair": sk.mirror_pair.tolist(),
        }))
        assert md.skeleton_from_json(p) == sk

    @pytest.mark.parametrize("text", ['{"joint_names": ["a"]}', '[]', '{"joint_names": '],
                             ids=["missing", "not_object", "bad_json"])
    def test_bad_skeleton_json_names_the_file(self, tmp_path, text):
        p = tmp_path / "sk.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"skeleton file {p}: ")):
            md.skeleton_from_json(p)

    def test_motion_spec_json_with_names(self, tmp_path):
        sk = md.default_skeleton()
        p = tmp_path / "spec.json"
        p.write_text(__import__("json").dumps({
            "noise_std": 0.02,
            "joints": [
                {"joint": "head", "axis": [0, 0, 1], "amplitude": 0.3,
                 "frequency": 1.5, "phase": 0.1},
                {"joint": 4, "axis": [1, 0, 0], "amplitude": 0.2,
                 "frequency": 0.5},
            ],
        }))
        specs, noise = md.motion_spec_from_json(p, sk)
        assert noise == 0.02
        assert specs[0].joint == sk.joint_names.index("head")
        assert specs[1].joint == 4
        assert specs[1].phase == 0.0


class TestSpecHandCases:
    def test_fk_two_joint_chain_quarter_turn(self):
        sk = md.Skeleton(["root", "child"], np.array([-1, 0]),
                         np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0]]),
                         np.array([0, 1]))
        rots = np.broadcast_to(np.eye(3, dtype=np.float32), (1, 2, 3, 3)).copy()
        rots[0, 0] = so3.rotmat_from_angleaxis([0, 0, np.pi / 2])
        pos = md.fk_positions(rots, sk)
        np.testing.assert_allclose(pos[0, 1], [-100.0, 0.0, 0.0], atol=1e-4)

    def test_synth_zero_amplitude_is_identity_pose(self):
        sk = md.default_skeleton()
        spec = [md.JointMotionSpec(j, [0, 0, 1], 0.0, 1.0) for j in range(sk.n_joints)]
        seq = md.synth_motion(sk, 10, 60.0, spec)
        assert np.abs(seq.rotations - np.eye(3, dtype=np.float32)).max() < 1e-7

    def test_synth_geodesic_closed_form(self):
        sk = md.default_skeleton()
        seq = md.synth_motion(sk, 60, 60.0,
                              [md.JointMotionSpec(1, [0, 1, 0], 0.5, 1.0)])
        t = np.arange(60)
        expect = np.abs(0.5 * np.sin(2 * np.pi * t / 60.0))
        got = so3.geodesic_angle(np.broadcast_to(np.eye(3), (60, 3, 3)),
                                 seq.rotations[:, 1].astype(np.float64))
        np.testing.assert_allclose(got, expect, atol=1e-4)

    def test_window_full_length_single(self):
        seq = identity_seq(12)
        ws = tr.make_eval_windows([seq], 1, 12, np.random.default_rng(0))
        assert ws.shape == (1, 12, seq.skeleton.n_joints, 9)
        np.testing.assert_array_equal(ws[0], seq.flat())

    def test_shift_targets_constant_sequence(self):
        inputs, targets = tr.sample_batch([identity_seq(5)], 1, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(inputs, targets)

    def test_shift_targets_length_two(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(21)
        rots = so3.random_rotations(2 * sk.n_joints, rng).reshape(
            2, sk.n_joints, 3, 3).astype(np.float32)
        seq = md.MotionSequence(sk, rots, 60.0)
        inputs, targets = tr.sample_batch([seq], 1, 2, np.random.default_rng(0))
        assert inputs.shape == targets.shape == (1, 1, sk.n_joints, 9)
        np.testing.assert_array_equal(inputs[0, 0], seq.flat()[0])
        np.testing.assert_array_equal(targets[0, 0], seq.flat()[1])

    def test_reverse_frame_map(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(22)
        rots = so3.random_rotations(6 * sk.n_joints, rng).reshape(
            6, sk.n_joints, 3, 3).astype(np.float32)
        seq = md.MotionSequence(sk, rots, 60.0)
        inputs, targets = tr.sample_batch([seq], 1, 6, np.random.default_rng(0),
                                          reverse_prob=1.0)
        rev = np.concatenate([inputs[0], targets[0, -1:]]).reshape(rots.shape)
        for t in range(6):
            np.testing.assert_array_equal(rev[t], rots[5 - t])

    def test_mirror_symmetric_pose_fixed_point(self):
        # pose where each joint already equals the sagittal conjugate of its
        # partner is unchanged by mirroring
        sk = md.default_skeleton()
        rng = np.random.default_rng(23)
        rots = np.empty((2, sk.n_joints, 3, 3), dtype=np.float32)
        S = np.diag([-1.0, 1.0, 1.0])
        done = set()
        for j in range(sk.n_joints):
            if j in done:
                continue
            m = sk.mirror_pair[j]
            if m == j:
                # self-paired joints must commute with the reflection:
                # any rotation about the x-axis does
                R = so3.rotmat_from_angleaxis(
                    rng.uniform(-np.pi, np.pi, size=(2, 1)) * [[1.0, 0.0, 0.0]])
            else:
                R = so3.random_rotations(2, rng)
            rots[:, j] = R
            rots[:, m] = S @ R @ S
            done.update({j, int(m)})
        np.testing.assert_allclose(md.mirror_rotations(rots, sk), rots, atol=1e-6)
