import math

import numpy as np
import pytest

from stmotion import evalmetrics as ev
from stmotion import motiondata as md
from stmotion import so3
from stmotion.errors import ConfigError


def rot_seq(n_frames, seed=0):
    sk = md.default_skeleton()
    rng = np.random.default_rng(seed)
    rots = so3.random_rotations(n_frames * sk.n_joints, rng).reshape(
        n_frames, sk.n_joints, 9).astype(np.float32)
    return sk, rots


def rx_flat(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([1, 0, 0, 0, c, -s, 0, s, c], dtype=np.float32)


class TestAngleMetrics:
    def test_identical_sequences_zero(self):
        sk, rots = rot_seq(10)
        horizons = [100.0, 166.0]
        eu = ev.metric_euler(rots, rots, horizons, 60.0)
        ge = ev.metric_geodesic(rots, rots, horizons, 60.0)
        for h in horizons:
            assert eu[h] < 1e-5
            # arccos near 1 amplifies float32 rounding, so allow ~1e-3
            assert ge[h] < 1e-3

    def test_geodesic_single_joint_offset(self):
        # one joint off by a known angle: mean = theta / n_joints
        sk, rots = rot_seq(4)
        theta = 0.3
        pred = rots.copy()
        base = rots[:, 0].reshape(4, 3, 3).astype(np.float64)
        Rx = so3.rotmat_from_angleaxis([theta, 0, 0])
        pred[:, 0] = (base @ Rx).reshape(4, 9).astype(np.float32)
        h = 1000.0 * 4 / 60.0  # the span of the 4 frames
        ge = ev.metric_geodesic(pred, rots, [h], 60.0)[h]
        assert abs(ge - theta / sk.n_joints) < 1e-3

    def test_euler_single_axis_offset(self):
        # identity vs x-rotation on every joint: per-joint euler diff is
        # (theta, 0, 0) so the per-frame norm is theta * sqrt(N)
        sk = md.default_skeleton()
        n = sk.n_joints
        theta = 0.25
        tgt = np.tile(np.eye(3).reshape(9).astype(np.float32), (6, n, 1))
        pred = np.tile(rx_flat(theta), (6, n, 1))
        eu = ev.metric_euler(pred, tgt, [100.0], 60.0)[100.0]  # the 6 frames
        assert abs(eu - theta * np.sqrt(n)) < 1e-5

    def test_euler_wrapping(self):
        # angles pi - eps vs -(pi - eps) differ by 2*eps after wrapping,
        # not by nearly 2*pi
        eps = 0.01
        sk = md.default_skeleton()
        n = sk.n_joints
        a = np.tile(rx_flat(np.pi - eps), (2, n, 1))
        b = np.tile(rx_flat(-(np.pi - eps)), (2, n, 1))
        h = 1000.0 * 2 / 60.0  # the span of the 2 frames
        eu = ev.metric_euler(a, b, [h], 60.0)[h]
        assert abs(eu - 2 * eps * np.sqrt(n)) < 1e-4

    def test_horizon_truncation(self):
        # errors only in late frames are invisible at short horizons
        sk, rots = rot_seq(10)
        pred = rots.copy()
        pred[5:] = np.tile(rx_flat(0.5), (5, sk.n_joints, 1))
        short = ev.metric_geodesic(pred, rots, [50.0], 60.0)[50.0]  # 3 frames
        full = ev.metric_geodesic(pred, rots, [166.7], 60.0)[166.7]
        assert short < 1e-4
        assert full > 0.01

    def test_horizon_beyond_the_scored_frames_is_an_error(self):
        # 6 frames at 60 fps span 100 ms; 1000 ms would score those 6 frames again
        sk, rots = rot_seq(6)
        for score in (lambda hs: ev.metric_geodesic(rots, rots, hs, 60.0),
                      lambda hs: ev.full_report(rots, rots, sk, hs, 60.0)):
            assert list(score([50.0, 100.0])) == [50.0, 100.0]
            with pytest.raises(ValueError, match="horizon 1000 ms spans 60 frames; 6 are scored"):
                score([100.0, 1000.0])

    def test_horizon_frames(self):
        assert ev.horizon_frames([400.0], 25.0) == [10]
        assert ev.horizon_frames([80.0, 160.0, 1000.0], 25.0) == [2, 4, 25]
        assert ev.horizon_frames([100.0, 200.0, 400.0, 1000.0], 60.0) == [6, 12, 24, 60]

    @pytest.mark.parametrize("h", [-100.0, 1.0, math.nan, math.inf],
                             ids=["negative", "under_a_frame", "nan", "inf"])
    def test_horizon_without_a_frame_is_config_error(self, h):
        # scored horizons follow span_frames' rule: no horizon scores a frame it does not span
        with pytest.raises(ConfigError, match=f"horizon {h:g} spans"):
            ev.horizon_frames([100.0, h], 60.0)

    def test_shape_mismatch(self):
        _, rots = rot_seq(5)
        with pytest.raises(ValueError):
            ev.metric_euler(rots, rots[:3], [100.0], 60.0)


class TestPositionalMetrics:
    def test_straight_arm_block_oracle(self):
        # rotating only l_collar by theta moves the l_arm end by a chord of
        # the circle with radius |l_arm offset|
        sk = md.default_skeleton()
        n = sk.n_joints
        j = sk.joint_names.index("l_collar")
        child = sk.joint_names.index("l_arm")
        theta = 0.4
        tgt = np.tile(np.eye(3).reshape(9).astype(np.float32), (1, n, 1))
        pred = tgt.copy()
        pred[0, j] = so3.rotmat_from_angleaxis([0, 0, theta]).reshape(9)
        err = ev.positional_errors(pred, tgt, sk)[0, 0]
        radius = np.linalg.norm(sk.offset[child])
        chord = 2 * radius * np.sin(theta / 2)
        assert abs(err[j]) < 1e-6          # the rotated joint itself stays put
        assert abs(err[child] - chord) < 1e-6

    def test_pck_statistical(self):
        # half the frames turn the root, which displaces most joints far: the
        # AUC is the trapezoidal mean of PCK over the default grid
        sk = md.default_skeleton()
        n = sk.n_joints
        tgt = np.tile(np.eye(3).reshape(9).astype(np.float32), (40, n, 1))
        pred = tgt.copy()
        pred[:20, 0] = rx_flat(np.pi / 2)
        h = 1000.0 * 40 / 60.0  # the span of the 40 frames
        auc = ev.full_report(pred, tgt, sk, [h], 60.0)[h]["pck_auc"]
        err = ev.positional_errors(pred, tgt, sk)
        grid = np.asarray(ev.DEFAULT_PCK_THRESHOLDS)
        pck = [100.0 * (err <= t).mean() for t in grid]
        assert auc == pytest.approx(np.trapezoid(pck, grid) / (grid[-1] - grid[0]), abs=1e-9)
        assert 50.0 < auc < 100.0  # the unturned half is exact

    def test_batch_mismatch_raises_instead_of_broadcasting(self):
        # (1, T, N, 9) against (3, T, N, 9): broadcasting scored it 0 mm, AUC 100
        sk, rots = rot_seq(4, seed=3)
        one, three = rots[None], np.stack([rots] * 3)
        with pytest.raises(ValueError, match="shape mismatch"):
            ev.positional_errors(one, three, sk)
        with pytest.raises(ValueError, match="shape mismatch"):
            ev.full_report(one, three, sk, [50.0], 60.0)


class TestPowerSpectrum:
    def test_distribution_normalized(self):
        sk, rots = rot_seq(60)
        dist = ev.ps_of_windows([rots[:30], rots[30:]], sk)
        assert dist.shape == (3 * sk.n_joints, 32)
        assert np.all(dist >= 0)
        # rows are normalized to sum 1; identically-zero signals (the root
        # joint's pinned coordinates) keep an all-zero row
        sums = dist.sum(axis=-1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))
        assert (np.abs(sums - 1.0) < 1e-9).sum() >= 3 * (sk.n_joints - 1)

    def test_entropy_uniform_is_log_k(self):
        k = 16
        dist = np.full((4, k), 1.0 / k)
        assert abs(ev.ps_entropy(dist) - np.log(k)) < 1e-12

    def test_entropy_delta_is_zero(self):
        spectra = np.zeros((2, 8))
        spectra[:, 3] = 1.0
        assert ev.ps_entropy(spectra) == 0.0

    def test_entropy_ordering(self):
        # flatter spectrum has strictly higher entropy
        peaked = np.array([[0.9, 0.05, 0.03, 0.02]])
        flat = np.array([[0.3, 0.3, 0.2, 0.2]])
        assert ev.ps_entropy(flat) > ev.ps_entropy(peaked)

    def test_pure_tone_concentrates_at_its_bin(self):
        # only l_collar swings about z, by a small angle at 4 cycles per 32
        # frames: every moving coordinate is ~a tone at bin 4 (and its mirror
        # 28); its x-y circle bends a small second harmonic into bin 8
        sk = md.default_skeleton()
        t, k = 32, 4
        rots = np.tile(np.eye(3).reshape(9).astype(np.float32), (t, sk.n_joints, 1))
        j = sk.joint_names.index("l_collar")
        for f in range(t):
            angle = 0.05 * np.sin(2 * np.pi * k * f / t)
            rots[f, j] = so3.rotmat_from_angleaxis([0, 0, angle]).reshape(9)
        dist = ev.ps_of_windows([rots], sk)
        moving = dist[:, 1:].sum(axis=-1) > 1e-6   # rows with power off DC
        assert moving.any()
        tone = dist[moving][:, [k, t - k]].sum(axis=-1)
        off_dc = dist[moving][:, 1:].sum(axis=-1)
        assert np.all(tone > 0.99 * off_dc)

    def test_static_pose_concentrates_at_dc(self):
        sk = md.default_skeleton()
        frozen = np.tile(np.eye(3).reshape(9).astype(np.float32),
                         (32, sk.n_joints, 1))
        dist = ev.ps_of_windows([frozen], sk)
        # constant signals put all power in bin 0 -> near-zero entropy
        assert ev.ps_entropy(dist) < 1e-6

    def test_kld_zero_on_equal(self):
        sk, rots = rot_seq(32, seed=3)
        d = ev.ps_of_windows([rots], sk)
        assert ev.ps_kld(d, d) == 0.0

    def test_kld_symmetric_and_positive(self):
        sk, a = rot_seq(32, seed=4)
        _, b = rot_seq(32, seed=5)
        da, db = ev.ps_of_windows([a], sk), ev.ps_of_windows([b], sk)
        assert ev.ps_kld(da, db) == pytest.approx(ev.ps_kld(db, da))
        assert ev.ps_kld(da, db) > 0

    def test_kld_hand_computed(self):
        g = np.array([[0.5, 0.5]])
        p = np.array([[0.25, 0.75]])
        # symmetric KL of the smoothed distributions; smoothing is tiny so
        # compare against the unsmoothed closed form loosely
        expect = 0.5 * (0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
                        + 0.25 * np.log(0.25 / 0.5) + 0.75 * np.log(0.75 / 0.5))
        assert abs(ev.ps_kld(g, p) - expect) < 1e-6

    def test_kld_shape_mismatch(self):
        g = np.full((1, 4), 0.25)
        p = np.full((1, 8), 0.125)
        with pytest.raises(ValueError):
            ev.ps_kld(g, p)

    def test_mismatched_window_lengths_rejected(self):
        sk, rots = rot_seq(50)
        with pytest.raises(ValueError):
            ev.ps_of_windows([rots[:30], rots[30:]], sk)


class TestLongterm:
    def test_per_second_curves(self):
        sk = md.default_skeleton()
        seq = md.synth_motion(sk, 60 * 8, 60.0, md.two_frequency_spec(sk))
        refs = [seq.flat()[s:s + 60] for s in range(0, 240, 60)]
        pred = seq.flat()[:60 * 3]
        seconds, klds, ents = ev.longterm_eval(pred, sk, refs, 60.0)
        assert seconds == [1, 2, 3]
        assert len(klds) == len(ents) == 3
        # prediction windows come from the reference motion itself, so the
        # divergence stays small
        assert all(k < 0.5 for k in klds)

    def test_frozen_prediction_low_entropy_high_kld(self):
        sk = md.default_skeleton()
        seq = md.synth_motion(sk, 60 * 6, 60.0, md.two_frequency_spec(sk))
        refs = [seq.flat()[s:s + 60] for s in range(0, 240, 60)]
        frozen = np.tile(seq.flat()[0][None], (120, 1, 1))
        _, klds_f, ents_f = ev.longterm_eval(frozen, sk, refs, 60.0)
        _, klds_m, ents_m = ev.longterm_eval(seq.flat()[:120], sk, refs, 60.0)
        assert all(f < m for f, m in zip(ents_f, ents_m))
        assert all(f > m for f, m in zip(klds_f, klds_m))

    @pytest.mark.parametrize("frame_rate", [30.0, 1234.0])
    def test_references_must_be_one_second(self, frame_rate):
        # 60-frame references at another rate would make `seconds` count windows
        sk = md.default_skeleton()
        seq = md.synth_motion(sk, 240, 60.0, md.two_frequency_spec(sk))
        refs = [seq.flat()[s:s + 60] for s in range(0, 120, 60)]
        with pytest.raises(ValueError, match="not one second"):
            ev.longterm_eval(seq.flat(), sk, refs, frame_rate)

    def test_too_short_prediction(self):
        sk, rots = rot_seq(10)
        with pytest.raises(ValueError):
            ev.longterm_eval(rots, sk, [np.zeros((60, sk.n_joints, 9))], 60.0)


class TestCsvWriters:
    def test_metric_csv(self, tmp_path):
        sk, rots = rot_seq(30, seed=6)
        _, pred = rot_seq(30, seed=7)
        report = ev.full_report(pred, rots, sk, [80.0, 400.0], 60.0)
        p = tmp_path / "metrics.csv"
        with open(p, "w") as fh:
            ev.write_metric_csv(fh, report)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "horizon_ms,euler,geodesic,positional_mm,pck_auc"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 80.0
        assert float(first[1]) == report[80.0]["euler"]

    def test_full_report_consistent(self):
        sk, rots = rot_seq(20, seed=8)
        report = ev.full_report(rots, rots, sk, [100.0], 60.0)
        assert report[100.0]["geodesic"] < 1e-4
        assert report[100.0]["positional_mm"] < 1e-6
        assert report[100.0]["pck_auc"] == 100.0

    def test_full_report_equals_the_separate_metrics(self, monkeypatch):
        sk, truth = rot_seq(24, seed=9)
        _, pred = rot_seq(24, seed=10)
        pred, truth = np.stack([pred, truth]), np.stack([truth, pred])
        horizons = [50.0, 200.0, 400.0]
        err = ev.positional_errors(pred, truth, sk)
        grid = np.asarray(ev.DEFAULT_PCK_THRESHOLDS)
        frames = ev.horizon_frames(horizons, 60.0)
        separate = {
            "euler": ev.metric_euler(pred, truth, horizons, 60.0),
            "geodesic": ev.metric_geodesic(pred, truth, horizons, 60.0),
            "positional_mm": {h: float(err[:, :f].mean()) for h, f in zip(horizons, frames)},
            "pck_auc": {h: float(np.trapezoid([100.0 * (err[:, :f] <= t).mean() for t in grid],
                                              grid) / (grid[-1] - grid[0]))
                        for h, f in zip(horizons, frames)},
        }
        calls = []
        fk = ev.fk_positions
        monkeypatch.setattr(ev, "fk_positions", lambda *a: calls.append(1) or fk(*a))
        report = ev.full_report(pred, truth, sk, horizons, 60.0)
        assert len(calls) == 2  # once per side
        for h in horizons:
            assert report[h] == {k: v[h] for k, v in separate.items()}
