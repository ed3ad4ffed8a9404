import numpy as np
import pytest

from stmotion import model as mo
from stmotion import motiondata as md
from stmotion import training as tr
from stmotion.errors import ConfigError, NumericError
from stmotion.so3 import DegenerateRotationError
from stmotion.tensor import Tensor


def make_seqs(n_frames=400, fps=60.0, seed=0):
    sk = md.default_skeleton()
    rng = np.random.default_rng(seed)
    return [md.synth_motion(sk, n_frames, fps, md.two_frequency_spec(sk),
                            noise_std=0.01, rng=rng)]


def tiny_setup():
    cfg = mo.ModelConfig(n_joints=9, embed_dim=8, n_heads=2, n_layers=1,
                         ff_size=8, window=8, dropout=0.0)
    params = mo.init_params(cfg, np.random.default_rng(0))
    return cfg, params


class TestLoss:
    def test_hand_computed(self):
        # two frames, one joint: difference norms 5 and 13
        pred = np.zeros((2, 1, 9), dtype=np.float32)
        tgt = np.zeros((2, 1, 9), dtype=np.float32)
        tgt[0, 0, :2] = [3.0, 4.0]
        tgt[1, 0, :2] = [5.0, 12.0]
        loss = tr.loss_per_joint_l2(Tensor(pred), tgt)
        assert abs(float(loss.data) - 18.0) < 1e-6

    def test_batch_averaged(self):
        pred = np.zeros((4, 2, 1, 9), dtype=np.float32)
        tgt = np.zeros((4, 2, 1, 9), dtype=np.float32)
        tgt[..., 0] = 2.0
        loss = tr.loss_per_joint_l2(Tensor(pred), tgt)
        # 8 joint-frames of norm 2 over batch 4 -> 4
        assert abs(float(loss.data) - 4.0) < 1e-6

    def test_norm_not_squared(self):
        pred = np.zeros((1, 1, 1, 9), dtype=np.float32)
        tgt = np.zeros((1, 1, 1, 9), dtype=np.float32)
        tgt[..., 0] = 3.0
        assert abs(float(tr.loss_per_joint_l2(Tensor(pred), tgt).data) - 3.0) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tr.loss_per_joint_l2(Tensor(np.zeros((1, 2, 9))), np.zeros((1, 3, 9)))


class TestNoamSchedule:
    def test_formula(self):
        for step in (1, 7, 100, 4000, 123456):
            for d, w in ((128, 4000), (16, 100)):
                expect = d ** -0.5 * min(step ** -0.5, step * w ** -1.5)
                assert abs(tr.noam_lr(step, d, w) - expect) < 1e-15

    def test_peak_at_warmup(self):
        lrs = [tr.noam_lr(s, 64, 50) for s in range(1, 200)]
        assert int(np.argmax(lrs)) + 1 == 50

    def test_monotone_around_peak(self):
        lrs = [tr.noam_lr(s, 64, 50) for s in range(1, 200)]
        assert all(a < b for a, b in zip(lrs[:49], lrs[1:50]))
        assert all(a > b for a, b in zip(lrs[49:-1], lrs[50:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            tr.noam_lr(0, 64, 100)


class TestGradClipping:
    def test_below_threshold_untouched(self):
        g = {"a": np.array([0.3, 0.4], dtype=np.float32)}
        clipped, norm = tr.clip_global_norm(g, 1.0)
        assert clipped["a"] is g["a"]
        assert abs(norm - 0.5) < 1e-7

    def test_scaled_to_max_norm_preserving_direction(self):
        g = {"a": np.array([3.0, 0.0], dtype=np.float32),
             "b": np.array([0.0, 4.0], dtype=np.float32)}
        clipped, norm = tr.clip_global_norm(g, 1.0)
        assert abs(norm - 5.0) < 1e-6
        new_norm = np.sqrt(sum((v ** 2).sum() for v in clipped.values()))
        assert abs(new_norm - 1.0) < 1e-6
        np.testing.assert_allclose(clipped["a"] / clipped["a"][0],
                                   g["a"] / g["a"][0])

    def test_zero_gradients_pass(self):
        g = {"a": np.zeros(3, dtype=np.float32)}
        clipped, norm = tr.clip_global_norm(g, 1.0)
        assert norm == 0.0
        np.testing.assert_array_equal(clipped["a"], 0.0)

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            tr.clip_global_norm({"a": np.ones(2)}, 0.0)


class TestAdam:
    def test_quadratic_bowl_convergence(self):
        target = np.array([1.5, -2.0, 0.3], dtype=np.float32)
        p = {"x": Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)}
        state = tr.AdamState(p)
        for _ in range(2000):
            g = {"x": 2.0 * (p["x"].data - target)}
            tr.adam_step(p, g, state, lr=0.01)
        np.testing.assert_allclose(p["x"].data, target, atol=1e-3)

    def test_first_step_size_is_lr(self):
        # with bias correction the first update has magnitude ~lr per element
        # regardless of the gradient scale
        for scale in (1e-3, 1.0, 1e3):
            p = {"x": Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)}
            state = tr.AdamState(p)
            tr.adam_step(p, {"x": np.full(4, scale, dtype=np.float32)}, state, lr=0.1)
            np.testing.assert_allclose(p["x"].data, -0.1, rtol=1e-4)

    def test_state_starts_at_zero(self):
        p = {"x": Tensor(np.ones(2), requires_grad=True)}
        state = tr.AdamState(p)
        assert state.step == 0
        np.testing.assert_array_equal(state.m["x"], 0.0)
        np.testing.assert_array_equal(state.v["x"], 0.0)


class TestSampling:
    def test_shapes_and_target_shift(self):
        seqs = make_seqs()
        inputs, targets = tr.sample_batch(seqs, 4, 9, np.random.default_rng(0))
        assert inputs.shape == targets.shape == (4, 8, 9, 9)
        np.testing.assert_array_equal(inputs[:, 1:], targets[:, :-1])

    def test_deterministic_given_rng(self):
        seqs = make_seqs()
        a = tr.sample_batch(seqs, 4, 9, np.random.default_rng(7))
        b = tr.sample_batch(seqs, 4, 9, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_windows_come_from_source(self):
        seqs = make_seqs(n_frames=50)
        flat = seqs[0].flat()
        inputs, _ = tr.sample_batch(seqs, 3, 5, np.random.default_rng(1))
        for i in range(3):
            found = any(np.array_equal(inputs[i], flat[s:s + 4])
                        for s in range(50 - 4))
            assert found

    def test_reverse_augmentation(self):
        seqs = make_seqs(n_frames=50)
        flat = seqs[0].flat()
        inputs, _ = tr.sample_batch(seqs, 3, 5, np.random.default_rng(2),
                                    reverse_prob=1.0)
        for i in range(3):
            fwd = inputs[i][::-1]  # undo the reversal
            found = any(np.array_equal(fwd, flat[s:s + 4]) for s in range(1, 50 - 3))
            assert found

    def test_mirror_augmentation(self):
        seqs = make_seqs(n_frames=50)
        sk = seqs[0].skeleton
        flat = seqs[0].flat()
        inputs, _ = tr.sample_batch(seqs, 3, 5, np.random.default_rng(3),
                                    mirror_prob=1.0)
        for i in range(3):
            rots = inputs[i].reshape(4, sk.n_joints, 3, 3)
            undone = md.mirror_rotations(rots, sk).reshape(4, sk.n_joints, 9)
            found = any(np.allclose(undone, flat[s:s + 4], atol=1e-6)
                        for s in range(50 - 4))
            assert found

    def test_too_short_sequences_rejected(self):
        with pytest.raises(ValueError):
            tr.sample_batch(make_seqs(n_frames=5), 2, 10, np.random.default_rng(0))

    def test_samplers_match_reference_draw_loop(self):
        sk = md.default_skeleton()
        rng = np.random.default_rng(5)
        seqs = [md.synth_motion(sk, n, 60.0, md.two_frequency_spec(sk),
                                noise_std=0.01, rng=rng) for n in (30, 70)]
        length, count = 9, 12

        def reference(rng, augment):
            lengths = np.array([s.n_frames - length + 1 for s in seqs])
            out, picked = [], set()
            for _ in range(count):
                si = rng.choice(len(seqs), p=lengths / lengths.sum())
                start = int(rng.integers(0, lengths[si]))
                picked.add(int(si))
                w = seqs[si].rotations[start:start + length]
                if augment and rng.random() < 0.5:
                    w = w[::-1]
                if augment and rng.random() < 0.5:
                    w = md.mirror_rotations(w, sk)
                out.append(w.reshape(length, sk.n_joints, 9))
            assert picked == {0, 1}
            return np.stack(out)

        got_rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        inputs, targets = tr.sample_batch(seqs, count, length, got_rng,
                                          reverse_prob=0.5, mirror_prob=0.5)
        want = reference(ref_rng, augment=True)
        np.testing.assert_array_equal(inputs, want[:, :-1])
        np.testing.assert_array_equal(targets, want[:, 1:])
        assert got_rng.random() == ref_rng.random()

        got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        windows = tr.make_eval_windows(seqs, count, length, got_rng)
        np.testing.assert_array_equal(windows, reference(ref_rng, augment=False))
        assert got_rng.random() == ref_rng.random()


class TestTrainLoop:
    def test_short_run_history_and_schedule(self):
        cfg, params = tiny_setup()
        tcfg = tr.TrainConfig(batch_size=4, warmup=10, max_steps=6, eval_every=3,
                              seed=1, n_val_windows=2)
        seqs = make_seqs()
        res = tr.train(params, cfg, tcfg, seqs, seqs)
        assert len(res.history) == 6
        for row in res.history:
            assert tuple(row) == tr.HISTORY_COLUMNS
            assert np.isfinite(row["loss"])
            expect = tr.noam_lr(row["step"], cfg.embed_dim, tcfg.warmup)
            assert abs(row["lr"] - expect) < 1e-12
        # eval rows carry validation metrics, others are blank
        assert res.history[2]["val_geodesic"] is not None
        assert res.history[0]["val_geodesic"] is None
        assert res.history[-1]["val_geodesic"] is not None  # final step evaluated

    def test_deterministic(self):
        seqs = make_seqs()
        outs = []
        for _ in range(2):
            cfg, params = tiny_setup()
            tcfg = tr.TrainConfig(batch_size=4, warmup=10, max_steps=4,
                                  eval_every=2, seed=5, n_val_windows=2)
            outs.append(tr.train(params, cfg, tcfg, seqs, seqs))
        a, b = outs
        assert [r["loss"] for r in a.history] == [r["loss"] for r in b.history]
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)
            np.testing.assert_array_equal(a.final_params[k].data,
                                          b.final_params[k].data)

    def test_early_stopping(self):
        cfg, params = tiny_setup()
        # evaluate every step with zero patience budget: the first eval sets
        # the best, the next non-improving evals exhaust patience quickly
        tcfg = tr.TrainConfig(batch_size=2, warmup=10000, max_steps=500,
                              eval_every=1, patience=2, seed=2, n_val_windows=2)
        seqs = make_seqs()
        res = tr.train(params, cfg, tcfg, seqs, seqs)
        assert len(res.history) < 500

    def test_best_checkpoint_tracked(self):
        cfg, params = tiny_setup()
        tcfg = tr.TrainConfig(batch_size=4, warmup=10, max_steps=4, eval_every=2,
                              seed=3, n_val_windows=2)
        seqs = make_seqs()
        res = tr.train(params, cfg, tcfg, seqs, seqs)
        evals = [r for r in res.history if r["val_geodesic"] is not None]
        assert res.best_val == min(r["val_geodesic"] for r in evals)
        assert res.best_step in [r["step"] for r in evals]

    def test_non_finite_loss_carries_partial_result(self):
        # a finite prediction of ~1e20 squares past float32 in the loss, with no warning
        cfg, params = tiny_setup()
        params["out.b"].data[...] = 1e20
        tcfg = tr.TrainConfig(batch_size=2, warmup=10, max_steps=3, eval_every=10,
                              seed=4, n_val_windows=2)
        seqs = make_seqs()
        with pytest.raises(NumericError, match="^non-finite loss at step 1$") as exc:
            tr.train(params, cfg, tcfg, seqs, seqs)
        assert hasattr(exc.value, "result")
        assert isinstance(exc.value.result, tr.TrainResult)

    def test_validation_failure_carries_partial_result(self, monkeypatch):
        def failing_validation(*args):
            raise NumericError("non-finite validation")
        monkeypatch.setattr(tr, "validation_metrics", failing_validation)
        cfg, params = tiny_setup()
        tcfg = tr.TrainConfig(batch_size=2, warmup=10, max_steps=3, eval_every=2,
                              seed=4, n_val_windows=2)
        seqs = make_seqs()
        with pytest.raises(NumericError) as exc:
            tr.train(params, cfg, tcfg, seqs, seqs)
        assert [row["step"] for row in exc.value.result.history] == [1]

    def test_degenerate_validation_frame_carries_partial_result(self):
        # identity data and out.b = -I predict the zero matrix; at this warmup
        # the learning rate (~1e-10) moves no float32 weight near 1, so the
        # validation rollout at step 2 reaches a rank-deficient frame
        sk = md.default_skeleton()
        eye = np.tile(np.eye(3, dtype=np.float32), (400, sk.n_joints, 1, 1))
        seqs = [md.MotionSequence(sk, eye, 60.0)]
        cfg, params = tiny_setup()
        params["out.b"].data[...] = -np.eye(3, dtype=np.float32).reshape(-1)
        tcfg = tr.TrainConfig(batch_size=2, warmup=10 ** 6, max_steps=3, eval_every=2,
                              seed=4, n_val_windows=2)
        with pytest.raises(DegenerateRotationError) as exc:
            tr.train(params, cfg, tcfg, seqs, seqs)
        assert [row["step"] for row in exc.value.result.history] == [1]

    @pytest.mark.parametrize("kw, named", [
        (dict(seed=-1), "seed -1 must be >= 0"),
        (dict(val_horizon_ms=0.0), "val_horizon_ms 0.0"),
        (dict(mirror_prob=1.5), "mirror_prob 1.5 must be a probability"),
        (dict(reverse_prob=-2), "reverse_prob -2 must be a probability"),
        (dict(mirror_prob=float("nan")), "mirror_prob nan is not a finite number"),
    ], ids=["negative_seed", "zero_horizon", "mirror_above_one",
            "reverse_negative", "mirror_nan"])
    def test_bad_value_names_the_field(self, kw, named):
        with pytest.raises(ConfigError, match=named):
            tr.TrainConfig(**kw)

    def test_int_passes_for_a_float_field(self):
        assert tr.TrainConfig(val_horizon_ms=400).val_horizon_ms == 400

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(warmup=0)


class TestValidationMetrics:
    def test_keys_and_nonnegative(self):
        cfg, params = tiny_setup()
        seqs = make_seqs()
        windows = tr.make_eval_windows(seqs, 3, cfg.window + 2,
                                       np.random.default_rng(0))
        out = tr.validation_metrics(params, cfg, windows, 2,
                                    seqs[0].skeleton, seqs[0].frame_rate)
        assert set(out) == {"val_euler", "val_geodesic", "val_positional"}
        assert all(v >= 0 for v in out.values())


class TestHistoryCsv:
    def test_format(self, tmp_path):
        history = [
            {"step": 1, "loss": 2.5, "lr": 1e-4, "val_euler": None,
             "val_geodesic": None, "val_positional": None},
            {"step": 2, "loss": 2.25, "lr": 2e-4, "val_euler": 0.5,
             "val_geodesic": 0.25, "val_positional": 12.0},
        ]
        p = tmp_path / "history.csv"
        tr.write_history_csv(p, history)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "step,loss,lr,val_euler,val_geodesic,val_positional"
        assert lines[0].split(",") == list(tr.HISTORY_COLUMNS)
        assert lines[1] == "1,2.5,0.0001,,,"
        assert lines[2] == "2,2.25,0.0002,0.5,0.25,12.0"


class TestSpecHandCases:
    def test_noam_reference_values(self):
        assert abs(tr.noam_lr(10000, 128, 10000) - 8.8388e-4) < 1e-7
        assert abs(tr.noam_lr(1, 128, 10000) - 8.8388e-8) < 1e-11

    def test_clip_random_recomputation(self):
        rng = np.random.default_rng(50)
        for max_norm in (0.5, 1.0, 10.0):
            g = {f"p{i}": rng.standard_normal((3, 4)).astype(np.float32)
                 for i in range(5)}
            pre = np.sqrt(sum((v.astype(np.float64) ** 2).sum() for v in g.values()))
            clipped, norm = tr.clip_global_norm(g, max_norm)
            post = np.sqrt(sum((v.astype(np.float64) ** 2).sum()
                               for v in clipped.values()))
            assert abs(norm - pre) < 1e-6
            assert abs(post - min(pre, max_norm)) < 1e-5

    def test_adam_zero_gradient_leaves_params(self):
        p = {"x": Tensor(np.array([1.0, -2.0], dtype=np.float32),
                         requires_grad=True)}
        state = tr.AdamState(p)
        tr.adam_step(p, {"x": np.array([1.0, 1.0], dtype=np.float32)}, state, 0.1)
        after_first = p["x"].data.copy()
        m_mag = np.abs(state.m["x"]).max()
        for _ in range(5):
            tr.adam_step(p, {"x": np.zeros(2, dtype=np.float32)}, state, 0.0)
        np.testing.assert_array_equal(p["x"].data, after_first)
        assert np.abs(state.m["x"]).max() < m_mag  # moments decay toward zero

    def test_adam_constant_gradient_asymptote(self):
        p = {"x": Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)}
        state = tr.AdamState(p)
        g = {"x": np.array([0.37], dtype=np.float32)}
        prev = p["x"].data.copy()
        for _ in range(200):
            prev = p["x"].data.copy()
            tr.adam_step(p, g, state, lr=0.01)
        step_size = abs(float(p["x"].data[0] - prev[0]))
        assert abs(step_size - 0.01) < 1e-3  # |update| -> lr * sign(g)

    def test_loss_independent_recomputation(self):
        rng = np.random.default_rng(51)
        pred = rng.standard_normal((3, 4, 2, 9)).astype(np.float32)
        tgt = rng.standard_normal((3, 4, 2, 9)).astype(np.float32)
        got = float(tr.loss_per_joint_l2(Tensor(pred), tgt).data)
        expect = np.linalg.norm(
            (pred - tgt).astype(np.float64), axis=-1).sum() / 3.0
        assert abs(got - expect) / expect < 1e-5

    def test_constant_pose_dataset_starts_at_zero_loss(self):
        # the zero-initialized output projection already predicts the
        # unchanged pose, which is exactly right for a frozen sequence
        sk = md.default_skeleton()
        rots = np.broadcast_to(np.eye(3, dtype=np.float32),
                               (200, sk.n_joints, 3, 3)).copy()
        seqs = [md.MotionSequence(sk, rots, 60.0)]
        cfg, params = tiny_setup()
        tcfg = tr.TrainConfig(batch_size=2, warmup=10, max_steps=2, eval_every=5,
                              seed=6, n_val_windows=2)
        res = tr.train(params, cfg, tcfg, seqs, seqs)
        assert res.history[0]["loss"] < 1e-4
