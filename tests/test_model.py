import json
import re
import struct

import numpy as np
import pytest

from stmotion import model as mo
from stmotion import tensor as tz
from stmotion.errors import ConfigError, NumericError
from stmotion.motiondata import JOINT_DIM
from stmotion.tensor import Tape, Tensor, backward


def tiny_cfg(**kw):
    base = dict(n_joints=3, embed_dim=8, n_heads=2, n_layers=2, ff_size=16,
                window=8, dropout=0.0, variant="st")
    base.update(kw)
    return mo.ModelConfig(**base)


def rand_window(cfg, b=2, t=None, seed=0, dtype=np.float32):
    t = cfg.window if t is None else t
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, t, cfg.n_joints, JOINT_DIM)).astype(dtype)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            mo.ModelConfig(embed_dim=10, n_heads=4)

    def test_zero_heads_is_a_config_error(self):
        with pytest.raises(ConfigError, match="n_heads 0"):
            mo.ModelConfig(n_heads=0)

    @pytest.mark.parametrize("kw, named", [
        (dict(ff_per_branch=1), "ff_per_branch 1 must be bool"),
        (dict(n_layers=True), "n_layers True is not a 64-bit integer"),
        (dict(window=0), "window 0 must be >= 1"),
        (dict(embed_dim=5, n_heads=1), "embed_dim 5 must be even"),
    ], ids=["int_for_bool", "bool_for_int", "zero_window", "odd_embed_dim"])
    def test_bad_value_names_the_field(self, kw, named):
        with pytest.raises(ConfigError, match=named):
            mo.ModelConfig(**kw)

    def test_unknown_modes(self):
        with pytest.raises(ConfigError):
            mo.ModelConfig(tau_mode="max")
        with pytest.raises(ConfigError):
            mo.ModelConfig(variant="rnn")
        with pytest.raises(ConfigError):
            mo.ModelConfig(spatial_sharing="none")

    def test_json_roundtrip(self):
        cfg = tiny_cfg(tau_mode="sum_normalize", ff_per_branch=True)
        assert mo.ModelConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(n_layer=1), "unknown keys ['n_layer']"),
        (lambda d: d.pop("window"), "missing keys ['window']"),
        (lambda d: d.update(joint_dim=6), "unknown keys ['joint_dim']"),
        (lambda d: d.update(joint_dim=JOINT_DIM), "unknown keys ['joint_dim']"),
    ], ids=["unknown", "missing", "joint_dim_not_the_pose_layout", "joint_dim_the_pose_layout"])
    def test_json_keys_must_be_the_fields(self, edit, message):
        values = json.loads(tiny_cfg().to_json())
        edit(values)
        with pytest.raises(ConfigError, match=re.escape(message)):
            mo.ModelConfig.from_json(json.dumps(values))


class TestPositionalEncoding:
    def test_formula(self):
        pe = mo.positional_encoding(5, 6, dtype=np.float64)
        for t in range(5):
            for k in range(3):
                base = t / 10000 ** (2 * k / 6)
                assert abs(pe[t, 2 * k] - np.sin(base)) < 1e-12
                assert abs(pe[t, 2 * k + 1] - np.cos(base)) < 1e-12

    def test_first_row(self):
        pe = mo.positional_encoding(3, 8)
        np.testing.assert_allclose(pe[0, 0::2], 0.0)
        np.testing.assert_allclose(pe[0, 1::2], 1.0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            mo.positional_encoding(4, 7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_copy_is_read_only_and_equal(self, dtype):
        cached = mo.positional_encoding(6, 8, np.dtype(dtype))
        fresh = mo.positional_encoding.__wrapped__(6, 8, dtype)  # built again, uncached
        assert cached.dtype == fresh.dtype == dtype
        np.testing.assert_array_equal(cached, fresh)
        assert not cached.flags.writeable and fresh is not cached
        assert mo.positional_encoding(6, 8, np.dtype(dtype)) is cached


class TestResidualIdentity:
    @pytest.mark.parametrize("variant", mo.VARIANTS)
    def test_untrained_model_is_zero_velocity(self, variant):
        # the output projection starts at zero, so prediction == input pose
        # bit-exactly regardless of everything upstream
        cfg = tiny_cfg(variant=variant)
        params = mo.init_params(cfg, np.random.default_rng(0))
        x = rand_window(cfg)
        pred, _, _ = mo.forward(params, cfg, x)
        np.testing.assert_array_equal(pred.data, x)


class TestCausality:
    @pytest.mark.parametrize("variant", ("st", "vanilla_1d", "full_2d"))
    @pytest.mark.parametrize("tau", ("softmax", "sum_normalize"))
    def test_future_perturbation_invisible(self, variant, tau):
        cfg = tiny_cfg(variant=variant, tau_mode=tau)
        rng = np.random.default_rng(1)
        params = mo.init_params(cfg, rng)
        # give the zero-initialized output projection random values so the
        # network output actually depends on the attention stack
        params["out.w"].data[...] = rng.standard_normal(
            params["out.w"].data.shape).astype(np.float32)
        x = rand_window(cfg, b=1)
        y = x.copy()
        cut = 4
        y[:, cut:] += rng.standard_normal(y[:, cut:].shape).astype(np.float32)
        p1, _, _ = mo.forward(params, cfg, x)
        p2, _, _ = mo.forward(params, cfg, y)
        np.testing.assert_array_equal(p1.data[:, :cut], p2.data[:, :cut])

    def test_temporal_maps_strictly_causal(self):
        for tau in ("softmax", "sum_normalize"):
            cfg = tiny_cfg(tau_mode=tau)
            params = mo.init_params(cfg, np.random.default_rng(2))
            _, maps, _ = mo.forward(params, cfg, rand_window(cfg), maps=True)
            assert len(maps.temporal) == cfg.n_layers
            for w in maps.temporal:
                upper = w[:, np.triu_indices(w.shape[1], k=1)[0],
                          np.triu_indices(w.shape[1], k=1)[1]]
                assert np.all(upper == 0.0)


class TestAttentionMaps:
    @pytest.mark.parametrize("variant", ("st", "vanilla_1d"))
    @pytest.mark.parametrize("tau", ("softmax", "sum_normalize"))
    def test_rows_stochastic(self, variant, tau):
        cfg = tiny_cfg(variant=variant, tau_mode=tau)
        params = mo.init_params(cfg, np.random.default_rng(3))
        _, maps, _ = mo.forward(params, cfg, rand_window(cfg), maps=True)
        assert len(maps.temporal) == cfg.n_layers
        assert len(maps.spatial) == (cfg.n_layers if variant == "st" else 0)
        for w in maps.temporal + maps.spatial:
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)

    def test_full_2d_derived_maps_stochastic(self):
        cfg = tiny_cfg(variant="full_2d")
        params = mo.init_params(cfg, np.random.default_rng(4))
        _, maps, _ = mo.forward(params, cfg, rand_window(cfg), maps=True)
        assert len(maps.temporal) == len(maps.spatial) == cfg.n_layers
        for w in maps.temporal + maps.spatial:
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-4)

    def test_shapes(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(5))
        _, maps, _ = mo.forward(params, cfg, rand_window(cfg, t=6), maps=True)
        assert maps.temporal[0].shape == (cfg.n_heads, 6, 6)
        assert maps.spatial[0].shape == (cfg.n_heads, cfg.n_joints, cfg.n_joints)


class TestScoreCounters:
    def test_formulas(self):
        # per layer, per head, per batch element:
        #   decoupled: N*T^2 + T*N^2, 1D: T^2, 2D: (N*T)^2
        n, t = 3, 8
        for variant, expect in (("st", n * t * t + t * n * n),
                                ("vanilla_1d", t * t),
                                ("full_2d", (n * t) ** 2)):
            cfg = tiny_cfg(variant=variant)
            params = mo.init_params(cfg, np.random.default_rng(6))
            _, _, stats = mo.forward(params, cfg, rand_window(cfg))
            assert stats.scores_per_layer == [expect] * cfg.n_layers

    @pytest.mark.parametrize("kw", [
        dict(variant="st"), dict(variant="vanilla_1d"), dict(variant="full_2d"),
        dict(ff_per_branch=True), dict(spatial_sharing="all_shared"),
        dict(spatial_sharing="all_separate"), dict(tau_mode="sum_normalize"),
        dict(last_only=True), dict(last_only=True, ff_per_branch=True),
        dict(last_only=True, spatial_sharing="all_shared"),
        dict(last_only=True, spatial_sharing="all_separate"),
        dict(last_only=True, tau_mode="sum_normalize"),
        dict(last_only=True, variant="vanilla_1d"), dict(last_only=True, variant="full_2d"),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_workspace_matches_measured_ops(self, kw, monkeypatch):
        # measured: output sizes of every projection, weight and context op
        # of the pass, minus the final pose projection; the fused attention
        # op's scores share the weights' buffer. A last_only st pass projects
        # the last block's query frames; other variants run the full pass.
        kw = dict(kw)
        last_only = kw.pop("last_only", False)
        sizes = {"weights": 0, "all": 0}

        def spy(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if isinstance(out, tuple):  # attention: (context, weights)
                    sizes["weights"] += out[1].size
                    sizes["all"] += out[1].size
                sizes["all"] += (out[0] if isinstance(out, tuple) else out).data.size
                return out
            return wrapped

        for name in ("matmul", "joint_linear", "attention"):
            monkeypatch.setattr(tz, name, spy(getattr(tz, name)))
        cfg = tiny_cfg(**kw)
        params = mo.init_params(cfg, np.random.default_rng(7))
        x = rand_window(cfg, b=2)
        pred, maps, stats = mo.forward(params, cfg, x, last_only=last_only)
        projected = x[:, -mo._last_block_frames(8):] if last_only and cfg.variant == "st" else x
        assert stats.workspace_elements == sizes["all"] - projected.size
        assert sizes["weights"] == 2 * cfg.n_heads * sum(stats.scores_per_layer)
        if last_only:
            full, _, full_stats = mo.forward(params, cfg, x)
            np.testing.assert_array_equal(pred.data, full.data[:, -1:])
            assert maps.temporal == maps.spatial == []
            assert stats.scores_per_layer[:-1] == full_stats.scores_per_layer[:-1]
        else:
            assert 4 * stats.workspace_elements == mo.budget_bytes(cfg, 2, 0)

    def test_decoupled_cheaper_than_full_2d(self):
        n, t = 9, 32
        assert n * t * t + t * n * n < (n * t) ** 2


class TestHandRolledOracles:
    def test_vanilla_forward_matches_numpy(self):
        cfg = mo.ModelConfig(n_joints=2, embed_dim=6, n_heads=2, n_layers=1,
                             ff_size=4, window=3, dropout=0.0, variant="vanilla_1d")
        rng = np.random.default_rng(8)
        params = mo.init_params(cfg, rng, dtype=np.float64)
        rng2 = np.random.default_rng(9)
        params["out.w"].data[...] = 0.1 * rng2.standard_normal(params["out.w"].data.shape)
        params["out.b"].data[...] = 0.1 * rng2.standard_normal(params["out.b"].data.shape)
        x = rand_window(cfg, b=1, t=3, seed=10, dtype=np.float64)
        pred, _, _ = mo.forward(params, cfg, x)

        def p(name):
            return params[name].data

        b, t, n, m = x.shape
        d, h, f = cfg.embed_dim, cfg.n_heads, cfg.head_dim
        e = x.reshape(b, t, n * m) @ p("embed.w") + p("embed.b")
        e = e + mo.positional_encoding(t, d, np.float64)
        mask = np.triu(np.full((t, t), -1e9), k=1)
        heads = []
        for i in range(h):
            q = e[0] @ p("l0.a.wq")[i]
            k = e[0] @ p("l0.a.wk")[i]
            v = e[0] @ p("l0.a.wv")[i]
            s = q @ k.T / np.sqrt(d) + mask
            w = np.exp(s - s.max(axis=-1, keepdims=True))
            w = w / w.sum(axis=-1, keepdims=True)
            heads.append(w @ v)
        ctx = np.concatenate(heads, axis=-1)
        a_out = ctx @ p("l0.a.wo")
        s = np.maximum(a_out @ p("l0.ff.w1") + p("l0.ff.b1"), 0.0) @ p("l0.ff.w2") + p("l0.ff.b2")
        res = e[0] + s
        mu = res.mean(axis=-1, keepdims=True)
        var = res.var(axis=-1, keepdims=True)
        ln = (res - mu) / np.sqrt(var + 1e-5) * p("l0.ln.g") + p("l0.ln.b")
        expect = x[0] + (ln @ p("out.w") + p("out.b")).reshape(t, n, m)
        np.testing.assert_allclose(pred.data[0], expect, atol=1e-10)

    def test_decoupled_forward_matches_numpy(self):
        cfg = mo.ModelConfig(n_joints=2, embed_dim=4, n_heads=1, n_layers=1,
                             ff_size=4, window=3, dropout=0.0, variant="st")
        rng = np.random.default_rng(11)
        params = mo.init_params(cfg, rng, dtype=np.float64)
        rng2 = np.random.default_rng(12)
        params["out.w"].data[...] = 0.1 * rng2.standard_normal(params["out.w"].data.shape)
        x = rand_window(cfg, b=1, t=3, seed=13, dtype=np.float64)
        pred, _, _ = mo.forward(params, cfg, x)

        def p(name):
            return params[name].data

        b, t, n, m = x.shape
        d = cfg.embed_dim
        e = np.empty((t, n, d))
        pe = mo.positional_encoding(t, d, np.float64)
        for j in range(n):
            e[:, j] = x[0, :, j] @ p("embed.w")[j] + p("embed.b")[j] + pe

        def softmax(s):
            w = np.exp(s - s.max(axis=-1, keepdims=True))
            return w / w.sum(axis=-1, keepdims=True)

        mask = np.triu(np.full((t, t), -1e9), k=1)
        out_t = np.empty((t, n, d))
        for j in range(n):
            q = e[:, j] @ p("l0.t.wq")[j, 0]
            k = e[:, j] @ p("l0.t.wk")[j, 0]
            v = e[:, j] @ p("l0.t.wv")[j, 0]
            ctx = softmax(q @ k.T / np.sqrt(d) + mask) @ v
            out_t[:, j] = ctx @ p("l0.t.wo")[j]
        out_s = np.empty((t, n, d))
        for fr in range(t):
            q = np.stack([e[fr, j] @ p("l0.s.wq")[j, 0] for j in range(n)])
            k = e[fr] @ p("l0.s.wk")[0]
            v = e[fr] @ p("l0.s.wv")[0]
            ctx = softmax(q @ k.T / np.sqrt(d)) @ v
            out_s[fr] = ctx @ p("l0.s.wo")
        s = out_t + out_s
        s = np.maximum(s @ p("l0.ff.w1") + p("l0.ff.b1"), 0.0) @ p("l0.ff.w2") + p("l0.ff.b2")
        res = e + s
        mu = res.mean(axis=-1, keepdims=True)
        var = res.var(axis=-1, keepdims=True)
        ln = (res - mu) / np.sqrt(var + 1e-5) * p("l0.ln.g") + p("l0.ln.b")
        delta = np.stack([ln[:, j] @ p("out.w")[j] + p("out.b")[j] for j in range(n)], axis=1)
        np.testing.assert_allclose(pred.data[0], x[0] + delta, atol=1e-10)


class TestGradients:
    @pytest.mark.parametrize("variant", mo.VARIANTS)
    def test_param_gradients_match_finite_differences(self, variant):
        cfg = mo.ModelConfig(n_joints=2, embed_dim=4, n_heads=2, n_layers=1,
                             ff_size=4, window=4, dropout=0.0, variant=variant)
        rng = np.random.default_rng(14)
        params = mo.init_params(cfg, rng, dtype=np.float64)
        params["out.w"].data[...] = 0.1 * rng.standard_normal(params["out.w"].data.shape)
        x = rand_window(cfg, b=1, t=4, seed=15, dtype=np.float64)
        tgt = rand_window(cfg, b=1, t=4, seed=16, dtype=np.float64)
        key = "embed.w" if variant == "vanilla_1d" else ("l0.a.wq" if variant == "full_2d" else "l0.t.wq")

        for name in (key, "out.w", "l0.ff.w1", "l0.ln.g"):
            def f(t_param, _name=name):
                local = dict(params)
                local[_name] = t_param
                pred, _, _ = mo.forward(local, cfg, x)
                diff = tz.add(pred, Tensor(-tgt))
                return tz.tsum(tz.l2norm_lastdim(diff))

            err = tz.finite_diff_check(f, params[name], step=1e-5)
            assert err < 1e-4, f"{variant}:{name} grad error {err}"


class TestCausalMasks:
    @pytest.mark.parametrize("t,n", [(1, 1), (6, 1), (4, 3), (6, 2), (12, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_masks_match_the_keep_they_replace(self, t, n, dtype):
        # token (t, n) may attend to (t', n') iff t' <= t, whatever n and n';
        # one float32 M serves both tau and, exactly, both dtypes
        frame = np.repeat(np.arange(t), n)
        keep = frame[None, :] <= frame[:, None]
        mask = mo._causal_mask(t, n)
        assert mask.dtype == np.float32 and not mask.flags.writeable
        np.testing.assert_array_equal(mask, np.where(keep, 0, mo._NEG_INF).astype(np.float32))
        np.testing.assert_array_equal(mask.astype(dtype), np.where(keep, 0, mo._NEG_INF).astype(dtype))
        assert mo._causal_mask(t, n) is mask

    @pytest.mark.parametrize("variant", mo.VARIANTS)
    def test_both_tau_and_dtypes_share_one_mask(self, variant, monkeypatch):
        n_tokens = 3 if variant == "full_2d" else 1
        mask = mo._causal_mask(6, n_tokens)
        attention, seen = tz.attention, []

        def spy(q, k, v, scale, m=None, tau="softmax"):
            ctx, w = attention(q, k, v, scale, m, tau)
            if m is not None:  # M itself, or st's view of its last rows
                seen.append((m is mask or np.shares_memory(m, mask), tau, w))
            return ctx, w

        monkeypatch.setattr(tz, "attention", spy)
        for tau in mo.TAU_MODES:
            cfg = tiny_cfg(variant=variant, tau_mode=tau, n_layers=1, window=6)
            for dtype in (np.float32, np.float64):
                params = mo.init_params(cfg, np.random.default_rng(5), dtype=dtype)
                mo.forward(params, cfg, rand_window(cfg, dtype=dtype))
        assert len(seen) == 4 and all(same for same, _, _ in seen)
        for _, tau, w in seen:
            if tau == "sum_normalize":  # masked weights are exact zeros
                assert np.all(w[..., mask != 0] == 0)

    def test_masked_sum_normalize_gradients_are_exact_zeros(self):
        mask = mo._causal_mask(5, 1)
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            # scores are q with k = v = I; the masked ones are large and positive
            scores = Tensor(np.abs(rng.standard_normal((2, 5, 5))).astype(dtype) + 1,
                            requires_grad=True)
            eye = Tensor(np.broadcast_to(np.eye(5, dtype=dtype), (2, 5, 5)))
            with Tape() as tape:
                ctx, w = tz.attention(scores, eye, eye, 1.0, mask, "sum_normalize")
                loss = tz.tsum(tz.mul(ctx, Tensor(rng.standard_normal((2, 5, 5)).astype(dtype))))
            backward(loss, tape)
            assert np.all(w[..., mask != 0] == 0)
            assert np.all(scores.grad[..., mask != 0] == 0)

    @pytest.mark.parametrize("tau", ["softmax", "sum_normalize"])
    def test_full_2d_tokens_see_their_whole_frame_and_no_later_frame(self, tau, monkeypatch):
        # a plain lower-triangular mask over the T*N tokens is also causal,
        # but hides the later joints of a token's own frame
        weights = []
        attention = tz.attention

        def spy(*args, **kwargs):
            ctx, w = attention(*args, **kwargs)
            weights.append(w)
            return ctx, w

        monkeypatch.setattr(tz, "attention", spy)
        cfg = tiny_cfg(variant="full_2d", tau_mode=tau)
        params = mo.init_params(cfg, np.random.default_rng(46))
        t, n = 5, cfg.n_joints
        mo.forward(params, cfg, rand_window(cfg, t=t, seed=47))
        assert len(weights) == cfg.n_layers
        for w in weights:
            w6 = w.reshape(w.shape[:2] + (t, n, t, n))  # (B, H, t, n, t', n')
            for f in range(t):
                assert np.all(w6[:, :, f, :, f + 1:, :] == 0)
                if tau == "softmax":  # relu may zero a sum_normalize weight
                    assert np.all(w6[:, :, f, :, f, :] > 0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)


class TestTapeSize:
    @pytest.mark.parametrize("kw, most", [
        (dict(), 68),
        (dict(spatial_sharing="all_separate"), 70),
        (dict(spatial_sharing="all_shared"), 66),
        (dict(ff_per_branch=True), 78),
        (dict(variant="vanilla_1d"), 44),
        (dict(variant="full_2d"), 50),
    ], ids=["query_separate", "all_separate", "all_shared", "ff_per_branch", "vanilla_1d",
            "full_2d"])
    def test_desk_training_step_op_count(self, kw, most):
        # every recorded op costs Python overhead per call, and batch-1
        # rollouts run the same op sequence: guard against op creep, and
        # record only ops on a path from a parameter to the loss
        from stmotion.training import loss_per_joint_l2
        cfg = mo.ModelConfig(n_joints=9, embed_dim=16, n_heads=2, n_layers=2, ff_size=32,
                             window=32, dropout=0.1, **kw)
        params = mo.init_params(cfg, np.random.default_rng(18))
        x = rand_window(cfg, b=16, seed=19)
        with Tape() as tape:
            pred, _, _ = mo.forward(params, cfg, x, rng=np.random.default_rng(20))
            loss = loss_per_joint_l2(pred, rand_window(cfg, b=16, seed=21))
        assert len(tape.ops) <= most
        backward(loss, tape)
        assert [i for i, (out, _, _) in enumerate(tape.ops) if out.grad is None] == []


class TestSharingAblations:
    def test_param_shapes(self):
        cfg = tiny_cfg(spatial_sharing="all_separate")
        p = mo.init_params(cfg, np.random.default_rng(17))
        n, h, d, f = cfg.n_joints, cfg.n_heads, cfg.embed_dim, cfg.head_dim
        assert p["l0.s.wk"].data.shape == (n, h, d, f)
        cfg2 = tiny_cfg(spatial_sharing="all_shared")
        p2 = mo.init_params(cfg2, np.random.default_rng(17))
        assert p2["l0.s.wq"].data.shape == (h, d, f)
        assert p2["l0.s.wo"].data.shape == (h * f, d)

    @pytest.mark.parametrize("sharing", mo.SHARING_MODES)
    def test_forward_works_and_stochastic(self, sharing):
        cfg = tiny_cfg(spatial_sharing=sharing)
        params = mo.init_params(cfg, np.random.default_rng(18))
        _, maps, _ = mo.forward(params, cfg, rand_window(cfg), maps=True)
        assert len(maps.spatial) == cfg.n_layers
        for w in maps.spatial:
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)

    def test_parameter_count_ordering(self):
        counts = {s: mo.param_count(tiny_cfg(spatial_sharing=s)) for s in mo.SHARING_MODES}
        assert counts["all_shared"] < counts["query_separate"] < counts["all_separate"]


class TestMatchedVanilla:
    def test_budget_close(self):
        cfg = mo.ModelConfig(n_joints=9, embed_dim=16, n_heads=2, n_layers=2,
                             ff_size=32, window=32, dropout=0.0, variant="st")
        van = mo.matched_vanilla_config(cfg)
        assert van.variant == "vanilla_1d"
        target = mo.param_count(cfg)
        got = mo.param_count(van)
        assert abs(got - target) / target < 0.25


class TestRollout:
    def test_zero_velocity_baseline(self):
        seed = np.arange(2 * 3 * 9, dtype=np.float32).reshape(2, 3, 9)
        out = mo.zero_velocity(seed, 4)
        assert out.shape == (4, 3, 9)
        for s in range(4):
            np.testing.assert_array_equal(out[s], seed[-1])

    def test_untrained_rollout_is_zero_velocity(self):
        from stmotion import motiondata as md
        sk = md.default_skeleton()
        seq = md.synth_motion(sk, 8, 60.0, md.two_frequency_spec(sk))
        cfg = mo.ModelConfig(n_joints=9, embed_dim=8, n_heads=2, n_layers=1,
                             ff_size=8, window=8, dropout=0.0)
        params = mo.init_params(cfg, np.random.default_rng(20))
        seed = seq.flat()
        out = mo.rollout(params, cfg, seed, 5)
        np.testing.assert_array_equal(out, mo.zero_velocity(seed, 5))

    def test_batch_matches_single(self):
        cfg = tiny_cfg(n_layers=1)
        rng = np.random.default_rng(21)
        params = mo.init_params(cfg, rng)
        params["out.w"].data[...] = 0.01 * rng.standard_normal(
            params["out.w"].data.shape).astype(np.float32)
        from stmotion import so3
        seeds = so3.random_rotations(2 * 8 * 3, rng).reshape(
            2, 8, 3, 9).astype(np.float32)
        batched = mo.rollout_batch(params, cfg, seeds, 3)
        for i in range(2):
            single = mo.rollout(params, cfg, seeds[i], 3)
            np.testing.assert_array_equal(batched[i], single)

    def test_rollout_outputs_valid_rotations(self):
        from stmotion import so3
        cfg = tiny_cfg(n_layers=1)
        rng = np.random.default_rng(22)
        params = mo.init_params(cfg, rng)
        params["out.w"].data[...] = 0.05 * rng.standard_normal(
            params["out.w"].data.shape).astype(np.float32)
        seed = so3.random_rotations(8 * 3, rng).reshape(8, 3, 9).astype(np.float32)
        out = mo.rollout(params, cfg, seed, 4)
        assert np.all(so3.is_valid_rotmat(
            out.reshape(-1, 3, 3).astype(np.float64), tol=1e-4))

    def test_seed_too_long_rejected(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(23))
        with pytest.raises(ConfigError):
            mo.rollout(params, cfg, np.zeros((9, 3, 9), np.float32), 1)

    @pytest.mark.parametrize("maps", [None, []], ids=["last_only", "with_maps"])
    def test_seed_window_is_never_written(self, maps):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(25))
        seeds = rand_window(cfg, b=2, t=cfg.window, seed=25)
        seeds.flags.writeable = False  # a write into the caller's window raises
        mo.rollout_batch(params, cfg, seeds, 3, maps)

    def test_collect_attention(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(24))
        seed = rand_window(cfg, b=1, t=5, seed=24)[0]
        maps = []
        out = mo.rollout(params, cfg, seed, 3, maps)
        assert out.shape == (3, cfg.n_joints, JOINT_DIM)
        assert len(maps) == 3
        first = mo.forward(params, cfg, seed, maps=True)[1]
        assert len(maps[0].temporal) == len(maps[0].spatial) == cfg.n_layers
        for got, want in zip(maps[0].temporal + maps[0].spatial,
                             first.temporal + first.spatial):
            np.testing.assert_array_equal(got, want)
        plain = mo.rollout(params, cfg, seed, 3)
        np.testing.assert_array_equal(plain, out)


class TestLastOnly:
    """forward(last_only=True) computes only the last few frames' rows in
    st's last block; rollouts use it unless they collect attention maps."""

    @staticmethod
    def _params(cfg, seed):
        rng = np.random.default_rng(seed)
        params = mo.init_params(cfg, rng)
        params["out.w"].data[...] = 0.05 * rng.standard_normal(
            params["out.w"].data.shape).astype(np.float32)
        return params, rng

    @staticmethod
    def _assert_rollouts_equal(params, cfg, rng, batches, seed_lengths, steps):
        from stmotion import so3
        for b in batches:
            for t in seed_lengths:
                seeds = so3.random_rotations((b, t, cfg.n_joints), rng).reshape(
                    b, t, cfg.n_joints, 9).astype(np.float32)
                maps = []
                full = mo.rollout_batch(params, cfg, seeds, steps, maps)
                assert len(maps) == steps
                trimmed = mo.rollout_batch(params, cfg, seeds, steps)
                np.testing.assert_array_equal(trimmed, full, err_msg=f"B={b} T={t}")

    @pytest.mark.parametrize("ff_per_branch", [False, True])
    @pytest.mark.parametrize("sharing", mo.SHARING_MODES)
    @pytest.mark.parametrize("tau", mo.TAU_MODES)
    def test_rollout_equals_full_pass(self, tau, sharing, ff_per_branch):
        # the window slides past the seed, so seeds shorter than W also
        # cover every window length up to W
        cfg = tiny_cfg(tau_mode=tau, spatial_sharing=sharing, ff_per_branch=ff_per_branch)
        params, rng = self._params(cfg, 60)
        self._assert_rollouts_equal(params, cfg, rng, (1, 2, 16), (1, 2, 3, cfg.window), 10)

    @pytest.mark.parametrize("shape", [
        dict(embed_dim=16, n_heads=2, window=120), dict(embed_dim=128, n_heads=8, window=32),
        dict(embed_dim=16, n_heads=8, window=32), dict(embed_dim=12, n_heads=2, window=36),
    ], ids=["desk_T120", "D128", "head_size_2", "head_size_6"])
    def test_rollout_equals_full_pass_at_desk_shapes(self, shape):
        # head sizes 2 and 6 reach gemm's remainder kernels, where a query
        # slice not aligned to four rows differs from the full pass by ~1e-7
        cfg = mo.ModelConfig(n_joints=9, n_layers=2, ff_size=2 * shape["embed_dim"],
                             dropout=0.0, **shape)
        params, rng = self._params(cfg, 61)
        self._assert_rollouts_equal(params, cfg, rng, (1, 4), (cfg.window,), 3)
        self._assert_rollouts_equal(params, cfg, rng, (16,), (1,), 16)

    def test_last_block_frames(self):
        # a multiple of four from the start, at least two frames, at most five
        for t in range(1, 130):
            tq = mo._last_block_frames(t)
            assert (t - tq) % 4 == 0 and (tq == t <= 5 or 2 <= tq <= 5)

    def test_returns_the_last_frame(self):
        cfg = tiny_cfg()
        params, _ = self._params(cfg, 62)
        x = rand_window(cfg, b=1, seed=62)[0]
        pred, maps, _ = mo.forward(params, cfg, x, last_only=True)
        full, _, _ = mo.forward(params, cfg, x)
        assert pred.data.shape == (1, cfg.n_joints, JOINT_DIM)
        np.testing.assert_array_equal(pred.data, full.data[-1:])
        assert maps == mo.AttentionMaps()

    def test_rollout_slides_the_window_over_its_own_predictions(self):
        # each step reads the last T_seed frames of the seeds and the frames
        # predicted so far; float64 seeds are rounded to float32 first
        from stmotion import so3
        cfg = tiny_cfg()
        params, rng = self._params(cfg, 64)
        b, t, n, steps = 3, 4, cfg.n_joints, 6
        seeds = so3.random_rotations((b, t, n), rng).reshape(b, t, n, JOINT_DIM)
        before = seeds.copy()
        out = mo.rollout_batch(params, cfg, seeds, steps)
        assert out.shape == (b, steps, n, JOINT_DIM) and out.dtype == np.float32
        win = seeds.astype(np.float32)
        for s in range(steps):
            pred, _, _ = mo.forward(params, cfg, win)
            nxt = so3.project_to_so3(pred.data[:, -1].reshape(-1, 3, 3)).reshape(b, n, JOINT_DIM)
            np.testing.assert_array_equal(out[:, s], nxt)
            win = np.concatenate([win[:, 1:], nxt[:, None]], axis=1)
        np.testing.assert_array_equal(seeds, before)

    def test_training_is_rejected(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(63))
        with pytest.raises(ConfigError, match="last_only"):
            mo.forward(params, cfg, rand_window(cfg), rng=np.random.default_rng(0),
                       last_only=True)


class TestMapsOnRequest:
    """forward computes the AttentionMaps only when asked (maps=True); they
    are read-outs, so asking changes no prediction and no gradient."""

    @pytest.mark.parametrize("variant", mo.VARIANTS)
    @pytest.mark.parametrize("tau", mo.TAU_MODES)
    def test_default_pass_has_empty_maps_and_the_same_predictions(self, variant, tau):
        cfg = tiny_cfg(variant=variant, tau_mode=tau)
        params, _ = TestLastOnly._params(cfg, 64)
        x = rand_window(cfg, seed=64)
        pred, maps, stats = mo.forward(params, cfg, x)
        assert maps == mo.AttentionMaps()
        with_maps, asked, asked_stats = mo.forward(params, cfg, x, maps=True)
        assert len(asked.temporal) == cfg.n_layers
        np.testing.assert_array_equal(pred.data, with_maps.data)
        assert stats == asked_stats

    @pytest.mark.parametrize("variant", mo.VARIANTS)
    def test_training_gradients_are_the_same(self, variant):
        from stmotion.training import loss_per_joint_l2
        cfg = tiny_cfg(variant=variant, dropout=0.1)
        params, _ = TestLastOnly._params(cfg, 65)
        x, target = rand_window(cfg, seed=65), rand_window(cfg, seed=66)
        grads = []
        for maps in (False, True):
            for prm in params.values():
                prm.zero_grad()
            with Tape() as tape:
                pred, _, _ = mo.forward(params, cfg, x, rng=np.random.default_rng(67), maps=maps)
                loss = loss_per_joint_l2(pred, target)
            backward(loss, tape)
            grads.append({k: prm.grad.copy() for k, prm in params.items()})
        for name in params:
            np.testing.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)

    def test_last_only_with_maps_is_rejected(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(68))
        with pytest.raises(ConfigError, match="last_only computes no attention maps"):
            mo.forward(params, cfg, rand_window(cfg), last_only=True, maps=True)


class TestForwardValidation:
    def test_shape_mismatch(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(24))
        with pytest.raises(ConfigError):
            mo.forward(params, cfg, np.zeros((2, 8, 4, 9), np.float32))

    def test_window_too_long(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(25))
        with pytest.raises(ConfigError):
            mo.forward(params, cfg, np.zeros((2, 9, 3, 9), np.float32))

    def test_nan_input_raises_numeric_error(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(27))
        x = rand_window(cfg)
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            mo.forward(params, cfg, x)

    def test_unbatched_input_accepted(self):
        cfg = tiny_cfg()
        params = mo.init_params(cfg, np.random.default_rng(28))
        x = rand_window(cfg, b=1)[0]
        pred, _, _ = mo.forward(params, cfg, x)
        assert pred.data.shape == x.shape


class TestFfPerBranch:
    def test_has_two_networks_and_runs(self):
        cfg = tiny_cfg(ff_per_branch=True)
        params = mo.init_params(cfg, np.random.default_rng(29))
        assert "l0.ff_t.w1" in params and "l0.ff_s.w1" in params
        assert "l0.ff.w1" not in params
        pred, _, _ = mo.forward(params, cfg, rand_window(cfg))
        assert np.all(np.isfinite(pred.data))

    def test_differs_from_shared_ff(self):
        x = rand_window(tiny_cfg())
        cfg_a = tiny_cfg(ff_per_branch=False)
        cfg_b = tiny_cfg(ff_per_branch=True)
        rng_seed = 30
        pa = mo.init_params(cfg_a, np.random.default_rng(rng_seed))
        pb = mo.init_params(cfg_b, np.random.default_rng(rng_seed))
        # note: a constant projection would be blind to the change because
        # layer-normalized rows have zero mean, so use random values
        w = np.random.default_rng(99).standard_normal(
            pa["out.w"].data.shape).astype(np.float32)
        for p in (pa, pb):
            p["out.w"].data[...] = w
        a, _, _ = mo.forward(pa, cfg_a, x)
        b, _, _ = mo.forward(pb, cfg_b, x)
        assert not np.allclose(a.data, b.data)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_cfg(tau_mode="sum_normalize")
        params = mo.init_params(cfg, np.random.default_rng(31))
        p = tmp_path / "model.stt1"
        mo.save_checkpoint(p, cfg, params)
        cfg2, params2 = mo.load_checkpoint(p)
        assert cfg2 == cfg
        assert set(params2) == set(params)
        for k in params:
            np.testing.assert_array_equal(params2[k].data, params[k].data)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("l1.ln.g"), "tensor set has missing keys ['l1.ln.g']"),
        (lambda p: p.update(extra=np.zeros(3, np.float32)),
         "tensor set has unknown keys ['extra']"),
        (lambda p: p.update({"l0.t.wq": p["l0.t.wq"][:, :1]}),
         "tensor 'l0.t.wq' has shape (3, 1, 8, 4), its config needs (3, 2, 8, 4)"),
    ], ids=["missing", "extra", "shape"])
    def test_tensors_must_match_config(self, tmp_path, edit, message):
        cfg = tiny_cfg()
        arrays = {k: v.data for k, v in mo.init_params(cfg, np.random.default_rng(33)).items()}
        edit(arrays)
        p = tmp_path / "model.stt1"
        tz.save_record(p, cfg.to_json(), arrays)
        with pytest.raises(ConfigError, match=re.escape(message)):
            mo.load_checkpoint(p)

    def test_every_truncation_is_a_config_error_naming_the_file(self, tmp_path):
        cfg = tiny_cfg(n_layers=1)
        p = tmp_path / "model.stt1"
        mo.save_checkpoint(p, cfg, mo.init_params(cfg, np.random.default_rng(34)))
        blob = p.read_bytes()
        cut = tmp_path / "cut.stt1"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(ConfigError, match=re.escape(str(cut))):
                mo.load_checkpoint(cut)

    def test_declared_length_is_checked_before_reading(self, tmp_path):
        record = struct.pack("<I", 1) + b"w" + struct.pack("<3I", 2, 65535, 65535)
        p = tmp_path / "huge.stt1"
        p.write_bytes(b"{}\nSTT1" + record + b"\0" * 16)
        with pytest.raises(ConfigError, match=re.escape("tensor 'w' values: needs 17179344900")):
            tz.load_record(p)

    def test_attention_csv_with_steps(self, tmp_path):
        cfg = tiny_cfg(n_layers=1)
        params = mo.init_params(cfg, np.random.default_rng(32))
        _, maps, _ = mo.forward(params, cfg, rand_window(cfg, t=4), maps=True)
        p = tmp_path / "att.csv"
        with mo.write_attention_csv(p) as sink:
            sink.append(maps)
            sink.append(maps)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "step,layer,head,kind,row,col,weight"
        h, t, n = cfg.n_heads, 4, cfg.n_joints
        assert len(lines) == 1 + 2 * (h * t * t + h * n * n)
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("1,")
        # causal zeros appear as exact 0.0 in the export
        step, layer, head, kind, row, col, w = lines[1 + 1].split(",")  # row 0, col 1
        assert (kind, row, col) == ("temporal", "0", "1")
        assert float(w) == 0.0

    def test_attention_csv_is_written_as_the_rollout_runs(self, tmp_path, monkeypatch):
        # only one step's maps are held: when step 1's forward starts, step 0's
        # rows are already in the file being written
        cfg = tiny_cfg(n_layers=1)
        params = mo.init_params(cfg, np.random.default_rng(35))
        forward, written = mo.forward, []

        def spy(*args, **kwargs):
            written.append([f.read_text() for f in tmp_path.iterdir()])
            return forward(*args, **kwargs)

        monkeypatch.setattr(mo, "forward", spy)
        p = tmp_path / "att.csv"
        with mo.write_attention_csv(p) as sink:
            mo.rollout(params, cfg, rand_window(cfg, b=1, t=4)[0], 2, sink)
        lines = p.read_text().splitlines(keepends=True)
        h, t, n = cfg.n_heads, 4, cfg.n_joints
        step0 = 1 + h * t * t + h * n * n
        assert len(lines) == 1 + 2 * (step0 - 1)
        assert len(written) == 2 and written[1] == ["".join(lines[:step0])]

    def test_attention_csv_matches_per_cell_reference(self, tmp_path):
        rng = np.random.default_rng(34)

        def rand_maps(t, n):
            return mo.AttentionMaps(
                temporal=[rng.random((2, t, t)).astype(np.float32) for _ in range(2)],
                spatial=[rng.random((2, n, n)).astype(np.float32) for _ in range(2)])

        maps_list = [rand_maps(4, 3), rand_maps(4, 3)]
        p = tmp_path / "att.csv"
        with mo.write_attention_csv(p) as sink:
            for maps in maps_list:
                sink.append(maps)
        want = ["step,layer,head,kind,row,col,weight"]
        for step, maps in enumerate(maps_list):
            for kind, layers in (("temporal", maps.temporal), ("spatial", maps.spatial)):
                for layer, w in enumerate(layers):
                    for i, a, b in np.ndindex(w.shape):
                        cells = (step, layer, i, kind, a, b, float(w[i, a, b]))
                        want.append(",".join(str(v) for v in cells))
        assert p.read_text() == "\n".join(want) + "\n"


class TestSpecHandCases:
    def test_pe_columns_in_range(self):
        pe = mo.positional_encoding(50, 16)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_pe_d4_t1_values(self):
        pe = mo.positional_encoding(2, 4, dtype=np.float64)
        np.testing.assert_allclose(
            pe[1], [np.sin(1.0), np.cos(1.0), np.sin(1e-2), np.cos(1e-2)],
            atol=1e-12)

    def test_temporal_map_single_frame(self):
        cfg = tiny_cfg(n_layers=1)
        params = mo.init_params(cfg, np.random.default_rng(40))
        _, maps, _ = mo.forward(params, cfg, rand_window(cfg, t=1), maps=True)
        np.testing.assert_allclose(maps.temporal[0], 1.0)

    def test_spatial_map_single_joint(self):
        cfg = mo.ModelConfig(n_joints=1, embed_dim=8, n_heads=2, n_layers=1,
                             ff_size=8, window=8, dropout=0.0)
        params = mo.init_params(cfg, np.random.default_rng(41))
        _, maps, _ = mo.forward(params, cfg, rand_window(cfg), maps=True)
        np.testing.assert_allclose(maps.spatial[0], 1.0)

    def test_full_2d_single_joint_matches_temporal_stream(self):
        # with one joint, token attention over all joint-time tokens reduces
        # to causal attention over time with the same weights
        cfg = mo.ModelConfig(n_joints=1, embed_dim=8, n_heads=2, n_layers=1,
                             ff_size=8, window=6, dropout=0.0)
        rng = np.random.default_rng(42)
        st_params = mo.init_params(cfg, rng)
        h, d, f = cfg.n_heads, cfg.embed_dim, cfg.head_dim
        p2 = {
            "l0.a.wq": Tensor(st_params["l0.t.wq"].data[0]),
            "l0.a.wk": Tensor(st_params["l0.t.wk"].data[0]),
            "l0.a.wv": Tensor(st_params["l0.t.wv"].data[0]),
            "l0.a.wo": Tensor(st_params["l0.t.wo"].data[0]),
        }
        e = Tensor(rng.standard_normal((2, 6, 1, d)).astype(np.float32))
        ej = tz.transpose(e, (2, 0, 1, 3))  # joint-major (N, B, T, D)
        t_out, _ = mo._temporal_stream(ej, st_params, "l0.", cfg, ej)
        flat = Tensor(e.data.reshape(2, 6, d))
        a_out, _ = mo._token_attention(flat, p2, "l0.a.", cfg, mo._causal_mask(6, 1))
        np.testing.assert_allclose(t_out.data.reshape(2, 6, d), a_out.data,
                                   atol=1e-5)

    def test_all_shared_identical_joints_uniform_spatial(self):
        cfg = tiny_cfg(n_layers=1, spatial_sharing="all_shared")
        params = mo.init_params(cfg, np.random.default_rng(43))
        one = np.random.default_rng(44).standard_normal(
            (1, 4, 1, cfg.embed_dim)).astype(np.float32)
        e = Tensor(np.tile(one, (1, 1, cfg.n_joints, 1)))
        _, maps = mo._token_attention(e, params, "l0.s.", cfg, None)
        np.testing.assert_allclose(maps, 1.0 / cfg.n_joints, atol=1e-6)

    def test_rollout_single_step_is_projected_forward_row(self):
        from stmotion import so3
        cfg = tiny_cfg(n_layers=1)
        rng = np.random.default_rng(45)
        params = mo.init_params(cfg, rng)
        params["out.w"].data[...] = 0.05 * rng.standard_normal(
            params["out.w"].data.shape).astype(np.float32)
        seed = so3.random_rotations(8 * 3, rng).reshape(8, 3, 9).astype(np.float32)
        out = mo.rollout(params, cfg, seed, 1)
        pred, _, _ = mo.forward(params, cfg, seed)
        expect = so3.project_to_so3(
            pred.data[-1].reshape(3, 3, 3)).reshape(3, 9).astype(np.float32)
        np.testing.assert_array_equal(out[0], expect)

    def test_decoupled_two_head_oracle(self):
        # multi-head version of the straight-line reference computation
        cfg = mo.ModelConfig(n_joints=2, embed_dim=4, n_heads=2, n_layers=1,
                             ff_size=4, window=3, dropout=0.0, variant="st")
        rng = np.random.default_rng(46)
        params = mo.init_params(cfg, rng, dtype=np.float64)
        params["out.w"].data[...] = 0.1 * rng.standard_normal(
            params["out.w"].data.shape)
        x = rand_window(cfg, b=1, t=3, seed=47, dtype=np.float64)
        pred, _, _ = mo.forward(params, cfg, x)

        def p(name):
            return params[name].data

        _, t, n, m = x.shape
        d, h = cfg.embed_dim, cfg.n_heads
        pe = mo.positional_encoding(t, d, np.float64)
        e = np.stack([x[0, :, j] @ p("embed.w")[j] + p("embed.b")[j] + pe
                      for j in range(n)], axis=1)

        def softmax(s):
            w = np.exp(s - s.max(axis=-1, keepdims=True))
            return w / w.sum(axis=-1, keepdims=True)

        mask = np.triu(np.full((t, t), -1e9), k=1)
        out_t = np.empty((t, n, d))
        for j in range(n):
            heads = []
            for i in range(h):
                q = e[:, j] @ p("l0.t.wq")[j, i]
                k = e[:, j] @ p("l0.t.wk")[j, i]
                v = e[:, j] @ p("l0.t.wv")[j, i]
                heads.append(softmax(q @ k.T / np.sqrt(d) + mask) @ v)
            out_t[:, j] = np.concatenate(heads, axis=-1) @ p("l0.t.wo")[j]
        out_s = np.empty((t, n, d))
        for fr in range(t):
            heads = []
            for i in range(h):
                q = np.stack([e[fr, j] @ p("l0.s.wq")[j, i] for j in range(n)])
                k = e[fr] @ p("l0.s.wk")[i]
                v = e[fr] @ p("l0.s.wv")[i]
                heads.append(softmax(q @ k.T / np.sqrt(d)) @ v)
            out_s[fr] = np.concatenate(heads, axis=-1) @ p("l0.s.wo")
        s = out_t + out_s
        s = np.maximum(s @ p("l0.ff.w1") + p("l0.ff.b1"), 0.0) @ p("l0.ff.w2") + p("l0.ff.b2")
        res = e + s
        mu = res.mean(axis=-1, keepdims=True)
        var = res.var(axis=-1, keepdims=True)
        ln = (res - mu) / np.sqrt(var + 1e-5) * p("l0.ln.g") + p("l0.ln.b")
        delta = np.stack([ln[:, j] @ p("out.w")[j] + p("out.b")[j]
                          for j in range(n)], axis=1)
        np.testing.assert_allclose(pred.data[0], x[0] + delta, atol=1e-10)
