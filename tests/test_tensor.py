import ctypes
import errno
import json
import math
import os
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stmotion import tensor as tz
from stmotion.errors import ConfigError
from stmotion.tensor import Tape, Tensor, backward, finite_diff_check


def f64(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def tau(scores, mask=None, mode="softmax"):
    """Attention weights for the given last-axis scores: with k = v = I and
    scale 1, tz.attention's score matrix is `scores` and its context is the
    weights. A Tensor `scores` keeps its gradient path."""
    scores = scores if isinstance(scores, Tensor) else Tensor(scores)
    eye = Tensor(np.eye(scores.shape[-1], dtype=scores.dtype))
    ctx, _ = tz.attention(scores, eye, eye, 1.0, mask, mode)
    return ctx


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = tz.matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_allclose(out.data, m)

    def test_hand_computed(self):
        out = tz.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[1], [1]]))
        np.testing.assert_allclose(out.data, [[3], [7]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))

        err_a = finite_diff_check(
            lambda t: tz.tsum(tz.matmul(t, f64(b))), f64(a))
        err_b = finite_diff_check(
            lambda t: tz.tsum(tz.matmul(f64(a), t)), f64(b))
        assert err_a < 1e-3
        assert err_b < 1e-3

    def test_broadcast_batch_gradient(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((3, 5, 2))
        w = rng.standard_normal((2, 3, 4, 2))
        err = finite_diff_check(
            lambda t: tz.tsum(tz.mul(tz.matmul(f64(a), t), f64(w))), f64(b))
        assert err < 1e-3


class TestJointLinear:
    @pytest.mark.parametrize("w_shape", [(3, 5, 4), (3, 2, 5, 4)])
    def test_gradients_match_finite_differences(self, w_shape):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 2, 4, 5))         # (N, B, T, Din)
        w = rng.standard_normal(w_shape)
        out_shape = tz.joint_linear(f64(x), f64(w)).shape
        c = f64(rng.standard_normal(out_shape))       # non-uniform upstream grad

        err_x = finite_diff_check(
            lambda t: tz.tsum(tz.mul(tz.joint_linear(t, f64(w)), c)), f64(x))
        err_w = finite_diff_check(
            lambda t: tz.tsum(tz.mul(tz.joint_linear(f64(x), t), c)), f64(w))
        assert err_x < 1e-6
        assert err_w < 1e-6

    def test_matches_broadcast_matmul(self):
        # the per-joint maps as the model wrote them before: a broadcast
        # matmul over a (B, T, N, 1, ..., D) view of the batch-major input
        rng = np.random.default_rng(12)
        b, t, n, h, d, f = 2, 3, 4, 2, 6, 5
        e = rng.standard_normal((b, t, n, d)).astype(np.float32)
        w3 = rng.standard_normal((n, d, f)).astype(np.float32)
        w4 = rng.standard_normal((n, h, d, f)).astype(np.float32)
        ej = Tensor(e.transpose(2, 0, 1, 3))
        got3 = tz.joint_linear(ej, Tensor(w3)).data                  # (N, B, T, F)
        ref3 = (e[:, :, :, None] @ w3)[:, :, :, 0]                   # (B, T, N, F)
        np.testing.assert_allclose(got3, ref3.transpose(2, 0, 1, 3), rtol=1e-6, atol=1e-6)
        got4 = tz.joint_linear(ej, Tensor(w4)).data                  # (N, H, B, T, F)
        ref4 = (e[:, :, :, None, None] @ w4)[:, :, :, :, 0]          # (B, T, N, H, F)
        np.testing.assert_allclose(got4, ref4.transpose(2, 3, 0, 1, 4), rtol=1e-6, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tz.joint_linear(Tensor(np.ones((3, 4, 5))), Tensor(np.ones((2, 5, 6))))
        with pytest.raises(ValueError):
            tz.joint_linear(Tensor(np.ones((3, 4, 5))), Tensor(np.ones((3, 4, 6))))

    @pytest.mark.parametrize("op", ["matmul", "add", "joint_linear"])
    def test_constant_operand_gets_no_gradient(self, op):
        rng = np.random.default_rng(13)
        const = Tensor(rng.standard_normal((3, 4, 5)))           # like the data window
        if op == "matmul":
            param = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        elif op == "add":
            param = Tensor(rng.standard_normal((5,)), requires_grad=True)
        else:
            param = Tensor(rng.standard_normal((3, 5, 2)), requires_grad=True)
        with Tape() as tape:
            y = getattr(tz, op)(const, param)
        (_, inputs, fn), = tape.ops
        g_const, g_param = fn(np.ones_like(y.data))
        assert g_const is None
        assert g_param.shape == param.shape
        with Tape() as tape:
            loss = tz.tsum(getattr(tz, op)(const, param))
        backward(loss, tape)
        assert const.grad is None
        assert param.grad is not None


class TestSoftmax:
    """The softmax tau of tz.attention, driven through its scores."""

    def test_symmetry(self):
        out = tau(np.float32([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_mask_saturation(self):
        bias = np.float32([[-1e9, 0.0]])
        out = tau(np.float32([[0.0, 0.0]]), bias)
        np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-6)
        out = tau(np.float32([[-1e9, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-6)

    def test_rows_sum_to_one_nonnegative(self):
        rng = np.random.default_rng(2)
        out = tau(rng.standard_normal((5, 7)) * 3)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 7))
        w = rng.standard_normal((1, 7))
        err = finite_diff_check(lambda t: tz.tsum(tz.mul(tau(t), f64(w))), f64(x))
        assert err < 1e-3

    def test_sum_gradient_is_zero(self):
        # softmax rows sum to a constant, so d(sum)/dx == 0
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 5)), requires_grad=True)
        with Tape() as tape:
            y = tz.tsum(tau(x))
        backward(y, tape)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)


def unfused_attention(q, k, v, scale, mask, mode):
    """The chain tz.attention replaces: matmul(q, k^T) * scale + bias, then the
    tau kernel as the engine wrote it before the fusion, then @ v."""
    kt = tz.transpose(k, tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2))
    qk = tz.matmul(q, kt)
    s = tz.mul(qk, Tensor(np.asarray(scale, qk.dtype))).data
    if mode == "softmax":
        if mask is not None:
            s = s + mask
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
    else:
        data = np.maximum(s, 0) if mask is None else np.maximum(s, 0) * mask
        rs = data.sum(axis=-1, keepdims=True)
        ok = rs > 1e-8
        if mask is None:
            uniform = np.full_like(data, 1.0 / data.shape[-1])
        else:
            keep = np.broadcast_to(mask, data.shape).astype(data.dtype)
            uniform = keep / keep.sum(axis=-1, keepdims=True)
        w = np.where(ok, data / np.where(ok, rs, 1.0), uniform)
    return tz.matmul(Tensor(w), v).data, w


def causal(t, dtype=np.float32):
    """The additive causal mask M both tau take: 0 on and below the diagonal."""
    return np.where(np.tril(np.ones((t, t))) > 0, 0, -1e9).astype(dtype)


class TestAttention:
    @pytest.mark.parametrize("mode", ["softmax", "sum_normalize"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("operand", [0, 1, 2])
    def test_gradients_match_finite_differences(self, mode, masked, operand):
        rng = np.random.default_rng(30)
        q, k, v = (rng.standard_normal((2, 3, 5, 4)) for _ in range(3))
        if mode == "sum_normalize":  # scores away from relu's kink
            q, k = np.abs(q) + 0.1, np.abs(k) + 0.1
        mask = causal(5, np.float64) if masked else None
        c = f64(rng.standard_normal((2, 3, 5, 4)))
        args = [f64(q), f64(k), f64(v)]

        def f(t):
            ops = list(args)
            ops[operand] = t
            ctx, _ = tz.attention(*ops, 0.5, mask, mode)
            return tz.tsum(tz.mul(ctx, c))

        assert finite_diff_check(f, args[operand], step=1e-6) < 1e-6

    @pytest.mark.parametrize("mode", ["softmax", "sum_normalize"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("t", [9, 32, 60])  # both sides of the row-max switch
    def test_forward_bit_identical_to_unfused_chain(self, mode, masked, t):
        rng = np.random.default_rng(31)
        q, k, v = (Tensor(rng.standard_normal((3, 2, t, 8)).astype(np.float32))
                   for _ in range(3))
        mask = causal(t) if masked else None
        # the reference takes M as a bias for softmax, the 0/1 keep otherwise
        ref_mask = mask if mask is None or mode == "softmax" else (mask == 0).astype(np.float32)
        ctx, w = tz.attention(q, k, v, 1.0 / math.sqrt(16), mask, mode)
        ref_ctx, ref_w = unfused_attention(q, k, v, 1.0 / math.sqrt(16), ref_mask, mode)
        assert np.array_equal(w, ref_w)
        assert np.array_equal(ctx.data, ref_ctx)
        assert not w.flags.writeable

    def test_one_tape_op_and_no_grad_for_constants(self):
        rng = np.random.default_rng(32)
        q = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        k, v = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((4, 3)))
        with Tape() as tape:
            ctx, _ = tz.attention(q, k, v, 1.0)
        (_, _, fn), = tape.ops
        gq, gk, gv = fn(np.ones_like(ctx.data))
        assert gq.shape == q.shape and gk is None and gv is None

    @pytest.mark.parametrize("operand", [0, 1, 2])
    def test_operands_with_other_leading_axes_are_refused(self, operand):
        # only the mask broadcasts; q, k and v share their leading axes
        ops = [Tensor(np.ones((2, 3, 4, 5))) for _ in range(3)]
        ops[operand] = Tensor(np.ones((3, 4, 5)))
        with pytest.raises(ValueError, match="leading axes differ"):
            tz.attention(*ops, 1.0)

    def test_unknown_tau(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tz.attention(x, x, x, 1.0, None, "max")

    def test_unmasked_sum_normalize_fallback_is_uniform(self):
        out = tau(np.float32([[-1.0, -2.0, -3.0]]), None, "sum_normalize")
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


row_elements = st.one_of(st.floats(width=32),
                         st.sampled_from([-1e9, np.inf, -np.inf, np.nan, 0.0, -0.0]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float32,
                  st.tuples(st.integers(1, 3), st.integers(1, 2 * tz._ROW_MAX_LOOP_LEN + 8)),
                  elements=row_elements))
def test_row_max_equals_numpy_max(x):
    assert_row_max_is_numpy_max(x)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, tz._ROW_MAX_LOOP_LEN + 4), st.sampled_from([-1, 0]))
def test_row_max_equals_numpy_max_on_both_sides_of_the_row_switch(data, cols, side):
    # one row short of the loop's minimum (the reduction) and at it (the loop,
    # for last axes up to _ROW_MAX_LOOP_LEN)
    rows = tz._ROW_MAX_LOOP_ROWS_PER_COL * cols + side
    assert_row_max_is_numpy_max(data.draw(hnp.arrays(np.float32, (rows, cols),
                                                      elements=row_elements)))


def assert_row_max_is_numpy_max(x):
    # equal bit for bit, except the sign of a zero max (a row holding 0.0 and
    # -0.0; the softmax shift x - max is the same for either) and NaN payloads
    got, want = tz._row_max(x), x.max(axis=-1, keepdims=True)
    np.testing.assert_array_equal(got, want)
    plain = (want != 0) & ~np.isnan(want)
    assert np.array_equal(got[plain].view(np.uint32), want[plain].view(np.uint32))


class TestAllocatorPolicy:
    @staticmethod
    def stub_mallopt(monkeypatch, results=None):
        """Replace the C library's mallopt: record each call and answer with
        the real mallopt (results None) or with the next of `results`."""
        calls, answers = [], iter(results or ())
        real = None
        if results is None:
            real = ctypes.CDLL(None).mallopt
            real.argtypes, real.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int

        def mallopt(param, value):
            calls.append((param, value, real(param, value) if real else next(answers)))
            return calls[-1][2]

        monkeypatch.setattr(tz.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        for name in tz._GLIBC_MALLOC_ENV:
            monkeypatch.delenv(name, raising=False)
        return calls

    @pytest.mark.skipif(not tz._glibc(), reason="the allocator policy is glibc's")
    def test_glibc_accepts_both_thresholds(self, monkeypatch):
        calls = self.stub_mallopt(monkeypatch)
        assert tz._keep_freed_workspace() is True
        assert calls == [(tz._M_MMAP_THRESHOLD, tz._MMAP_THRESHOLD_BYTES, 1),
                         (tz._M_TRIM_THRESHOLD, tz._TRIM_THRESHOLD_BYTES, 1)]

    @pytest.mark.parametrize("answer", [ValueError("unrecognized configuration name"), None])
    def test_no_glibc_no_mallopt(self, monkeypatch, answer):
        calls = self.stub_mallopt(monkeypatch, [1, 1])

        def confstr(name):
            if isinstance(answer, Exception):
                raise answer
            return answer

        monkeypatch.setattr(tz.os, "confstr", confstr)
        assert tz._keep_freed_workspace() is False
        assert calls == []

    @pytest.mark.parametrize("name", tz._GLIBC_MALLOC_ENV)
    def test_users_own_glibc_setting_wins(self, monkeypatch, name):
        calls = self.stub_mallopt(monkeypatch, [1, 1])
        monkeypatch.setattr(tz.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setenv(name, "glibc.malloc.trim_threshold=0" if name == "GLIBC_TUNABLES"
                           else "1048576")
        assert tz._keep_freed_workspace() is False
        assert calls == []

    def test_refused_mmap_threshold_leaves_the_trim_threshold_alone(self, monkeypatch):
        # a fixed trim threshold alone would freeze the mmap threshold too
        calls = self.stub_mallopt(monkeypatch, [0])
        monkeypatch.setattr(tz.os, "confstr", lambda name: "glibc 2.36")
        assert tz._keep_freed_workspace() is False
        assert [c[0] for c in calls] == [tz._M_MMAP_THRESHOLD]


class TestLayerNorm:
    def test_constant_slice_returns_bias(self):
        x = Tensor([3.0, 3.0, 3.0])
        out = tz.layer_norm(x, Tensor(np.ones(3)), Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0], atol=1e-3)

    def test_already_normalized(self):
        out = tz.layer_norm(Tensor([-1.0, 1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        g = rng.standard_normal(6)
        b = rng.standard_normal(6)
        w = rng.standard_normal((4, 6))

        def weighted(fn):
            return lambda t: tz.tsum(tz.mul(fn(t), f64(w)))

        assert finite_diff_check(
            weighted(lambda t: tz.layer_norm(t, f64(g), f64(b))), f64(x)) < 1e-3
        assert finite_diff_check(
            weighted(lambda t: tz.layer_norm(f64(x), t, f64(b))), f64(g)) < 1e-3
        assert finite_diff_check(
            weighted(lambda t: tz.layer_norm(f64(x), f64(g), t)), f64(b)) < 1e-3

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            tz.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(2)), Tensor(np.ones(3)))


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(5.0))
        out = tz.dropout(x, 0.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_identity(self):
        x = Tensor(np.arange(5.0))
        out = tz.dropout(x, 0.9)
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            tz.dropout(Tensor([1.0]), 1.0, rng=np.random.default_rng(0))

    def test_statistics(self):
        rng = np.random.default_rng(6)
        x = Tensor(np.ones(100_000, dtype=np.float32))
        out = tz.dropout(x, 0.5, rng=rng)
        survivors = (out.data > 0).mean()
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = tz.tsum(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_grad(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with Tape() as tape:
            loss = tz.tsum(tz.mul(x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = tz.mul(x, x)
        with pytest.raises(ValueError):
            backward(y, tape)

    def test_reuse_accumulates_sum_of_paths(self):
        # x used twice must receive the sum of both path gradients
        rng = np.random.default_rng(7)
        data = rng.standard_normal(5)
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            loss = tz.add(tz.tsum(tz.mul(x, x)), tz.tsum(tz.mul(x, Tensor(3.0))))
        backward(loss, tape)

        # same computation with two distinct copies of the input
        x1 = Tensor(data, requires_grad=True)
        x2 = Tensor(data, requires_grad=True)
        with Tape() as tape2:
            loss2 = tz.add(tz.tsum(tz.mul(x1, x1)), tz.tsum(tz.mul(x2, Tensor(3.0))))
        backward(loss2, tape2)
        np.testing.assert_allclose(x.grad, x1.grad + x2.grad)

    def test_same_tensor_twice_gets_both_gradients(self):
        x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        g = np.array([[1.0, -2.0], [0.5, 3.0]])
        with Tape() as tape:
            loss = tz.tsum(tz.mul(tz.add(x, x), Tensor(g)))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2 * g)

    def test_reshape_view_and_second_path_sum(self):
        # reshape's backward (run first, as it was recorded last) hands back a
        # view of r's gradient; the direct path must not write into that view
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        c1 = rng.standard_normal((3, 2))
        c2 = rng.standard_normal((2, 3))
        with Tape() as tape:
            direct = tz.tsum(tz.mul(x, Tensor(c2)))
            r = tz.reshape(x, (3, 2))
            loss = tz.add(tz.tsum(tz.mul(r, Tensor(c1))), direct)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, c1.reshape(2, 3) + c2)
        np.testing.assert_array_equal(r.grad, c1)

    def test_model_param_grads_are_float32_and_unshared(self):
        from stmotion import model as mo
        cfg = mo.ModelConfig(n_joints=3, embed_dim=8, n_heads=2, n_layers=2, ff_size=16,
                             window=8, dropout=0.1)
        params = mo.init_params(cfg, np.random.default_rng(9))
        x = np.random.default_rng(10).standard_normal((2, 8, 3, 9)).astype(np.float32)
        with Tape() as tape:
            pred, _, _ = mo.forward(params, cfg, x, rng=np.random.default_rng(11))
            loss = tz.tsum(tz.l2norm_lastdim(pred))
        backward(loss, tape)
        window = [t for _, inputs, _ in tape.ops for t in inputs
                  if not t.requires_grad and t.data.shape[-1] == 9]
        assert window and all(t.grad is None for t in window)
        grads = [(k, p.grad) for k, p in params.items()]
        for k, g in grads:
            assert g is not None and g.dtype == np.float32 and g.shape == params[k].shape, k
        for i, (ka, ga) in enumerate(grads):
            for kb, gb in grads[i + 1:]:
                assert not np.shares_memory(ga, gb), (ka, kb)

    def test_op_whose_output_gets_no_gradient_is_skipped(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with Tape() as tape:
            z = tz.add(x, x)  # recorded, but the loss does not read it
            loss = tz.tsum(tz.mul(x, x))

        def never(g):
            raise AssertionError("the closure of an op whose output got no gradient ran")

        (out, inputs, _), *rest = tape.ops
        assert out is z
        tape.ops[:] = [(out, inputs, never)] + rest
        backward(loss, tape)
        assert z.grad is None
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_tape_topological_order(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = tz.mul(x, x)
            z = tz.tsum(y)
        # a recorded output needs a gradient; an op run without a tape records none
        assert y.requires_grad and z.requires_grad and not tz.mul(x, x).requires_grad
        # inputs of each op are either the leaf x or outputs recorded earlier
        produced = set()
        for out, inputs, _ in tape.ops:
            for t in inputs:
                if t is not x:
                    assert id(t) in produced
            produced.add(id(out))


class TestMiscOps:
    def test_relu_and_grad(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20) + 0.05  # keep away from the kink
        w = rng.standard_normal(20)
        err = finite_diff_check(
            lambda t: tz.tsum(tz.mul(tz.relu(t), f64(w))), f64(x), step=1e-4)
        assert err < 1e-3

    def test_l2norm_lastdim(self):
        x = Tensor([[3.0, 4.0], [0.0, 0.0]])
        out = tz.l2norm_lastdim(x)
        np.testing.assert_allclose(out.data, [5.0, 0.0])

    def test_l2norm_zero_subgradient(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = tz.tsum(tz.l2norm_lastdim(x))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))

    # the sum_normalize tau of tz.attention (rows of relu(scores + M)
    # divided by their sum), driven through its scores
    def test_normalize_rows_masked(self):
        mask = np.float32([[0.0, 0.0, -1e9]])
        out = tau(np.float32([[2.0, 2.0, 5.0]]), mask, "sum_normalize")
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]])

    def test_normalize_rows_fallback_uniform(self):
        mask = np.float32([[0.0, 0.0, -1e9]])
        x = Tensor(np.float32([[-1.0, -2.0, 3.0]]), requires_grad=True)
        with Tape() as tape:
            out = tau(x, mask, "sum_normalize")
            loss = tz.tsum(tz.mul(out, Tensor(np.float32([[1.0, 2.0, 3.0]]))))
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]])
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_normalize_rows_gradient(self):
        rng = np.random.default_rng(9)
        x = np.abs(rng.standard_normal((3, 5))) + 0.1
        w = rng.standard_normal((3, 5))
        err = finite_diff_check(
            lambda t: tz.tsum(tz.mul(tau(t, None, "sum_normalize"), f64(w))), f64(x))
        assert err < 1e-3

    def test_transpose_reshape_roundtrip_grads(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 3, 2))
        err = finite_diff_check(
            lambda t: tz.tsum(tz.mul(tz.transpose(t, (2, 1, 0)), f64(w))), f64(x))
        assert err < 1e-3

    def test_forward_outputs_finite(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((6, 6)).astype(np.float32))
        for op in (tz.relu, tau, lambda t: tz.matmul(t, t),
                   lambda t: tz.layer_norm(t, Tensor(np.ones(6, np.float32)),
                                           Tensor(np.zeros(6, np.float32)))):
            assert np.all(np.isfinite(op(x).data))


def _attention(mode):
    """tz.attention's context over (2, 4, 3) operands under `mode`, with the
    additive causal mask, float32 as the model builds it for either dtype."""
    mask = np.triu(np.full((4, 4), -1e9, np.float32), 1)
    return lambda q, k, v: tz.attention(q, k, v, 0.5, mask, mode)[0]


# each op of tz.__all__, as (operand shapes, a call on operands of those
# shapes); an op with modes has a case per mode, named op/mode
OP_CASES = {
    "matmul": ([(2, 3, 4), (4, 5)], tz.matmul),
    "joint_linear": ([(3, 2, 4), (3, 4, 5)], tz.joint_linear),
    "joint_linear/heads": ([(3, 2, 4), (3, 2, 4, 5)], tz.joint_linear),
    "add": ([(2, 3), (3,)], tz.add),
    "mul": ([(2, 3), (3,)], tz.mul),
    "relu": ([(2, 3)], tz.relu),
    "reshape": ([(2, 3)], lambda a: tz.reshape(a, (3, 2))),
    "transpose": ([(2, 3, 4)], lambda a: tz.transpose(a, (2, 0, 1))),
    "attention/softmax": ([(2, 4, 3)] * 3, _attention("softmax")),
    "attention/sum_normalize": ([(2, 4, 3)] * 3, _attention("sum_normalize")),
    "layer_norm": ([(2, 4), (4,), (4,)], tz.layer_norm),
    "dropout": ([(2, 3)], lambda x: tz.dropout(x, 0.5, np.random.default_rng(0))),
    "tsum": ([(2, 3)], tz.tsum),
    "l2norm_lastdim": ([(2, 3)], tz.l2norm_lastdim),
}


class TestDtype:
    def test_cases_cover_every_op(self):
        engine = {"Tensor", "Tape", "backward", "finite_diff_check", "atomic_write",
                  "save_record", "load_record"}
        assert {name.split("/")[0] for name in OP_CASES} == set(tz.__all__) - engine

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(OP_CASES))
    def test_op_keeps_its_operands_dtype(self, case, dtype):
        # the recorded closure is called directly: backward's own cast would
        # hide a gradient the op widened
        shapes, op = OP_CASES[case]
        rng = np.random.default_rng(1)
        xs = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
        with Tape() as tape:
            out = op(*xs)
        assert out.data.dtype == dtype
        (recorded, inputs, fn), = tape.ops
        assert recorded is out and inputs == tuple(xs)
        grads = fn(rng.standard_normal(out.shape).astype(dtype))
        assert [(g.dtype, g.shape) for g in grads] == [(dtype, x.shape) for x in xs]

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.bool_, np.float16, np.float32,
                                       np.float64, np.complex64])
    def test_tensor_holds_the_array_it_is_given(self, dtype):
        a = np.arange(6).reshape(2, 3).astype(dtype)
        assert Tensor(a).data is a


class TestFiniteDiffCheck:
    def test_sum_is_exact(self):
        rng = np.random.default_rng(12)
        assert finite_diff_check(tz.tsum, f64(rng.standard_normal(6))) < 1e-8

    def test_softmax_then_sum_zero_grad(self):
        rng = np.random.default_rng(13)
        err = finite_diff_check(
            lambda t: tz.tsum(tau(t)), f64(rng.standard_normal((1, 5))))
        assert err < 1e-4


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        named = {
            "embed.w": rng.standard_normal((3, 4)).astype(np.float32),
            "scalarish": np.float32(rng.standard_normal(1)),
            "bias": rng.standard_normal(7).astype(np.float32),
        }
        p = tmp_path / "r.stt1"
        tz.save_record(p, "{}", named)
        assert p.read_bytes()[3:7] == b"STT1"  # after the header line
        _, loaded = tz.load_record(p)
        assert set(loaded) == set(named)
        for k in named:
            np.testing.assert_array_equal(loaded[k], np.asarray(named[k]))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "r.stt1"
        p.write_bytes(b"{}\nNOPE")
        with pytest.raises(ValueError):
            tz.load_record(p)


class TestRecords:
    @settings(max_examples=60, deadline=None)
    @given(header=st.dictionaries(st.text(max_size=8), st.one_of(
               st.floats(allow_nan=False), st.text(), st.integers(), st.booleans()),
               max_size=4),
           shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
                           max_size=3))
    def test_roundtrip(self, tmp_path_factory, header, shapes):
        p = tmp_path_factory.mktemp("records") / "r.stt1"
        rng = np.random.default_rng(len(shapes))
        tensors = {f"t{i}·é": rng.standard_normal(s).astype(np.float32)
                   for i, s in enumerate(shapes)}
        tz.save_record(p, json.dumps(header, ensure_ascii=False), tensors)
        line, tensors2 = tz.load_record(p)
        assert json.loads(line) == header
        assert list(tensors2) == list(tensors)
        for k, v in tensors.items():
            assert tensors2[k].shape == v.shape and tensors2[k].dtype == np.float32
            np.testing.assert_array_equal(tensors2[k], v)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.text("ab", max_size=2),
                              st.lists(st.sampled_from([0, 1, 2, 65535, 2 ** 32 - 1]),
                                       max_size=4)),
                    max_size=3))
    def test_every_cut_of_a_record_loads_or_names_the_file(self, tmp_path_factory, tensors):
        # records written by hand: dims no array could hold, names that repeat,
        # and the values of a large tensor cut short
        blob = b"{}\n" + tz._MAGIC
        loads, loaded = True, []
        expect = {len(blob): []}  # cut length -> the (name, shape)s it loads
        for name, dims in tensors:
            size = math.prod(dims)
            values = min(size, 4)
            encoded = name.encode()
            blob += (struct.pack(f"<I{len(encoded)}sI{len(dims)}I", len(encoded), encoded,
                                 len(dims), *dims) + bytes(4 * values))
            holdable = 4 * math.prod(d for d in dims if d) <= np.iinfo(np.intp).max
            loads = loads and values == size and holdable and name not in dict(loaded)
            if loads:
                loaded.append((name, tuple(dims)))
                expect[len(blob)] = list(loaded)
        p = tmp_path_factory.mktemp("cuts") / "r.stt1"
        for cut in range(len(blob) + 1):
            p.write_bytes(blob[:cut])
            if cut in expect:
                got = tz.load_record(p)[1]
                assert [(k, v.shape) for k, v in got.items()] == expect[cut]
            else:
                with pytest.raises(ConfigError, match=re.escape(f"{p}: ")):
                    tz.load_record(p)

    def test_values_are_read_into_fresh_aligned_arrays(self, tmp_path):
        p = tmp_path / "r.stt1"
        tz.save_record(p, '{"odd": 1}', {"x": np.arange(6, dtype=np.float32).reshape(2, 3)})
        x = tz.load_record(p)[1]["x"]
        assert x.flags.c_contiguous and x.flags.aligned and x.flags.writeable
        assert x.base is None  # its own buffer, not a view into a file-sized one


class TestAtomicWrite:
    def test_failed_record_write_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "r.stt1"
        tz.save_record(p, '{"v": 1}', {"a": np.ones(3, np.float32)})
        before = p.read_bytes()
        with pytest.raises(ValueError):  # the second tensor fails to convert
            tz.save_record(p, '{"v": 2}', {"a": np.zeros(3), "b": np.array(["x"])})
        assert p.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [p]

    def test_failed_text_write_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_text("old\n")
        with pytest.raises(RuntimeError):
            with tz.atomic_write(p) as fh:
                fh.write("new\n")
                raise RuntimeError("part-way")
        assert p.read_text() == "old\n"
        assert sorted(tmp_path.iterdir()) == [p]

    def test_success_replaces(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_text("old\n")
        with tz.atomic_write(p) as fh:
            fh.write("new\n")
        assert p.read_text() == "new\n"
        assert sorted(tmp_path.iterdir()) == [p]

    def test_failed_replace_names_the_path_and_keeps_the_old_file(self, tmp_path,
                                                                  monkeypatch):
        p = tmp_path / "out.csv"
        p.write_text("old\n")

        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(tz.os, "replace", refuse)
        with pytest.raises(OSError) as info:
            with tz.atomic_write(p) as fh:
                fh.write("new\n")
        assert info.value.filename == str(p) and info.value.errno == errno.EACCES
        assert p.read_text() == "old\n"
        assert sorted(tmp_path.iterdir()) == [p]
