"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default). Operations executed while a
Tape is active are recorded and can be replayed backwards to populate the
``grad`` buffers of every tensor created with ``requires_grad=True``.
Without an active tape, operations are plain numpy calls.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "finite_diff_check",
    "save_tensors",
    "load_tensors",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "reshape",
    "transpose",
    "softmax_lastdim",
    "normalize_rows",
    "layer_norm",
    "dropout",
    "tsum",
    "l2norm_lastdim",
]


class Tensor:
    """Dense row-major array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "has_graph")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self.has_graph = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar used throughout the model code.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of operations for one forward pass.

    Usable as a context manager; nested tapes record to the innermost one.
    """

    def __init__(self):
        self.ops: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


def _needs(t: Tensor) -> bool:
    return t.requires_grad or t.has_graph


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    if _TAPE_STACK and any(_needs(t) for t in inputs):
        tape = _TAPE_STACK[-1]
        out.has_graph = True
        tape.ops.append((out, tuple(inputs), backward_fn))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires rank >= 2 operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimension mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = a.data.dtype.type(c)
    out = Tensor(a.data * c)

    def bwd(g):
        return (g * c,)

    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0))

    def bwd(g):
        return (g * (a.data > 0),)

    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _record(out, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return _record(out, (a,), bwd)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stabilized softmax along the last dimension."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _record(out, (x,), bwd)


def normalize_rows(r: Tensor, keep: np.ndarray | None = None, eps: float = 1e-8) -> Tensor:
    """Divide each last-dim row of the non-negative input by its sum.

    `keep` is a 0/1 mask of admissible entries (broadcastable to r). Rows whose
    sum falls below eps get a uniform distribution over kept entries and a zero
    gradient. Realizes the sum-normalization attention without softmax.
    """
    r = _as_tensor(r)
    data = r.data if keep is None else r.data * keep
    rs = data.sum(axis=-1, keepdims=True)
    ok = rs > eps
    safe_rs = np.where(ok, rs, 1.0)
    if keep is None:
        n_keep = data.shape[-1]
        uniform = np.full_like(data, 1.0 / n_keep)
    else:
        keep_b = np.broadcast_to(keep, data.shape).astype(data.dtype)
        uniform = keep_b / keep_b.sum(axis=-1, keepdims=True)
    y = np.where(ok, data / safe_rs, uniform)
    out = Tensor(y)

    def bwd(g):
        gk = g if keep is None else g * keep
        dot = (gk * y).sum(axis=-1, keepdims=True)
        grad = np.where(ok, (gk - dot) / safe_rs, 0.0).astype(r.data.dtype)
        if keep is not None:
            grad = grad * keep
        return (grad,)

    return _record(out, (r,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.data.shape != x.data.shape[-1:] or bias.data.shape != x.data.shape[-1:]:
        raise ValueError("layer_norm gain/bias must match the last dimension of x")
    n = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = xc * istd
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain.data
        # standard layer-norm backward over the last dim
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * istd
        return dx.astype(x.data.dtype), dgain.astype(gain.data.dtype), dbias.astype(bias.data.dtype)

    return _record(out, (x, gain, bias), bwd)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate) at train time."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout requires an rng")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    m = keep / x.data.dtype.type(1.0 - rate)
    out = Tensor(x.data * m)

    def bwd(g):
        return (g * m,)

    return _record(out, (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    x = _as_tensor(x)
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype),)

    return _record(out, (x,), bwd)


def l2norm_lastdim(x: Tensor) -> Tensor:
    """Euclidean norm along the last dimension; subgradient 0 at exact zeros."""
    x = _as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1))
    out = Tensor(norm)

    def bwd(g):
        safe = np.where(norm > 0, norm, 1.0)
        grad = g[..., None] * x.data / safe[..., None]
        grad = np.where(norm[..., None] > 0, grad, 0.0)
        return (grad.astype(x.data.dtype),)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Backward pass and gradient checking
# ---------------------------------------------------------------------------


def backward(loss: Tensor, tape: Tape):
    """Populate grads of every requires_grad tensor reachable from `loss`."""
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    loss.grad = np.ones_like(loss.data)
    for out, inputs, fn in reversed(tape.ops):
        if out.grad is None:
            continue
        grads = fn(out.grad)
        for t, g in zip(inputs, grads):
            if g is None or not _needs(t):
                continue
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must map a tensor to a deterministic scalar tensor. Relative error per
    element is |analytic - central| / (|analytic| + |central| + 1e-8).
    """
    probe = Tensor(x.data.copy(), requires_grad=True, dtype=x.data.dtype)
    with Tape() as tape:
        y = f(probe)
    backward(y, tape)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    flat = probe.data.reshape(-1)
    central = np.zeros_like(flat, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(probe).data)
        flat[i] = orig - step
        lo = float(f(probe).data)
        flat[i] = orig
        central[i] = (hi - lo) / (2.0 * step)
    central = central.reshape(probe.data.shape)
    a = analytic.astype(np.float64)
    err = np.abs(a - central) / (np.abs(a) + np.abs(central) + 1e-8)
    return float(err.max())


# ---------------------------------------------------------------------------
# "STT1" checkpoint format
# ---------------------------------------------------------------------------

_MAGIC = b"STT1"


def save_tensors(fh, named: dict[str, np.ndarray]):
    """Write named float32 arrays: magic, then per tensor
    name_len + name + rank + dims (u32 LE) + raw f32 LE values."""
    fh.write(_MAGIC)
    for name, arr in named.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def load_tensors(fh) -> dict[str, np.ndarray]:
    if fh.read(4) != _MAGIC:
        raise ValueError("not an STT1 tensor file")
    out: dict[str, np.ndarray] = {}
    while True:
        head = fh.read(4)
        if not head:
            break
        (name_len,) = struct.unpack("<I", head)
        name = fh.read(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", fh.read(4))
        dims = struct.unpack(f"<{rank}I", fh.read(4 * rank)) if rank else ()
        count = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(fh.read(4 * count), dtype="<f4").reshape(dims)
        out[name] = data.copy()
    return out
