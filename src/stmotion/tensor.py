"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default), and every operation takes
Tensor operands. Operations executed while a Tape is active are recorded and
can be replayed backwards to populate the ``grad`` buffers of every tensor
created with ``requires_grad=True``; a recorded op's output needs a gradient
too. Without an active tape, operations are plain numpy calls.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import io
import math
import os
import struct
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

DEFAULT_DTYPE = np.float32
TAU_MODES = ("softmax", "sum_normalize")  # attention's normalizers tau

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "finite_diff_check",
    "atomic_write",
    "save_record",
    "load_record",
    "matmul",
    "joint_linear",
    "add",
    "mul",
    "relu",
    "reshape",
    "transpose",
    "attention",
    "layer_norm",
    "dropout",
    "tsum",
    "l2norm_lastdim",
]


# glibc's allocator policy, set once at import by _keep_freed_workspace:
# the ceiling glibc's own moving mmap threshold reaches on 64-bit systems, and
# twice it for the trim threshold, as glibc pairs them, held from the start.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # mallopt parameters (malloc.h)
_MMAP_THRESHOLD_BYTES = 32 * 1024 ** 2
_TRIM_THRESHOLD_BYTES = 64 * 1024 ** 2
_GLIBC_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _glibc() -> bool:
    """Whether the C library is glibc."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False


def _keep_freed_workspace() -> bool:
    """Fix glibc's mmap and trim thresholds, so freed workspace stays in the heap.

    By default glibc maps large blocks, moves that threshold with its frees
    and hands a large free heap top back to the kernel, so each st forward at
    the paper's T=120 window faulted its freed attention temporaries in again
    (about 2,300 minor page faults at B=4). With both thresholds fixed, glibc
    stops adjusting them: blocks up to _MMAP_THRESHOLD_BYTES stay in the heap
    when freed and the next forward reuses them; larger ones, such as
    full_2d's score buffers at T=120, are still mapped.

    This runs at import, not in `cli.main`, because programs that call
    `model.forward` directly, such as the benchmark's long_window workload,
    never pass through the CLI, and this module owns every array allocation.
    It does nothing without glibc or when glibc's own MALLOC_MMAP_THRESHOLD_,
    MALLOC_TRIM_THRESHOLD_ or GLIBC_TUNABLES is set, and has no setting of
    its own. Returns whether the policy is in force.
    """
    if not _glibc() or any(name in os.environ for name in _GLIBC_MALLOC_ENV):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: a fixed trim threshold alone would also freeze
    # the mmap threshold wherever it stands
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1)


_keep_freed_workspace()


class Tensor:
    """Dense row-major array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

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


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE_STACK[-1].ops.append((out, tuple(inputs), backward_fn))
    return out


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
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires rank >= 2 operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimension mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def joint_linear(x: Tensor, w: Tensor) -> Tensor:
    """Separate linear map per joint, batched over the leading joint axis.

    x: (N, ..., Din). With w: (N, Din, Dout) the result is (N, ..., Dout);
    with head-split w: (N, H, Din, F) it is (N, H, ..., F). The forward is
    one matmul batched over N and the backward two, plus a sum over heads for
    x's gradient; no gradient is computed for an operand that needs none.
    """
    n, lead, din = x.data.shape[0], x.data.shape[1:-1], x.data.shape[-1]
    if w.data.ndim not in (3, 4) or w.data.shape[0] != n or w.data.shape[-2] != din:
        raise ValueError(f"joint_linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    xf = x.data.reshape(n, -1, din)                  # (N, M, Din)
    heads = w.data.ndim == 4
    if heads:
        xf = xf[:, None]                             # (N, 1, M, Din)
    y = xf @ w.data
    out = Tensor(y.reshape(y.shape[:-2] + lead + y.shape[-1:]))

    def bwd(g):
        gf = g.reshape(y.shape)
        gx = gw = None
        if x.requires_grad:
            gx = gf @ np.swapaxes(w.data, -1, -2)
            if heads:
                gx = gx.sum(axis=1)
            gx = gx.reshape(x.data.shape)
        if w.requires_grad:
            gw = np.swapaxes(xf, -1, -2) @ gf
        return gx, gw

    return _record(out, (x, w), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))

    def bwd(g):
        return (g * (a.data > 0),)

    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _record(out, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return _record(out, (a,), bwd)


# A loop of np.maximum over the columns finds the row max faster than numpy's
# reduction (which is slow over a short contiguous axis) for last axes up to
# _ROW_MAX_LOOP_LEN long, beyond which the strided column reads lose, and only
# with at least _ROW_MAX_LOOP_ROWS_PER_COL rows per column to pay for its one
# call per column. Both break even near that many rows on a 2-vCPU x86 VM:
# a batch-1 rollout's trimmed block (72 rows) takes the reduction, the
# desk-scale score tensors (576 to 9216 rows) the loop.
_ROW_MAX_LOOP_LEN = 48
_ROW_MAX_LOOP_ROWS_PER_COL = 16


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True), bit for bit except the sign of a zero
    max, after which exp(x - max) is the same."""
    n = x.shape[-1]
    if n > _ROW_MAX_LOOP_LEN or x.size < _ROW_MAX_LOOP_ROWS_PER_COL * n * n:
        return x.max(axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, n):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, mask: np.ndarray | None = None,
              tau: str = "softmax"):
    """Fused attention over the last two axes: context = tau(q @ k^T * scale + mask) @ v.

    q, k and v share their leading axes; only `mask`, the additive causal
    mask M for both tau (0 where admissible, a large negative value
    elsewhere), broadcasts over the scores; None: unmasked.
    tau "softmax": rows are shifted by their max before exp. tau
    "sum_normalize": relu(scores + M), which zeroes the masked entries, is
    divided by its row sum, and a row whose sum is at most 1e-8 gets a uniform
    distribution over its admissible entries (mask == 0) and a zero gradient.

    Returns (context Tensor, weights ndarray). The weights overwrite the score
    buffer in place and are read-only; the op records one Tape entry.
    """
    if tau not in TAU_MODES:
        raise ValueError(f"unknown attention tau {tau!r}")
    if not q.data.shape[:-2] == k.data.shape[:-2] == v.data.shape[:-2]:
        raise ValueError(f"attention q, k, v leading axes differ: {q.shape}, {k.shape}, {v.shape}")
    c = q.data.dtype.type(scale)
    w = q.data @ np.swapaxes(k.data, -1, -2)
    w *= c
    if mask is not None:
        w += mask
    if tau == "softmax":
        w -= _row_max(w)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
    else:
        positive = w > 0                  # relu's gradient mask
        np.maximum(w, 0, out=w)
        rs = w.sum(axis=-1, keepdims=True)
        ok = rs > 1e-8
        safe_rs = np.where(ok, rs, 1.0)
        w /= safe_rs
        if not ok.all():
            keep = np.ones(w.shape[-1], w.dtype) if mask is None else mask == 0
            keep = np.broadcast_to(keep, w.shape).astype(w.dtype)
            np.copyto(w, keep / keep.sum(axis=-1, keepdims=True), where=~ok)
    w.flags.writeable = False
    out = Tensor(w @ v.data)

    def bwd(g):
        gv = np.swapaxes(w, -1, -2) @ g if v.requires_grad else None
        gs = g @ np.swapaxes(v.data, -1, -2)
        gs -= (gs * w).sum(axis=-1, keepdims=True)
        if tau == "softmax":
            gs *= w
        else:
            gs /= safe_rs
            if not ok.all():
                gs *= ok
            gs *= positive
        gs *= c
        gq = gs @ k.data if q.requires_grad else None
        # (q^T gs)^T, not gs^T q: the same sums as the unfused matmul backward
        gk = np.swapaxes(np.swapaxes(q.data, -1, -2) @ gs, -1, -2) if k.requires_grad else None
        return gq, gk, gv

    return _record(out, (q, k, v), bwd), w


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then affine."""
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


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout, applied when given an rng (a training pass): survivors
    scaled by 1/(1-rate). Without an rng (inference) x is returned as is."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    m = keep / x.data.dtype.type(1.0 - rate)
    out = Tensor(x.data * m)

    def bwd(g):
        return (g * m,)

    return _record(out, (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype),)

    return _record(out, (x,), bwd)


def l2norm_lastdim(x: Tensor) -> Tensor:
    """Euclidean norm along the last dimension; subgradient 0 at exact zeros."""
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
            if g is None or not t.requires_grad:
                continue
            # Out of place: a gradient may alias another op's gradient (add
            # hands the same array to both inputs, reshape returns a view).
            if t.grad is None:
                t.grad = g.astype(t.data.dtype, copy=False)
            else:
                t.grad = (t.grad + g).astype(t.data.dtype, copy=False)


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
# Records (checkpoints, motion files): a JSON header line, an "STT1" block
# ---------------------------------------------------------------------------

_MAGIC = b"STT1"


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file next to `path` for writing; on a clean exit it
    replaces `path` with `os.replace`, on an exception it is removed and
    `path` keeps its old contents. A directory at `path` is refused before
    anything is written; a failed open or replace names `path`."""
    name = os.fspath(path)
    tmp = f"{name}.{os.getpid()}.tmp"
    try:
        if os.path.isdir(name):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fh = open(tmp, mode)
    except OSError as err:
        raise OSError(err.errno, err.strerror, name) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, name)
        except OSError as err:
            raise OSError(err.errno, err.strerror, name) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_record(path, header: str, tensors: dict[str, np.ndarray]):
    """Atomically write `header`, one line of JSON text, then `tensors` as an
    STT1 block: magic, then per tensor name_len + name + rank + dims (u32 LE)
    + raw f32 LE values."""
    with atomic_write(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(_MAGIC)
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f4", order="C")  # keeps rank 0
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.reshape(-1).view(np.uint8))


def load_record(path) -> tuple[bytes, dict[str, np.ndarray]]:
    """Read what `save_record` wrote: the header line, for the caller to
    parse and check, and the tensors, each length checked against the bytes
    left before it is read; a malformed or truncated file, or a tensor name
    that repeats, is a ConfigError naming the file and the field."""
    with open(path, "rb") as fh:
        header = fh.readline()
        here = fh.tell()
        left = fh.seek(0, io.SEEK_END) - here
        fh.seek(here)

        def claim(n: int, what: str) -> int:
            nonlocal left
            if n > left:
                raise ConfigError(f"{fh.name}: {what}: needs {n} bytes, the file has {left} left")
            left -= n
            return n

        if left < 4 or fh.read(4) != _MAGIC:
            raise ConfigError(f"{fh.name}: not an STT1 tensor file")
        left -= 4
        out: dict[str, np.ndarray] = {}
        while left:
            where = f"tensor record {len(out)}"
            (name_len,) = struct.unpack("<I", fh.read(claim(4, where + " name length")))
            name = fh.read(claim(name_len, where + " name")).decode("utf-8", "replace")
            where = f"tensor {name!r}"
            if name in out:
                raise ConfigError(f"{fh.name}: {where} repeats")
            (rank,) = struct.unpack("<I", fh.read(claim(4, where + " rank")))
            dims = struct.unpack(f"<{rank}I", fh.read(claim(4 * rank, where + " dims")))
            claim(4 * math.prod(dims), where + " values")
            try:  # numpy's size limit, which a zero beside huge dims meets in no bytes
                out[name] = np.empty(dims, dtype="<f4")
            except ValueError:
                raise ConfigError(f"{fh.name}: {where}: dims {list(dims)} are too large "
                                  f"for an array") from None
            fh.readinto(out[name].reshape(-1).view(np.uint8))
    return header, out
