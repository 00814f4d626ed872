"""Dense 64-bit tensors with tape-based reverse-mode automatic differentiation.

Everything above this module (layers, models, losses) is expressed through the
primitives defined here. Shapes follow the NCHW layout for image batches.
Broadcasting is restricted to scalars; anything richer is a contract error.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericDomainError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericDomainError(f"non-finite values produced by '{op}'")


class Tensor:
    """A dense float64 array plus optional autodiff participation.

    Value buffers are never mutated by operations; `grad` is filled in by
    `backward` and accumulates additively until cleared.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ContractError(f"item() on tensor of shape {self.shape}")

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routing goes through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(out_data: np.ndarray, op: str, parents: tuple[Tensor, ...],
          backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Wrap an op result, registering backward rules when grads are live."""
    _ensure_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if g.shape != t.data.shape:
        # scalar-broadcast operand: reduce the gradient back down
        g = np.sum(g).reshape(t.data.shape) if t.data.size == 1 else g.reshape(t.data.shape)
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad = t.grad + g


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; fills `grad` on every reachable tensor.

    Gradients accumulate additively across repeated uses and repeated calls.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    # iterative topological order over parent links
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        _accumulate(node, g)
        if node._backward_fn is None:
            continue
        parent_grads = node._backward_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            if pg.shape != p.data.shape:
                if p.data.size == 1:
                    pg = np.sum(pg).reshape(p.data.shape)
                else:
                    raise ContractError("internal: gradient shape mismatch")
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ContractError(f"{op}: shape mismatch {a.shape} vs {b.shape} (only scalar broadcast allowed)")


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "add")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "sub")
    return _make(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "mul")
    ad, bd = a.data, b.data
    return _make(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "div")
    if np.any(b.data == 0.0):
        raise NumericDomainError("div: division by zero")
    ad, bd = a.data, b.data
    return _make(ad / bd, "div", (a, b), lambda g: (g / bd, -g * ad / (bd * bd)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise NumericDomainError("log: non-positive input")
    ad = a.data
    return _make(np.log(ad), "log", (a,), lambda g: (g / ad,))


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    if p != int(p) and np.any(a.data < 0.0):
        raise NumericDomainError("pow: negative base with non-integer exponent")
    ad = a.data
    out = ad ** p

    def bw(g):
        if p == 0.0:
            return (np.zeros_like(ad),)
        # p>=1 keeps the derivative finite at 0; smaller p would blow up there
        base = ad ** (p - 1.0) if p >= 1.0 or np.all(ad != 0.0) else None
        if base is None:
            raise NumericDomainError("pow: derivative singular at zero base")
        return (g * p * base,)

    return _make(out, "pow", (a,), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # clip keeps exp in range; sigmoid is already saturated far before +-709
    out = 1.0 / (1.0 + np.exp(-np.clip(a.data, -709.0, 709.0)))
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def max_scalar(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    mask = a.data > c
    return _make(np.where(mask, a.data, c), "max_scalar", (a,), lambda g: (g * mask,))


def min_scalar(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    mask = a.data < c
    return _make(np.where(mask, a.data, c), "min_scalar", (a,), lambda g: (g * mask,))


def clamp(a, lo: float, hi: float) -> Tensor:
    return min_scalar(max_scalar(a, lo), hi)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    return _make(np.sum(a.data).reshape(()), "sum", (a,),
                 lambda g: (np.broadcast_to(g, shape).copy() if g.shape != shape else g,))


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    shape = a.data.shape
    return _make(np.mean(a.data).reshape(()), "mean", (a,),
                 lambda g: (np.broadcast_to(g / n, shape).copy(),))


def sum_axes(a, axes: tuple[int, ...], keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    shape = a.data.shape
    out = np.sum(a.data, axis=axes, keepdims=keepdims)

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, "sum_axes", (a,), bw)


# ---------------------------------------------------------------------------
# structural ops (NCHW)


def concat_channels(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise ContractError("concat_channels: expected NCHW tensors")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ContractError(f"concat_channels: extent mismatch {a.shape} vs {b.shape}")
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    return _make(out, "concat_channels", (a, b),
                 lambda g: (g[:, :ca], g[:, ca:]))


def slice_channels(a, c0: int, c1: int) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 4:
        raise ContractError("slice_channels: expected NCHW tensor")
    if not (0 <= c0 < c1 <= a.shape[1]):
        raise ContractError(f"slice_channels: bad range [{c0},{c1}) for {a.shape[1]} channels")
    shape = a.data.shape

    def bw(g):
        full = np.zeros(shape)
        full[:, c0:c1] = g
        return (full,)

    return _make(a.data[:, c0:c1].copy(), "slice_channels", (a,), bw)


def scale_channels(x, s) -> Tensor:
    """Multiply an NCHW tensor by a per-(sample, channel) gate of shape [N,C,1,1]."""
    x, s = as_tensor(x), as_tensor(s)
    if x.data.ndim != 4 or s.data.shape != (x.shape[0], x.shape[1], 1, 1):
        raise ContractError(f"scale_channels: gate shape {s.shape} does not match {x.shape}")
    xd, sd = x.data, s.data
    return _make(xd * sd, "scale_channels", (x, s),
                 lambda g: (g * sd, np.sum(g * xd, axis=(2, 3), keepdims=True)))


# ---------------------------------------------------------------------------
# convolution and pooling


def conv2d(x, w, b, stride: int = 1, pad: int = 0, groups: int = 1) -> Tensor:
    """2-D cross-correlation (no kernel flip) with zero padding and groups."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ContractError("conv2d: x must be NCHW and w must be [Cout,Cin/groups,kh,kw]")
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    if cin % groups != 0 or cout % groups != 0:
        raise ContractError(f"conv2d: groups={groups} must divide Cin={cin} and Cout={cout}")
    if cin_g != cin // groups:
        raise ContractError(f"conv2d: kernel expects {cin_g} channels/group, input has {cin // groups}")
    if b.data.shape != (cout,):
        raise ContractError(f"conv2d: bias shape {b.shape} != ({cout},)")
    ho, rem_h = divmod(h + 2 * pad - kh, stride)
    wo, rem_w = divmod(wd + 2 * pad - kw, stride)
    ho, wo = ho + 1, wo + 1
    if rem_h or rem_w or ho <= 0 or wo <= 0:
        raise ContractError(f"conv2d: non-integral or empty output for input {h}x{wd}, "
                            f"kernel {kh}x{kw}, stride {stride}, pad {pad}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, cin, kh, kw, ho, wo),
        strides=(s0, s1, s2, s3, stride * s2, stride * s3))
    k = cin_g * kh * kw
    p = ho * wo
    cols = windows.reshape(n, groups, k, p).copy() if groups > 1 else None
    if cols is None:
        cols = np.ascontiguousarray(windows).reshape(n, 1, k, p)
    w2 = w.data.reshape(groups, cout // groups, k)
    y = np.matmul(w2, cols)  # [N, g, Cout/g, P]
    out = y.reshape(n, cout, ho, wo) + b.data[None, :, None, None]

    def bw(g):
        gyr = g.reshape(n, groups, cout // groups, p)
        dw = np.matmul(gyr, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(w.data.shape)
        db = g.sum(axis=(0, 2, 3))
        dcols = np.matmul(w2.transpose(0, 2, 1), gyr)  # [N, g, K, P]
        dcols = dcols.reshape(n, cin, kh, kw, ho, wo)
        dxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad))
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
        dx = dxp[:, :, pad:pad + h, pad:pad + wd] if pad else dxp
        return (dx, dw, db)

    return _make(out, "conv2d", (x, w, b), bw)


def maxpool2(x) -> Tensor:
    """2x2 max pooling, stride 2; ties route to the first index in row-major order."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ContractError("maxpool2: expected NCHW tensor")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ContractError(f"maxpool2: odd spatial extents {h}x{w}")
    h2, w2 = h // 2, w // 2
    win = x.data.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = win.argmax(axis=-1)  # argmax takes the first max: row-major tie break
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        dwin = np.zeros((n, c, h2, w2, 4))
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        return (dwin.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w),)

    return _make(out, "maxpool2", (x,), bw)


def upsample2(x) -> Tensor:
    """Nearest-neighbor x2 upsampling."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ContractError("upsample2: expected NCHW tensor")
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    return _make(out, "upsample2", (x,),
                 lambda g: (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),))


def global_avg(x) -> Tensor:
    """Per-channel spatial mean, output shape [N,C,1,1]."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ContractError("global_avg: expected NCHW tensor")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)
    return _make(out, "global_avg", (x,),
                 lambda g: (np.broadcast_to(g / (h * w), (n, c, h, w)).copy(),))


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(f: Callable[..., Tensor], inputs: Iterable[Tensor], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be scalar-valued; every input is probed component by component,
    so keep inputs small. Relative error uses a 1e-8 floor in the denominator.
    """
    inputs = [as_tensor(t) for t in inputs]
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise ContractError("grad_check: f must be scalar-valued")
    backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    max_err = 0.0
    with no_grad():
        for t, ana in zip(inputs, analytic):
            flat = t.data.reshape(-1)
            aflat = ana.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f(*inputs).data)
                flat[i] = orig - h
                fm = float(f(*inputs).data)
                flat[i] = orig
                num = (fp - fm) / (2.0 * h)
                err = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
                if err > max_err:
                    max_err = err
    return max_err
