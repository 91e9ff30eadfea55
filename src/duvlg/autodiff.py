"""Reverse-mode automatic differentiation on float64 numpy buffers.

Graphs are built eagerly: every operation stores its parent tensors and a
closure that routes the output gradient back to them.  ``backward`` walks
the graph once in decreasing construction order, which is a valid
topological order because an output is always created after its inputs.
Accumulation order is therefore fixed and bitwise reproducible.

Inside ``no_grad()`` no graph is built at all: every op returns a plain
leaf, so inference holds no parents, closures or gradient buffers.

Gradient buffers have owners.  A leaf (no backward closure) owns its
``grad``: its first contribution is copied, later ones add in place.  An
interior node adopts its first contribution by reference and rebinds on the
next, so no closure ever writes into a buffer it did not allocate, and
``backward`` drops an interior node's ``grad`` once its closure has run.

On glibc, importing this module tells malloc to keep freed memory, so a
training step reuses the pages of the one before (``_keep_heap``).
"""

from __future__ import annotations

import ctypes
import gc
import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_UIDS = itertools.count()
_grad_enabled = True

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap():
    """Keep freed memory in the process instead of returning it to the OS.

    A training step frees its graph and allocates the same buffers again in
    the next step; by default glibc unmaps the large ones and trims the top
    of the heap, and the next step faults every page back in.  Trimming is
    turned off (-1), and the mmap threshold is fixed at 32 MiB, glibc's own
    64-bit ceiling: setting the trim threshold alone also freezes the
    dynamic mmap threshold at its small start value.  Freed memory stays
    mapped until exit.  Does nothing where there is no glibc ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no glibc, or no dlopen(NULL)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * 1024 * 1024)
    mallopt(_M_TRIM_THRESHOLD, -1)


_keep_heap()


@contextmanager
def no_cyclic_gc():
    """Suspend the cyclic collector across graph-heavy loops.

    Graphs are acyclic (children hold their parents, never the reverse), so
    reference counting reclaims every node; the cyclic collector only adds
    full-heap scans during node churn, which dominates training time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def no_grad():
    """Build no graph inside the block: ops and ``stop_gradient`` return
    leaves without parents, so ``backward`` on them does nothing.  Nests, and
    restores the previous mode on exit, including exit by exception."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class DegenerateBatchError(ValueError):
    """A loss was asked to average over zero contributing positions."""


class Tensor:
    """A float64 array with a gradient slot and backward provenance.

    ``grad`` is lazily allocated by ``backward``; tensors with
    ``requires_grad=False`` never accumulate gradient.
    """

    __slots__ = ("values", "grad", "requires_grad", "parents", "_backward_fn", "_uid")

    def __init__(self, values, requires_grad=False, parents=(), backward_fn=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.parents = tuple(parents)
        self._backward_fn = backward_fn
        self._uid = next(_UIDS)

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self):
        self.grad = None

    def sum(self) -> "Tensor":
        return sum_all(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __mul__(self, other):
        return mul(self, _lift(other))


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _op(values, parents, backward_fn) -> Tensor:
    """Build an op output; constant inputs, or ``no_grad``, yield a leaf with
    no provenance."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, parents=parents, backward_fn=backward_fn)
    return Tensor(values)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad`` under the ownership rule (module docstring).
    ``np.array`` keeps ``u``'s memory layout, which later reductions see."""
    if t.requires_grad:
        u = _unbroadcast(g, t.values.shape)
        if t._backward_fn is None:
            if t.grad is None:
                t.grad = np.array(u)
            else:
                t.grad += u
        else:
            t.grad = u if t.grad is None else t.grad + u


def _own_grad(t: Tensor) -> np.ndarray:
    """``t.grad`` as a buffer a closure may scatter into: zeros if unset, and
    a copy of an interior node's adopted (possibly shared) buffer."""
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    elif t._backward_fn is not None:
        t.grad = np.array(t.grad)
    return t.grad


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values + b.values

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _op(out_vals, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values * b.values

    def bw(g):
        if a.requires_grad:
            _accum(a, g * b.values)
        if b.requires_grad:
            _accum(b, g * a.values)

    return _op(out_vals, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    # a 2-D operand broadcasts against any batch shape
    if a.values.ndim > 2 and b.values.ndim > 2 and a.values.shape[:-2] != b.values.shape[:-2]:
        try:
            np.broadcast_shapes(a.values.shape[:-2], b.values.shape[:-2])
        except ValueError:
            raise ShapeError(f"matmul batch dims differ: {a.shape} @ {b.shape}") from None
    out_vals = a.values @ b.values

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.values, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.values, -1, -2) @ g)

    return _op(out_vals, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(x, w), b)`` as one node and one output buffer (the bias
    is added in place), bitwise equal to that chain in forward and backward:
    each parent gets the same single contribution the chain gives it."""
    if x.values.ndim < 2 or w.values.ndim != 2 or x.values.shape[-1] != w.values.shape[0]:
        raise ShapeError(f"linear needs [..., n] @ [n x m], got {x.shape} @ {w.shape}")
    out_vals = x.values @ w.values
    out_vals += b.values

    def bw(g):
        if x.requires_grad:
            _accum(x, g @ np.swapaxes(w.values, -1, -2))
        if w.requires_grad:
            _accum(w, np.swapaxes(x.values, -1, -2) @ g)
        _accum(b, g)

    return _op(out_vals, (x, w, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bw(g):
        _accum(a, g.reshape(a.values.shape))

    return _op(a.values.reshape(shape), (a,), bw)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def bw(g):
        _accum(a, np.swapaxes(g, ax1, ax2))

    return _op(np.swapaxes(a.values, ax1, ax2), (a,), bw)


def transpose(a: Tensor) -> Tensor:
    return swapaxes(a, -1, -2)


def concat(parts, axis: int = 0) -> Tensor:
    parts = list(parts)
    out_vals = np.concatenate([p.values for p in parts], axis=axis)
    extents = [p.values.shape[axis] for p in parts]

    def bw(g):
        offset = 0
        for p, n in zip(parts, extents):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + n)
            _accum(p, g[tuple(sl)])
            offset += n

    return _op(out_vals, tuple(parts), bw)


def narrow_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along axis 0."""

    def bw(g):
        if a.requires_grad:
            _own_grad(a)[start:stop] += g

    return _op(a.values[start:stop].copy(), (a,), bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` selected by an integer id vector; backward scatters."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"gather ids must be 1-D, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise ShapeError(f"gather id out of range for table of {table.values.shape[0]} rows")

    def bw(g):
        if table.requires_grad:
            np.add.at(_own_grad(table), ids, g)

    return _op(table.values[ids], (table,), bw)


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, np.broadcast_to(g, a.values.shape))

    return _op(a.values.sum(), (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_vals = np.tanh(a.values)

    def bw(g):
        _accum(a, g * (1.0 - out_vals * out_vals))

    return _op(out_vals, (a,), bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU with its exact derivative."""
    x = a.values
    x2 = x * x
    t = np.tanh(_GELU_C * x * (1.0 + 0.044715 * x2))
    half_1pt = 0.5 * (1.0 + t)
    out_vals = x * half_1pt

    def bw(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        d = half_1pt + x * (0.5 * (1.0 - t * t)) * d_inner
        _accum(a, g * d)

    return _op(out_vals, (a,), bw)


# ---------------------------------------------------------------------------
# normalization / losses


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by row-max subtraction; the
    reference ``attention_weights`` is tested against."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_vals = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out_vals).sum(axis=-1, keepdims=True)
        _accum(a, (g - dot) * out_vals)

    return _op(out_vals, (a,), bw)


def attention_weights(scores: Tensor, scale: float, mask: np.ndarray | None = None) -> Tensor:
    """``softmax_rows(scores * scale + mask)`` in one buffer, with the same
    elementwise order; ``mask`` is an additive constant (0 or -inf)."""
    w = scores.values * scale
    if mask is not None:
        w += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * w).sum(axis=-1, keepdims=True)
        _accum(scores, ((g - dot) * w) * scale)

    return _op(w, (scores,), bw)


def _row_mean(v: np.ndarray) -> np.ndarray:
    """``v.mean(axis=-1, keepdims=True)`` to the bit (the sum divided in place
    by the count, as ``np.mean`` computes it) without its per-call overhead."""
    m = v.sum(axis=-1, keepdims=True)
    m /= v.shape[-1]
    return m


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean/unit-variance normalization over last axis, then affine.
    Forward and backward work in place on the op's own temporaries, in the
    elementwise order of the ``np.mean`` formulation."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    x = a.values
    y = x - _row_mean(x)
    var = _row_mean(y * y)
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    y *= inv
    out_vals = y * gain.values
    out_vals += bias.values

    def bw(g):
        dy = g * gain.values
        dyy = dy * y
        np.multiply(y, _row_mean(dyy), out=dyy)
        dy -= _row_mean(dy)
        dy -= dyy
        dy *= inv
        _accum(a, dy)
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * y).sum(axis=reduce_axes) if reduce_axes else g * y)
        _accum(bias, g.sum(axis=reduce_axes) if reduce_axes else g)

    return _op(out_vals, (a, gain, bias), bw)


def cross_entropy_logits(logits: Tensor, targets, ignore_mask=None) -> Tensor:
    """Mean NLL of ``targets`` under row-wise softmax of ``logits``.

    Positions flagged in ``ignore_mask`` contribute nothing; an all-ignored
    batch raises ``DegenerateBatchError``.
    """
    x = logits.values
    if x.ndim != 2:
        raise ShapeError(f"logits must be [T x V], got {logits.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    n_pos, vocab = x.shape
    if tgt.shape != (n_pos,):
        raise ShapeError(f"{n_pos} logit rows but targets shape {tgt.shape}")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= vocab):
        raise ShapeError(f"target id out of range for vocab {vocab}")
    keep = np.ones(n_pos, dtype=bool) if ignore_mask is None else ~np.asarray(ignore_mask, dtype=bool)
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise DegenerateBatchError("all positions ignored in cross entropy")

    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    out_vals = -logp[np.arange(n_pos), tgt][keep].mean()

    def bw(g):
        if not logits.requires_grad:
            return
        d = np.exp(logp)
        d[np.arange(n_pos), tgt] -= 1.0
        d[~keep] = 0.0
        d *= float(g) / n_keep
        _accum(logits, d)

    return _op(out_vals, (logits,), bw)


def squared_error(a: Tensor, b: Tensor) -> Tensor:
    """Mean over leading (position) axis of squared Euclidean distance.

    1-D inputs are a single position: the result is the plain squared norm.
    """
    if a.values.shape != b.values.shape:
        raise ShapeError(f"squared_error shapes differ: {a.shape} vs {b.shape}")
    diff = a.values - b.values
    n_pos = a.values.shape[0] if a.values.ndim >= 2 else 1
    out_vals = (diff * diff).sum() / n_pos

    def bw(g):
        scaled = (2.0 * float(g) / n_pos) * diff
        _accum(a, scaled)
        _accum(b, -scaled)

    return _op(out_vals, (a, b), bw)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward; contributes exactly zero gradient to ``a``."""
    keep = _grad_enabled and a.requires_grad
    return Tensor(a.values.copy(), requires_grad=keep, parents=(a,) if keep else ())


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor):
    """Populate ``grad`` of every requires_grad leaf under a scalar loss.

    Grads of the traversed graph are reset first, so repeated calls on the
    same graph reproduce identical gradients rather than compounding.  An
    interior node's ``grad`` is dropped (``None``) as soon as its closure has
    run; a leaf that received no gradient gets zeros.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)

    # Decreasing construction order visits every child before its parents.
    nodes.sort(key=lambda n: n._uid, reverse=True)
    for node in nodes:
        if node.requires_grad:
            node.grad = None
    loss.grad = np.ones_like(loss.values)
    for node in nodes:
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
    for node in nodes:
        if node.requires_grad and node._backward_fn is None and node.grad is None:
            node.grad = np.zeros_like(node.values)


def finite_difference_grad(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Central differences of a scalar function ``f(x)`` per coordinate of x."""
    if h <= 0:
        raise ValueError("h must be positive")
    flat = x.values.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x))
        flat[i] = orig - h
        f_minus = float(f(x))
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return Tensor(out.reshape(x.values.shape))


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_index: int
    analytic: float
    numeric: float


# Relative error floor: entries where both gradients are below this are
# compared absolutely, so finite-difference noise on true zeros cannot
# dominate the report.
_REL_FLOOR = 1e-4


def grad_check(loss_fn, x: Tensor, h: float = 1e-5) -> GradCheckReport:
    """Compare backward() against central differences for parameter ``x``.

    ``loss_fn()`` must rebuild the scalar loss from current tensor values.
    """
    x.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
    numeric = finite_difference_grad(lambda _: loss_fn().item(), x, h).values

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    rel = np.abs(analytic - numeric) / denom
    worst = int(rel.argmax()) if rel.size else 0
    return GradCheckReport(
        max_rel_error=float(rel.reshape(-1)[worst]) if rel.size else 0.0,
        worst_index=worst,
        analytic=float(analytic.reshape(-1)[worst]) if rel.size else 0.0,
        numeric=float(numeric.reshape(-1)[worst]) if rel.size else 0.0,
    )
