"""Reverse-mode automatic differentiation on float64 numpy buffers.

Graphs are built eagerly and are kept apart from the values they compute.  A
``Tensor`` is a value and, if it takes gradient, a ``Node``: the parents'
nodes, a closure that routes the output gradient back to them, a gradient
slot, the shape and a uid drawn in construction order.  Each closure captures
its parents' nodes and exactly the arrays its backward reads, never a
``Tensor``, so an op output that no backward reads (a residual sum, the
projection that only feeds it) is freed as soon as the model code drops it.
``backward`` walks the nodes once in decreasing uid order, which is a valid
topological order because an output is always created after its inputs.
Accumulation order is therefore fixed and bitwise reproducible.

A product with one weight matrix (``matmul`` against a 2-D right operand,
and ``linear``) is one GEMM over all rows of the left operand, in forward
and in that operand's gradient, so BLAS may split it across threads.  The
weight's gradient stays one GEMM per leading index, summed in index order:
folded, it would contract over every row, and its bits then changed with the
BLAS thread count.  The folded products contract over a model width, and at
the default model's shapes their bits are the same at 1 and 2 threads: a
run's bits depend on the BLAS build, not on its thread count
(``tests/test_blas_threads.py``).

Inside ``no_grad()`` no graph is built at all: every op returns a tensor
without a node, so inference holds no parents, closures or gradient buffers.

Gradients live on nodes, and their buffers have owners.  A node without a
closure (a leaf such as a parameter, or a ``stop_gradient`` output) owns its
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
import weakref
from contextlib import contextmanager

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

    Graphs are acyclic (a node holds its parents, never the reverse), so
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
    tensors without a node, so ``backward`` on them does nothing.  Nests, and
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


class Node:
    """What ``backward`` needs of a tensor that takes gradient: its parents'
    nodes, the closure that routes its gradient to them (``None`` for a leaf
    and for a ``stop_gradient`` output), its gradient slot, its shape, and a
    uid drawn in construction order.  A node does not keep its tensor's
    values alive: ``values`` is the array while anything else holds it, else
    an empty array."""

    __slots__ = ("parents", "backward_fn", "grad", "shape", "uid", "_values")

    def __init__(self, values: np.ndarray, parents=(), backward_fn=None):
        self.parents = parents
        self.backward_fn = backward_fn
        self.grad = None
        self.shape = values.shape
        self.uid = next(_UIDS)
        self._values = weakref.ref(values)

    @property
    def values(self) -> np.ndarray:
        values = self._values()
        return _FREED if values is None else values


_FREED = np.empty(0)
_FREED.flags.writeable = False


class Tensor:
    """A float64 array and, if it takes gradient, its graph ``node``
    (``None`` for constants and under ``no_grad``).  ``requires_grad``,
    ``grad`` and ``parents`` read through to the node; ``grad`` is allocated
    by ``backward``.
    """

    __slots__ = ("values", "node")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.node = Node(self.values) if requires_grad else None

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def parents(self) -> tuple:
        return () if self.node is None else self.node.parents

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise ValueError("a tensor without requires_grad has no gradient slot")

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
    """Build an op output from its parents' nodes (``None`` for a constant);
    constant inputs, or ``no_grad``, yield a tensor without a node."""
    out = Tensor(values)
    if _grad_enabled:
        if None in parents:
            parents = tuple(p for p in parents if p is not None)
        if parents:
            out.node = Node(out.values, parents, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape.  A
    vector operand (a bias or a layer-norm gain) collapses all leading rows
    with one GEMV; any other operand sums its leading axes in index order."""
    if grad.shape == shape:
        return grad
    if len(shape) == 1 and grad.shape[-1] == shape[0]:
        return np.ones(grad.size // shape[0]) @ grad.reshape(-1, shape[0])
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accum(node: Node | None, g: np.ndarray):
    """Add ``g`` to ``node.grad`` under the ownership rule (module
    docstring); a constant's ``None`` node takes nothing.  ``np.array`` keeps
    ``u``'s memory layout, which later reductions see."""
    if node is not None:
        u = _unbroadcast(g, node.shape)
        if node.backward_fn is None:
            if node.grad is None:
                node.grad = np.array(u)
            else:
                node.grad += u
        else:
            node.grad = u if node.grad is None else node.grad + u


def _own_grad(node: Node) -> np.ndarray:
    """``node.grad`` as a buffer a closure may scatter into: zeros if unset,
    and a copy of an interior node's adopted (possibly shared) buffer."""
    if node.grad is None:
        node.grad = np.zeros(node.shape)
    elif node.backward_fn is not None:
        node.grad = np.array(node.grad)
    return node.grad


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    an, bn = a.node, b.node

    def bw(g):
        _accum(an, g)
        _accum(bn, g)

    return _op(a.values + b.values, (an, bn), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    an, bn = a.node, b.node
    # each operand's gradient reads only the other operand
    av = a.values if bn is not None else None
    bv = b.values if an is not None else None

    def bw(g):
        if an is not None:
            _accum(an, g * bv)
        if bn is not None:
            _accum(bn, g * av)

    return _op(a.values * b.values, (an, bn), bw)


def _fold(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for ``x`` [..., n] and one matrix ``w`` [n x m], as one GEMM
    over all rows of ``x`` instead of one per leading index."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[-1],))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with numpy's broadcasting of batch dims.  When ``b`` is one
    matrix, the product and ``a``'s gradient are one GEMM over all rows of
    ``a``; ``b``'s gradient stays one GEMM per leading index, summed in index
    order (the module docstring says why)."""
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
    prod = _fold if b.values.ndim == 2 else np.matmul
    an, bn = a.node, b.node
    av = a.values if bn is not None else None
    bv = b.values if an is not None else None

    def bw(g):
        if an is not None:
            _accum(an, prod(g, bv.swapaxes(-1, -2)))
        if bn is not None:
            _accum(bn, av.swapaxes(-1, -2) @ g)

    return _op(prod(a.values, b.values), (an, bn), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(x, w), b)`` as one node and one output buffer (the bias
    is added in place), bitwise equal to that chain in forward and backward:
    each parent gets the same single contribution the chain gives it.  Like
    ``matmul`` against one matrix, the product and ``x``'s gradient are one
    GEMM over all rows, and ``w``'s gradient is one GEMM per leading index,
    summed in index order."""
    if x.values.ndim < 2 or w.values.ndim != 2 or x.values.shape[-1] != w.values.shape[0]:
        raise ShapeError(f"linear needs [..., n] @ [n x m], got {x.shape} @ {w.shape}")
    out_vals = _fold(x.values, w.values)
    out_vals += b.values
    xn, wn, bn = x.node, w.node, b.node
    xv = x.values if wn is not None else None
    wv = w.values if xn is not None else None

    def bw(g):
        if xn is not None:
            _accum(xn, _fold(g, wv.swapaxes(-1, -2)))
        if wn is not None:
            _accum(wn, xv.swapaxes(-1, -2) @ g)
        _accum(bn, g)

    return _op(out_vals, (xn, wn, bn), bw)


def reshape(a: Tensor, shape) -> Tensor:
    an = a.node

    def bw(g):
        _accum(an, g.reshape(an.shape))

    return _op(a.values.reshape(tuple(shape)), (an,), bw)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    an = a.node

    def bw(g):
        _accum(an, g.swapaxes(ax1, ax2))

    return _op(a.values.swapaxes(ax1, ax2), (an,), bw)


def transpose(a: Tensor) -> Tensor:
    return swapaxes(a, -1, -2)


def concat(parts, axis: int = 0) -> Tensor:
    parts = list(parts)
    out_vals = np.concatenate([p.values for p in parts], axis=axis)
    nodes = tuple(p.node for p in parts)
    extents = [p.values.shape[axis] for p in parts]

    def bw(g):
        offset = 0
        for node, n in zip(nodes, extents):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + n)
            _accum(node, g[tuple(sl)])
            offset += n

    return _op(out_vals, nodes, bw)


def narrow_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along axis 0."""
    an = a.node

    def bw(g):
        _own_grad(an)[start:stop] += g

    return _op(a.values[start:stop].copy(), (an,), bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` selected by integer ids of any shape, [*ids.shape x
    row shape]; backward scatters with ``np.add.at`` in position order."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise ShapeError(f"gather id out of range for table of {table.values.shape[0]} rows")
    tn = table.node

    def bw(g):
        np.add.at(_own_grad(tn), ids, g)

    return _op(table.values[ids], (tn,), bw)


def sum_all(a: Tensor) -> Tensor:
    an = a.node

    def bw(g):
        _accum(an, np.broadcast_to(g, an.shape))

    return _op(a.values.sum(), (an,), bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU with its exact derivative.  Only the tanh is
    kept for backward; ``x * x`` and ``0.5 * (1 + t)`` are recomputed there
    from the forward's expressions, so the bits are those of keeping them.
    The derivative is evaluated in place on two temporaries, in the order of
    operations of its one-line formula, so its bits are the formula's."""
    x = a.values
    t = np.tanh(_GELU_C * x * (1.0 + 0.044715 * (x * x)))
    out_vals = x * (0.5 * (1.0 + t))
    an = a.node

    def bw(g):
        d = x * x
        d *= 3 * 0.044715
        d += 1.0
        d *= _GELU_C  # d/dx of the tanh's argument
        u = t * t
        np.subtract(1.0, u, out=u)
        u *= 0.5
        u *= x
        u *= d
        np.add(1.0, t, out=d)
        d *= 0.5
        d += u
        d *= g
        _accum(an, d)

    return _op(out_vals, (an,), bw)


# ---------------------------------------------------------------------------
# normalization / losses


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention as one node from the projections, queries
    [B x Tq x d] and keys and values [B' x Tk x d] (B' is B or 1: one set of
    keys for every row), to the merged heads [B x Tq x d].  The heads are
    views of the projections, the scores are scaled by 1/sqrt(d/h), and
    ``mask`` is an additive constant (0 or -inf) over them.  Only the softmax
    weights, computed in the scores' own buffer, are kept for backward.
    The output is bitwise equal to the chain head split, ``matmul``, ``mul``,
    ``add``, a row softmax, ``matmul``, head merge.  The backward takes the
    softmax's row term ``sum_j dS_ij W_ij`` as ``dO_i . O_i`` per head (equal
    in exact arithmetic, and a sum over the head width instead of the key
    length), and scales the q and k gradients instead of the score buffer;
    its gradients match the chain's to rounding, not to the bit."""
    qs, ks = q.values.shape, k.values.shape
    if len(qs) != 3 or ks != v.values.shape or len(ks) != 3 or qs[2] != ks[2] \
            or ks[0] not in (1, qs[0]) or n_heads < 1 or qs[2] % n_heads:
        raise ShapeError(f"attention needs [B x T x d] operands with d divisible by "
                         f"{n_heads} heads, got {qs}, {ks}, {v.shape}")
    dh = qs[2] // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x):  # [B x T x d] -> [B x h x T x dh], a view where x allows it
        return x.reshape(x.shape[0], x.shape[1], n_heads, dh).swapaxes(1, 2)

    def merged_matmul(a, b):  # a @ b written through the head view of [B x T x d]
        out = np.empty((a.shape[0], a.shape[2], qs[2]))
        np.matmul(a, b, out=heads(out))
        return out

    qh, kh, vh = heads(q.values), heads(k.values), heads(v.values)
    w = qh @ kh.swapaxes(-1, -2)
    w *= scale
    if mask is not None:
        w += mask
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)

    out_vals = merged_matmul(w, vh)
    qn, kn, vn = q.node, k.node, v.node

    def bw(g):
        # the chain's order: v, then q, then k (one tensor may be all three)
        if vn is not None:
            _accum(vn, merged_matmul(w.swapaxes(-1, -2), heads(g)))
        if qn is not None or kn is not None:
            ds = heads(g) @ vh.swapaxes(-1, -2)
            row = np.add.reduce((g * out_vals).reshape(qs[0], qs[1], n_heads, dh), axis=-1)
            ds -= row.swapaxes(1, 2)[..., None]  # [B x h x Tq x 1]
            ds *= w
            if qn is not None:
                gq = merged_matmul(ds, kh)
                gq *= scale
                _accum(qn, gq)
            if kn is not None:
                gk = merged_matmul(ds.swapaxes(-1, -2), qh)
                gk *= scale
                _accum(kn, gk)

    return _op(out_vals, (qn, kn, vn), bw)


def _row_mean(v: np.ndarray) -> np.ndarray:
    """``v.mean(axis=-1, keepdims=True)`` to the bit (the sum divided in place
    by the count, as ``np.mean`` computes it) without its per-call overhead."""
    m = np.add.reduce(v, axis=-1, keepdims=True)
    m /= v.shape[-1]
    return m


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean/unit-variance normalization over last axis, then affine.
    The forward works in place on the op's own temporaries, in the
    elementwise order of the ``np.mean`` formulation, and is bitwise equal to
    it.  The backward's two row means, of ``g * gain`` and ``g * gain * y``,
    are GEMVs of ``g`` and ``g * y`` against the gain over all rows, so its
    gradients match that formulation to rounding, not to the bit."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    x = a.values
    y = x - _row_mean(x)
    var = _row_mean(y * y)
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    y *= inv
    gv = gain.values
    out_vals = y * gv
    out_vals += bias.values
    an, gn, bn = a.node, gain.node, bias.node

    def bw(g):
        n = g.shape[-1]

        def row_mean(m):  # mean over the last axis of m * gain, one GEMV
            r = (m.reshape(-1, n) @ gv).reshape(m.shape[:-1] + (1,))
            r /= n
            return r

        gy = g * y
        dx = g * gv
        dx -= row_mean(g)
        dx -= y * row_mean(gy)
        dx *= inv
        _accum(an, dx)
        _accum(gn, gy)
        _accum(bn, g)

    return _op(out_vals, (an, gn, bn), bw)


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
    ln = logits.node

    def bw(g):
        d = np.exp(logp)
        d[np.arange(n_pos), tgt] -= 1.0
        d[~keep] = 0.0
        d *= float(g) / n_keep
        _accum(ln, d)

    return _op(out_vals, (ln,), bw)


def squared_error(a: Tensor, b: Tensor) -> Tensor:
    """Mean over leading (position) axis of squared Euclidean distance.

    1-D inputs are a single position: the result is the plain squared norm.
    """
    if a.values.shape != b.values.shape:
        raise ShapeError(f"squared_error shapes differ: {a.shape} vs {b.shape}")
    diff = a.values - b.values
    n_pos = a.values.shape[0] if a.values.ndim >= 2 else 1
    out_vals = (diff * diff).sum() / n_pos
    an, bn = a.node, b.node

    def bw(g):
        scaled = (2.0 * float(g) / n_pos) * diff
        _accum(an, scaled)
        _accum(bn, -scaled)

    return _op(out_vals, (an, bn), bw)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward; contributes exactly zero gradient to ``a``.  The
    output's node keeps ``a``'s node as its parent but has no closure."""
    out = Tensor(a.values.copy())
    if _grad_enabled and a.node is not None:
        out.node = Node(out.values, (a.node,))
    return out


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor):
    """Populate ``grad`` of every leaf node under a scalar loss.

    Grads of the traversed graph are reset first, so repeated calls on the
    same graph reproduce identical gradients rather than compounding.  An
    interior node's ``grad`` is dropped (``None``) as soon as its closure has
    run; a leaf that received no gradient gets zeros.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar, got shape {loss.shape}")
    root = loss.node
    if root is None:
        return

    nodes = []
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)

    # Decreasing construction order visits every child before its parents.
    nodes.sort(key=lambda n: n.uid, reverse=True)
    for node in nodes:
        node.grad = None
    root.grad = np.ones(root.shape)
    for node in nodes:
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)
            node.grad = None
    for node in nodes:
        if node.backward_fn is None and node.grad is None:
            node.grad = np.zeros(node.shape)


# the step of every central difference
FD_STEP = 1e-5


def finite_difference_grad(f, x: Tensor) -> Tensor:
    """Central differences of a scalar function ``f(x)`` per coordinate of x."""
    flat = x.values.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = float(f(x))
        flat[i] = orig - FD_STEP
        f_minus = float(f(x))
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return Tensor(out.reshape(x.values.shape))


# Relative error floor: entries where both gradients are below this are
# compared absolutely, so finite-difference noise on true zeros cannot
# dominate the error.
_REL_FLOOR = 1e-4


def grad_check(loss_fn, x: Tensor) -> float:
    """The largest relative error of backward() against central differences
    for parameter ``x``.

    ``loss_fn()`` must rebuild the scalar loss from current tensor values.
    """
    x.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
    numeric = finite_difference_grad(lambda _: loss_fn().item(), x).values

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max()) if rel.size else 0.0
