"""Simple reference paths that the library's fast paths are tested against.
Each one is the code its fast path replaced, or an op that only tests use;
none is called by the library.  Most are matched bit for bit; the training
backward of ``attention`` and ``layer_norm`` and the sum behind a vector
operand's gradient are matched to rounding (``tests/test_autodiff.py`` says
how closely)."""

import numpy as np

from duvlg import autodiff as ad
from duvlg import decoding as dec
from duvlg.autodiff import Tensor, _accum, _op, _row_mean
from duvlg.model import SPECIALS, decode_forward_batch


def tanh(a: Tensor) -> Tensor:
    out_vals = np.tanh(a.values)
    an = a.node

    def bw(g):
        _accum(an, g * (1.0 - out_vals * out_vals))

    return _op(out_vals, (an,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` as numpy's batched product, one GEMM per leading index, in
    forward and backward: what ``ad.matmul`` and ``ad.linear`` computed before
    they folded all rows into one GEMM against a 2-D right operand."""
    an, bn, av, bv = a.node, b.node, a.values, b.values

    def bw(g):
        if an is not None:
            _accum(an, g @ bv.swapaxes(-1, -2))
        if bn is not None:
            _accum(bn, av.swapaxes(-1, -2) @ g)

    return _op(av @ bv, (an, bn), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The ``add(matmul)`` chain over the per-example product above."""
    return ad.add(matmul(x, w), b)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """A broadcast gradient summed back to ``shape`` by numpy's reductions
    over the leading axes, which add the rows one after another: what
    ``autodiff._unbroadcast`` did for a vector operand before it took one
    GEMV over all rows."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """``ad.attention`` as it was before its backward took the row term from
    ``dO . O``: the row term is ``sum(dS * W)`` over the keys, the score
    buffer is scaled, and k's gradient is merged by one copy.  Output and
    gradients are bitwise equal to the unfused chain."""
    qs = q.values.shape
    dh = qs[2] // n_heads
    scale = 1.0 / np.sqrt(dh)

    def heads(x):
        return x.reshape(x.shape[0], x.shape[1], n_heads, dh).swapaxes(1, 2)

    def merged_matmul(a, b):
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
    qn, kn, vn = q.node, k.node, v.node

    def bw(g):
        g = heads(g)
        if vn is not None:
            _accum(vn, merged_matmul(w.swapaxes(-1, -2), g))
        if qn is not None or kn is not None:
            ds = g @ vh.swapaxes(-1, -2)
            ds -= np.add.reduce(ds * w, axis=-1, keepdims=True)
            ds *= w
            ds *= scale
            if qn is not None:
                _accum(qn, merged_matmul(ds, kh))
            if kn is not None:  # (q^T @ ds)^T, merged by one copy
                gk = qh.swapaxes(-1, -2) @ ds  # [B x h x dh x Tk]
                _accum(kn, gk.transpose(0, 3, 1, 2).reshape(gk.shape[0], -1, qs[2]))

    return _op(merged_matmul(w, vh), (qn, kn, vn), bw)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """``ad.layer_norm`` as it was before its backward took the row means as
    GEMVs against the gain: ``np.mean``'s row means of ``g * gain`` and of
    ``g * gain * y``, and the gain and bias gradients as numpy's sequential
    sums over the leading axes.  Bitwise equal to the ``np.mean``
    formulation in forward and backward."""
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
        dy = g * gv
        dyy = dy * y
        np.multiply(y, _row_mean(dyy), out=dyy)
        dy -= _row_mean(dy)
        dy -= dyy
        dy *= inv
        _accum(an, dy)
        _accum(gn, unbroadcast(g * y, gv.shape))
        _accum(bn, unbroadcast(g, bias.shape))

    return _op(out_vals, (an, gn, bn), bw)


def gelu(a: Tensor) -> Tensor:
    """``ad.gelu`` with its derivative as the one-line formula it evaluated
    before the backward worked in place; bitwise equal to it."""
    x = a.values
    t = np.tanh(ad._GELU_C * x * (1.0 + 0.044715 * (x * x)))
    an = a.node

    def bw(g):
        d_inner = ad._GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        d = 0.5 * (1.0 + t) + x * (0.5 * (1.0 - t * t)) * d_inner
        _accum(an, g * d)

    return _op(x * (0.5 * (1.0 + t)), (an,), bw)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by row-max subtraction; the
    reference ``attention`` is tested against."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_vals = e / e.sum(axis=-1, keepdims=True)
    an = a.node

    def bw(g):
        dot = (g * out_vals).sum(axis=-1, keepdims=True)
        _accum(an, (g - dot) * out_vals)

    return _op(out_vals, (an,), bw)


def step_logprobs(model, enc, enc_valid, cache, tokens, candidate_ids, temperature):
    """One cached step's candidate log-probs taken from the full head
    (``decode_forward_batch``, both tied blocks and their concat)."""
    step = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
    logits = decode_forward_batch(model, step, enc, enc_valid, cache)
    rows = logits.values[:, -1, candidate_ids] / temperature
    rows = rows - rows.max(axis=1, keepdims=True)
    return rows - np.log(np.exp(rows).sum(axis=1, keepdims=True))


def beam_search(model, enc_states, cfg, beam_size):
    """The tuple-sort caption beam that ``decoding.beam_search`` replaced:
    every live hypothesis a (tokens, total) tuple, the pool of extensions
    sorted by ``(-score, tokens)``, and every finished hypothesis kept and
    sorted at the end.  Steps through ``decoding._start`` and ``decoding._step_logprobs``
    as looked up at call time.  Returns (tokens, normalized score)."""
    candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))

    def norm(total, emitted):
        return total / emitted**cfg.length_norm

    active = [((), 0.0)]
    last = [SPECIALS.bos]
    finished = []
    with ad.no_grad():
        enc, enc_valid, cache = dec._start(model, enc_states, cfg.max_decode_len)
        for _ in range(cfg.max_decode_len):
            lp = dec._step_logprobs(model, enc, enc_valid, cache, last, candidates,
                                    cfg.temperature)
            pool = []
            for row, (tokens, total) in enumerate(active):
                finished.append((tokens, norm(total + lp[row, 0], len(tokens) + 1)))
                for j, tid in enumerate(candidates[1:], start=1):
                    pool.append((tokens + (int(tid),), total + lp[row, j], row))
            pool.sort(key=lambda e: (-e[1], e[0]))
            pool = pool[:beam_size]
            cache.reorder([row for _, _, row in pool])
            active = [(tokens, total) for tokens, total, _ in pool]
            last = [tokens[-1] for tokens, _ in active]
    finished.extend((tokens, norm(total, cfg.max_decode_len)) for tokens, total in active)
    finished.sort(key=lambda e: (-e[1], e[0]))
    best_tokens, best_score = finished[0]
    return np.asarray(best_tokens, dtype=np.int64), float(best_score)


def top_k_filter(probs: np.ndarray, k: int):
    """The k highest-probability entries (stable: ties keep lower indices),
    renormalized; the per-row reference for ``decoding._pick``'s top-k cut."""
    order = np.argsort(-probs, kind="stable")[:min(k, probs.size)]
    mass = probs[order]
    return order, mass / mass.sum()


def support_mass(ranked: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Each row's support mass as the 1-D sum of exactly its first
    ``kept[r]`` ranked probabilities, one row at a time."""
    return np.array([row[:n].sum() for row, n in zip(ranked, kept)])
