import math
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duvlg import autodiff as ad
from duvlg.autodiff import Tensor

import reference


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.values, a.values)


def test_matmul_forced_arithmetic():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ad.ShapeError, match="batch dims differ"):
        ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ad.ShapeError, match="batch dims differ"):
        ad.matmul(Tensor(np.zeros((2, 2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    # batch shapes that broadcast, or a 2-D operand, pass the check
    for a, b in (((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((1, 3, 4), (2, 4, 5)),
                 ((2, 1, 3, 4), (3, 4, 5)), ((2, 3, 4), (2, 4, 5))):
        assert ad.matmul(Tensor(np.ones(a)), Tensor(np.ones(b))).shape == \
            np.broadcast_shapes(a[:-2], b[:-2]) + (a[-2], b[-1])


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    for wrt in (a, b):
        assert ad.grad_check(lambda: ad.matmul(a, b).sum(), wrt) < 1e-6


def test_softmax_uniform():
    out = reference.softmax_rows(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.values, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_closed_form():
    out = reference.softmax_rows(Tensor([0.0, math.log(3.0)]))
    assert np.allclose(out.values, [0.25, 0.75])


def test_softmax_stabilized_no_overflow():
    out = reference.softmax_rows(Tensor([1000.0, 1000.0]))
    assert np.all(np.isfinite(out.values))
    assert np.allclose(out.values, [0.5, 0.5])


def test_layer_norm_constant_row():
    g = Tensor(np.ones(3))
    b = Tensor(np.zeros(3))
    out = ad.layer_norm(Tensor([5.0, 5.0, 5.0]), g, b)
    assert np.allclose(out.values, 0.0)


def test_layer_norm_already_normalized():
    out = ad.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.values, [1.0, -1.0], atol=1e-6)


def test_layer_norm_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
    g = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, 5), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 5)))

    def loss():
        return ad.mul(ad.layer_norm(x, g, b), w).sum()

    for wrt in (x, g, b):
        assert ad.grad_check(loss, wrt) < 1e-5


# A backward that sums in another order than its reference holds to it within
# this share of the reference's largest entry: a few thousand float64 eps
# (2.2e-16), far below any change of formula.
_GRAD_RTOL = 1e-12


def _assert_close(got, ref):
    """``max|got - ref| <= _GRAD_RTOL * max|ref|``, shapes equal."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= _GRAD_RTOL * np.max(np.abs(ref), initial=0.0)


def _mean_formula_layer_norm(a, gain, bias, eps=1e-5):
    """The ``np.mean`` formulation: ``layer_norm``'s forward reproduces it bit
    for bit, its backward to rounding."""
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    gv = gain.values
    out_vals = y * gv + bias.values
    an, gn, bn = a.node, gain.node, bias.node

    def bw(g):
        dy = g * gv
        ad._accum(an, (dy - dy.mean(axis=-1, keepdims=True)
                       - y * (dy * y).mean(axis=-1, keepdims=True)) * inv)
        reduce_axes = tuple(range(g.ndim - 1))
        ad._accum(gn, (g * y).sum(axis=reduce_axes) if reduce_axes else g * y)
        ad._accum(bn, g.sum(axis=reduce_axes) if reduce_axes else g)

    return ad._op(out_vals, (an, gn, bn), bw)


@pytest.mark.parametrize("shape", [(7,), (40, 9), (16, 1, 64), (4, 25, 24)])
def test_layer_norm_bitwise_equals_mean_formula(shape):
    """The forward is bitwise, the gradients hold to ``_GRAD_RTOL``; the
    replaced backward (``reference.layer_norm``) is bitwise in both."""
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[-1])
    gain_v, bias_v = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    upstream = rng.normal(size=shape)
    results = []
    for norm in (_mean_formula_layer_norm, reference.layer_norm, ad.layer_norm):
        x = Tensor(values.copy(), requires_grad=True)
        gain = Tensor(gain_v.copy(), requires_grad=True)
        bias = Tensor(bias_v.copy(), requires_grad=True)
        # an interior input, so the gradient reaching x goes through the op
        inp = ad.mul(x, Tensor(2.0))
        out = norm(inp, gain, bias)
        ad.backward(ad.mul(out, Tensor(upstream)).sum())
        results.append((out.values, x.grad, gain.grad, bias.grad))
        assert np.array_equal(inp.values, 2.0 * values)  # the input is not overwritten
    formula, replaced, got = results
    assert all(np.array_equal(r, a) for r, a in zip(formula, replaced))
    assert np.array_equal(got[0], formula[0])
    for g, r in zip(got[1:], formula[1:]):
        _assert_close(g, r)


@pytest.mark.parametrize("shape", [(7,), (3, 5, 64)])
def test_gelu_bitwise_equals_one_line_formula(shape):
    rng = np.random.default_rng(13)
    values, upstream = rng.normal(size=shape) * 3.0, rng.normal(size=shape)
    results = []
    for op in (reference.gelu, ad.gelu):
        x = Tensor(values.copy(), requires_grad=True)
        out = op(ad.mul(x, Tensor(1.0)))  # an interior input
        ad.backward(ad.mul(out, Tensor(upstream)).sum())
        results.append((out.values, x.grad))
    assert all(np.array_equal(r, g) for r, g in zip(*results))


def test_cross_entropy_uniform_logits():
    out = ad.cross_entropy_logits(Tensor(np.zeros((3, 8))), [1, 5, 7])
    assert out.item() == pytest.approx(math.log(8.0), rel=1e-12)


def test_cross_entropy_all_ignored_errors():
    with pytest.raises(ad.DegenerateBatchError):
        ad.cross_entropy_logits(Tensor(np.zeros((2, 4))), [0, 1], ignore_mask=[True, True])


def test_cross_entropy_confident_closed_form():
    out = ad.cross_entropy_logits(Tensor([[10.0, -10.0]]), [0])
    assert out.item() == pytest.approx(math.log(1.0 + math.exp(-20.0)), rel=1e-9)
    assert out.item() == pytest.approx(2.06e-9, rel=0.01)


def test_squared_error_zero():
    a = Tensor([[0.3, -0.2], [1.0, 2.0]])
    assert ad.squared_error(a, Tensor(a.values.copy())).item() == 0.0


def test_squared_error_single_position():
    assert ad.squared_error(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).item() == 2.0


def test_squared_error_mean_over_positions():
    a = Tensor([[0.0, 0.0], [1.0, 1.0]])
    b = Tensor([[1.0, 1.0], [1.0, 1.0]])
    assert ad.squared_error(a, b).item() == 1.0  # dists {2, 0} -> mean 1


def test_stop_gradient_forward_identity():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    out = ad.stop_gradient(x)
    assert np.array_equal(out.values, x.values)


def test_stop_gradient_blocks_and_passes():
    x = Tensor([1.5, -2.0, 0.5], requires_grad=True)
    y = Tensor([2.0, 3.0, 4.0], requires_grad=True)
    loss = ad.mul(ad.stop_gradient(x), y).sum()
    ad.backward(loss)
    assert np.array_equal(x.grad, np.zeros(3))  # exactly zero, bitwise
    assert np.array_equal(y.grad, x.values)


def test_no_grad_builds_no_graph():
    x = Tensor([1.5, -2.0, 0.5], requires_grad=True)
    w = Tensor(np.eye(3), requires_grad=True)
    with ad.no_grad():
        outs = [ad.add(x, x), ad.mul(x, x), reference.tanh(x), ad.stop_gradient(x),
                ad.matmul(ad.reshape(x, (1, 3)), w), reference.softmax_rows(x)]
        loss = ad.sum_all(ad.mul(x, x))
    for out in outs + [loss]:
        assert out.parents == () and not out.requires_grad
    ad.backward(loss)  # a leaf: nothing to do
    assert x.grad is None and w.grad is None
    assert np.array_equal(outs[1].values, x.values * x.values)


def test_no_grad_nests_and_restores_after_exception():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert ad.mul(x, x).parents == ()  # inner exit keeps the outer mode
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    out = ad.mul(x, x)
    assert out.requires_grad and out.parents == (x.node, x.node)
    ad.backward(out.sum())
    assert np.array_equal(x.grad, 2 * x.values)


def test_backward_sum_gives_ones():
    x = Tensor([4.0, 5.0, 6.0], requires_grad=True)
    ad.backward(x.sum())
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square_closed_form():
    x = Tensor([3.0], requires_grad=True)
    ad.backward(ad.mul(x, x).sum())
    assert np.array_equal(x.grad, [6.0])


def test_backward_diamond_accumulates_both_paths():
    x = Tensor([2.0], requires_grad=True)
    a = ad.mul(x, Tensor([3.0]))
    b = ad.mul(x, Tensor([5.0]))
    ad.backward(ad.add(a, b).sum())
    assert np.array_equal(x.grad, [8.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(x, x))


def test_finite_difference_quadratic():
    x = Tensor([3.0])
    fd = ad.finite_difference_grad(lambda t: float(t.values[0] ** 2), x)
    assert fd.values[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_difference_constant():
    fd = ad.finite_difference_grad(lambda t: 7.0, Tensor([1.0, 2.0]))
    assert np.array_equal(fd.values, [0.0, 0.0])


def test_two_layer_network_gradcheck():
    rng = np.random.default_rng(7)
    w1 = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
    b1 = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
    w2 = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (6, 5)))
    tgt = rng.integers(0, 3, 6)

    def loss():
        h = reference.tanh(ad.add(ad.matmul(x, w1), b1))
        return ad.cross_entropy_logits(ad.matmul(h, w2), tgt)

    for wrt in (w1, b1, w2):
        assert ad.grad_check(loss, wrt) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_all_ops_gradcheck_randomized(seed):
    """Every differentiable op in one graph vs central differences."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    g = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, 6), requires_grad=True)
    table = Tensor(rng.uniform(-1, 1, (5, 6)), requires_grad=True)
    below = Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
    ids = rng.integers(0, 5, 4)
    pair_ids = np.array([[2, 1], [0, 1]])  # 2-D ids, one row twice
    tgt = rng.integers(0, 3, 6)
    mask = np.where(rng.uniform(size=(2, 1, 2, 2)) < 0.3, -np.inf, 0.0)
    mask[..., 0] = 0.0  # every query keeps a key
    v = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    c = Tensor(rng.uniform(-0.5, 0.5, 3), requires_grad=True)

    def loss():
        pairs = ad.reshape(ad.gather_rows(below, pair_ids), (4, 6))
        rows = ad.add(ad.gather_rows(table, ids), pairs)
        h = ad.layer_norm(ad.add(x, rows), g, b)
        h = ad.gelu(h)
        h = reference.softmax_rows(h)
        h3 = ad.reshape(h, (2, 2, 6))  # batch 2, 2 positions, 2 heads of 3 dims
        h = ad.reshape(ad.attention(h3, reference.tanh(h3), ad.gelu(h3), 2, mask), (4, 6))
        h3 = ad.reshape(h, (2, 2, 6))
        h3 = ad.swapaxes(h3, 0, 1)
        h = ad.reshape(h3, (4, 6))
        top = ad.narrow_rows(h, 0, 2)
        bottom = ad.narrow_rows(h, 2, 4)
        h = ad.concat([top, bottom, ad.mul(top, bottom)], axis=0)
        logits = ad.linear(ad.matmul(h, w), v, c)
        ce = ad.cross_entropy_logits(logits, tgt, ignore_mask=[False] * 4 + [True, True])
        se = ad.squared_error(ad.narrow_rows(h, 0, 2), ad.narrow_rows(h, 2, 4))
        return ad.add(ce, ad.mul(se, Tensor(0.5)))

    for wrt in (x, g, b, table, below, w, v, c):
        error = ad.grad_check(loss, wrt)
        assert error < 1e-4, (wrt.shape, error)


def test_backward_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        h = reference.softmax_rows(ad.matmul(x, w))
        ad.backward(ad.squared_error(h, x))
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-1, 1, (4, 1)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (1, 5)), requires_grad=True)
    c = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)

    def loss():
        return ad.add(ad.mul(a, b), c).sum()

    for wrt in (a, b, c):
        assert ad.grad_check(loss, wrt) < 1e-6


def test_repeated_backward_reproduces():
    x = Tensor([1.0], requires_grad=True)
    loss = ad.mul(x, Tensor([3.0])).sum()
    ad.backward(loss)
    first = x.grad.copy()
    ad.backward(loss)
    assert np.array_equal(x.grad, first) and np.array_equal(first, [3.0])
    x.zero_grad()
    assert x.grad is None


def _chain_attention(q, k, v, n_heads, masks):
    """The unfused reference: the head split of k, q and v (reshape, then
    swapaxes), matmul, mul by the scale, add each mask, softmax_rows, matmul,
    then the head merge.  Splitting in that order makes a tensor shared by
    q, k and v receive its gradients in the fused op's order: v, q, k."""
    b, tq, d = q.shape
    dh = d // n_heads

    def heads(x):
        return ad.swapaxes(ad.reshape(x, (x.shape[0], x.shape[1], n_heads, dh)), 1, 2)

    kh, qh, vh = heads(k), heads(q), heads(v)
    out = ad.mul(ad.matmul(qh, ad.swapaxes(kh, 2, 3)), Tensor(1.0 / np.sqrt(dh)))
    for m in masks:
        out = ad.add(out, Tensor(m))
    out = ad.matmul(reference.softmax_rows(out), vh)
    return ad.reshape(ad.swapaxes(out, 1, 2), (b, tq, d))


_HEADS = 2


def _attention_cases(kv_batch=3):
    # dh = tk, so identity values [tk x tk] per head fit the value width
    rng = np.random.default_rng(5)
    b, tq, tk, dh = 3, 4, 6, 6
    d = _HEADS * dh
    causal = np.triu(np.full((tq, tk), -np.inf), k=tk - tq + 1)
    keys = np.zeros((b, 1, 1, tk))
    keys[0, ..., 4:] = -np.inf
    keys[2, ..., 5:] = -np.inf
    qkv = (rng.normal(size=(b, tq, d)) * 1.5, rng.normal(size=(kv_batch, tk, d)) * 1.5,
           rng.normal(size=(kv_batch, tk, d)))
    upstream = rng.normal(size=(b, tq, d))
    return qkv, upstream, {"none": [], "causal": [causal], "keys": [keys],
                           "causal+keys": [causal, keys]}


def _combined(masks):
    combined = None
    for m in masks:
        combined = m if combined is None else combined + m
    return combined


def _run_attention(build, qkv, upstream, needs_grad=(True, True, True)):
    """Output and the q, k, v gradients of ``build(q, k, v)`` under a fixed
    upstream gradient."""
    q, k, v = (Tensor(a.copy(), requires_grad=r) for a, r in zip(qkv, needs_grad))
    out = build(q, k, v)
    ad.backward(ad.mul(out, Tensor(upstream)).sum())
    return [out.values, q.grad, k.grad, v.grad]


def _assert_same_bits(fused, ref):
    for a, r in zip(fused, ref):
        assert (a is None and r is None) or np.array_equal(a, r)


def _assert_matches_chain(build, qkv, upstream, masks, needs_grad=(True, True, True)):
    """``build`` against the unfused chain: the output bit for bit, the same
    parents given a gradient, and each gradient within ``_GRAD_RTOL``.  The
    replaced backward (``reference.attention``) still matches it bit for bit."""
    ref = _run_attention(lambda q, k, v: _chain_attention(q, k, v, _HEADS, masks),
                         qkv, upstream, needs_grad)
    replaced = _run_attention(
        lambda q, k, v: reference.attention(q, k, v, _HEADS, _combined(masks)),
        qkv, upstream, needs_grad)
    _assert_same_bits(replaced, ref)
    fused = _run_attention(build, qkv, upstream, needs_grad)
    assert np.array_equal(fused[0], ref[0])
    assert [g is None for g in fused[1:]] == [g is None for g in ref[1:]]
    for g, r in zip(fused[1:], ref[1:]):
        if r is not None:
            _assert_close(g, r)
    return fused


@pytest.mark.parametrize("case", ["none", "causal", "keys", "causal+keys"])
def test_attention_bitwise_equals_unfused_chain(case):
    qkv, upstream, cases = _attention_cases()
    masks = cases[case]
    _assert_matches_chain(lambda q, k, v: ad.attention(q, k, v, _HEADS, _combined(masks)),
                          qkv, upstream, masks)
    if masks:  # with identity values per head the output is the weights themselves
        b, tq, _ = qkv[0].shape
        tk = qkv[1].shape[1]
        eye = Tensor(np.broadcast_to(np.tile(np.eye(tk), _HEADS), (b, tk, _HEADS * tk)))
        out = ad.attention(Tensor(qkv[0]), Tensor(qkv[1]), eye, _HEADS, _combined(masks))
        weights = np.swapaxes(out.values.reshape(b, tq, _HEADS, tk), 1, 2)
        masked = np.isneginf(np.broadcast_to(_combined(masks), weights.shape))
        assert masked.any() and np.all(weights[masked] == 0.0)
        assert np.allclose(weights.sum(axis=-1), 1.0)


@pytest.mark.parametrize("needs_grad", [(True, False, False), (False, True, False),
                                        (False, False, True), (True, True, False)],
                         ids=["q", "k", "v", "q+k"])
def test_attention_grads_only_the_parents_that_need_one(needs_grad):
    qkv, upstream, cases = _attention_cases()
    masks = cases["causal+keys"]
    fused = _assert_matches_chain(
        lambda q, k, v: ad.attention(q, k, v, _HEADS, _combined(masks)),
        qkv, upstream, masks, needs_grad)
    assert [g is None for g in fused[1:]] == [not r for r in needs_grad]


def test_attention_broadcasts_batch_one_keys():
    # cached cross-attention: one encoding's keys [1 x Tk x d] serve every query row
    qkv, upstream, cases = _attention_cases(kv_batch=1)
    masks = cases["causal"]
    fused = _assert_matches_chain(
        lambda q, k, v: ad.attention(q, k, v, _HEADS, _combined(masks)), qkv, upstream, masks)
    assert fused[2].shape == qkv[1].shape and fused[3].shape == qkv[2].shape


def test_attention_shared_input_accumulates_in_chain_order():
    # one tensor as q, k and v gets its three contributions in the chain's
    # order: the replaced backward to the bit, the fused one to rounding
    qkv, upstream, _ = _attention_cases()
    causal = np.triu(np.full((4, 4), -np.inf), k=1)
    grads = []
    for build in (lambda x: _chain_attention(x, x, x, _HEADS, [causal]),
                  lambda x: reference.attention(x, x, x, _HEADS, causal),
                  lambda x: ad.attention(x, x, x, _HEADS, causal)):
        x0 = Tensor(qkv[0].copy(), requires_grad=True)
        x = reference.tanh(x0)
        ad.backward(ad.mul(build(x), Tensor(upstream)).sum())
        grads.append(x0.grad)
    assert np.array_equal(grads[0], grads[1])
    _assert_close(grads[2], grads[0])


def test_attention_rejects_mismatched_operands():
    q = np.zeros((3, 4, 10))
    kv = np.zeros((3, 6, 10))
    for bad_q, bad_k, bad_v, heads in ((q[0], kv, kv, 2), (q, kv[0], kv[0], 2),
                                       (q, kv[..., :8], kv[..., :8], 2), (q, kv[..., :8], kv, 2),
                                       (q, kv, kv[:, :5], 2), (q, kv[:2], kv[:2], 2),
                                       (q, kv, kv, 3), (q, kv, kv, 0)):
        with pytest.raises(ad.ShapeError):
            ad.attention(Tensor(bad_q), Tensor(bad_k), Tensor(bad_v), heads)


def test_single_query_attention_needs_no_causal_mask():
    rng = np.random.default_rng(6)
    b, h, tk, dh = 3, 2, 7, 4  # scale 1/sqrt(4) = 0.5
    q = rng.normal(size=(b, 1, h * dh))
    k = rng.normal(size=(b, tk, h * dh))
    v = rng.normal(size=(b, tk, h * dh))
    # scores of -5e-324 scale to -0.0: the sign a zero mask would flip
    q[0, 0, :dh] = [-5e-324, 0.0, 0.0, 0.0]  # row 0, head 0
    k[0, :3, :dh] = [1.0, 0.0, 0.0, 0.0]
    q[1, 0, dh:] = 0.0  # row 1, head 1
    scaled = (q[0, :, :dh] @ k[0, :, :dh].T) * 0.5
    assert np.signbit(scaled[0, :3]).all() and np.all(scaled[0, :3] == 0.0)
    upstream = rng.normal(size=(b, 1, h * dh))
    keys = np.zeros((b, 1, 1, tk))
    keys[2, ..., 5:] = -np.inf
    # the causal mask of one query over tk keys has no masked entry
    causal = np.triu(np.full((1, tk), -np.inf), k=tk)
    assert np.array_equal(causal, np.zeros((1, tk)))

    def run(mask):
        return _run_attention(lambda *qkv: ad.attention(*qkv, h, mask), (q, k, v), upstream)

    for masked, bare in ((causal, None), (causal + keys, keys)):
        _assert_same_bits(run(bare), run(masked))


def test_attention_no_grad_matches_and_builds_no_graph():
    qkv, _, cases = _attention_cases()
    mask = _combined(cases["causal+keys"])
    q, k, v = (Tensor(a, requires_grad=True) for a in qkv)
    copies = [a.copy() for a in qkv]
    ref = ad.attention(q, k, v, _HEADS, mask)
    with ad.no_grad():
        out = ad.attention(q, k, v, _HEADS, mask)
    assert out.parents == () and out.node is None and not out.requires_grad
    assert np.array_equal(out.values, ref.values)
    for t, a in zip((q, k, v), copies):  # no input is overwritten
        assert np.array_equal(t.values, a)


def _chain_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


@pytest.mark.parametrize("case", ["2d", "3d", "constant x", "shared x"])
def test_linear_bitwise_equals_unfused_chain(case):
    rng = np.random.default_rng(8)
    shape = (3, 5, 4) if case != "2d" else (5, 4)
    xv = rng.normal(size=shape)
    ws = [rng.normal(size=(4, 6)) for _ in range(3)]
    bs = [rng.normal(size=6) for _ in range(3)]
    upstream = rng.normal(size=shape[:-1] + (6,))
    uses = 3 if case == "shared x" else 1  # q, k and v read one input
    grads = []
    for build in (_chain_linear, ad.linear):
        x0 = Tensor(xv, requires_grad=case != "constant x")
        x = reference.tanh(x0) if case == "shared x" else x0  # an interior input
        w = [Tensor(a, requires_grad=True) for a in ws[:uses]]
        b = [Tensor(a, requires_grad=True) for a in bs[:uses]]
        outs = [build(x, wi, bi) for wi, bi in zip(w, b)]
        loss = outs[0]
        for o in outs[1:]:
            loss = ad.mul(loss, o)
        ad.backward(ad.mul(loss, Tensor(upstream)).sum())
        grads.append([outs[0].values, x0.grad] + [t.grad for t in w + b])
    ref, fused = grads
    if case == "constant x":
        assert ref[1] is None and fused[1] is None
        ref, fused = ref[:1] + ref[2:], fused[:1] + fused[2:]
    for a, r in zip(fused, ref):
        assert np.array_equal(a, r)


_FOLD_SHAPES = {"3d": (4, 7, 32), "2d": (7, 32), "one row each": (16, 1, 32),
                "sliced": (4, 14, 32), "transposed w": (4, 7, 32),
                "no batch rows": (0, 7, 32), "no time rows": (4, 0, 32)}


@pytest.mark.parametrize("case", list(_FOLD_SHAPES))
@pytest.mark.parametrize("op", ["matmul", "linear"])
def test_folded_products_match_per_example_reference(op, case):
    """One GEMM over all rows against the per-example GEMMs it replaced:
    weight and bias gradients keep their bits, the output and the input
    gradient their value, and a 2-D input its bits."""
    rng = np.random.default_rng(11)
    xv = rng.normal(size=_FOLD_SHAPES[case])
    if case == "sliced":  # a non-contiguous view
        xv = xv[:, ::2]
    wv = rng.normal(size=(24, 32)).T if case == "transposed w" else rng.normal(size=(32, 24))
    bv = rng.normal(size=24)
    upstream = rng.normal(size=xv.shape[:-1] + (24,))
    runs = []
    for fold in (True, False):
        x, w, b = (Tensor(a, requires_grad=True) for a in (xv, wv, bv))
        if op == "matmul":
            out = (ad.matmul if fold else reference.matmul)(x, w)
        else:
            out = (ad.linear if fold else reference.linear)(x, w, b)
        ad.backward(ad.mul(out, Tensor(upstream)).sum())
        runs.append((out.values, x.grad, w.grad, b.grad))
    (out, gx, gw, gb), (ref_out, ref_gx, ref_gw, ref_gb) = runs
    assert np.array_equal(gw, ref_gw) and (op == "matmul" or np.array_equal(gb, ref_gb))
    if case == "2d":
        assert np.array_equal(out, ref_out) and np.array_equal(gx, ref_gx)
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=0)
    np.testing.assert_allclose(gx, ref_gx, rtol=1e-12, atol=0)
    if case.startswith("no "):
        assert out.shape == xv.shape[:-1] + (24,) and gx.shape == xv.shape
        assert gw.shape == wv.shape and not gw.any()


@pytest.mark.parametrize("grad_shape, shape", [
    ((40, 9), (9,)), ((4, 25, 24), (24,)), ((16, 1, 64), (64,)), ((0, 5, 6), (6,)),
    ((3, 5, 1), (1,)), ((4, 3, 5), (3, 5)), ((4, 3, 5), (1, 3, 5)), ((4, 3, 5), (4, 1, 5))])
def test_vector_gradient_is_one_gemv_over_all_rows(grad_shape, shape):
    """A vector operand's leading rows collapse in one GEMV, within
    ``_GRAD_RTOL`` of numpy's sequential sum; any other operand keeps that
    sum's bits."""
    grad = np.random.default_rng(12).normal(size=grad_shape)
    got, ref = ad._unbroadcast(grad, shape), reference.unbroadcast(grad, shape)
    if len(shape) == 1:
        gemv = np.ones(grad.size // shape[0]) @ grad.reshape(-1, shape[0])
        assert np.array_equal(got, gemv)
        _assert_close(got, ref)
    else:
        assert np.array_equal(got, ref)


def test_linear_gradcheck_and_shapes():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
    tgt = rng.integers(0, 5, 6)

    def loss():
        return ad.cross_entropy_logits(ad.reshape(ad.linear(x, w, b), (6, 5)), tgt)

    for wrt in (x, w, b):
        assert ad.grad_check(loss, wrt) < 1e-4
    for bad_x, bad_w in (((4,), (4, 5)), ((3, 5), (4, 5)), ((3, 4), (2, 4, 5))):
        with pytest.raises(ad.ShapeError):
            ad.linear(Tensor(np.zeros(bad_x)), Tensor(np.zeros(bad_w)), b)


def test_linear_no_grad_returns_leaf():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    ref = _chain_linear(x, w, b)
    with ad.no_grad():
        out = ad.linear(x, w, b)
    assert out.parents == () and out.node is None and not out.requires_grad
    assert np.array_equal(out.values, ref.values)


def test_leaf_grads_are_owned_and_interior_grads_dropped():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    h = ad.add(a, b)
    loss = ad.sum_all(h)
    ad.backward(loss)
    assert h.grad is None and loss.grad is None
    assert not np.shares_memory(a.grad, b.grad)
    for t in (a, b):
        assert t.grad.flags.writeable and t.grad.flags.owndata
        assert np.array_equal(t.grad, [1.0, 1.0])
    a.grad += 1.0
    assert np.array_equal(b.grad, [1.0, 1.0])

    ad.backward(ad.sum_all(ad.add(a, a)))
    assert a.grad.flags.writeable and np.array_equal(a.grad, [2.0, 2.0])

    x = Tensor(np.ones((2, 3)), requires_grad=True)
    ad.backward(ad.sum_all(x))
    assert x.grad.flags.writeable and x.grad.flags.owndata
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_scatter_into_interior_grad_leaves_shared_buffers_alone():
    """``narrow_rows`` scatters into an interior node whose grad it adopted
    from a read-only view that a leaf's grad was copied from."""
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    c = Tensor(np.zeros((3, 2)), requires_grad=True)
    h = ad.reshape(x, (3, 2))
    top = ad.narrow_rows(h, 0, 2)
    loss = ad.add(ad.sum_all(top), ad.sum_all(ad.add(h, c)))
    ad.backward(loss)
    assert np.array_equal(c.grad, np.ones((3, 2)))
    assert np.array_equal(x.grad, [[2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])


def test_interior_accumulation_rebinds_instead_of_adding_in_place():
    """``add`` hands one buffer to both interior parents; a later
    contribution to one of them must not show up in the other."""
    x = Tensor(np.ones(3), requires_grad=True)
    w = Tensor(np.ones(3), requires_grad=True)
    h1 = ad.reshape(x, (3,))
    h2 = ad.reshape(w, (3,))
    e = ad.mul(h1, Tensor(5.0))
    y = ad.add(h1, h2)
    loss = ad.add(ad.mul(y, Tensor(np.ones(3))).sum(), e.sum())
    ad.backward(loss)
    assert np.array_equal(x.grad, [6.0, 6.0, 6.0])
    assert np.array_equal(w.grad, [1.0, 1.0, 1.0])


def _closure_holds_tensor(fn):
    """Whether a closure cell of ``fn``, or of a function in one, holds a
    ``Tensor``."""
    held = [cell.cell_contents for cell in fn.__closure__ or ()]
    return any(isinstance(h, Tensor) or (isinstance(h, types.FunctionType)
                                         and _closure_holds_tensor(h)) for h in held)


def test_no_closure_holds_a_tensor():
    # closures capture their parents' nodes and the arrays backward reads, so
    # an output no backward reads is freed once the model code drops it
    rng = np.random.default_rng(21)

    def leaf(*shape):
        return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)

    x3, x2, w, b, table = leaf(2, 3, 4), leaf(3, 4), leaf(4, 4), leaf(4), leaf(5, 4)
    q, k, v = leaf(2, 3, 4), leaf(2, 5, 4), leaf(2, 5, 4)
    outs = {
        "add": ad.add(x2, b), "mul": ad.mul(x2, x2), "matmul": ad.matmul(x3, w),
        "batched matmul": ad.matmul(x3, ad.swapaxes(x3, 1, 2)), "linear": ad.linear(x3, w, b),
        "reshape": ad.reshape(x2, (4, 3)), "swapaxes": ad.swapaxes(x3, 0, 2),
        "transpose": ad.transpose(x2), "concat": ad.concat([x2, table]),
        "narrow_rows": ad.narrow_rows(table, 1, 3), "gather_rows": ad.gather_rows(table, [[0, 4]]),
        "sum_all": ad.sum_all(x2), "gelu": ad.gelu(x2), "attention": ad.attention(q, k, v, 2),
        "layer_norm": ad.layer_norm(x3, b, b), "cross_entropy_logits":
            ad.cross_entropy_logits(x2, [0, 1, 3]), "squared_error": ad.squared_error(x2, x2),
        "stop_gradient": ad.stop_gradient(x2),
    }
    for name, out in outs.items():
        assert out.requires_grad, name
        fn = out.node.backward_fn
        assert (fn is None) == (name == "stop_gradient"), name
        assert fn is None or not _closure_holds_tensor(fn), name


def test_output_no_backward_reads_is_freed():
    rng = np.random.default_rng(22)
    av, bv, cv = (rng.uniform(-1, 1, 5) for _ in range(3))
    grads = []
    for keep in (True, False):
        a, b, c = (Tensor(v.copy(), requires_grad=True) for v in (av, bv, cv))
        h = ad.add(a, b)
        loss = ad.sum_all(ad.mul(ad.add(h, c), Tensor(cv)))
        if not keep:
            freed = weakref.ref(h.values)
            del h
            assert freed() is None  # while the loss and its graph are alive
        ad.backward(loss)
        grads.append([t.grad for t in (a, b, c)])
    for kept, dropped in zip(*grads):
        assert kept.tobytes() == dropped.tobytes()


# Large ops split their leading axis over two threads (``autodiff._split``).
# Forced on at every size, each kernel must give the bits of the whole call.
_EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _split_and_whole(run, min_rows=ad._MIN_ROWS):
    """``run()`` with every op split (folded products only where each half
    keeps ``min_rows`` rows), then with no op split."""
    with mock.patch.object(ad, "_SPLIT", 0), mock.patch.object(ad, "_MIN_ROWS", min_rows):
        split = run()
    with mock.patch.object(ad, "_SPLIT", math.inf):
        whole = run()
    return split, whole


def _assert_same_bits(split, whole):
    assert len(split) == len(whole)
    for a, b in zip(split, whole):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _split_attention_cases(draw):
    b, tq, tk = draw(st.integers(1, 7)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    heads, dh = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kb = draw(st.sampled_from([b, 1]))
    mask = draw(st.sampled_from([None, "2-D", "batch", "batch 1"]))
    needs = draw(st.sets(st.sampled_from("qkv"), min_size=1))
    shared = kb == b and tq == tk and draw(st.booleans())  # one tensor is q, k and v
    return b, tq, tk, heads, dh, kb, mask, needs, shared, draw(st.integers(0, 2**32 - 1))


@_EXACT
@given(_split_attention_cases())
def test_split_attention_bitwise_equals_whole(case):
    b, tq, tk, heads, dh, kb, mask_kind, needs, shared, seed = case
    rng = np.random.default_rng(seed)
    d = heads * dh
    qv, kv, vv = rng.normal(size=(b, tq, d)), rng.normal(size=(kb, tk, d)), rng.normal(size=(kb, tk, d))
    upstream = rng.normal(size=(b, tq, d))
    mask = None
    if mask_kind is not None:
        masked = rng.random({"2-D": (tq, tk), "batch": (b, 1, 1, tk),
                             "batch 1": (1, 1, 1, tk)}[mask_kind]) < 0.4
        masked[..., 0] = False  # every query sees a key
        mask = np.where(masked, -np.inf, 0.0)

    def run():
        if shared:
            q = k = v = Tensor(qv, requires_grad=True)
        else:
            q, k, v = (Tensor(x, requires_grad=name in needs)
                       for name, x in zip("qkv", (qv, kv, vv)))
        out = ad.attention(q, k, v, heads, mask)
        ad.backward(ad.mul(out, Tensor(upstream)).sum())
        return [out.values, q.grad, k.grad, v.grad]

    _assert_same_bits(*_split_and_whole(run))


_SHAPES = st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple)


@_EXACT
@given(_SHAPES, st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_split_gelu_and_layer_norm_bitwise_equal_whole(shape, scale, seed):
    rng = np.random.default_rng(seed)
    xv, upstream = scale * rng.normal(size=shape), rng.normal(size=shape)
    gain_v, bias_v = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])

    def run():
        x = Tensor(xv, requires_grad=True)
        gain, bias = Tensor(gain_v, requires_grad=True), Tensor(bias_v, requires_grad=True)
        g, n = ad.gelu(x), ad.layer_norm(x, gain, bias)
        ad.backward(ad.add(ad.mul(g, Tensor(upstream)).sum(), ad.mul(n, Tensor(upstream)).sum()))
        return [g.values, n.values, x.grad, gain.grad, bias.grad]

    _assert_same_bits(*_split_and_whole(run))


@_EXACT
@given(st.lists(st.integers(1, 7), min_size=2, max_size=3).map(tuple),
       st.integers(1, 8), st.integers(1, 8), st.sampled_from(["linear", "matmul"]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_split_weight_products_bitwise_equal_whole(lead, n, m, op, x_needs_grad, seed):
    # a folded GEMM cut into row blocks may round differently; the weight's
    # per-example products and their sum must not, wherever the batch is cut
    rng = np.random.default_rng(seed)
    xv, wv, bv = rng.normal(size=lead + (n,)), rng.normal(size=(n, m)), rng.normal(size=m)
    upstream = rng.normal(size=lead + (m,))

    def run():
        x = Tensor(xv, requires_grad=x_needs_grad)
        w, b = Tensor(wv, requires_grad=True), Tensor(bv, requires_grad=True)
        out = ad.linear(x, w, b) if op == "linear" else ad.matmul(x, w)
        ad.backward(ad.mul(out, Tensor(upstream)).sum())
        return [w.grad, b.grad]

    _assert_same_bits(*_split_and_whole(run, min_rows=0))
