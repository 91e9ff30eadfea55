"""Training and decoding give the same bits at 1 and at 2 BLAS threads.

The forward products and input gradients of ``matmul`` and ``linear`` are one
GEMM over all rows, and a vector operand's gradient and ``layer_norm``'s
backward row means are one GEMV over all rows.  OpenBLAS may split either
across threads (a GEMV once it passes about 9k elements); their bits must not
depend on how many it uses.  The thread count is switched in-process through
numpy's bundled OpenBLAS, and the test skips where that library or its setter
is absent.  It pins the default config's shapes, and one GEMV shape larger
than any of them, not every shape.
"""

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy as np
import pytest

from duvlg import autodiff as ad
from duvlg import decoding as dec
from duvlg.config import RunConfig, build_model
from duvlg.data import gen_dataset
from duvlg.model import SPECIALS, decode_forward_batch, encode
from duvlg.objectives import TaskKind, build_task_batch, task_terms, total_loss


def _openblas():
    """numpy's bundled OpenBLAS as (set, get) of its thread count, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)  # the copy numpy already loaded
        try:
            set_n, get_n = (lib.scipy_openblas_set_num_threads64_,
                            lib.scipy_openblas_get_num_threads64_)
        except AttributeError:
            continue
        set_n.argtypes, set_n.restype = (ctypes.c_int,), None
        get_n.argtypes, get_n.restype = (), ctypes.c_int
        return set_n, get_n
    return None


@pytest.fixture(scope="module")
def at_threads():
    """``at_threads(n, fn)`` runs ``fn()`` with n BLAS threads (n is 1 or 2)
    and restores the count it found."""
    blas = _openblas()
    if blas is None:
        pytest.skip("numpy's OpenBLAS thread setter is not available")
    set_n, get_n = blas

    def run(n, fn):
        assert n in (1, 2)
        before = get_n()
        try:
            set_n(n)
            if get_n() != n:
                pytest.skip(f"OpenBLAS did not switch to {n} threads")
            return fn()
        finally:
            set_n(before)

    return run


@pytest.fixture(scope="module")
def setup():
    cfg = RunConfig(seed=3)
    model, vocab = build_model(cfg)
    examples = gen_dataset(cfg.batch_size, 5, model.codebook, cfg.grid_dims(), vocab)
    return cfg, model, examples


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(TaskKind))
def test_training_step_bits_do_not_depend_on_blas_threads(at_threads, setup, kind):
    cfg, model, examples = setup
    batch = build_task_batch(examples, kind, np.random.default_rng(1), model, cfg)

    def step():
        terms = task_terms(batch, model)
        loss, _ = total_loss(terms, alpha=cfg.alpha, beta=cfg.beta)
        model.zero_grad()
        ad.backward(loss)
        out = {name: t.values.copy() for name, t in terms.items()}
        out.update((name, p.grad.copy()) for name, p in model.named_parameters()
                   if p.grad is not None)  # None: outside this task's graph
        return out

    one, two = at_threads(1, step), at_threads(2, step)
    assert one.keys() == two.keys()
    assert all(_same_bits(one[name], two[name]) for name in one)


def test_cached_decoding_step_bits_do_not_depend_on_blas_threads(at_threads, setup):
    cfg, model, examples = setup
    rng = np.random.default_rng(2)
    visual = dec.allowed_ids(model, "image")
    tokens = [np.full((16, 1), SPECIALS.boi), rng.choice(visual, size=(16, 1))]

    def steps():
        with ad.no_grad():
            enc, enc_valid, cache = dec._start(model, encode(model, examples[0].caption), 4)
            return [decode_forward_batch(model, t, enc, enc_valid, cache).values
                    for t in tokens]

    one, two = at_threads(1, steps), at_threads(2, steps)
    assert all(_same_bits(a, b) for a, b in zip(one, two))


def test_vector_gradient_gemvs_do_not_depend_on_blas_threads(at_threads):
    # [16 x 128 x 64]: 2,048 rows of 64, well past the size OpenBLAS splits
    rng = np.random.default_rng(4)
    xv, upstream = rng.normal(size=(16, 128, 64)), rng.normal(size=(16, 128, 64))
    wv, bv, gain_v = rng.normal(size=(64, 64)), rng.normal(size=64), rng.normal(size=64)

    def grads():
        x, w, b = (ad.Tensor(a, requires_grad=True) for a in (xv, wv, bv))
        gain, bias = ad.Tensor(gain_v, requires_grad=True), ad.Tensor(bv, requires_grad=True)
        out = ad.layer_norm(ad.linear(x, w, b), gain, bias)
        ad.backward(ad.mul(out, ad.Tensor(upstream)).sum())
        return [t.grad.copy() for t in (x, w, b, gain, bias)]

    one, two = at_threads(1, grads), at_threads(2, grads)
    assert all(_same_bits(a, c) for a, c in zip(one, two))
