"""Large ops split over two threads give the bits of the whole op.

An op whose largest buffer reaches ``autodiff._SPLIT`` elements computes the
upper half of its leading axis on a worker thread.  Elementwise, per-row and
per-example kernels keep their bits wherever the axis is cut
(``test_autodiff.py`` checks them over many shapes); a folded GEMM cut into
two row blocks may round differently at some shapes.  This file pins the
default config's shapes with every op forced to split, and checks how the
worker's faults reach the caller.
"""

import math
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest

from duvlg import autodiff as ad
from duvlg import decoding as dec
from duvlg.cli import cli_dispatch
from duvlg.config import RunConfig, build_model
from duvlg.data import gen_dataset
from duvlg.objectives import TaskKind, build_task_batch, task_terms, total_loss


def _split_at(size, fn):
    with mock.patch.object(ad, "_SPLIT", size):
        return fn()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def setup():
    cfg = RunConfig(seed=3)
    model, vocab = build_model(cfg)
    examples = gen_dataset(cfg.batch_size, 5, model.codebook, cfg.grid_dims(), vocab)
    return cfg, model, examples


@pytest.mark.parametrize("kind", list(TaskKind))
def test_default_training_step_bits_do_not_depend_on_the_split(setup, kind):
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

    split, whole = _split_at(0, step), _split_at(math.inf, step)
    assert split.keys() == whole.keys()
    assert [name for name in split if not _same_bits(split[name], whole[name])] == []


def test_default_nucleus_samples_and_rerank_do_not_depend_on_the_split(setup):
    cfg, model, examples = setup
    caption = examples[0].caption

    def imagine():  # decoding.generate_image, keeping the token sequences
        rows, cols = cfg.grid_dims()
        tokens = dec.generate_image_tokens(model, caption, cfg, np.random.default_rng(13),
                                           rows * cols)
        images = [dec.decode_tokens(dec.unified_to_visual(seq[1:-1], model.cfg),
                                    model.codebook, (rows, cols)) for seq in tokens]
        best, scores = dec.rerank(model, caption, images)
        return tokens, best, scores

    split, whole = _split_at(0, imagine), _split_at(math.inf, imagine)
    assert len(split[0]) == cfg.n_samples == 16
    assert all(_same_bits(a, b) for a, b in zip(split[0], whole[0]))
    assert split[1] == whole[1] and _same_bits(split[2], whole[2])


def _overflowing_gelu():
    x = np.ones((2, 3))
    x[1] = 1e200  # only the worker's half (row 1) overflows
    return ad.gelu(ad.Tensor(x))


def test_worker_half_runs_under_the_callers_error_state():
    with mock.patch.object(ad, "_SPLIT", 0):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _overflowing_gelu()
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            _overflowing_gelu()
    assert seen == []


def test_worker_error_is_raised_in_the_caller_after_its_own_half():
    finished = []

    def kernel(lo, hi):
        if lo > 0:
            raise ValueError("upper half failed")
        time.sleep(0.05)  # the worker's half fails long before this ends
        finished.append((lo, hi))

    with pytest.raises(ValueError, match="upper half failed"):
        ad._split(kernel, 4)
    assert finished == [(0, 2)]

    # the worker keeps serving: the next split op gives the whole op's bits
    x = np.random.default_rng(0).normal(size=(3, 4, 5))
    split = _split_at(0, lambda: ad.gelu(ad.Tensor(x)).values)
    assert _same_bits(split, _split_at(math.inf, lambda: ad.gelu(ad.Tensor(x)).values))


def test_pretrain_reports_out_of_memory_in_the_workers_half(tmp_path, capsys):
    data = tmp_path / "pairs.tsv"
    assert cli_dispatch(["gen-data", "--out", str(data), "--n", "4"]) == 0
    row_mean = ad._row_mean

    def failing_row_mean(v):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 8.00 MiB for an array")
        return row_mean(v)

    capsys.readouterr()
    with mock.patch.object(ad, "_SPLIT", 0), mock.patch.object(ad, "_row_mean",
                                                               failing_row_mean):
        rc = cli_dispatch(["pretrain", "--data", str(data), "--steps", "1",
                           "--out", str(tmp_path / "m.ckpt"), "--set", "batch_size=4"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["error: out of memory: Unable to allocate 8.00 MiB for an array"]
