"""Simple reference paths that the library's fast paths are tested against,
bit for bit.  Each one is the code its fast path replaced, or an op that only
tests use; none is called by the library."""

import numpy as np

from duvlg import autodiff as ad
from duvlg import decoding as dec
from duvlg.autodiff import Tensor, _accum, _op
from duvlg.model import SPECIALS, decode_forward_batch


def tanh(a: Tensor) -> Tensor:
    out_vals = np.tanh(a.values)

    def bw(g):
        _accum(a, g * (1.0 - out_vals * out_vals))

    return _op(out_vals, (a,), bw)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by row-max subtraction; the
    reference ``attention`` is tested against."""
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_vals = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out_vals).sum(axis=-1, keepdims=True)
        _accum(a, (g - dot) * out_vals)

    return _op(out_vals, (a,), bw)


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
