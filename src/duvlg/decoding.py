"""Decoding protocols: beam search, nucleus and top-k sampling, bracketed
image generation, and cycle-consistency reranking.

Sequence scores are sums of step log-probabilities over emitted tokens
(including the terminating end token when one is produced), normalized by
emitted length ** length_norm.  Ties break toward the lexicographically
smallest token sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codec import ImageGrid, decode_tokens
# decode_forward is unused here but stays importable: the benchmark's tracer
# (perfbench/tracer.py) wraps decoding.decode_forward
from .model import (N_SPECIALS, SPECIALS, DecoderCache, DuVlgModel, decode_forward,  # noqa: F401
                    decode_forward_batch, decoder_states, encode, encode_batch, head, head_block,
                    unified_to_visual)

_STRATEGIES = ("greedy", "beam", "nucleus", "topk")


@dataclass(frozen=True)
class DecodeConfig:
    strategy: str = "beam"
    beam_size: int = 5
    top_p: float = 0.9
    k: int = 50
    n_samples: int = 16
    max_len: int = 24
    temperature: float = 1.0
    modality: str = "text"  # restricts emittable ids: "text" or "image"
    length_norm: float = 1.0

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.beam_size < 1 or self.k < 1 or self.n_samples < 1 or self.max_len < 1:
            raise ValueError("beam_size, k, n_samples, max_len must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError("temperature must be finite and positive")
        if not math.isfinite(self.length_norm):
            raise ValueError("length_norm must be finite")
        if self.modality not in ("text", "image"):
            raise ValueError(f"unknown modality {self.modality!r}")


def allowed_ids(model: DuVlgModel, modality: str) -> np.ndarray:
    """Unified ids a decoder may emit under a modality restriction
    (excluding stop tokens, which the search handles itself)."""
    cfg = model.cfg
    if modality == "text":
        return np.arange(N_SPECIALS, cfg.first_visual_id)
    return np.arange(cfg.first_visual_id, cfg.head_size)


def check_text_len(model: DuVlgModel, cfg: DecodeConfig):
    """A caption of max_len tokens plus its start token must fit the decoder,
    so that every caption decoded can also be scored by ``caption_scores``."""
    if cfg.max_len + 1 > model.cfg.max_dec_len:
        raise ValueError(f"max_len {cfg.max_len} needs {cfg.max_len + 1} decoder positions; "
                         f"max decoder length is {model.cfg.max_dec_len}")


def _start(model: DuVlgModel, enc_states: Tensor, capacity: int):
    """Encoder states [L x d] as a batch of one, their validity mask, and an
    empty cache projected from them (call it under ``no_grad``)."""
    enc = ad.reshape(enc_states, (1,) + enc_states.shape)
    return enc, np.ones((1, enc_states.shape[0]), dtype=bool), DecoderCache(model, enc, capacity)


def _step_logprobs(model, enc, enc_valid, cache, tokens, candidate_ids,
                   temperature) -> np.ndarray:
    """Feed one token per row through the cached decoder; returns log-probs
    [rows x len(candidate_ids)], each row renormalized to that support.
    Only the head block of the tied table's text or visual rows is computed
    when it holds every candidate (the full head when they mix).
    Raises ``ValueError`` if any of them is not finite, before the caller
    draws a token or ranks a hypothesis."""
    step = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
    states = decoder_states(model, step, enc, enc_valid, cache)
    split = model.cfg.first_visual_id
    if candidate_ids.max() < split:
        logits = head_block(states, Tensor(model.embed.values[:split]))
    elif candidate_ids.min() >= split:
        logits = head_block(states, Tensor(model.embed.values[split:]))
        candidate_ids = candidate_ids - split
    else:
        logits = head(model, states)
    rows = logits.values[:, -1, candidate_ids] / temperature
    rows = rows - rows.max(axis=1, keepdims=True)
    lp = rows - np.log(np.exp(rows).sum(axis=1, keepdims=True))
    if not np.isfinite(lp).all():
        raise ValueError("decoder log-probabilities are not all finite")
    return lp


def beam_search(model: DuVlgModel, enc_states, cfg: DecodeConfig):
    """Length-normalized beam search; returns (token ids, normalized score).

    Returned ids are content tokens (no start/stop).  beam_size=1 is greedy.
    All live hypotheses advance as one cached batch step.  They are the rows
    of an int array in lexicographic order, all of one length, so a flat
    index into the [rows x words] pool of extensions orders them by tokens:
    a stable sort of the negated scores ranks the pool by ``(-score,
    tokens)``, and sorting the kept flat indices keeps the rows in order.
    Each step keeps only its best finished hypothesis.
    """
    eos = SPECIALS.eos if cfg.modality == "text" else SPECIALS.eoi
    bos = SPECIALS.bos if cfg.modality == "text" else SPECIALS.boi
    content = allowed_ids(model, cfg.modality)
    candidates = np.concatenate(([eos], content))

    hyps = np.empty((1, 0), dtype=np.int64)
    totals = np.zeros(1)
    last = [bos]  # each hypothesis's newest token, fed at the next step
    best = []  # (-normalized score, tokens) of each step's best finished hypothesis

    def finish(scores):  # of equal scores, the first row has the smallest tokens
        row = int(np.argmax(scores))
        best.append((-scores[row], hyps[row].tolist()))

    with ad.no_grad():
        enc, enc_valid, cache = _start(model, enc_states, cfg.max_len)
        for length in range(cfg.max_len):
            lp = _step_logprobs(model, enc, enc_valid, cache, last, candidates, cfg.temperature)
            finish((totals + lp[:, 0]) / (length + 1)**cfg.length_norm)
            pool = totals[:, None] + lp[:, 1:]
            kept = np.sort(np.argsort(-pool, axis=None, kind="stable")[:cfg.beam_size])
            rows, words = np.divmod(kept, len(content))
            cache.reorder(rows)
            last = content[words]
            hyps = np.column_stack((hyps[rows], last))
            totals = pool.reshape(-1)[kept]
    finish(totals / cfg.max_len**cfg.length_norm)
    neg_score, tokens = min(best)
    return np.asarray(tokens, dtype=np.int64), float(-neg_score)


def nucleus_filter(probs: np.ndarray, top_p: float):
    """Smallest probability-sorted prefix with cumulative mass >= top_p.
    Returns (indices into probs, renormalized probabilities).  The per-row
    reference that ``_pick`` is tested against."""
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[order])
    cut = int(np.searchsorted(cum, top_p, side="left"))
    cut = min(cut, probs.size - 1)
    support = order[:cut + 1]
    mass = probs[support]
    return support, mass / mass.sum()


def top_k_filter(probs: np.ndarray, k: int):
    """The k highest-probability entries (stable: ties keep lower indices);
    the per-row reference for ``_pick``'s top-k cut."""
    order = np.argsort(-probs, kind="stable")[:min(k, probs.size)]
    mass = probs[order]
    return order, mass / mass.sum()


def _support_mass(ranked: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Each row's sum of its first ``kept[r]`` entries, one ``sum(axis=1)``
    over the rows of each support size: bitwise the 1-D sum of each row's
    support (a zero-padded sum would regroup numpy's pairwise summation)."""
    mass = np.empty(len(kept))
    for n in set(kept.tolist()):  # np.unique's first call maps ~1.5 MB of RSS
        sel = kept == n
        mass[sel] = ranked[sel, :n].sum(axis=1)
    return mass


def _pick(lp: np.ndarray, cfg: DecodeConfig, rngs) -> np.ndarray:
    """One index into the candidate vector per row of log-probs [rows x C].

    Sampling keeps each row's nucleus or top-k support (as ``nucleus_filter``
    or ``top_k_filter`` would), draws exactly one ``rngs[r].random()`` per
    row in row order, and returns what ``rngs[r].choice(support, p=renorm)``
    would: the first support entry whose normalized cumulative mass exceeds
    the draw.  Each support's mass is summed over exactly its entries
    (``_support_mass``), so the bits match the per-row reference."""
    if cfg.strategy == "greedy":
        return np.argmax(lp, axis=1)
    if cfg.strategy not in ("nucleus", "topk"):
        raise ValueError(f"strategy {cfg.strategy!r} is not a sampling strategy")
    rows, size = lp.shape
    probs = np.exp(lp)
    probs /= probs.sum(axis=1, keepdims=True)
    order = np.argsort(-probs, axis=1, kind="stable")
    index = np.arange(rows)
    ranked = probs[index[:, None], order]
    if cfg.strategy == "nucleus":
        kept = np.minimum((np.cumsum(ranked, axis=1) < cfg.top_p).sum(axis=1) + 1, size)
    else:
        kept = np.full(rows, min(cfg.k, size))
    renorm = ranked / _support_mass(ranked, kept)[:, None]
    renorm[np.arange(size) >= kept[:, None]] = 0.0
    cdf = np.cumsum(renorm, axis=1)
    cdf /= cdf[index, kept - 1][:, None]
    draws = np.array([rng.random() for rng in rngs])
    # past the support cdf is exactly 1.0, above every draw
    return order[index, (cdf <= draws[:, None]).sum(axis=1)]


def _sample(model, enc_states, cfg: DecodeConfig, rngs, first: int, candidates,
            steps: int, stop: int | None = None) -> np.ndarray:
    """Sequences [rows x (1 + sampled)] of the start token ``first`` and up
    to ``steps`` tokens drawn from ``candidates``, one row per rng.  All rows
    advance as one cached batch step and one batched ``_pick``; row r draws
    from its own ``rngs[r]``.  ``stop`` is for a single row: sampling ends,
    without emitting it, when that row draws it."""
    columns = [np.full(len(rngs), first, dtype=np.int64)]
    with ad.no_grad():
        enc, enc_valid, cache = _start(model, enc_states, steps)
        for _ in range(steps):
            lp = _step_logprobs(model, enc, enc_valid, cache, columns[-1], candidates,
                                cfg.temperature)
            picked = candidates[_pick(lp, cfg, rngs)]
            if picked[0] == stop:
                break
            columns.append(picked)
    return np.stack(columns, axis=1)


def generate_image_tokens(model: DuVlgModel, caption, cfg: DecodeConfig, rng,
                          n_patches: int) -> list[np.ndarray]:
    """n_samples bracketed unified sequences [BOI] v1..vn [EOI]; the head is
    restricted to visual tokens for exactly n_patches steps, then [EOI] is
    forced.  Each sample draws from its own spawned rng stream."""
    if cfg.strategy == "beam":
        raise ValueError("image sampling uses greedy/nucleus/topk, not beam")
    if n_patches > model.cfg.max_patches:
        raise ValueError(f"{n_patches} patches exceeds max_patches {model.cfg.max_patches}")
    children = rng.spawn(cfg.n_samples)
    with ad.no_grad():
        enc = encode(model, text_ids=caption)
    seqs = _sample(model, enc, cfg, children, SPECIALS.boi, allowed_ids(model, "image"),
                   n_patches)
    return list(np.column_stack((seqs, np.full(cfg.n_samples, SPECIALS.eoi))))


def generate_image(model: DuVlgModel, caption, cfg: DecodeConfig, rng,
                   grid_dims: tuple[int, int]) -> list[ImageGrid]:
    rows, cols = grid_dims
    sequences = generate_image_tokens(model, caption, cfg, rng, rows * cols)
    return [decode_tokens(unified_to_visual(seq[1:-1], model.cfg), model.codebook, grid_dims)
            for seq in sequences]


# Candidates per teacher-forced scoring pass.  A pass holds [B x h x L x L]
# encoder attention scores, so all 16 candidates at once would dominate the
# process's peak memory; 4 keep it below that of sampling.
_RERANK_BATCH = 4


def caption_scores(model: DuVlgModel, caption, images) -> list[float]:
    """Teacher-forced log-likelihood of the caption given each image alone
    (the negated caption NLL), in batches of _RERANK_BATCH images."""
    tgt = np.concatenate(([SPECIALS.bos], np.asarray(caption, dtype=np.int64), [SPECIALS.eos]))
    scores = []
    with ad.no_grad():
        for lo in range(0, len(images), _RERANK_BATCH):
            feats = [model.featurizer.featurize_image(img) for img in images[lo:lo + _RERANK_BATCH]]
            enc, enc_valid = encode_batch(model, None, feats, None)
            logits = decode_forward_batch(model, np.tile(tgt[:-1], (len(feats), 1)), enc, enc_valid)
            scores += [-ad.cross_entropy_logits(Tensor(row), tgt[1:]).item()
                       for row in logits.values]
    return scores


def caption_nll(model: DuVlgModel, image: ImageGrid, caption) -> float:
    """Teacher-forced NLL of a caption given only the image."""
    return -caption_scores(model, caption, [image])[0]


def rerank(model: DuVlgModel, caption, images) -> tuple[int, list[float]]:
    """Pick the candidate whose caption NLL is lowest (cycle consistency).
    Returns (index of best image, per-image scores); ties keep the first."""
    if not images:
        raise ValueError("rerank needs at least one candidate image")
    scores = caption_scores(model, caption, images)
    if not np.isfinite(scores).all():
        raise ValueError(f"rerank scores are not all finite: {scores}")
    return int(np.argmax(scores)), scores


def caption_image(model: DuVlgModel, image: ImageGrid, cfg: DecodeConfig,
                  rng=None) -> np.ndarray:
    """Decode a caption for an image with the configured strategy."""
    check_text_len(model, cfg)
    if cfg.strategy not in ("beam", "greedy") and rng is None:
        raise ValueError("sampling strategies need an rng")
    with ad.no_grad():
        enc = encode(model, patches=model.featurizer.featurize_image(image))
    if cfg.strategy in ("beam", "greedy"):
        size = 1 if cfg.strategy == "greedy" else cfg.beam_size
        tokens, _ = beam_search(model, enc, replace(cfg, strategy="beam", beam_size=size, modality="text"))
        return tokens
    candidates = np.concatenate(([SPECIALS.eos], allowed_ids(model, "text")))
    return _sample(model, enc, cfg, [rng], SPECIALS.bos, candidates, cfg.max_len,
                   stop=SPECIALS.eos)[0, 1:]
