"""Encoder-decoder transformer with hybrid image embeddings.

The encoder reads continuous patch features (through a learned projection)
next to text embeddings; the decoder consumes and produces a unified id
space over specials + text words + discrete visual tokens.  One tied table,
``embed``, holds a row per unified id: it embeds the encoder's text and the
decoder's input, and its rows are the generation head's weights.

Unified id layout: specials occupy [0, S), text words [S, S + V_t),
visual tokens [S + V_t, S + V_t + K); S + V_t is ``first_visual_id``.

There is one forward implementation, over batches: ``encode_batch`` and
``decode_forward_batch`` (``decoder_states``, then the tied ``head``);
``encode`` and ``decode_forward`` are its size-1 views.  Decoding steps the
same decoder incrementally through a ``DecoderCache`` built from the encoder
output: it projects each decoder layer's cross-attention keys and values
[B_enc x L x d] once, at construction, and keeps the self-attention keys and
values in preallocated float64 buffers [n_dec x B x capacity x d] whose
first ``length`` positions are filled; each decoder call writes its
positions and advances that one ``length``.  ``autodiff.attention`` splits
the heads as views of these buffers.  ``DecoderCache.reorder`` permutes the
self-attention rows when beam search keeps a hypothesis.

Parameter count (d = d_model, F = d_ff, S = 8 specials, D = max decoder
length = max(max_text_len, max_patches) + 2):

    (S + V_t + K) * d                      tied embedding table
  + d_feat * d + d                         patch projection + patch [MASK]
  + (max_text_len + max_patches + D) * d   positional tables
  + 2 * d                                  segment embeddings
  + n_enc * (4 d^2 + 2 d F + 9 d + F)      encoder layers
  + n_dec * (8 d^2 + 2 d F + 15 d + F)     decoder layers
  + 4 * d                                  final norms
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codec import PatchFeaturizer, VisualCodebook


@dataclass(frozen=True)
class SpecialTokens:
    bos: int = 0
    eos: int = 1
    pad: int = 2
    mask: int = 3
    imagepad: int = 4
    textpad: int = 5
    boi: int = 6
    eoi: int = 7

    @property
    def count(self) -> int:
        return 8


SPECIALS = SpecialTokens()
N_SPECIALS = SPECIALS.count


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    n_heads: int = 4
    d_ff: int = 128
    text_vocab: int = 17  # word tokens, excluding specials
    visual_vocab: int = 64
    max_text_len: int = 24
    max_patches: int = 64
    d_feat: int = 32

    def __post_init__(self):
        for name in ("d_model", "n_layers_enc", "n_layers_dec", "n_heads", "d_ff",
                     "text_vocab", "visual_vocab", "max_text_len", "max_patches", "d_feat"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def first_visual_id(self) -> int:
        return N_SPECIALS + self.text_vocab

    @property
    def head_size(self) -> int:
        return self.first_visual_id + self.visual_vocab

    @property
    def max_dec_len(self) -> int:
        return max(self.max_text_len, self.max_patches) + 2


def visual_to_unified(v, cfg: ModelConfig):
    return np.asarray(v, dtype=np.int64) + cfg.first_visual_id


def unified_to_visual(u, cfg: ModelConfig):
    return np.asarray(u, dtype=np.int64) - cfg.first_visual_id


def parameter_count(cfg: ModelConfig) -> int:
    """Closed form for the number of trainable scalars (see module docstring)."""
    d, f = cfg.d_model, cfg.d_ff
    per_enc = 4 * d * d + 2 * d * f + 9 * d + f
    per_dec = 8 * d * d + 2 * d * f + 15 * d + f
    return (cfg.head_size * d
            + cfg.d_feat * d + d
            + (cfg.max_text_len + cfg.max_patches + cfg.max_dec_len) * d
            + 2 * d
            + cfg.n_layers_enc * per_enc
            + cfg.n_layers_dec * per_dec
            + 4 * d)


class _Params:
    """Ordered parameter registry; names are stable across runs."""

    def __init__(self, rng: np.random.Generator, gain: float):
        self._rng = rng
        self._gain = gain
        self.table: dict[str, Tensor] = {}

    def uniform(self, name, *shape) -> Tensor:
        t = Tensor(self._rng.uniform(-self._gain, self._gain, shape), requires_grad=True)
        self.table[name] = t
        return t

    def ones(self, name, *shape) -> Tensor:
        t = Tensor(np.ones(shape), requires_grad=True)
        self.table[name] = t
        return t

    def zeros(self, name, *shape) -> Tensor:
        t = Tensor(np.zeros(shape), requires_grad=True)
        self.table[name] = t
        return t


@dataclass
class _Attention:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class _EncLayer:
    ln1_g: Tensor
    ln1_b: Tensor
    attn: _Attention
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class _DecLayer:
    ln1_g: Tensor
    ln1_b: Tensor
    self_attn: _Attention
    lnx_g: Tensor
    lnx_b: Tensor
    cross_attn: _Attention
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class DuVlgModel:
    cfg: ModelConfig
    params: dict[str, Tensor]
    embed: Tensor  # row i embeds unified id i
    patch_proj: Tensor
    mask_patch: Tensor
    enc_text_pos: Tensor
    enc_img_pos: Tensor
    dec_pos: Tensor
    seg_embed: Tensor  # row 0 = IMAGE segment, row 1 = TEXT segment
    enc_layers: list[_EncLayer]
    dec_layers: list[_DecLayer]
    enc_final_g: Tensor
    enc_final_b: Tensor
    dec_final_g: Tensor
    dec_final_b: Tensor
    featurizer: PatchFeaturizer | None = None
    codebook: VisualCodebook | None = None

    def named_parameters(self):
        return self.params.items()

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def _init_attention(p: _Params, prefix: str, d: int) -> _Attention:
    return _Attention(
        wq=p.uniform(f"{prefix}.wq", d, d), bq=p.zeros(f"{prefix}.bq", d),
        wk=p.uniform(f"{prefix}.wk", d, d), bk=p.zeros(f"{prefix}.bk", d),
        wv=p.uniform(f"{prefix}.wv", d, d), bv=p.zeros(f"{prefix}.bv", d),
        wo=p.uniform(f"{prefix}.wo", d, d), bo=p.zeros(f"{prefix}.bo", d),
    )


def init_model(cfg: ModelConfig, seed: int,
               featurizer: PatchFeaturizer | None = None,
               codebook: VisualCodebook | None = None) -> DuVlgModel:
    """Deterministic scaled-uniform initialization (gain 0.02)."""
    rng = np.random.default_rng(seed)
    p = _Params(rng, gain=0.02)
    d, f = cfg.d_model, cfg.d_ff

    embed = p.uniform("embed", cfg.head_size, d)
    patch_proj = p.uniform("patch_proj", cfg.d_feat, d)
    mask_patch = p.uniform("mask_patch", d)
    enc_text_pos = p.uniform("enc_text_pos", cfg.max_text_len, d)
    enc_img_pos = p.uniform("enc_img_pos", cfg.max_patches, d)
    dec_pos = p.uniform("dec_pos", cfg.max_dec_len, d)
    seg_embed = p.uniform("seg_embed", 2, d)

    enc_layers = []
    for i in range(cfg.n_layers_enc):
        pre = f"enc.{i}"
        enc_layers.append(_EncLayer(
            ln1_g=p.ones(f"{pre}.ln1.g", d), ln1_b=p.zeros(f"{pre}.ln1.b", d),
            attn=_init_attention(p, f"{pre}.attn", d),
            ln2_g=p.ones(f"{pre}.ln2.g", d), ln2_b=p.zeros(f"{pre}.ln2.b", d),
            w1=p.uniform(f"{pre}.ffn.w1", d, f), b1=p.zeros(f"{pre}.ffn.b1", f),
            w2=p.uniform(f"{pre}.ffn.w2", f, d), b2=p.zeros(f"{pre}.ffn.b2", d),
        ))
    dec_layers = []
    for i in range(cfg.n_layers_dec):
        pre = f"dec.{i}"
        dec_layers.append(_DecLayer(
            ln1_g=p.ones(f"{pre}.ln1.g", d), ln1_b=p.zeros(f"{pre}.ln1.b", d),
            self_attn=_init_attention(p, f"{pre}.self", d),
            lnx_g=p.ones(f"{pre}.lnx.g", d), lnx_b=p.zeros(f"{pre}.lnx.b", d),
            cross_attn=_init_attention(p, f"{pre}.cross", d),
            ln2_g=p.ones(f"{pre}.ln2.g", d), ln2_b=p.zeros(f"{pre}.ln2.b", d),
            w1=p.uniform(f"{pre}.ffn.w1", d, f), b1=p.zeros(f"{pre}.ffn.b1", f),
            w2=p.uniform(f"{pre}.ffn.w2", f, d), b2=p.zeros(f"{pre}.ffn.b2", d),
        ))

    model = DuVlgModel(
        cfg=cfg, params=p.table,
        embed=embed,
        patch_proj=patch_proj, mask_patch=mask_patch,
        enc_text_pos=enc_text_pos, enc_img_pos=enc_img_pos, dec_pos=dec_pos,
        seg_embed=seg_embed,
        enc_layers=enc_layers, dec_layers=dec_layers,
        enc_final_g=p.ones("enc.final.g", d), enc_final_b=p.zeros("enc.final.b", d),
        dec_final_g=p.ones("dec.final.g", d), dec_final_b=p.zeros("dec.final.b", d),
        featurizer=featurizer, codebook=codebook,
    )
    assert sum(t.size for t in p.table.values()) == parameter_count(cfg)
    return model


# ---------------------------------------------------------------------------
# forward passes


class DecoderCache:
    """Incremental state of ``decode_forward_batch`` over one encoding.

    Each decoder layer's cross-attention keys and values are projected here,
    once, from the encoder states [B_enc x L x d] and keep their batch size,
    so one encoding of [1 x L x d] serves every row.  Self-attention keys and
    values live in buffers [n_dec x B x capacity x d], allocated at the first
    step, whose first ``length`` positions are filled; ``length`` is the next
    position's index.  Build it under ``autodiff.no_grad``, or the cross
    projections hold a graph."""

    def __init__(self, model: DuVlgModel, enc_states: Tensor, capacity: int):
        if capacity > model.cfg.max_dec_len:
            raise ValueError(f"{capacity} decoder positions exceeds max decoder length "
                             f"{model.cfg.max_dec_len}")
        self.capacity = capacity
        self.length = 0
        self.k = self.v = None
        self.cross = [(ad.linear(enc_states, layer.cross_attn.wk, layer.cross_attn.bk),
                       ad.linear(enc_states, layer.cross_attn.wv, layer.cross_attn.bv))
                      for layer in model.dec_layers]

    def append(self, i: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write layer i's new keys and values [B x t x d] at positions
        ``length`` onward; returns all of that layer's keys and values."""
        end = self.length + k.shape[1]
        if self.k is None:
            self.k = np.empty((len(self.cross), k.shape[0], self.capacity, k.shape[2]))
            self.v = np.empty_like(self.k)
        self.k[i, :, self.length:end] = k.values
        self.v[i, :, self.length:end] = v.values
        return Tensor(self.k[i, :, :end]), Tensor(self.v[i, :, :end])

    def reorder(self, rows):
        """Make row i continue the history of old row ``rows[i]`` (beam
        search keeps surviving hypotheses this way)."""
        if self.k is not None:
            self.k, self.v = self.k[:, rows], self.v[:, rows]


def _ffn(x: Tensor, w1, b1, w2, b2) -> Tensor:
    return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)


def pad_ragged(seqs, pad_id: int):
    """Stack variable-length id sequences into [B x Lmax] plus a valid mask."""
    lens = [len(s) for s in seqs]
    lmax = max(lens)
    out = np.full((len(seqs), lmax), pad_id, dtype=np.int64)
    valid = np.zeros((len(seqs), lmax), dtype=bool)
    for i, s in enumerate(seqs):
        out[i, :lens[i]] = s
        valid[i, :lens[i]] = True
    return out, valid


def _key_add(valid: np.ndarray) -> np.ndarray | None:
    """Additive attention mask [B x 1 x 1 x L] from a [B x L] validity mask."""
    if valid.all():
        return None
    add = np.where(valid, 0.0, -np.inf)
    return add[:, None, None, :]


def _placeholder(model: DuVlgModel, token: int, b: int) -> Tensor:
    """A special token's embedding row tiled into [B x 1 x d] by a broadcast
    ``add`` of zeros, whose backward sums the B rows' gradients."""
    row = ad.gather_rows(model.embed, np.array([token]))
    return ad.add(ad.reshape(row, (1, 1, model.cfg.d_model)), Tensor(np.zeros((b, 1, 1))))


def encode_batch(model: DuVlgModel, text_ids: list | None, patches: list | None,
                 patch_masks: list | None) -> tuple[Tensor, np.ndarray]:
    """Batched encoder over per-example lists of token ids, [n_patches x
    d_feat] features and bool patch grids; ``None`` marks an input that no
    example of the batch has.  Each example is its image segment, then its
    text segment; a missing modality becomes a single placeholder embedding,
    and masked patches use the trainable [MASK] patch embedding.  Returns
    states [B x L x d] and a [B x L] mask of real (non-padding) positions;
    padding is excluded from attention.
    """
    cfg = model.cfg
    d = cfg.d_model
    if text_ids is None and patches is None:
        raise ValueError("encode needs at least one modality")
    b = len(patches if text_ids is None else text_ids)

    if patches is None:
        img, n = _placeholder(model, SPECIALS.imagepad, b), 1
    else:
        feats = np.stack(patches)  # refuses unequal patch counts
        n = feats.shape[1]
        if n > cfg.max_patches:
            raise ValueError(f"{n} patches exceeds max_patches {cfg.max_patches}")
        img = ad.matmul(Tensor(feats), model.patch_proj)
        if patch_masks is not None:
            m = np.stack(patch_masks).astype(np.float64).reshape(b, n, 1)
            mask_row = ad.reshape(model.mask_patch, (1, 1, d))
            img = ad.add(ad.mul(img, Tensor(1.0 - m)), ad.mul(mask_row, Tensor(m)))
    img_seg = ad.add(ad.add(img, ad.narrow_rows(model.enc_img_pos, 0, n)),
                     ad.narrow_rows(model.seg_embed, 0, 1))

    if text_ids is None:
        text, text_valid = _placeholder(model, SPECIALS.textpad, b), np.ones((b, 1), dtype=bool)
    else:
        lens = [len(t) for t in text_ids]
        if max(lens) > cfg.max_text_len:
            raise ValueError(f"{max(lens)} text tokens exceeds max_text_len {cfg.max_text_len}")
        if min(lens) == 0:
            raise ValueError("empty text; pass None for a missing modality")
        padded, text_valid = pad_ragged(text_ids, SPECIALS.pad)
        text = ad.gather_rows(model.embed, padded)
    text_seg = ad.add(ad.add(text, ad.narrow_rows(model.enc_text_pos, 0, text_valid.shape[1])),
                      ad.narrow_rows(model.seg_embed, 1, 2))

    valid = np.concatenate([np.ones((b, n), dtype=bool), text_valid], axis=1)
    key_add = _key_add(valid)
    x = ad.concat([img_seg, text_seg], axis=1)
    for layer in model.enc_layers:
        a, normed = layer.attn, ad.layer_norm(x, layer.ln1_g, layer.ln1_b)
        q, k, v = (ad.linear(normed, a.wq, a.bq), ad.linear(normed, a.wk, a.bk),
                   ad.linear(normed, a.wv, a.bv))
        x = ad.add(x, ad.linear(ad.attention(q, k, v, cfg.n_heads, key_add), a.wo, a.bo))
        f = _ffn(ad.layer_norm(x, layer.ln2_g, layer.ln2_b), layer.w1, layer.b1, layer.w2, layer.b2)
        x = ad.add(x, f)
    return ad.layer_norm(x, model.enc_final_g, model.enc_final_b), valid


def encode(model: DuVlgModel, text_ids=None, patches: np.ndarray | None = None,
           patch_mask: np.ndarray | None = None) -> Tensor:
    """``encode_batch`` of one example: states [L x d], image then text."""
    states, _ = encode_batch(model, *(None if x is None else [x]
                                      for x in (text_ids, patches, patch_mask)))
    return ad.reshape(states, states.shape[1:])


def decoder_states(model: DuVlgModel, targets: np.ndarray, enc_states: Tensor,
                   enc_valid: np.ndarray, cache: DecoderCache | None = None) -> Tensor:
    """Decoder states [B x T x d] over padded [B x T] unified targets, the
    input of the tied ``head``.

    Padding must be a suffix (it never precedes real tokens), so causal
    masking keeps real positions blind to it; padded rows produce states
    that callers must ignore.

    With a ``cache``, ``targets`` continue the sequences the cache has
    consumed (positions ``cache.length`` onward) and only they are computed;
    the cross-attention keys and values come from the cache, which projected
    them from these ``enc_states``.
    """
    cfg = model.cfg
    t = targets.shape[1]
    start = 0 if cache is None else cache.length
    if t == 0:
        raise ValueError("decode_forward needs a non-empty target prefix")
    if targets.min() < 0 or targets.max() >= cfg.head_size:
        raise ValueError(f"target id out of range for unified vocab {cfg.head_size}")
    if start + t > cfg.max_dec_len:
        raise ValueError(f"{start + t} targets exceeds max decoder length {cfg.max_dec_len}")
    if cache is not None and start + t > cache.capacity:
        raise ValueError(f"{start + t} positions exceeds decoder cache capacity {cache.capacity}")

    x = ad.add(ad.gather_rows(model.embed, targets), ad.narrow_rows(model.dec_pos, start, start + t))
    key_add = _key_add(enc_valid)
    # position start + j sees keys 0 .. start + j; a single query sees them all
    causal = None if t == 1 else np.triu(np.full((t, start + t), -np.inf), k=start + 1)
    for i, layer in enumerate(model.dec_layers):
        a, normed = layer.self_attn, ad.layer_norm(x, layer.ln1_g, layer.ln1_b)
        q, k, v = (ad.linear(normed, a.wq, a.bq), ad.linear(normed, a.wk, a.bk),
                   ad.linear(normed, a.wv, a.bv))
        if cache is not None:
            k, v = cache.append(i, k, v)
        x = ad.add(x, ad.linear(ad.attention(q, k, v, cfg.n_heads, causal), a.wo, a.bo))
        a = layer.cross_attn
        q = ad.linear(ad.layer_norm(x, layer.lnx_g, layer.lnx_b), a.wq, a.bq)
        k, v = cache.cross[i] if cache is not None else (ad.linear(enc_states, a.wk, a.bk),
                                                          ad.linear(enc_states, a.wv, a.bv))
        x = ad.add(x, ad.linear(ad.attention(q, k, v, cfg.n_heads, key_add), a.wo, a.bo))
        f = _ffn(ad.layer_norm(x, layer.ln2_g, layer.ln2_b), layer.w1, layer.b1, layer.w2, layer.b2)
        x = ad.add(x, f)
    if cache is not None:
        cache.length += t
    return ad.layer_norm(x, model.dec_final_g, model.dec_final_b)


def head_block(states: Tensor, rows: Tensor) -> Tensor:
    """Logits [B x T x len(rows)] against a block of rows of the tied table;
    their bits do not depend on the other rows."""
    return ad.matmul(states, ad.transpose(rows))


def head(model: DuVlgModel, states: Tensor) -> Tensor:
    """Logits [B x T x (S + V_t + K)] over the unified id space, as a text
    block (specials and words) and a visual block of the tied ``embed``."""
    split = model.cfg.first_visual_id
    return ad.concat([head_block(states, ad.narrow_rows(model.embed, 0, split)),
                      head_block(states, ad.narrow_rows(model.embed, split, model.cfg.head_size))],
                     axis=2)


def decode_forward_batch(model: DuVlgModel, targets: np.ndarray, enc_states: Tensor,
                         enc_valid: np.ndarray, cache: DecoderCache | None = None) -> Tensor:
    """Teacher-forced decoder over padded [B x T] unified targets; returns
    logits [B x T x (S + V_t + K)], the ``head`` of ``decoder_states``
    (which gives the padding and ``cache`` rules)."""
    return head(model, decoder_states(model, targets, enc_states, enc_valid, cache))


def decode_forward(model: DuVlgModel, targets, enc_states: Tensor) -> Tensor:
    """``decode_forward_batch`` of one example: targets [T], encoder states
    [L x d]; returns logits [T x (S + V_t + K)]."""
    ids = np.asarray(targets, dtype=np.int64).reshape(1, -1)
    logits = decode_forward_batch(model, ids, ad.reshape(enc_states, (1,) + enc_states.shape),
                                  np.ones((1, enc_states.shape[0]), dtype=bool))
    return ad.reshape(logits, logits.shape[1:])
