"""One teacher-forced NLL for the four dual pre-training tasks, the
commitment loss, and loss mixing.

All losses are per-batch means over contributing positions.  The mixing rule
is  total = text + alpha * image,  image = dae_image + mt_image + beta * com,
text = dae_text + mt_text,  over whichever terms a step produced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codec import tokenize_image
from .config import RunConfig
from .corruption import blockwise_mask, span_infill
from .model import (SPECIALS, DuVlgModel, decode_forward_batch, encode_batch,
                    pad_ragged, visual_to_unified)


class TaskKind(enum.Enum):
    DAE_IMAGE = "dae_image"  # text-driven image inpainting
    DAE_TEXT = "dae_text"  # image-driven text infilling
    MT_CAPTION = "mt_caption"  # image -> text translation
    MT_T2I = "mt_t2i"  # text -> image translation


IMAGE_TARGET_KINDS = (TaskKind.DAE_IMAGE, TaskKind.MT_T2I)


@dataclass
class TaskBatch:
    """One homogeneous mini-batch: parallel per-example lists."""

    kind: TaskKind
    enc_text: list  # token ids or None per example
    enc_patches: list  # PatchSequence or None per example
    enc_patch_mask: list  # PatchMask or None per example
    targets: list  # unified ids with bracket prefix/suffix
    clean_features: list  # PatchSequence of the clean image (image-target kinds)
    clean_visual: list  # visual token ids without brackets (image-target kinds)

    def __len__(self):
        return len(self.targets)


def build_task_batch(examples, kind: TaskKind, rng: np.random.Generator,
                     model: DuVlgModel, cfg: RunConfig) -> TaskBatch:
    """Corrupt/arrange a list of paired examples for one task kind, with the
    mask rates and block and span shapes of ``cfg``."""
    if not examples:
        raise ValueError("empty example list")
    if model.featurizer is None or model.codebook is None:
        raise ValueError("model has no featurizer/codebook attached")
    enc_text, enc_patches, enc_mask = [], [], []
    targets, clean_feats, clean_vis = [], [], []

    for ex in examples:
        feats = model.featurizer.featurize_image(ex.image)
        if kind in IMAGE_TARGET_KINDS:
            vis = tokenize_image(ex.image, model.codebook)
            uni = visual_to_unified(vis, model.cfg)
            tgt = np.concatenate(([SPECIALS.boi], uni, [SPECIALS.eoi]))
            clean_feats.append(feats)
            clean_vis.append(vis)
        else:
            tgt = np.concatenate(([SPECIALS.bos], ex.caption, [SPECIALS.eos]))
            clean_feats.append(None)
            clean_vis.append(None)

        if kind is TaskKind.DAE_IMAGE:
            rows, cols = feats.grid_dims
            mask = blockwise_mask(rows, cols, cfg.image_mask_rate, rng,
                                  min_block=cfg.min_block, max_block=cfg.max_block,
                                  aspect_min=cfg.aspect_min)
            enc_text.append(ex.caption)
            enc_patches.append(feats)
            enc_mask.append(mask)
        elif kind is TaskKind.DAE_TEXT:
            corrupted = span_infill(ex.caption, cfg.text_mask_rate, cfg.span_lambda, rng,
                                    mask_id=SPECIALS.mask)
            enc_text.append(corrupted.corrupted)
            enc_patches.append(feats)
            enc_mask.append(None)
        elif kind is TaskKind.MT_CAPTION:
            enc_text.append(None)
            enc_patches.append(feats)
            enc_mask.append(None)
        else:  # MT_T2I
            enc_text.append(ex.caption)
            enc_patches.append(None)
            enc_mask.append(None)
        targets.append(tgt)

    return TaskBatch(kind=kind, enc_text=enc_text, enc_patches=enc_patches,
                     enc_patch_mask=enc_mask, targets=targets,
                     clean_features=clean_feats, clean_visual=clean_vis)


def task_nll(batch: TaskBatch, model: DuVlgModel) -> Tensor:
    """Teacher-forced NLL, averaged over all predicted positions: every task's loss."""
    padded, valid = pad_ragged(batch.targets, SPECIALS.pad)
    dec_in = padded[:, :-1]
    tgt_out = padded[:, 1:]
    keep = valid[:, 1:]
    enc, enc_valid = encode_batch(model, batch.enc_text, batch.enc_patches,
                                  batch.enc_patch_mask)
    logits = decode_forward_batch(model, dec_in, enc, enc_valid)
    b, t, v = logits.shape
    return ad.cross_entropy_logits(ad.reshape(logits, (b * t, v)),
                                   tgt_out.reshape(-1),
                                   ignore_mask=~keep.reshape(-1))


def loss_commitment(batch: TaskBatch, model: DuVlgModel) -> Tensor:
    """Squared distance between frozen projected clean-patch features and the
    decoder's visual token embeddings, averaged over patch positions.

    The projection side sits behind stop_gradient: only visual_embed_dec rows
    of tokens present in the batch receive gradient.  Brackets have no patch
    and are excluded.
    """
    if batch.kind not in IMAGE_TARGET_KINDS:
        raise ValueError(f"commitment loss undefined for {batch.kind}")
    feats = Tensor(np.stack([f.features.values for f in batch.clean_features]))
    proj = ad.stop_gradient(ad.matmul(feats, model.patch_proj))
    b, n, d = proj.shape
    emb = ad.gather_rows(model.visual_embed_dec, np.concatenate(batch.clean_visual))
    return ad.squared_error(ad.reshape(proj, (b * n, d)), emb)


# the loss-term name under which each task kind's NLL is reported
TERM_NAME = {TaskKind.DAE_IMAGE: "l_dae_image", TaskKind.DAE_TEXT: "l_dae_text",
             TaskKind.MT_CAPTION: "l_mt_text", TaskKind.MT_T2I: "l_mt_image"}


@dataclass
class LossBreakdown:
    l_dae_image: float = 0.0
    l_dae_text: float = 0.0
    l_mt_image: float = 0.0
    l_mt_text: float = 0.0
    l_com: float = 0.0
    l_image: float = 0.0
    l_text: float = 0.0
    l_total: float = 0.0
    present: frozenset = field(default_factory=frozenset)


_TERM_NAMES = (*TERM_NAME.values(), "l_com")


def total_loss(terms: dict, alpha: float, beta: float):
    """Compose present loss terms into the mixed training objective.

    ``terms`` maps a subset of {l_dae_image, l_dae_text, l_mt_image,
    l_mt_text, l_com} to scalar tensors.  Returns (loss tensor, breakdown).
    """
    unknown = set(terms) - set(_TERM_NAMES)
    if unknown:
        raise ValueError(f"unknown loss terms {sorted(unknown)}")
    if not terms:
        raise ValueError("no loss terms present")

    def get(name):
        return terms.get(name, Tensor(0.0))

    l_image = ad.add(ad.add(get("l_dae_image"), get("l_mt_image")), get("l_com") * beta)
    l_text = ad.add(get("l_dae_text"), get("l_mt_text"))
    l_tot = ad.add(l_text, l_image * alpha)
    breakdown = LossBreakdown(
        **{name: (terms[name].item() if name in terms else 0.0) for name in _TERM_NAMES},
        l_image=l_image.item(), l_text=l_text.item(), l_total=l_tot.item(),
        present=frozenset(terms),
    )
    return l_tot, breakdown


def task_terms(batch: TaskBatch, model: DuVlgModel, use_commitment: bool = True) -> dict:
    """Loss terms contributed by one homogeneous batch."""
    terms = {TERM_NAME[batch.kind]: task_nll(batch, model)}
    if use_commitment and batch.kind in IMAGE_TARGET_KINDS:
        terms["l_com"] = loss_commitment(batch, model)
    return terms


def sample_task(rng: np.random.Generator, p_dae: float,
                allow_image: bool = True, allow_text: bool = True) -> TaskKind:
    """Family by p_dae, then a fair coin between the family's directions;
    no coin is drawn when an ablation allows only one direction."""
    if not 0.0 <= p_dae <= 1.0:
        raise ValueError(f"p_dae must be in [0, 1], got {p_dae}")
    if not allow_image and not allow_text:
        raise ValueError("all task directions disabled")
    dae = rng.random() < p_dae
    image_target = (rng.random() < 0.5) if allow_image and allow_text else allow_image
    if dae:
        return TaskKind.DAE_IMAGE if image_target else TaskKind.DAE_TEXT
    return TaskKind.MT_T2I if image_target else TaskKind.MT_CAPTION
