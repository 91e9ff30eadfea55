"""Whole-model gradient audit: every trainable parameter of every loss is
checked against central finite differences on a micro configuration.

The commitment loss contains a stop-gradient: the function its backward
differentiates treats the projected patch features as constants.  Parameters
that appear only inside that operand (the patch projection) therefore have
an identically-zero reference derivative and are asserted exactly zero
instead of demanding fd agreement through the operand's forward value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .codec import ImageGrid, PatchFeaturizer, VisualCodebook
from .config import RunConfig
from .data import PairedExample, TextVocab
from .model import ModelConfig, N_SPECIALS, init_model
from .objectives import TaskKind, build_task_batch, loss_commitment, task_nll

AUDIT_TOLERANCE = 1e-4
AUDIT_SEED = 0  # the micro model's weights and the examples' pixels and masks


def audit_model_config(vocab_size: int) -> ModelConfig:
    return ModelConfig(d_model=8, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                       d_ff=16, text_vocab=vocab_size, visual_vocab=10,
                       max_text_len=6, max_patches=3, d_feat=4)


@dataclass
class LossAudit:
    loss_name: str
    max_rel_error: float
    worst_param: str
    passed: bool


def _micro_example(cfg: ModelConfig, patch_size: int, seed: int) -> PairedExample:
    rng = np.random.default_rng(seed)
    image = ImageGrid(rng.uniform(0, 1, (patch_size, 3 * patch_size, 3)))  # 1x3 patches
    caption = rng.integers(N_SPECIALS, cfg.first_visual_id, size=4)
    return PairedExample(image, caption, meta=())


def run_gradient_audit(beta: float = 1.0) -> list[LossAudit]:
    """Audit the task NLL of each kind plus beta * commitment on the micro config."""
    vocab = TextVocab()
    cfg = audit_model_config(vocab.size)
    patch_size = 4
    featurizer = PatchFeaturizer(patch_size, cfg.d_feat)
    codebook = VisualCodebook.build(cfg.visual_vocab, 6, patch_size)
    model = init_model(cfg, AUDIT_SEED, featurizer=featurizer, codebook=codebook)
    examples = [_micro_example(cfg, patch_size, AUDIT_SEED + i) for i in range(2)]
    corruption = RunConfig()  # the default mask rates and block and span shapes

    def audit(loss_name, loss_fn, blocked):
        """Worst fd error over every parameter; a ``blocked`` one must get exactly zero."""
        worst, worst_name = 0.0, ""
        for name, p in model.named_parameters():
            if name in blocked:
                p.zero_grad()
                ad.backward(loss_fn())
                error = np.inf if p.grad is not None and np.abs(p.grad).any() else 0.0
            else:
                error = ad.grad_check(loss_fn, p)
            if error > worst:
                worst, worst_name = error, name
        return LossAudit(loss_name=loss_name, max_rel_error=worst, worst_param=worst_name,
                         passed=worst < AUDIT_TOLERANCE)

    def batch(kind):
        return build_task_batch(examples, kind, np.random.default_rng(AUDIT_SEED), model, corruption)

    with ad.no_cyclic_gc():
        audits = [audit(f"l_{kind.value}", partial(task_nll, batch(kind), model), ())
                  for kind in TaskKind]
        # beta * commitment: patch_proj feeds only the stop-gradient operand
        com_batch = batch(TaskKind.MT_T2I)
        audits.append(audit("beta*l_com", lambda: loss_commitment(com_batch, model) * beta,
                            ("patch_proj",)))
    return audits
