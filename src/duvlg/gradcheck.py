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

import numpy as np

from . import autodiff as ad
from .codec import ImageGrid, PatchFeaturizer, VisualCodebook
from .config import RunConfig
from .data import TextVocab
from .model import ModelConfig, N_SPECIALS, init_model
from .objectives import TaskKind, build_task_batch, loss_commitment, task_nll

AUDIT_TOLERANCE = 1e-4


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
    sg_blocked_params: tuple[str, ...] = ()


def _micro_example(cfg: ModelConfig, patch_size: int, seed: int):
    rng = np.random.default_rng(seed)
    image = ImageGrid(rng.uniform(0, 1, (patch_size, 3 * patch_size, 3)))  # 1x3 patches
    caption = rng.integers(N_SPECIALS, N_SPECIALS + cfg.text_vocab, size=4)

    class _Ex:
        pass

    ex = _Ex()
    ex.image = image
    ex.caption = caption
    return ex


def run_gradient_audit(h: float = 1e-5, seed: int = 0, beta: float = 1.0) -> list[LossAudit]:
    """Audit the task NLL of each kind plus beta * commitment on the micro config."""
    vocab = TextVocab()
    cfg = audit_model_config(vocab.size)
    patch_size = 4
    featurizer = PatchFeaturizer(patch_size, cfg.d_feat)
    codebook = VisualCodebook.build(cfg.visual_vocab, 6, patch_size)
    model = init_model(cfg, seed, featurizer=featurizer, codebook=codebook)
    examples = [_micro_example(cfg, patch_size, seed + i) for i in range(2)]
    corruption = RunConfig()  # the default mask rates and block and span shapes

    audits = []
    with ad.no_cyclic_gc():
        for kind in TaskKind:
            batch = build_task_batch(examples, kind, np.random.default_rng(seed),
                                     model, corruption)
            loss_fn = lambda: task_nll(batch, model)  # noqa: E731
            worst, worst_name = 0.0, ""
            for name, p in model.named_parameters():
                report = ad.grad_check(loss_fn, p, h)
                if report.max_rel_error > worst:
                    worst, worst_name = report.max_rel_error, name
            audits.append(LossAudit(loss_name=f"l_{kind.value}", max_rel_error=worst,
                                    worst_param=worst_name, passed=worst < AUDIT_TOLERANCE))

        # beta * commitment: patch_proj feeds only the stop-gradient operand
        batch = build_task_batch(examples, TaskKind.MT_T2I, np.random.default_rng(seed),
                                 model, corruption)
        com_fn = lambda: loss_commitment(batch, model) * beta  # noqa: E731
        sg_blocked = ("patch_proj",)
        worst, worst_name = 0.0, ""
        blocked_ok = True
        for name, p in model.named_parameters():
            if name in sg_blocked:
                p.zero_grad()
                ad.backward(com_fn())
                if p.grad is not None and np.abs(p.grad).any():
                    blocked_ok = False
                    worst, worst_name = np.inf, name
                continue
            report = ad.grad_check(com_fn, p, h)
            if report.max_rel_error > worst:
                worst, worst_name = report.max_rel_error, name
        audits.append(LossAudit(loss_name="beta*l_com", max_rel_error=worst,
                                worst_param=worst_name,
                                passed=blocked_ok and worst < AUDIT_TOLERANCE,
                                sg_blocked_params=sg_blocked))
    return audits
