"""Adam with global-norm gradient clipping, and the training loops."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .model import DuVlgModel
from .objectives import (LossBreakdown, TaskKind, build_task_batch, sample_task, task_nll,
                         task_terms, total_loss)

# the config key of each fine-tuning task's learning rate
_FINETUNE_LR_KEY = {TaskKind.MT_CAPTION: "caption_lr", TaskKind.MT_T2I: "t2i_lr"}


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient or the global gradient norm is NaN or infinity."""


class NonFiniteLossError(RuntimeError):
    """A training step's loss term or total is NaN or infinity."""


@dataclass
class OptimState:
    """Adam's hyperparameters (from ``make_optimizer`` or a checkpoint) and moments."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    clip_norm: float
    step_count: int = 0
    m: dict = field(default_factory=dict)  # param name -> first moment
    v: dict = field(default_factory=dict)  # param name -> second moment


def adam_step(model: DuVlgModel, state: OptimState) -> float:
    """Clip the global gradient norm, then apply a bias-corrected Adam update.

    Returns the pre-clip global norm.  Parameters whose grad is unset are
    treated as zero-gradient.  A non-finite gradient or global norm (a finite
    gradient whose square overflows) raises before any moment or parameter
    changes.
    """
    grads = {}
    sq_sum = 0.0
    for name, p in model.named_parameters():
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(
                f"non-finite gradient in {name!r} at step {state.step_count}")
        grads[name] = g
        sq_sum += float((g * g).sum())
    norm = float(np.sqrt(sq_sum))
    if not math.isfinite(norm):
        raise NonFiniteGradientError(
            f"non-finite global gradient norm at step {state.step_count}")

    scale = 1.0
    if state.clip_norm > 0 and norm > state.clip_norm:
        scale = state.clip_norm / norm

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in model.named_parameters():
        g = grads[name] * scale
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.values)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.values)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.values -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return norm


@dataclass
class StepRecord:
    step: int
    task: TaskKind
    breakdown: LossBreakdown
    grad_norm: float


def format_log_line(rec: StepRecord) -> str:
    b = rec.breakdown
    vals = (b.l_total, b.l_text, b.l_image, b.l_com, rec.grad_norm)
    return "\t".join([str(rec.step), rec.task.value] + [f"{v:.17g}" for v in vals])


LOG_HEADER = "step\ttask\tl_total\tl_text\tl_image\tl_com\tgrad_norm"


def make_optimizer(cfg: RunConfig, task: TaskKind | None = None) -> OptimState:
    """Fresh Adam state at the lr of pre-training (``task`` None: ``cfg.lr``)
    or of fine-tuning on ``task`` (``cfg.caption_lr`` or ``cfg.t2i_lr``)."""
    lr = cfg.lr if task is None else getattr(cfg, _FINETUNE_LR_KEY[task])
    return OptimState(lr=lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps,
                      clip_norm=cfg.clip_norm)


def _train_step(model, optim, batch, cfg: RunConfig, alpha: float) -> tuple[LossBreakdown, float]:
    terms = task_terms(batch, model, use_commitment=cfg.use_commitment)
    loss, breakdown = total_loss(terms, alpha=alpha, beta=cfg.beta)
    # refuse before backward, so the error names the term and nothing moves
    for name in (*terms, "l_total"):
        value = getattr(breakdown, name)
        if not math.isfinite(value):
            raise NonFiniteLossError(f"non-finite loss {name}={value} in task "
                                     f"{batch.kind.value!r} at step {optim.step_count}")
    model.zero_grad()
    ad.backward(loss)
    grad_norm = adam_step(model, optim)
    return breakdown, grad_norm


def pretrain(dataset, model: DuVlgModel, steps: int, cfg: RunConfig,
             rng: np.random.Generator, optim: OptimState | None = None,
             log_fn=None, start_step: int = 0) -> list[StepRecord]:
    """Mixed-task pre-training: sample a task, corrupt a batch, descend.

    Fully deterministic given (dataset, model, rng state, optimizer state).
    """
    if not dataset:
        raise ValueError("empty dataset")
    if optim is None:
        optim = make_optimizer(cfg)
    records = []
    with ad.no_cyclic_gc():
        for i in range(steps):
            kind = sample_task(rng, cfg.p_dae, allow_image=cfg.use_image_loss,
                               allow_text=cfg.use_text_loss)
            idx = rng.integers(0, len(dataset), size=cfg.batch_size)
            batch = build_task_batch([dataset[int(j)] for j in idx], kind, rng, model, cfg)
            breakdown, grad_norm = _train_step(model, optim, batch, cfg, cfg.alpha)
            rec = StepRecord(step=start_step + i, task=kind, breakdown=breakdown,
                             grad_norm=grad_norm)
            records.append(rec)
            if log_fn is not None:
                log_fn(format_log_line(rec))
    return records


def finetune(dataset, model: DuVlgModel, task: TaskKind, epochs: int, cfg: RunConfig,
             rng: np.random.Generator, optim: OptimState | None = None,
             log_fn=None) -> list[StepRecord]:
    """Single-task training; MT_T2I keeps beta * commitment, captioning never
    touches image-target losses.  A fresh optimizer takes the task's lr."""
    if task not in _FINETUNE_LR_KEY:
        raise ValueError(f"finetune supports modality translation tasks, not {task}")
    if not dataset:
        raise ValueError("empty dataset")
    if optim is None:
        optim = make_optimizer(cfg, task)
    records = []
    step = 0
    with ad.no_cyclic_gc():
        for _ in range(epochs):
            order = rng.permutation(len(dataset))
            for lo in range(0, len(dataset), cfg.batch_size):
                chunk = [dataset[int(j)] for j in order[lo:lo + cfg.batch_size]]
                batch = build_task_batch(chunk, task, rng, model, cfg)
                # single-task objective: no cross-modality mixing weight
                breakdown, grad_norm = _train_step(model, optim, batch, cfg, alpha=1.0)
                rec = StepRecord(step=step, task=task, breakdown=breakdown, grad_norm=grad_norm)
                records.append(rec)
                if log_fn is not None:
                    log_fn(format_log_line(rec))
                step += 1
    return records


def evaluate_task_nll(dataset, model: DuVlgModel, kind: TaskKind, cfg: RunConfig,
                      seed: int = 0, batch_size: int = 16) -> float:
    """Deterministic held-out NLL for one task (fixed corruption seed),
    computed without building autograd graphs."""
    rng = np.random.default_rng(seed)
    total, n = 0.0, 0
    with ad.no_grad():
        for lo in range(0, len(dataset), batch_size):
            chunk = dataset[lo:lo + batch_size]
            batch = build_task_batch(chunk, kind, rng, model, cfg)
            weight = sum(len(t) - 1 for t in batch.targets)
            total += task_nll(batch, model).item() * weight
            n += weight
    return total / n
