"""Command-line entry points.

Every run prints its fully-resolved configuration before doing work, so two
runs whose printed configs and seeds match produce identical artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as dat
from . import decoding as dec
from . import optim as op
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .codec import VisualCodebook, load_image, save_image
from .config import (ConfigError, RunConfig, apply_overrides, build_model,
                     format_config, load_config)
from .gradcheck import run_gradient_audit
from .objectives import TaskKind


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="duvlg",
                                     description="dual vision-and-language generation stack")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("gen-data", help="write a synthetic paired dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n", required=True, type=int)

    p = sub.add_parser("pretrain", help="mixed-task pre-training")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="continue from a checkpoint")
    p.add_argument("--log", help="write the per-step training log here")
    p.add_argument("--no-image-loss", action="store_true",
                   help="drop image-target tasks (inpainting, text-to-image)")
    p.add_argument("--no-text-loss", action="store_true",
                   help="drop text-target tasks (infilling, captioning)")
    p.add_argument("--no-commitment", action="store_true",
                   help="drop the commitment loss")

    p = sub.add_parser("finetune", help="single-task fine-tuning")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True, choices=("caption", "t2i"))
    p.add_argument("--epochs", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--log")

    p = sub.add_parser("caption", help="caption one image file")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)

    p = sub.add_parser("imagine", help="generate images for a caption and rerank")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--caption", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("eval", help="held-out NLLs, BLEU-4, exact match")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")

    p = sub.add_parser("gradcheck", help="finite-difference audit of every loss")
    common(p)
    return parser


# each ablation switch (argparse dest) and the config key it turns off
_ABLATIONS = (("no_image_loss", "use_image_loss"), ("no_text_loss", "use_text_loss"),
              ("no_commitment", "use_commitment"))

# keys that fix the shapes of a model's parameters or its codec; a restored
# checkpoint's values of them must stand
_SHAPE_KEYS = ("d_model", "n_layers_enc", "n_layers_dec", "n_heads", "d_ff", "max_text_len",
               "image_size", "patch_size", "codebook_size", "d_feat", "d_code")


def _load_dataset(path, cfg, model, vocab):
    return dat.load_dataset(path, model.codebook, cfg.grid_dims(), vocab, cfg.max_text_len)


def _cmd_gen_data(args, cfg: RunConfig, _loaded) -> int:
    cb = VisualCodebook.build(cfg.codebook_size, cfg.d_code, cfg.patch_size)
    vocab = dat.TextVocab()
    examples = dat.gen_dataset(args.n, cfg.seed, cb, cfg.grid_dims(), vocab)
    dat.save_dataset(examples, args.out, vocab)
    print(f"wrote {len(examples)} pairs to {args.out}")
    return 0


def _open_log(path):
    if path is None:
        return None, None
    fh = open(path, "w")
    fh.write(op.LOG_HEADER + "\n")
    return fh, lambda line: fh.write(line + "\n")


def _cmd_pretrain(args, cfg: RunConfig, loaded) -> int:
    if loaded:
        model, vocab, optim = loaded.model, loaded.vocab, loaded.optim
        rng, start_step = loaded.rng, loaded.step
    else:
        model, vocab = build_model(cfg)
        optim = op.OptimState()
        rng = np.random.default_rng(cfg.seed)
        start_step = 0
    dataset = _load_dataset(args.data, cfg, model, vocab)
    log_fh, log_fn = _open_log(args.log)
    if log_fn is None:
        print(op.LOG_HEADER)
        log_fn = print
    try:
        op.pretrain(dataset, model, args.steps, cfg, rng, optim=optim, log_fn=log_fn,
                    start_step=start_step)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(args.out, model, optim, rng, start_step + args.steps, cfg)
    print(f"saved checkpoint at step {start_step + args.steps}: {args.out}")
    return 0


def _cmd_finetune(args, cfg: RunConfig, loaded) -> int:
    model, vocab = loaded.model, loaded.vocab
    task = TaskKind.MT_CAPTION if args.task == "caption" else TaskKind.MT_T2I
    dataset = _load_dataset(args.data, cfg, model, vocab)
    rng = np.random.default_rng(cfg.seed)
    optim = op.OptimState()
    log_fh, log_fn = _open_log(args.log)
    try:
        op.finetune(dataset, model, task, args.epochs, cfg, rng, optim=optim, log_fn=log_fn)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(args.out, model, optim, rng, loaded.step, cfg)
    print(f"saved fine-tuned checkpoint: {args.out}")
    return 0


def _cmd_caption(args, cfg: RunConfig, loaded) -> int:
    image = load_image(args.image)
    if (image.height, image.width) != (cfg.image_size, cfg.image_size):
        raise ValueError(f"{args.image}: image is {image.height}x{image.width}, the model reads "
                         f"{cfg.image_size}x{cfg.image_size}")
    tokens = dec.caption_image(loaded.model, image, cfg)
    print(dat.decode_text(tokens, loaded.vocab))
    return 0


def _cmd_imagine(args, cfg: RunConfig, loaded) -> int:
    model, vocab = loaded.model, loaded.vocab
    caption = dat.encode_text(args.caption, vocab)
    if not caption.size:
        raise ConfigError("--caption has no words")
    if caption.size > cfg.max_text_len:
        raise ConfigError(f"--caption has {caption.size} words; the model reads at most "
                          f"max_text_len {cfg.max_text_len}")
    rng = np.random.default_rng(cfg.seed)
    images = dec.generate_image(model, caption, cfg, rng, cfg.grid_dims())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(images):
        path = out_dir / f"sample_{i:02d}.duvlg"
        save_image(img, path)
        paths.append(path)
    best, _scores = dec.rerank(model, caption, images)
    print(f"wrote {len(images)} samples to {out_dir}")
    print(f"rerank choice: {best} ({paths[best]})")
    return 0


def _cmd_eval(args, cfg: RunConfig, loaded) -> int:
    model, vocab = loaded.model, loaded.vocab
    dec.check_text_len(model, cfg)
    dataset = _load_dataset(args.data, cfg, model, vocab)
    train, val = dat.split_dataset(dataset, cfg.val_frac)
    subset = {"train": train, "val": val, "all": dataset}[args.split]
    if not subset:
        raise ConfigError(f"split {args.split!r} selected no examples")
    caption_nll = op.evaluate_task_nll(subset, model, TaskKind.MT_CAPTION, cfg)
    image_nll = op.evaluate_task_nll(subset, model, TaskKind.MT_T2I, cfg)
    bleus, exact = [], 0
    for ex in subset:
        hyp = dec.caption_image(model, ex.image, cfg)
        bleus.append(dat.bleu4(hyp, [ex.caption.tolist()]))
        exact += int(hyp.tolist() == ex.caption.tolist())
    print(f"examples\t{len(subset)}")
    print(f"caption_nll\t{caption_nll:.6f}")
    print(f"image_nll\t{image_nll:.6f}")
    print(f"bleu4\t{float(np.mean(bleus)):.6f}")
    print(f"exact_match\t{exact / len(subset):.6f}")
    return 0


def _cmd_gradcheck(_args, cfg: RunConfig, _loaded) -> int:
    audits = run_gradient_audit(beta=cfg.beta)
    ok = True
    for a in audits:
        status = "PASS" if a.passed else "FAIL"
        print(f"{status}\t{a.loss_name}\tmax_rel_error={a.max_rel_error:.3e}"
              f"\tworst={a.worst_param}")
        ok &= a.passed
    return 0 if ok else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "caption": _cmd_caption,
    "imagine": _cmd_imagine,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        for flag in ("steps", "epochs"):
            if getattr(args, flag, 0) < 0:
                raise ConfigError(f"--{flag} must be >= 0, got {getattr(args, flag)}")
        source = getattr(args, "ckpt", None) or getattr(args, "resume", None)
        if source and args.config:
            raise ConfigError("this command restores the checkpoint's config; "
                              "use --set for adjustments, not --config")
        # numpy's overflow warnings would precede the one-line error; the
        # finite checks on losses, gradients, parameters and scores report instead
        with np.errstate(all="ignore"):
            loaded = load_checkpoint(source) if source else None
            if loaded:
                cfg = loaded.config
            else:
                cfg = load_config(args.config) if args.config else RunConfig()
            cfg = apply_overrides(cfg, args.set + [f"{key}=false" for flag, key in _ABLATIONS
                                                   if getattr(args, flag, False)])
            if loaded:
                old = loaded.config
                changed = [f"{key} {getattr(old, key)} -> {getattr(cfg, key)}"
                           for key in _SHAPE_KEYS if getattr(cfg, key) != getattr(old, key)]
                if changed:
                    raise ConfigError(f"--set cannot change the shapes of a restored model: "
                                      f"{', '.join(changed)}")
            print(f"# resolved run config\n{format_config(cfg)}\n# end config")
            return _COMMANDS[args.command](args, cfg, loaded)
    except (ConfigError, CheckpointError, ValueError, OSError, op.NonFiniteGradientError,
            op.NonFiniteLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size and shape it asked for
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
