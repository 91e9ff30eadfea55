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
                     format_config, load_config, to_decode_config, to_train_settings)
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
    p.add_argument("--lr", type=float, help="defaults to the task's standard lr")
    p.add_argument("--log")

    p = sub.add_parser("caption", help="caption one image file")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)

    p = sub.add_parser("imagine", help="generate images for a caption and rerank")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--caption", required=True)
    p.add_argument("--n", type=int, help="samples per caption (default from config)")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("eval", help="held-out NLLs, BLEU-4, exact match")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")

    p = sub.add_parser("gradcheck", help="finite-difference audit of every loss")
    common(p)
    return parser


def _apply_cli_flags(cfg: RunConfig, args) -> RunConfig:
    cfg = apply_overrides(cfg, args.set)
    if getattr(args, "no_image_loss", False):
        cfg = apply_overrides(cfg, ["use_image_loss=false"])
    if getattr(args, "no_text_loss", False):
        cfg = apply_overrides(cfg, ["use_text_loss=false"])
    if getattr(args, "no_commitment", False):
        cfg = apply_overrides(cfg, ["use_commitment=false"])
    return cfg


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return _apply_cli_flags(cfg, args)


def _print_config(cfg: RunConfig):
    print("# resolved run config")
    print(format_config(cfg))
    print("# end config")


def _load_dataset(path, cfg, model, vocab):
    return dat.load_dataset(path, model.codebook, cfg.grid_dims(), vocab)


def _cmd_gen_data(args, cfg: RunConfig) -> int:
    _print_config(cfg)
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


def _cmd_pretrain(args, cfg: RunConfig) -> int:
    if args.resume:
        loaded = load_checkpoint(args.resume)
        cfg = _apply_cli_flags(loaded.config, args)
        model, vocab = loaded.model, loaded.vocab
        optim, rng, start_step = loaded.optim, loaded.rng, loaded.step
        _print_config(cfg)
    else:
        _print_config(cfg)
        model, vocab = build_model(cfg)
        optim = op.make_optimizer(to_train_settings(cfg))
        rng = np.random.default_rng(cfg.seed)
        start_step = 0
    dataset = _load_dataset(args.data, cfg, model, vocab)
    log_fh, log_fn = _open_log(args.log)
    if log_fn is None:
        print(op.LOG_HEADER)
        log_fn = print
    try:
        op.pretrain(dataset, model, args.steps, to_train_settings(cfg), rng,
                    optim=optim, log_fn=log_fn, start_step=start_step)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(args.out, model, optim, rng, start_step + args.steps, cfg)
    print(f"saved checkpoint at step {start_step + args.steps}: {args.out}")
    return 0


def _cmd_finetune(args, cfg: RunConfig) -> int:
    loaded = load_checkpoint(args.ckpt)
    cfg = apply_overrides(loaded.config, args.set)
    _print_config(cfg)
    model, vocab = loaded.model, loaded.vocab
    task = TaskKind.MT_CAPTION if args.task == "caption" else TaskKind.MT_T2I
    settings = to_train_settings(cfg)
    lr = args.lr
    if lr is None:
        lr = cfg.caption_lr if task is TaskKind.MT_CAPTION else cfg.t2i_lr
    dataset = _load_dataset(args.data, cfg, model, vocab)
    rng = np.random.default_rng(cfg.seed)
    optim = op.make_optimizer(settings, lr=lr)
    log_fh, log_fn = _open_log(args.log)
    try:
        op.finetune(dataset, model, task, args.epochs, settings, rng,
                    lr=lr, optim=optim, log_fn=log_fn)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(args.out, model, optim, rng, loaded.step, cfg)
    print(f"saved fine-tuned checkpoint: {args.out}")
    return 0


def _cmd_caption(args, cfg: RunConfig) -> int:
    loaded = load_checkpoint(args.ckpt)
    cfg = apply_overrides(loaded.config, args.set)
    _print_config(cfg)
    image = load_image(args.image)
    tokens = dec.caption_image(loaded.model, image, to_decode_config(cfg, "beam", "text"))
    print(dat.decode_text(tokens, loaded.vocab))
    return 0


def _cmd_imagine(args, cfg: RunConfig) -> int:
    loaded = load_checkpoint(args.ckpt)
    cfg = apply_overrides(loaded.config, args.set)
    _print_config(cfg)
    model, vocab = loaded.model, loaded.vocab
    caption = dat.encode_text(args.caption, vocab)
    decode_cfg = to_decode_config(cfg, "nucleus", "image", n_samples=args.n)
    rng = np.random.default_rng(cfg.seed)
    images = dec.generate_image(model, caption, decode_cfg, rng, cfg.grid_dims())
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


def _cmd_eval(args, cfg: RunConfig) -> int:
    loaded = load_checkpoint(args.ckpt)
    cfg = apply_overrides(loaded.config, args.set)
    _print_config(cfg)
    model, vocab = loaded.model, loaded.vocab
    dataset = _load_dataset(args.data, cfg, model, vocab)
    train, val = dat.split_dataset(dataset, cfg.val_frac)
    subset = {"train": train, "val": val, "all": dataset}[args.split]
    if not subset:
        raise ConfigError(f"split {args.split!r} selected no examples")
    settings = to_train_settings(cfg)
    caption_nll = op.evaluate_task_nll(subset, model, TaskKind.MT_CAPTION, settings)
    image_nll = op.evaluate_task_nll(subset, model, TaskKind.MT_T2I, settings)
    decode_cfg = to_decode_config(cfg, "beam", "text")
    bleus, exact = [], 0
    for ex in subset:
        hyp = dec.caption_image(model, ex.image, decode_cfg)
        bleus.append(dat.bleu4(hyp, [ex.caption.tolist()]))
        exact += int(hyp.tolist() == ex.caption.tolist())
    print(f"examples\t{len(subset)}")
    print(f"caption_nll\t{caption_nll:.6f}")
    print(f"image_nll\t{image_nll:.6f}")
    print(f"bleu4\t{float(np.mean(bleus)):.6f}")
    print(f"exact_match\t{exact / len(subset):.6f}")
    return 0


def _cmd_gradcheck(args, cfg: RunConfig) -> int:
    _print_config(cfg)
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
        restores = args.command in ("finetune", "caption", "imagine", "eval") \
            or (args.command == "pretrain" and args.resume)
        if restores and args.config:
            raise ConfigError("this command restores the checkpoint's config; "
                              "use --set for adjustments, not --config")
        cfg = _resolve_config(args)
        # numpy's overflow warnings would precede the one-line error; the
        # finite checks on losses, gradients, parameters and scores report instead
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args, cfg)
    except (ConfigError, CheckpointError, ValueError, OSError, op.NonFiniteGradientError,
            op.NonFiniteLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
