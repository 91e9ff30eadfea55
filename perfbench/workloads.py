"""Set-up and the three closed-loop workloads: one client, one request at a
time, each request a call into duvlg's public API.

A workload does a fixed round of work (the same requests from the same
state), replayed until the run's time is up.  The first round always
completes.  Every complete round must produce the same outputs, so each one
is hashed and compared with the first; the round is also what the output
checks and the quality figure are computed from.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from duvlg import checkpoint, config, data, decoding, optim
from duvlg.codec import tokenize_image
from duvlg.model import SPECIALS, unified_to_visual
from hostref import Probe

DATASET_SIZE = 256
SETUP_REPEATS = 15


@dataclass
class Setup:
    cfg: config.RunConfig
    model: object
    optim: optim.OptimState
    vocab: data.TextVocab
    train: list
    val: list
    timings: dict  # component -> median seconds over the repeats
    setup_s: float


def set_up(seed: int, import_s: float, tmp_dir: str) -> Setup:
    """Build the model, generate the data and round-trip a checkpoint,
    SETUP_REPEATS times.  The model used afterwards is the reloaded one."""
    clock = time.perf_counter
    cfg = config.RunConfig(seed=seed)
    rows = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        model, vocab = config.build_model(cfg)
        t1 = clock()
        dataset = data.gen_dataset(DATASET_SIZE, seed, model.codebook, cfg.grid_dims(), vocab)
        t2 = clock()
        fd, path = tempfile.mkstemp(dir=tmp_dir, suffix=".ckpt")
        os.close(fd)
        try:
            checkpoint.save_checkpoint(path, model, optim.make_optimizer(config.to_train_settings(cfg)),
                                       np.random.default_rng(seed), 0, cfg)
            t3 = clock()
            loaded = checkpoint.load_checkpoint(path)
            t4 = clock()
        finally:
            os.remove(path)
        rows.append({"config.build_model_s": t1 - t0, "data.gen_dataset_s": t2 - t1,
                     "checkpoint.save_s": t3 - t2, "checkpoint.load_s": t4 - t3})
    reloaded = dict(loaded.model.named_parameters())
    for name, p in model.named_parameters():
        if not np.array_equal(p.values, reloaded[name].values):
            raise RuntimeError(f"checkpoint round trip changed parameter {name!r}")
    train, val = data.split_dataset(dataset, cfg.val_frac)
    return Setup(cfg=cfg, model=loaded.model, optim=loaded.optim, vocab=loaded.vocab,
                 train=train, val=val,
                 timings={k: statistics.median(r[k] for r in rows) for k in rows[0]},
                 setup_s=import_s + statistics.median(sum(r.values()) for r in rows))


# ---------------------------------------------------------------------------
# workloads


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class _Workload:
    name: str
    items: list
    kind_weights: dict  # request kind -> its share of the traffic

    def reset(self):
        """Return to the state the round starts from."""

    def close(self):
        """Undo what __init__ installed."""


class Pretrain(_Workload):
    """``optim.pretrain`` one step per request, at the default config."""

    name = "pretrain"
    round_steps = 32

    def __init__(self, s: Setup):
        self.s = s
        self.settings = config.to_train_settings(s.cfg)
        self.items = list(range(self.round_steps))
        self.snapshot = {n: p.values.copy() for n, p in s.model.named_parameters()}
        self.optim = s.optim  # resume from the checkpoint's Adam state
        # sample_task: the denoising family with probability p_dae, then a
        # fair coin for the direction
        p = self.settings.p_dae
        self.kind_weights = {"dae_image": p / 2, "dae_text": p / 2,
                             "mt_caption": (1 - p) / 2, "mt_t2i": (1 - p) / 2}

    def reset(self):
        for n, p in self.s.model.named_parameters():
            p.values[...] = self.snapshot[n]
            p.grad = None
        self.optim.step_count = 0
        for table in (self.optim.m, self.optim.v):
            for buf in table.values():
                buf[...] = 0.0
        self.rng = np.random.default_rng(self.s.cfg.seed)

    def op(self, step):
        (rec,) = optim.pretrain(self.s.train, self.s.model, 1, self.settings, self.rng,
                                optim=self.optim, start_step=step)
        return rec

    @staticmethod
    def kind(rec) -> str:
        return rec.task.value

    @staticmethod
    def check(step, rec) -> str | None:
        b = rec.breakdown
        if not _finite(b.l_total, b.l_text, b.l_image, b.l_com, rec.grad_norm):
            return f"step {step}: non-finite loss or gradient norm"
        return None

    @staticmethod
    def digest_line(rec) -> str:
        return optim.format_log_line(rec)

    def quality(self, records) -> float:
        """Mean l_total over the last 4 steps of each task kind, averaged
        over the kinds, so the seed's task mix does not move it."""
        by_kind = {}
        for _, rec in records:
            by_kind.setdefault(rec.task.value, []).append(rec.breakdown.l_total)
        return float(np.mean([np.mean(v[-4:]) for v in by_kind.values()]))


class Caption(_Workload):
    """Beam-5 ``decoding.caption_image`` on held-out images."""

    name = "caption"
    round_images = 16

    def __init__(self, s: Setup):
        self.s = s
        self.decode_cfg = config.to_decode_config(s.cfg, "beam", "text")
        self.items = s.val[:self.round_images]
        self.kind_weights = {"caption": 1.0}

    def op(self, ex):
        return decoding.caption_image(self.s.model, ex.image, self.decode_cfg)

    @staticmethod
    def kind(_tokens) -> str:
        return "caption"

    def check(self, _ex, tokens) -> str | None:
        try:
            data.decode_text(tokens, self.s.vocab)
        except ValueError as exc:
            return f"caption does not decode: {exc}"
        if len(tokens) > self.s.cfg.max_decode_len:
            return f"caption of {len(tokens)} tokens exceeds max_decode_len"
        return None

    @staticmethod
    def digest_line(tokens) -> str:
        return " ".join(map(str, tokens.tolist()))

    def quality(self, records) -> float:
        """Mean teacher-forced NLL of the produced captions."""
        return float(np.mean([decoding.caption_nll(self.s.model, ex.image, tokens)
                              for ex, tokens in records]))


class Imagine(_Workload):
    """``decoding.generate_image`` (16 nucleus samples of 64 visual tokens
    plus a forced [EOI]) followed by ``decoding.rerank`` of the samples."""

    name = "imagine"
    round_requests = 2

    def __init__(self, s: Setup):
        self.s = s
        self.decode_cfg = config.to_decode_config(s.cfg, "nucleus", "image")
        self.items = list(enumerate(ex.caption for ex in s.val[:self.round_requests]))
        self.kind_weights = {"imagine": 1.0}
        # generate_image returns only images; keep the token sequences it
        # decoded so the check can compare them with the images
        self._sampled = []
        self._original = decoding.generate_image_tokens

        def capture(*args, **kwargs):
            out = self._original(*args, **kwargs)
            self._sampled.append(out)
            return out

        decoding.generate_image_tokens = capture

    def close(self):
        decoding.generate_image_tokens = self._original

    def op(self, item):
        i, caption = item
        self._sampled.clear()
        rng = np.random.default_rng([self.s.cfg.seed, i])
        images = decoding.generate_image(self.s.model, caption, self.decode_cfg, rng,
                                         self.s.cfg.grid_dims())
        best, scores = decoding.rerank(self.s.model, caption, images)
        return self._sampled[-1], images, best, scores

    @staticmethod
    def kind(_out) -> str:
        return "imagine"

    def check(self, _item, out) -> str | None:
        sequences, images, best, scores = out
        mcfg = self.s.model.cfg
        n = mcfg.max_patches
        if len(sequences) != self.decode_cfg.n_samples or len(images) != len(sequences):
            return f"{len(sequences)} samples, {len(images)} images"
        for seq, img in zip(sequences, images):
            if len(seq) != n + 2 or seq[0] != SPECIALS.boi or seq[-1] != SPECIALS.eoi:
                return "sample is not [BOI] + visual tokens + [EOI]"
            visual = unified_to_visual(seq[1:-1], mcfg)
            if visual.min() < 0 or visual.max() >= mcfg.visual_vocab:
                return "sample holds a non-visual token"
            if not np.array_equal(tokenize_image(img, self.s.model.codebook), visual):
                return "decoded image does not re-tokenize to its tokens"
        if not _finite(*scores) or best != int(np.argmax(scores)):
            return f"rerank index {best} is not the argmax of finite scores"
        return None

    @staticmethod
    def digest_line(out) -> str:
        sequences, _, best, _ = out
        return ";".join(" ".join(map(str, s.tolist())) for s in sequences) + f"|{best}"

    @staticmethod
    def quality(records) -> float:
        """Mean caption NLL of the image the rerank chose."""
        return float(np.mean([-out[3][out[2]] for _, out in records]))


WORKLOADS = {w.name: w for w in (Pretrain, Caption, Imagine)}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Phase:
    samples: list = field(default_factory=list)  # (kind, seconds, reference seconds) per request
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # one per complete round
    quality: float = math.nan

    def times(self) -> list:
        """(kind, seconds) per request."""
        return [(kind, t) for kind, t, _ in self.samples]

    def costs(self) -> list:
        """(kind, request time / reference time) per request."""
        return [(kind, t / ref) for kind, t, ref in self.samples]


def run_phase(w, seconds: float, tracer=None) -> Phase:
    """Replay rounds of ``w`` for ``seconds`` (the first round completes).

    Untraced, a ``hostref.Probe`` runs the host reference throughout, and
    each request is paired with it; its runs are not counted in the
    request's time.  Traced, nothing is paired and the reference is NaN."""
    clock = time.perf_counter
    ph = Phase()
    timed = []  # (kind, t0, t1) per checked request
    probe = Probe() if tracer is None else None
    start = clock()
    with probe or contextlib.nullcontext():
        while not ph.digests or clock() - start < seconds:
            w.reset()
            records, lines = [], []
            for item in w.items:
                if ph.digests and clock() - start >= seconds:
                    break
                if tracer is not None:
                    tracer.begin_request()
                t0 = clock()
                try:
                    out, err = w.op(item), None
                except Exception:  # a failed request is counted, not fatal
                    out, err = None, traceback.format_exc()
                t1 = clock()
                if tracer is not None:
                    tracer.end_request()
                ph.attempted += 1
                if err is None:
                    err = w.check(item, out)
                if err is None:
                    timed.append((w.kind(out), t0, t1))
                    records.append((item, out))
                    lines.append(w.digest_line(out))
                else:
                    ph.failed += 1
                    ph.errors.append(err)
                    lines.append("FAILED")
            else:
                if not ph.digests and len(records) == len(w.items):
                    ph.quality = w.quality(records)
                ph.digests.append(hashlib.sha256("\n".join(lines).encode()).hexdigest())
    for kind, t0, t1 in timed:
        ph.samples.append((kind, *probe.pair(t0, t1)) if probe is not None
                          else (kind, t1 - t0, math.nan))
    return ph


def weighted_stats(samples, kind_weights: dict) -> dict:
    """Mean and quantiles of per-request values (times or costs, in the unit
    they come in), each kind weighted to its share in ``kind_weights``
    (renormalized over the kinds present)."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "mean": math.nan, "p50": math.nan, "tail_pct": None,
                "tail": None, "p90": None, "per_kind_median": {}}
    counts = {}
    for kind, _ in samples:
        counts[kind] = counts.get(kind, 0) + 1
    total = sum(kind_weights[k] for k in counts)
    ordered = sorted((v, kind_weights[k] / total / counts[k]) for k, v in samples)
    values = np.array([v for v, _ in ordered])
    weights = np.array([w for _, w in ordered])
    cum = np.cumsum(weights)

    def quantile(q):
        return float(values[min(np.searchsorted(cum, q - 1e-12), len(values) - 1)])

    tail_pct = math.floor(100 * (1 - 10 / n)) if n >= 20 else None
    return {"n": n, "mean": float(values @ weights),
            "p50": quantile(0.5), "tail_pct": tail_pct,
            "tail": quantile(tail_pct / 100) if tail_pct is not None else None,
            "p90": quantile(0.9) if tail_pct is not None and tail_pct >= 90 else None,
            "per_kind_median": {k: statistics.median(v for kk, v in samples if kk == k)
                                for k in sorted(counts)}}
