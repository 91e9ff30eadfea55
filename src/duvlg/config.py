"""Flat key=value run configuration and wiring helpers.

Defaults mirror the reference protocol wherever it pins a value: alpha 0.05,
beta 1, p_dae 0.6, clip 1.0, mask rates 0.5, span lambda 3, beam 5, top-k 50,
top-p 0.9, 16 samples per caption.  Unknown keys are rejected on load.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .codec import PatchFeaturizer, VisualCodebook
from .corruption import check_block_shape
from .data import TextVocab
from .model import DuVlgModel, ModelConfig, init_model, parameter_count


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    # model
    d_model: int = 64
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_text_len: int = 24
    # image codec
    image_size: int = 32
    patch_size: int = 4
    codebook_size: int = 64
    d_feat: int = 32
    d_code: int = 16
    # losses
    alpha: float = 0.05
    beta: float = 1.0
    p_dae: float = 0.6
    use_image_loss: bool = True
    use_text_loss: bool = True
    use_commitment: bool = True
    # corruption
    image_mask_rate: float = 0.5
    text_mask_rate: float = 0.5
    span_lambda: float = 3.0
    min_block: int = 4
    max_block: int = 16
    aspect_min: float = 0.3
    # optimizer
    lr: float = 3e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0
    batch_size: int = 16
    t2i_lr: float = 1e-4
    caption_lr: float = 3e-5
    # decoding
    beam_size: int = 5
    top_p: float = 0.9
    top_k: int = 50
    n_samples: int = 16
    max_decode_len: int = 24
    temperature: float = 1.0
    length_norm: float = 1.0
    # data
    val_frac: float = 0.1

    def __post_init__(self):
        """Range checks, so a bad value fails before anything is built."""
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for key in ("lr", "t2i_lr", "caption_lr", "adam_eps"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {value}")
        for key in ("p_dae", "image_mask_rate", "text_mask_rate", "val_frac"):
            value = getattr(self, key)
            if not 0 <= value <= 1:
                raise ConfigError(f"{key} must be in [0, 1], got {value}")
        for key in ("adam_beta1", "adam_beta2"):
            value = getattr(self, key)
            if not 0 <= value < 1:
                raise ConfigError(f"{key} must be in [0, 1), got {value}")
        if not 0 < self.top_p <= 1:
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if not self.clip_norm >= 0:
            raise ConfigError(f"clip_norm must be >= 0, got {self.clip_norm}")
        for key in ("alpha", "beta", "span_lambda"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if self.min_block < 1:
            raise ConfigError(f"min_block must be >= 1, got {self.min_block}")
        if self.max_block < self.min_block:
            raise ConfigError(f"max_block must be >= min_block ({self.min_block}), "
                              f"got {self.max_block}")
        if not 0 < self.aspect_min <= 1:
            raise ConfigError(f"aspect_min must be in (0, 1], got {self.aspect_min}")
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.image_size < 1 or self.image_size % self.patch_size:
            raise ConfigError(f"image_size must be a positive multiple of patch_size "
                              f"({self.patch_size}), got {self.image_size}")
        try:
            check_block_shape(*self.grid_dims(), self.min_block, self.max_block, self.aspect_min)
        except ValueError as exc:
            raise ConfigError(f"min_block and max_block: {exc}") from None
        for key in ("beam_size", "top_k", "n_samples", "max_decode_len"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if not math.isfinite(self.length_norm):
            raise ConfigError(f"length_norm must be finite, got {self.length_norm}")

    def grid_dims(self) -> tuple[int, int]:
        side = self.image_size // self.patch_size
        return side, side


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key].type
    try:
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {key} (expected {kind})") from None


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    """Apply 'key=value' strings; unknown keys are errors."""
    updates = {}
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _coerce(key, raw.strip())
    try:
        return dataclasses.replace(cfg, **updates) if updates else cfg
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            pairs.append(line)
    return apply_overrides(RunConfig(), pairs)


def format_config(cfg: RunConfig) -> str:
    items = dataclasses.asdict(cfg)
    return "\n".join(f"{k}={str(v).lower() if isinstance(v, bool) else v}"
                     for k, v in items.items())


def config_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


_TYPES = {"int": int, "float": (int, float), "bool": bool}


def config_from_dict(d: dict) -> RunConfig:
    """RunConfig from a stored dict (a checkpoint header); unknown keys and
    values of the wrong type are errors."""
    unknown = set(d) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for key, value in d.items():
        kind = _FIELDS[key].type
        if not isinstance(value, _TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f"bad value {value!r} for {key} (expected {kind})")
    return RunConfig(**d)


# ---------------------------------------------------------------------------
# wiring


def to_model_config(cfg: RunConfig, vocab: TextVocab) -> ModelConfig:
    rows, cols = cfg.grid_dims()
    try:
        return ModelConfig(
            d_model=cfg.d_model, n_layers_enc=cfg.n_layers_enc,
            n_layers_dec=cfg.n_layers_dec, n_heads=cfg.n_heads, d_ff=cfg.d_ff,
            text_vocab=vocab.size, visual_vocab=cfg.codebook_size,
            max_text_len=cfg.max_text_len, max_patches=rows * cols,
            d_feat=cfg.d_feat,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def to_train_settings(cfg: RunConfig) -> RunConfig:
    """``cfg`` itself: training reads the RunConfig directly.  Kept only
    because the benchmark's workloads (perfbench/workloads.py) still call it."""
    return cfg


def to_decode_config(cfg: RunConfig, strategy: str = "beam",
                     modality: str = "text") -> RunConfig:
    """``cfg`` itself: decoding reads the RunConfig directly and takes the
    strategy as an argument.  Kept only because the benchmark's workloads
    (perfbench/workloads.py) still call it."""
    return cfg


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where ``sysconf`` cannot say."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return page * pages if page > 0 and pages > 0 else None


def build_model(cfg: RunConfig) -> tuple[DuVlgModel, TextVocab]:
    """Model with frozen featurizer/codebook attached, plus the text vocab.
    A model whose float64 parameters alone exceed the host's physical memory
    is refused before anything is allocated: ``init_model`` allocates one
    layer at a time, and would otherwise run the host out of memory in small
    pieces instead of failing once."""
    vocab = TextVocab()
    model_cfg = to_model_config(cfg, vocab)
    need, have = 8 * parameter_count(model_cfg), _physical_memory()
    if have is not None and need > have:
        raise ConfigError(f"the model's parameters alone need {need / 2**30:.1f} GiB, more than "
                          f"the {have / 2**30:.1f} GiB of physical memory")
    featurizer = PatchFeaturizer(cfg.patch_size, cfg.d_feat)
    codebook = VisualCodebook.build(cfg.codebook_size, cfg.d_code, cfg.patch_size)
    model = init_model(model_cfg, cfg.seed, featurizer=featurizer, codebook=codebook)
    return model, vocab
